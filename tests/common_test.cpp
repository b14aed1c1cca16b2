// Unit tests for the common substrate: ids, tags, values, codec, rng.
#include <gtest/gtest.h>

#include <algorithm>
#include <cstring>
#include <iterator>
#include <span>
#include <vector>

#include "common/codec.h"
#include "common/error.h"
#include "common/ids.h"
#include "common/rng.h"
#include "common/time.h"
#include "common/timestamp.h"
#include "common/value.h"

namespace remus {
namespace {

TEST(Ids, ProcessValidity) {
  EXPECT_FALSE(no_process.valid());
  EXPECT_TRUE(process_id{0}.valid());
  EXPECT_TRUE(process_id{7}.valid());
  EXPECT_EQ(process_id{3}, process_id{3});
  EXPECT_NE(process_id{3}, process_id{4});
}

TEST(Tag, InitialOrdersFirst) {
  EXPECT_TRUE(initial_tag.initial());
  const tag t{1, 0, process_id{0}};
  EXPECT_LT(initial_tag, t);
  EXPECT_FALSE(t.initial());
}

TEST(Tag, LexicographicBySequenceNumber) {
  const tag a{1, 0, process_id{9}};
  const tag b{2, 0, process_id{0}};
  EXPECT_LT(a, b);  // sn dominates pid
}

TEST(Tag, TieBreakByRecoveryCounterThenWriter) {
  const tag a{5, 0, process_id{1}};
  const tag b{5, 1, process_id{0}};
  EXPECT_LT(a, b);  // rec dominates writer
  const tag c{5, 1, process_id{2}};
  EXPECT_LT(b, c);  // writer id breaks the final tie
}

TEST(Tag, WriterRankOrdersInitialBeforeProcessZero) {
  // Same (sn, rec): the initial tag (invalid writer) must order first,
  // otherwise the first write by p0 could not replace the initial value.
  const tag init{0, 0, no_process};
  const tag p0{0, 0, process_id{0}};
  EXPECT_LT(init, p0);
}

TEST(Tag, EqualityIsStructural) {
  const tag a{3, 1, process_id{2}};
  const tag b{3, 1, process_id{2}};
  EXPECT_EQ(a, b);
  EXPECT_EQ(to_string(a), to_string(b));
}

TEST(Tag, ToStringShowsRecOnlyWhenNonzero) {
  EXPECT_EQ(to_string(tag{4, 0, process_id{1}}), "[4,p1]");
  EXPECT_EQ(to_string(tag{4, 2, process_id{1}}), "[4r2,p1]");
}

TEST(Value, InitialIsEmpty) {
  EXPECT_TRUE(initial_value().is_initial());
  EXPECT_FALSE(value_of_u32(0).is_initial());
}

TEST(Value, U32RoundTrip) {
  const value v = value_of_u32(0xdeadbeef);
  EXPECT_EQ(v.size(), 4u);
  ASSERT_TRUE(value_as_u32(v).has_value());
  EXPECT_EQ(*value_as_u32(v), 0xdeadbeefu);
  EXPECT_FALSE(value_as_u64(v).has_value());
}

TEST(Value, U64RoundTrip) {
  const value v = value_of_u64(0x0123456789abcdefULL);
  ASSERT_TRUE(value_as_u64(v).has_value());
  EXPECT_EQ(*value_as_u64(v), 0x0123456789abcdefULL);
}

TEST(Value, StringRoundTrip) {
  const value v = value_of_string("hello shared memory");
  EXPECT_EQ(value_as_string(v), "hello shared memory");
}

TEST(Value, SizedPayloadIsDeterministic) {
  const value a = value_of_size(1000, 7);
  const value b = value_of_size(1000, 7);
  const value c = value_of_size(1000, 8);
  EXPECT_EQ(a, b);
  EXPECT_NE(a, c);
  EXPECT_EQ(a.size(), 1000u);
}

// value::data against std::vector<uint8_t>: seeded random edit sequences
// whose sizes straddle the inline edge, compared after every step. Only the
// container's public API is used, so the test also runs on a plain vector.
using ref_bytes = std::vector<std::uint8_t>;
using value_bytes = decltype(value::data);

constexpr std::size_t kEdgeSizes[] = {0, 1, 15, 16, 17, 64, 64 * 1024};

void expect_same(const value_bytes& got, const ref_bytes& want, std::uint64_t step) {
  ASSERT_EQ(got.size(), want.size()) << "step " << step;
  ASSERT_EQ(got.empty(), want.empty()) << "step " << step;
  ASSERT_TRUE(std::equal(got.begin(), got.end(), want.begin(), want.end())) << "step " << step;
  if (!want.empty()) {
    ASSERT_EQ(std::memcmp(got.data(), want.data(), want.size()), 0) << "step " << step;
    ASSERT_EQ(got[0], want[0]) << "step " << step;
    ASSERT_EQ(got[want.size() - 1], want.back()) << "step " << step;
  }
  const std::span<const std::uint8_t> view = got;
  ASSERT_EQ(view.size(), want.size()) << "step " << step;
}

std::size_t pick_size(rng& r) {
  const std::size_t base = kEdgeSizes[r.next_below(std::size(kEdgeSizes))];
  // Mostly the edge sizes themselves; sometimes one step either side.
  switch (r.next_below(4)) {
    case 0: return base + 1;
    case 1: return base == 0 ? 0 : base - 1;
    default: return base;
  }
}

ref_bytes random_bytes(rng& r, std::size_t n) {
  ref_bytes b(n);
  for (auto& x : b) x = static_cast<std::uint8_t>(r.next_u64());
  return b;
}

TEST(ValueBytes, RandomEditsMatchVector) {
  constexpr std::size_t kSlots = 4;
  for (const std::uint64_t seed : {1ULL, 2ULL, 3ULL}) {
    rng r(seed);
    std::vector<value_bytes> got(kSlots);
    std::vector<ref_bytes> want(kSlots);
    for (std::uint64_t step = 0; step < 4000; ++step) {
      const std::size_t i = r.next_below(kSlots);
      const std::size_t j = r.next_below(kSlots);
      switch (r.next_below(11)) {
        case 0: {
          const std::size_t n = pick_size(r);
          got[i].resize(n);
          want[i].resize(n);
          break;
        }
        case 1: {
          const std::size_t n = pick_size(r);
          const auto fill = static_cast<std::uint8_t>(r.next_u64());
          got[i].resize(n, fill);
          want[i].resize(n, fill);
          break;
        }
        case 2: {
          const ref_bytes src = random_bytes(r, pick_size(r));
          got[i].assign(src.begin(), src.end());
          want[i].assign(src.begin(), src.end());
          break;
        }
        case 3: {
          const auto x = static_cast<std::uint8_t>(r.next_u64());
          const std::size_t reps = 1 + r.next_below(3);
          for (std::size_t k = 0; k < reps; ++k) {
            got[i].push_back(x);
            want[i].push_back(x);
          }
          break;
        }
        case 4: {
          const std::size_t cap = got[i].capacity();
          got[i].clear();
          want[i].clear();
          ASSERT_EQ(got[i].capacity(), cap) << "clear() must keep the buffer, step " << step;
          break;
        }
        case 5: {
          got[i] = got[j];  // copy-assign (i == j is a self-assignment)
          want[i] = want[j];
          break;
        }
        case 6: {
          value_bytes copy(got[j]);
          ref_bytes ref_copy(want[j]);
          expect_same(copy, ref_copy, step);
          got[i] = std::move(copy);
          want[i] = std::move(ref_copy);
          ASSERT_TRUE(copy.empty()) << "moved-from source must be empty, step " << step;
          break;
        }
        case 7: {
          if (i == j) break;  // self-move leaves a valid but unspecified state
          got[i] = std::move(got[j]);
          want[i] = std::move(want[j]);
          ASSERT_TRUE(got[j].empty()) << "step " << step;
          want[j].clear();
          break;
        }
        case 8: {
          value_bytes moved(std::move(got[i]));
          ref_bytes ref_moved(std::move(want[i]));
          ASSERT_TRUE(got[i].empty()) << "step " << step;
          want[i].clear();
          got[j] = moved;
          want[j] = ref_moved;
          break;
        }
        case 9: {
          const std::size_t n = pick_size(r);
          got[i].reserve(n);
          want[i].reserve(n);
          ASSERT_GE(got[i].capacity(), n) << "step " << step;
          break;
        }
        default: {
          if (want[i].empty()) break;
          const std::size_t k = r.next_below(want[i].size());
          const auto x = static_cast<std::uint8_t>(r.next_u64());
          got[i][k] = x;
          want[i][k] = x;
          *(got[i].begin() + static_cast<std::ptrdiff_t>(k)) ^= 0x5a;
          want[i][k] ^= 0x5a;
          break;
        }
      }
      for (std::size_t s = 0; s < kSlots; ++s) {
        ASSERT_NO_FATAL_FAILURE(expect_same(got[s], want[s], step)) << "seed " << seed;
      }
    }
  }
}

TEST(ValueBytes, ComparisonsMatchVector) {
  rng r(11);
  for (int trial = 0; trial < 20000; ++trial) {
    // A two-letter alphabet and sizes around the inline edge make equal
    // values, shared prefixes and prefix-of relations common.
    ref_bytes a(r.next_below(20));
    ref_bytes b = r.chance(0.3) ? a : ref_bytes(r.next_below(20));
    for (auto& x : a) x = static_cast<std::uint8_t>(r.next_below(2));
    if (r.chance(0.5)) {
      for (auto& x : b) x = static_cast<std::uint8_t>(r.next_below(2));
    } else if (!b.empty() && r.chance(0.5)) {
      b = a;
      b.resize(r.next_below(b.size() + 1));
    }
    value va;
    value vb;
    va.data.assign(a.begin(), a.end());
    vb.data.assign(b.begin(), b.end());
    ASSERT_EQ(va.data == vb.data, a == b) << "trial " << trial;
    ASSERT_EQ(va == vb, a == b) << "trial " << trial;
    ASSERT_EQ(va.data < vb.data, a < b) << "trial " << trial;
    ASSERT_EQ(vb.data < va.data, b < a) << "trial " << trial;
  }
}

TEST(ValueBytes, CodecRoundTripsEverySize) {
  std::vector<std::size_t> sizes;
  for (std::size_t n = 0; n <= 40; ++n) sizes.push_back(n);
  sizes.push_back(64 * 1024);
  for (const std::size_t n : sizes) {
    const value v = value_of_size(n, static_cast<std::uint8_t>(n));
    byte_writer w;
    w.put_value(v);
    w.put_u8(0x7e);  // a trailer: get_value must consume exactly its bytes
    byte_reader r(w.buffer());
    const value back = r.get_value();
    EXPECT_EQ(back, v) << "size " << n;
    EXPECT_EQ(back.size(), n);
    EXPECT_EQ(r.get_u8(), 0x7e) << "size " << n;
    EXPECT_TRUE(r.done()) << "size " << n;
  }
}

TEST(ValueBytes, MovedFromValueIsInitial) {
  for (const std::size_t n : kEdgeSizes) {
    value a = value_of_size(n);
    const value copy = a;
    const value b = std::move(a);
    EXPECT_TRUE(a.is_initial()) << "size " << n;  // the moved-from state is part of the contract
    EXPECT_EQ(b, copy) << "size " << n;

    value c = value_of_size(n, 3);
    value d = value_of_size(n + 1, 4);
    d = std::move(c);
    EXPECT_TRUE(c.is_initial()) << "size " << n;
    EXPECT_EQ(d, value_of_size(n, 3)) << "size " << n;
  }
}

#ifdef _GLIBCXX_ASSERTIONS
// Builds with checked standard-library indexing check value bytes too.
TEST(ValueBytesDeathTest, IndexPastSizeAborts) {
  const value v = value_of_u32(7);
  EXPECT_DEATH((void)v.data[4], "out of range");
  const value big = value_of_size(40);
  EXPECT_DEATH((void)big.data[40], "out of range");
}
#endif

TEST(Codec, PrimitivesRoundTrip) {
  byte_writer w;
  w.put_u8(7);
  w.put_u32(0xcafebabe);
  w.put_u64(0x1122334455667788ULL);
  w.put_i64(-42);
  w.put_string("abc");
  w.put_process(process_id{5});
  w.put_tag(tag{9, 2, process_id{1}});
  w.put_value(value_of_u32(3));

  byte_reader r(w.buffer());
  EXPECT_EQ(r.get_u8(), 7);
  EXPECT_EQ(r.get_u32(), 0xcafebabeu);
  EXPECT_EQ(r.get_u64(), 0x1122334455667788ULL);
  EXPECT_EQ(r.get_i64(), -42);
  EXPECT_EQ(r.get_string(), "abc");
  EXPECT_EQ(r.get_process(), process_id{5});
  EXPECT_EQ(r.get_tag(), (tag{9, 2, process_id{1}}));
  EXPECT_EQ(r.get_value(), value_of_u32(3));
  EXPECT_TRUE(r.done());
  EXPECT_NO_THROW(r.expect_done());
}

TEST(Codec, TruncationThrows) {
  byte_writer w;
  w.put_u32(1);
  byte_reader r(w.buffer());
  (void)r.get_u32();
  EXPECT_THROW((void)r.get_u32(), codec_error);
}

TEST(Codec, TrailingBytesDetected) {
  byte_writer w;
  w.put_u32(1);
  w.put_u32(2);
  byte_reader r(w.buffer());
  (void)r.get_u32();
  EXPECT_THROW(r.expect_done(), codec_error);
}

TEST(Codec, BadLengthPrefixThrows) {
  byte_writer w;
  w.put_u32(1000);  // claims 1000 bytes follow; none do
  byte_reader r(w.buffer());
  EXPECT_THROW((void)r.get_value(), codec_error);
}

TEST(Rng, Deterministic) {
  rng a(42), b(42);
  for (int i = 0; i < 100; ++i) EXPECT_EQ(a.next_u64(), b.next_u64());
}

TEST(Rng, BoundsRespected) {
  rng r(7);
  for (int i = 0; i < 1000; ++i) {
    EXPECT_LT(r.next_below(17), 17u);
    const auto x = r.next_in(-5, 5);
    EXPECT_GE(x, -5);
    EXPECT_LE(x, 5);
    const double u = r.next_unit();
    EXPECT_GE(u, 0.0);
    EXPECT_LT(u, 1.0);
  }
}

TEST(Rng, ChanceExtremes) {
  rng r(9);
  for (int i = 0; i < 50; ++i) {
    EXPECT_FALSE(r.chance(0.0));
    EXPECT_TRUE(r.chance(1.0));
  }
}

TEST(Rng, ChanceRoughlyCalibrated) {
  rng r(11);
  int hits = 0;
  const int trials = 20000;
  for (int i = 0; i < trials; ++i) hits += r.chance(0.3) ? 1 : 0;
  EXPECT_NEAR(static_cast<double>(hits) / trials, 0.3, 0.02);
}

TEST(Rng, ForkDiverges) {
  rng a(5);
  rng b = a.fork();
  int same = 0;
  for (int i = 0; i < 100; ++i) same += (a.next_u64() == b.next_u64()) ? 1 : 0;
  EXPECT_LT(same, 3);
}

TEST(Time, LiteralsConvert) {
  EXPECT_EQ(5_us, 5000);
  EXPECT_EQ(2_ms, 2'000'000);
  EXPECT_EQ(1_s, 1'000'000'000);
  EXPECT_DOUBLE_EQ(to_us(1500), 1.5);
  EXPECT_DOUBLE_EQ(to_ms(2'500'000), 2.5);
}

}  // namespace
}  // namespace remus
