// Unit tests for the common substrate: ids, tags, values, codec, rng.
#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <cstring>
#include <iterator>
#include <latch>
#include <memory>
#include <span>
#include <thread>
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

// Copies must behave as independent byte strings whatever their
// representation: a mutation of one side never shows through the other.
value_bytes bytes_of(const ref_bytes& b) {
  value_bytes v;
  v.assign(b.begin(), b.end());
  return v;
}

bool same(const value_bytes& got, const ref_bytes& want) {
  return std::equal(got.begin(), got.end(), want.begin(), want.end());
}

struct mutator {
  const char* name;
  void (*apply)(value_bytes&, ref_bytes&);
};

const mutator kMutators[] = {
    {"resize-grow", [](value_bytes& v, ref_bytes& r) { v.resize(v.size() + 3); r.resize(r.size() + 3); }},
    {"resize-shrink-regrow",
     [](value_bytes& v, ref_bytes& r) {
       const std::size_t n = v.size();
       v.resize(n / 2);
       r.resize(n / 2);
       v.resize(n, 0x11);
       r.resize(n, 0x11);
     }},
    {"resize-fill", [](value_bytes& v, ref_bytes& r) { v.resize(v.size() + 40, 0xab); r.resize(r.size() + 40, 0xab); }},
    {"push_back", [](value_bytes& v, ref_bytes& r) { v.push_back(0x42); r.push_back(0x42); }},
    {"assign-fill", [](value_bytes& v, ref_bytes& r) { v.assign(v.size(), 0x33); r.assign(r.size(), 0x33); }},
    {"assign-range",
     [](value_bytes& v, ref_bytes& r) {
       ref_bytes src(v.size() + 1);
       for (std::size_t i = 0; i < src.size(); ++i) src[i] = static_cast<std::uint8_t>(i * 7 + 1);
       v.assign(src.begin(), src.end());
       r.assign(src.begin(), src.end());
     }},
    {"clear", [](value_bytes& v, ref_bytes& r) { v.clear(); r.clear(); }},
    {"reserve", [](value_bytes& v, ref_bytes& r) { v.reserve(2 * v.size() + 64); r.reserve(2 * r.size() + 64); }},
    {"index",
     [](value_bytes& v, ref_bytes& r) {
       if (r.empty()) return;
       v[r.size() - 1] ^= 0xff;
       r[r.size() - 1] ^= 0xff;
     }},
    {"begin",
     [](value_bytes& v, ref_bytes& r) {
       if (r.empty()) return;
       *v.begin() ^= 0x0f;
       r[0] ^= 0x0f;
     }},
    {"end",
     [](value_bytes& v, ref_bytes& r) {
       if (r.empty()) return;
       *(v.end() - 1) ^= 0xf0;
       r.back() ^= 0xf0;
     }},
    {"data",
     [](value_bytes& v, ref_bytes& r) {
       if (r.empty()) return;
       v.data()[r.size() / 2] ^= 0x3c;
       r[r.size() / 2] ^= 0x3c;
     }},
    {"copy-assign",
     [](value_bytes& v, ref_bytes& r) {
       const value_bytes other = value_of_size(r.size() + 5, 9).data;
       v = other;
       r.assign(other.begin(), other.end());
     }},
    {"move-assign",
     [](value_bytes& v, ref_bytes& r) {
       value_bytes other = value_of_size(r.size() / 2, 8).data;
       r.assign(other.begin(), other.end());
       v = std::move(other);
     }},
};

TEST(ValueBytes, CopiesAreIndependentUnderEveryMutator) {
  for (const std::size_t n : kEdgeSizes) {
    const value_bytes original_bytes = value_of_size(n, 5).data;
    const ref_bytes original(original_bytes.begin(), original_bytes.end());
    for (const mutator& m : kMutators) {
      for (const bool mutate_copy : {false, true}) {
        for (const bool by_assignment : {false, true}) {
          value_bytes a = bytes_of(original);
          value_bytes b;
          if (by_assignment) {
            b = a;
          } else {
            b = value_bytes(a);
          }
          value_bytes& target = mutate_copy ? b : a;
          const value_bytes& other = mutate_copy ? a : b;
          ref_bytes want = original;
          m.apply(target, want);
          const std::string where = std::string(m.name) + " size " + std::to_string(n) +
                                    (mutate_copy ? " on the copy" : " on the original") +
                                    (by_assignment ? " (copy-assigned)" : " (copy-constructed)");
          EXPECT_TRUE(same(target, want)) << where;
          EXPECT_TRUE(same(other, original)) << where;
          // A second round: mutating the other side afterwards leaves the first alone.
          value_bytes& second = mutate_copy ? a : b;
          ref_bytes want_second = original;
          m.apply(second, want_second);
          EXPECT_TRUE(same(second, want_second)) << where;
          EXPECT_TRUE(same(target, want)) << where;
        }
      }
    }
  }
}

TEST(ValueBytes, PointerTakenBeforeCopyNeverWritesIntoCopy) {
  for (const std::size_t n : kEdgeSizes) {
    if (n == 0) continue;
    const ref_bytes original = [&] {
      const value_bytes v = value_of_size(n, 6).data;
      return ref_bytes(v.begin(), v.end());
    }();
    const std::string where = "size " + std::to_string(n);

    // Pointer, reference and iterator taken from a value held by one owner.
    {
      value_bytes a = bytes_of(original);
      std::uint8_t* p = a.data();
      std::uint8_t& last = a[n - 1];
      auto it = a.begin();
      const value_bytes b(a);
      value_bytes c;
      c = a;
      ref_bytes want = original;
      p[n / 2] ^= 0x01;
      want[n / 2] ^= 0x01;
      last ^= 0x02;
      want[n - 1] ^= 0x02;
      *it ^= 0x04;
      want[0] ^= 0x04;
      EXPECT_TRUE(same(a, want)) << where;
      EXPECT_TRUE(same(b, original)) << where;
      EXPECT_TRUE(same(c, original)) << where;
    }

    // The same from a value that was already shared when the pointer was taken.
    {
      value_bytes a = bytes_of(original);
      const value_bytes before(a);
      std::uint8_t* p = a.data();
      const value_bytes after(a);
      p[0] ^= 0x80;
      ref_bytes want = original;
      want[0] ^= 0x80;
      EXPECT_TRUE(same(a, want)) << where;
      EXPECT_TRUE(same(before, original)) << where;
      EXPECT_TRUE(same(after, original)) << where;
    }

    // A pointer stays valid across a push_back that fits the capacity, so a
    // copy made after that push_back must not see a later write through it.
    {
      value_bytes a = bytes_of(original);
      a.reserve(n + 1);
      std::uint8_t& first = a[0];
      const value_bytes b(a);
      a.push_back(0x99);
      const value_bytes c(a);
      first ^= 0x10;
      ref_bytes want = original;
      want.push_back(0x99);
      ref_bytes want_c = want;
      want[0] ^= 0x10;
      EXPECT_TRUE(same(a, want)) << where;
      EXPECT_TRUE(same(b, original)) << where;
      EXPECT_TRUE(same(c, want_c)) << where;
    }
  }
}

TEST(ValueBytes, ClearOnSharedBytesThenWrite) {
  for (const std::size_t n : kEdgeSizes) {
    const ref_bytes original = [&] {
      const value_bytes v = value_of_size(n, 7).data;
      return ref_bytes(v.begin(), v.end());
    }();
    const std::string where = "size " + std::to_string(n);
    for (const bool clear_copy : {false, true}) {
      value_bytes a = bytes_of(original);
      value_bytes b(a);
      value_bytes& cleared = clear_copy ? b : a;
      const value_bytes& kept = clear_copy ? a : b;
      const std::size_t cap = cleared.capacity();
      cleared.clear();
      EXPECT_EQ(cleared.capacity(), cap) << where;
      EXPECT_TRUE(cleared.empty()) << where;
      EXPECT_TRUE(same(kept, original)) << where;

      cleared.push_back(0x5e);
      EXPECT_TRUE(same(cleared, ref_bytes{0x5e})) << where;
      cleared.resize(n + 2, 0x21);
      cleared[0] = 0x01;
      ref_bytes want(n + 2, 0x21);
      want[0] = 0x01;
      EXPECT_TRUE(same(cleared, want)) << where;
      EXPECT_TRUE(same(kept, original)) << where;

      // clear() and a write through data() after re-filling.
      cleared.clear();
      cleared.resize(n);
      if (n > 0) cleared.data()[n - 1] = 0x77;
      ref_bytes want2(n, 0);
      if (n > 0) want2[n - 1] = 0x77;
      EXPECT_TRUE(same(cleared, want2)) << where;
      EXPECT_TRUE(same(kept, original)) << where;
    }
  }
}

TEST(ValueBytes, ThreadsCopyAndDestroyCopiesOfOneSharedValue) {
  constexpr int kThreads = 4;
  for (const std::size_t n : {std::size_t{17}, std::size_t{64}, std::size_t{64 * 1024}}) {
    auto original = std::make_unique<const value>(value_of_size(n, 3));
    const ref_bytes want(original->data.begin(), original->data.end());
    std::atomic<int> mismatches{0};
    std::latch start(kThreads);
    std::latch copied(kThreads);
    std::vector<std::thread> threads;
    for (int t = 0; t < kThreads; ++t) {
      threads.emplace_back([&, t] {
        // All threads copy the one object at once, then keep only their own
        // copies, so the last reference may be dropped on any thread.
        start.arrive_and_wait();
        const value mine = *original;
        copied.count_down();
        std::vector<value> copies;
        for (int i = 0; i < 2000; ++i) {
          copies.push_back(mine);
          value assigned;
          assigned = copies.back();
          if (!(assigned == mine) || !same(assigned.data, want)) mismatches.fetch_add(1);
          if (i % 7 == t) copies.back().data.push_back(0x01);  // one copy goes private
          if (copies.size() > 16) copies.erase(copies.begin(), copies.begin() + 9);
        }
        for (const value& c : copies) {
          if (c.size() != n + 1 && !same(c.data, want)) mismatches.fetch_add(1);
        }
      });
    }
    copied.wait();
    original.reset();
    for (auto& th : threads) th.join();
    EXPECT_EQ(mismatches.load(), 0) << "size " << n;
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
