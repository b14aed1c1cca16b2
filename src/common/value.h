// Register payloads.
//
// The paper's experiments write 4-byte integers (Fig. 6 top) and payloads up
// to the 64 KB UDP limit (Fig. 6 bottom). A value is an opaque byte string;
// helpers build values from integers/strings for tests and examples. The
// empty value stands for the initial ⊥.
//
// Values are copied everywhere: by the workload generator, by a replica that
// adopts a write, into op results, into every history event and into every
// checker projection. Their bytes live in a small_bytes, which keeps up to 16
// bytes inline and spills to the heap beyond that, so the integer payloads
// the experiments and the fuzzer write (4 and 8 bytes) never allocate.
//  * Footprint: a 16-byte union (the inline bytes, or the heap pointer) plus
//    a u32 size and a u32 capacity make 24 bytes, the size of a std::vector.
//    A value therefore costs no more in a message, a history event or a
//    quorum_core replica slot (four values) than it did as a vector.
//  * Why 16: it is the most that fits in those 24 bytes, and it covers the
//    u32/u64 values and short strings. A larger inline buffer would grow
//    every message, event and slot; larger payloads (sim_kv's 64 bytes, Fig. 6
//    bottom) take the heap path as before.
//  * The heap path keeps std::vector's semantics: a copy allocates exactly
//    the source's size, clear() keeps the capacity (quorum_core reuses
//    cleared buffers), and a move steals the buffer and leaves the source
//    empty, i.e. ⊥.
// Wire frames and WAL records stay plain `bytes`.
#pragma once

#include <algorithm>
#include <compare>
#include <cstddef>
#include <cstdint>
#include <cstring>
#include <iterator>
#include <optional>
#include <span>
#include <string>
#include <string_view>
#include <vector>

namespace remus {

using bytes = std::vector<std::uint8_t>;

/// A byte string with vector semantics that stores up to 16 bytes inline.
/// Sizes are limited to 2^32 - 1 bytes (the codec's length prefix).
class small_bytes {
 public:
  using value_type = std::uint8_t;
  using iterator = std::uint8_t*;
  using const_iterator = const std::uint8_t*;

  static constexpr std::size_t inline_capacity = 16;

  small_bytes() noexcept : buf_{} {}
  explicit small_bytes(std::span<const std::uint8_t> b) : small_bytes() {
    assign(b.begin(), b.end());
  }
  small_bytes(const small_bytes& o) {
    if (o.size_ <= inline_capacity) {
      std::memcpy(buf_, o.data(), inline_capacity);
      size_ = o.size_;
      cap_ = inline_capacity;
    } else {
      heap_ = new std::uint8_t[o.size_];
      std::memcpy(heap_, o.heap_, o.size_);
      size_ = cap_ = o.size_;
    }
  }
  small_bytes(small_bytes&& o) noexcept : size_(o.size_), cap_(o.cap_) {
    std::memcpy(buf_, o.buf_, inline_capacity);  // the inline bytes or the pointer
    o.size_ = 0;
    o.cap_ = inline_capacity;
  }
  small_bytes& operator=(const small_bytes& o) {
    if (this == &o) return *this;
    if (o.size_ > cap_) {
      auto* p = new std::uint8_t[o.size_];
      release();
      heap_ = p;
      cap_ = o.size_;
    }
    std::memcpy(data(), o.data(), o.size_);
    size_ = o.size_;
    return *this;
  }
  small_bytes& operator=(small_bytes&& o) noexcept {
    if (this == &o) return *this;
    if (o.is_inline()) {
      // Inline bytes fit any buffer: copy them and keep ours.
      std::memcpy(data(), o.buf_, inline_capacity);
    } else {
      release();
      heap_ = o.heap_;
      cap_ = o.cap_;
      o.cap_ = inline_capacity;
    }
    size_ = o.size_;
    o.size_ = 0;
    return *this;
  }
  ~small_bytes() { release(); }

  [[nodiscard]] std::size_t size() const noexcept { return size_; }
  [[nodiscard]] bool empty() const noexcept { return size_ == 0; }
  [[nodiscard]] std::size_t capacity() const noexcept { return cap_; }

  [[nodiscard]] std::uint8_t* data() noexcept { return is_inline() ? buf_ : heap_; }
  [[nodiscard]] const std::uint8_t* data() const noexcept {
    return is_inline() ? buf_ : heap_;
  }
  [[nodiscard]] iterator begin() noexcept { return data(); }
  [[nodiscard]] iterator end() noexcept { return data() + size_; }
  [[nodiscard]] const_iterator begin() const noexcept { return data(); }
  [[nodiscard]] const_iterator end() const noexcept { return data() + size_; }

  [[nodiscard]] std::uint8_t& operator[](std::size_t i) noexcept {
    check_index(i);
    return data()[i];
  }
  [[nodiscard]] const std::uint8_t& operator[](std::size_t i) const noexcept {
    check_index(i);
    return data()[i];
  }

  void clear() noexcept { size_ = 0; }
  void reserve(std::size_t n) {
    if (n > cap_) regrow(n);
  }
  void resize(std::size_t n, std::uint8_t fill = 0) {
    if (n > cap_) regrow(n > 2 * std::size_t{cap_} ? n : 2 * std::size_t{cap_});
    if (n > size_) std::memset(data() + size_, fill, n - size_);
    size_ = static_cast<std::uint32_t>(n);
  }
  void push_back(std::uint8_t x) {
    if (size_ == cap_) regrow(2 * std::size_t{cap_});
    data()[size_++] = x;
  }
  void assign(std::size_t n, std::uint8_t x) {
    clear();
    resize(n, x);
  }
  template <std::forward_iterator It>
  void assign(It first, It last) {
    const auto n = static_cast<std::size_t>(std::distance(first, last));
    clear();
    if (n > cap_) regrow(n);
    std::copy(first, last, data());
    size_ = static_cast<std::uint32_t>(n);
  }

  friend bool operator==(const small_bytes& a, const small_bytes& b) noexcept {
    return a.size_ == b.size_ && (a.size_ == 0 || std::memcmp(a.data(), b.data(), a.size_) == 0);
  }
  /// Lexicographic, as std::vector's.
  friend std::strong_ordering operator<=>(const small_bytes& a, const small_bytes& b) noexcept {
    const std::size_t n = a.size_ < b.size_ ? a.size_ : b.size_;
    const int c = n == 0 ? 0 : std::memcmp(a.data(), b.data(), n);
    if (c != 0) return c < 0 ? std::strong_ordering::less : std::strong_ordering::greater;
    return a.size_ <=> b.size_;
  }

 private:
  [[nodiscard]] bool is_inline() const noexcept { return cap_ == inline_capacity; }
  void release() noexcept {
    if (!is_inline()) delete[] heap_;
  }
  /// Moves the bytes into a heap buffer of exactly n (> capacity()) bytes.
  void regrow(std::size_t n);
  void check_index([[maybe_unused]] std::size_t i) const noexcept {
#ifdef _GLIBCXX_ASSERTIONS
    if (i >= size_) [[unlikely]] index_out_of_range(i, size_);
#endif
  }
  [[noreturn]] static void index_out_of_range(std::size_t i, std::size_t size) noexcept;

  union {
    std::uint8_t buf_[inline_capacity];
    std::uint8_t* heap_;  // when cap_ > inline_capacity
  };
  std::uint32_t size_ = 0;
  std::uint32_t cap_ = inline_capacity;
};

static_assert(sizeof(small_bytes) == sizeof(bytes), "a value must cost what a vector did");

/// A register value: opaque bytes. Empty == the initial value ⊥.
struct value {
  small_bytes data;

  friend bool operator==(const value&, const value&) = default;

  [[nodiscard]] bool is_initial() const noexcept { return data.empty(); }
  [[nodiscard]] std::size_t size() const noexcept { return data.size(); }
};

/// The initial value ⊥ of every register.
[[nodiscard]] inline value initial_value() { return {}; }

/// Build a 4-byte little-endian integer value (the Fig. 6 top workload).
[[nodiscard]] value value_of_u32(std::uint32_t x);

/// Build an 8-byte little-endian integer value.
[[nodiscard]] value value_of_u64(std::uint64_t x);

/// Decode values produced by value_of_u32 / value_of_u64.
[[nodiscard]] std::optional<std::uint32_t> value_as_u32(const value& v);
[[nodiscard]] std::optional<std::uint64_t> value_as_u64(const value& v);

/// Build a value from text (examples / KV store payloads).
[[nodiscard]] value value_of_string(std::string_view s);
[[nodiscard]] std::string value_as_string(const value& v);

/// Build an arbitrary-size deterministic payload (Fig. 6 bottom workload).
[[nodiscard]] value value_of_size(std::size_t n, std::uint8_t seed = 0x5a);

/// Short printable rendering for diagnostics ("⊥", "u32:7", "17B:ab12..").
[[nodiscard]] std::string to_string(const value& v);

}  // namespace remus
