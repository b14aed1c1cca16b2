// Register payloads.
//
// The paper's experiments write 4-byte integers (Fig. 6 top) and payloads up
// to the 64 KB UDP limit (Fig. 6 bottom). A value is an opaque byte string;
// helpers build values from integers/strings for tests and examples. The
// empty value stands for the initial ⊥.
//
// Values are shared, not copied. A value passes through the workload
// generator, an op result, every message, each replica's slot, every history
// event and every checker projection; its bytes live in a small_bytes, which
// keeps up to 16 bytes inline and puts larger payloads in one heap block that
// all copies share (copy-on-write).
//  * Footprint: a 16-byte union (the inline bytes, or the heap pointer) plus
//    a u32 size and a u32 capacity make 24 bytes, the size of a std::vector.
//    A value therefore costs no more in a message, a history event or a
//    quorum_core replica slot (four values) than it did as a vector.
//  * Why 16 stays the inline size: it is the most that fits in those 24
//    bytes, and it covers the u32/u64 values and short strings the
//    experiments and the fuzzer write, which so never allocate. A copy of an
//    inline value is a 24-byte copy, cheaper than any reference count.
//  * The heap block starts with an atomic reference count. A copy increments
//    it and shares the block; the last owner frees it. A sole owner frees
//    without an atomic read-modify-write, so an unshared value costs what it
//    did as a vector apart from the 8-byte header. Every member that writes
//    bytes first takes a private copy of a shared block, and ==/<=> return at
//    once when both sides hold one block.
//  * What the count costs: a copy and its destruction are two atomic
//    read-modify-writes on the block's cache line, ~9 ns on a 4-core x86 VM
//    whatever the size, where a vector paid malloc + memcpy + free (~8 ns at
//    64 bytes, ~500 ns at 64 KB). Copies of one value made on several
//    threads at once contend for that line (~80-100 ns a copy with 4
//    threads). What sharing saves is memory: a written value is stored once
//    however many slots, results and history events hold it.
//  * std::vector's semantics stay: clear() keeps the capacity (quorum_core
//    reuses cleared buffers), a move steals the block and leaves the source
//    empty, i.e. ⊥, and a pointer or reference taken through non-const
//    access (data(), begin(), end(), operator[]) never writes into a copy
//    made later: such access pins the block to this value, so copies of it
//    copy the bytes, until the next assign(), assignment or reallocation,
//    which invalidate the pointer as they do for a vector.
//    Unlike a vector, a pointer taken through const access is valid only
//    until the next mutation of the value, and non-const access must not
//    race with a copy of the same object from another thread.
// Wire frames and WAL records stay plain `bytes`.
#pragma once

#include <algorithm>
#include <atomic>
#include <compare>
#include <cstddef>
#include <cstdint>
#include <cstring>
#include <iterator>
#include <new>
#include <optional>
#include <span>
#include <string>
#include <string_view>
#include <vector>

namespace remus {

using bytes = std::vector<std::uint8_t>;

struct value;

/// A byte string with vector semantics that stores up to 16 bytes inline and
/// shares larger payloads between copies (copy-on-write).
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
  small_bytes(const small_bytes& o) : small_bytes() { *this = o; }
  small_bytes(small_bytes&& o) noexcept : size_(o.size_), cap_(o.cap_) {
    std::memcpy(buf_, o.buf_, inline_capacity);  // the inline bytes or the pointer
    o.size_ = 0;
    o.cap_ = inline_capacity;
  }
  small_bytes& operator=(const small_bytes& o) {
    if (this == &o) return *this;
    if (is_inline() && o.size_ <= inline_capacity) {
      std::memcpy(buf_, o.raw(), inline_capacity);
      size_ = o.size_;
    } else {
      assign_heap(o);
    }
    return *this;
  }
  small_bytes& operator=(small_bytes&& o) noexcept {
    if (this == &o) return *this;
    release();
    std::memcpy(buf_, o.buf_, inline_capacity);  // the inline bytes or the pointer
    size_ = o.size_;
    cap_ = o.cap_;
    o.size_ = 0;
    o.cap_ = inline_capacity;
    return *this;
  }
  ~small_bytes() { release(); }

  [[nodiscard]] std::size_t size() const noexcept { return size_; }
  [[nodiscard]] bool empty() const noexcept { return size_ == 0; }
  [[nodiscard]] std::size_t capacity() const noexcept { return cap_; }

  // Non-const access pins the bytes to this value (see the file comment).
  [[nodiscard]] std::uint8_t* data() {
    pin();
    return raw();
  }
  [[nodiscard]] const std::uint8_t* data() const noexcept { return raw(); }
  [[nodiscard]] iterator begin() { return data(); }
  [[nodiscard]] iterator end() { return data() + size_; }
  [[nodiscard]] const_iterator begin() const noexcept { return raw(); }
  [[nodiscard]] const_iterator end() const noexcept { return raw() + size_; }

  [[nodiscard]] std::uint8_t& operator[](std::size_t i) {
    check_index(i);
    return data()[i];
  }
  [[nodiscard]] const std::uint8_t& operator[](std::size_t i) const noexcept {
    check_index(i);
    return raw()[i];
  }

  void clear() noexcept { size_ = 0; }  // keeps the block, shared or not
  void reserve(std::size_t n) {
    if (n > cap_) regrow(n);
  }
  void resize(std::size_t n, std::uint8_t fill = 0) {
    if (n > size_) {
      if (n > cap_) {
        regrow(n > 2 * std::size_t{cap_} ? n : 2 * std::size_t{cap_});
      } else if (!writable()) {
        regrow(cap_);
      }
      std::memset(raw() + size_, fill, n - size_);
    }
    size_ = static_cast<std::uint32_t>(n);
  }
  void push_back(std::uint8_t x) {
    if (size_ == cap_) {
      regrow(2 * std::size_t{cap_});
    } else if (!writable()) {
      regrow(cap_);
    }
    raw()[size_++] = x;
  }
  void assign(std::size_t n, std::uint8_t x) {
    drop_bytes();
    if (n > cap_) regrow(n);
    std::memset(raw(), x, n);
    size_ = static_cast<std::uint32_t>(n);
  }
  template <std::forward_iterator It>
  void assign(It first, It last) {
    const auto n = static_cast<std::size_t>(std::distance(first, last));
    drop_bytes();
    if (n > cap_) regrow(n);
    std::copy(first, last, raw());
    size_ = static_cast<std::uint32_t>(n);
  }

  friend bool operator==(const small_bytes& a, const small_bytes& b) noexcept {
    return a.size_ == b.size_ &&
           (a.size_ == 0 || a.raw() == b.raw() || std::memcmp(a.raw(), b.raw(), a.size_) == 0);
  }
  /// Lexicographic, as std::vector's.
  friend std::strong_ordering operator<=>(const small_bytes& a, const small_bytes& b) noexcept {
    const std::size_t n = a.size_ < b.size_ ? a.size_ : b.size_;
    const int c = n == 0 || a.raw() == b.raw() ? 0 : std::memcmp(a.raw(), b.raw(), n);
    if (c != 0) return c < 0 ? std::strong_ordering::less : std::strong_ordering::greater;
    return a.size_ <=> b.size_;
  }

 private:
  friend value value_of_size(std::size_t n, std::uint8_t seed);

  /// Precedes the bytes of every heap block. refs counts the values that
  /// share the block; 0 means one value owns it and has pinned it.
  struct block_header {
    std::atomic<std::uint32_t> refs;
  };
  static constexpr std::size_t header_bytes = 8;  // keeps the bytes 8-byte aligned
  static_assert(sizeof(block_header) <= header_bytes);

  [[nodiscard]] bool is_inline() const noexcept { return cap_ == inline_capacity; }
  [[nodiscard]] std::uint8_t* raw() noexcept { return is_inline() ? buf_ : heap_; }
  [[nodiscard]] const std::uint8_t* raw() const noexcept { return is_inline() ? buf_ : heap_; }
  [[nodiscard]] block_header& head() const noexcept {
    return *std::launder(reinterpret_cast<block_header*>(heap_ - header_bytes));
  }
  /// True when no other value shares the bytes, so they may be written.
  [[nodiscard]] bool writable() const noexcept {
    return is_inline() || head().refs.load(std::memory_order_acquire) <= 1;
  }
  void release() noexcept {
    if (!is_inline()) release_heap();
  }
  /// Empties the bytes and makes the buffer writable without allocating.
  void drop_bytes() noexcept {
    size_ = 0;
    if (!is_inline()) drop_heap();
  }
  void pin() {
    if (!is_inline()) pin_heap();
  }
  // The heap halves of the members above and of copying, out of line so
  // that the inline paths stay as small as a vector's.
  void assign_heap(const small_bytes& o);
  void release_heap() noexcept;
  /// Gives up a shared block for the inline buffer; keeps and unpins an owned one.
  void drop_heap() noexcept;
  /// Takes a private copy of a shared block, then marks the block pinned.
  void pin_heap();
  /// A heap block of n bytes, with one owner.
  [[nodiscard]] static std::uint8_t* allocate(std::size_t n);
  /// Moves the bytes into a new private heap block of n (>= size(), >
  /// inline_capacity) bytes.
  void regrow(std::size_t n);
  void check_index([[maybe_unused]] std::size_t i) const noexcept {
#ifdef _GLIBCXX_ASSERTIONS
    if (i >= size_) [[unlikely]] index_out_of_range(i, size_);
#endif
  }
  [[noreturn]] static void index_out_of_range(std::size_t i, std::size_t size) noexcept;

  union {
    std::uint8_t buf_[inline_capacity];
    std::uint8_t* heap_;  // the bytes of a heap block, when cap_ > inline_capacity
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
