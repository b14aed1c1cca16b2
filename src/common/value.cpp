#include "common/value.h"

#include <array>
#include <cstdio>
#include <cstdlib>
#include <limits>
#include <stdexcept>

namespace remus {
namespace {

void append_le(small_bytes& out, std::uint64_t x, int n) {
  for (int i = 0; i < n; ++i) out.push_back(static_cast<std::uint8_t>(x >> (8 * i)));
}

std::uint64_t read_le(const small_bytes& in, int n) {
  std::uint64_t x = 0;
  for (int i = 0; i < n; ++i) x |= static_cast<std::uint64_t>(in[static_cast<std::size_t>(i)]) << (8 * i);
  return x;
}

constexpr std::array<char, 16> hex = {'0', '1', '2', '3', '4', '5', '6', '7',
                                      '8', '9', 'a', 'b', 'c', 'd', 'e', 'f'};

}  // namespace

std::uint8_t* small_bytes::allocate(std::size_t n) {
  if (n > std::numeric_limits<std::uint32_t>::max()) {
    throw std::length_error("small_bytes: size exceeds 2^32 - 1 bytes");
  }
  auto* block = static_cast<std::uint8_t*>(::operator new(header_bytes + n));
  ::new (block) block_header{1};
  return block + header_bytes;
}

void small_bytes::regrow(std::size_t n) {
  auto* p = allocate(n);
  std::memcpy(p, raw(), size_);
  release();
  heap_ = p;
  cap_ = static_cast<std::uint32_t>(n);
}

void small_bytes::assign_heap(const small_bytes& o) {
  if (o.size_ > inline_capacity && o.head().refs.load(std::memory_order_relaxed) != 0) {
    o.head().refs.fetch_add(1, std::memory_order_relaxed);
    release();
    heap_ = o.heap_;
    size_ = o.size_;
    cap_ = o.cap_;
    return;
  }
  drop_bytes();
  if (o.size_ > cap_) regrow(o.size_);
  std::memcpy(raw(), o.raw(), o.size_);
  size_ = o.size_;
}

void small_bytes::release_heap() noexcept {
  // A sole owner frees without a read-modify-write; the acquire load orders
  // the other owners' last reads (their releasing decrements) first.
  auto& refs = head().refs;
  if (refs.load(std::memory_order_acquire) <= 1 ||
      refs.fetch_sub(1, std::memory_order_acq_rel) == 1) {
    ::operator delete(heap_ - header_bytes);
  }
}

void small_bytes::drop_heap() noexcept {
  if (writable()) {
    head().refs.store(1, std::memory_order_relaxed);
  } else {
    release_heap();
    cap_ = inline_capacity;
  }
}

void small_bytes::pin_heap() {
  if (head().refs.load(std::memory_order_relaxed) == 0) return;  // pinned already
  if (!writable()) regrow(cap_);
  head().refs.store(0, std::memory_order_relaxed);
}

void small_bytes::index_out_of_range(std::size_t i, std::size_t size) noexcept {
  std::fprintf(stderr, "small_bytes: index %zu out of range for size %zu\n", i, size);
  std::abort();
}

value value_of_u32(std::uint32_t x) {
  value v;
  append_le(v.data, x, 4);
  return v;
}

value value_of_u64(std::uint64_t x) {
  value v;
  append_le(v.data, x, 8);
  return v;
}

std::optional<std::uint32_t> value_as_u32(const value& v) {
  if (v.data.size() != 4) return std::nullopt;
  return static_cast<std::uint32_t>(read_le(v.data, 4));
}

std::optional<std::uint64_t> value_as_u64(const value& v) {
  if (v.data.size() != 8) return std::nullopt;
  return read_le(v.data, 8);
}

value value_of_string(std::string_view s) {
  value v;
  v.data.assign(s.begin(), s.end());
  return v;
}

std::string value_as_string(const value& v) {
  return std::string(v.data.begin(), v.data.end());
}

value value_of_size(std::size_t n, std::uint8_t seed) {
  value v;
  v.data.resize(n);
  // Writes through raw(): data() would pin the fresh block and stop its copies sharing it.
  std::uint8_t* out = v.data.raw();
  std::uint8_t x = seed;
  for (std::size_t i = 0; i < n; ++i) {
    x = static_cast<std::uint8_t>(x * 167 + 13);
    out[i] = x;
  }
  return v;
}

std::string to_string(const value& v) {
  if (v.is_initial()) return "_|_";
  if (auto u = value_as_u32(v)) return "u32:" + std::to_string(*u);
  std::string out = std::to_string(v.data.size()) + "B:";
  const std::size_t show = v.data.size() < 4 ? v.data.size() : 4;
  for (std::size_t i = 0; i < show; ++i) {
    out += hex[v.data[i] >> 4];
    out += hex[v.data[i] & 0xf];
  }
  if (v.data.size() > show) out += "..";
  return out;
}

}  // namespace remus
