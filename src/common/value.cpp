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

void small_bytes::regrow(std::size_t n) {
  if (n > std::numeric_limits<std::uint32_t>::max()) {
    throw std::length_error("small_bytes: size exceeds 2^32 - 1 bytes");
  }
  auto* p = new std::uint8_t[n];
  std::memcpy(p, data(), size_);
  release();
  heap_ = p;
  cap_ = static_cast<std::uint32_t>(n);
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
  std::uint8_t x = seed;
  for (auto& b : v.data) {
    x = static_cast<std::uint8_t>(x * 167 + 13);
    b = x;
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
