#include "phy/bits.h"

#include <algorithm>

#include "common/error.h"

namespace uwb::phy {

std::size_t hamming_distance(const BitVec& a, const BitVec& b) {
  const std::size_t n = std::min(a.size(), b.size());
  std::size_t d = (a.size() > b.size() ? a.size() : b.size()) - n;
  for (std::size_t i = 0; i < n; ++i) {
    if ((a[i] != 0) != (b[i] != 0)) ++d;
  }
  return d;
}

std::vector<uint8_t> pack_bits(const BitVec& bits) {
  std::vector<uint8_t> bytes((bits.size() + 7) / 8, 0);
  for (std::size_t i = 0; i < bits.size(); ++i) {
    if (bits[i]) bytes[i / 8] |= static_cast<uint8_t>(0x80u >> (i % 8));
  }
  return bytes;
}

BitVec unpack_bits(const std::vector<uint8_t>& bytes) {
  BitVec bits(bytes.size() * 8);
  for (std::size_t i = 0; i < bits.size(); ++i) {
    bits[i] = (bytes[i / 8] >> (7 - i % 8)) & 1u;
  }
  return bits;
}

BitVec uint_to_bits(uint64_t value, int width) {
  BitVec bits;
  bits.reserve(static_cast<std::size_t>(std::max(width, 0)));
  append_uint_bits(bits, value, width);
  return bits;
}

void append_uint_bits(BitVec& out, uint64_t value, int width) {
  detail::require(width >= 0 && width <= 64, "uint_to_bits: width must be in [0,64]");
  for (int i = 0; i < width; ++i) {
    out.push_back(static_cast<uint8_t>((value >> (width - 1 - i)) & 1u));
  }
}

uint64_t bits_to_uint(const BitVec& bits, std::size_t first, std::size_t count) {
  detail::require(count <= 64, "bits_to_uint: count must be <= 64");
  detail::require(first + count <= bits.size(), "bits_to_uint: range out of bounds");
  uint64_t v = 0;
  for (std::size_t i = 0; i < count; ++i) {
    v = (v << 1) | (bits[first + i] & 1u);
  }
  return v;
}

std::string to_string(const BitVec& bits) {
  std::string s;
  s.reserve(bits.size());
  for (auto b : bits) s.push_back(b ? '1' : '0');
  return s;
}

BitVec xor_bits(const BitVec& a, const BitVec& b) {
  detail::require(a.size() == b.size(), "xor_bits: size mismatch");
  BitVec out(a.size());
  for (std::size_t i = 0; i < a.size(); ++i) out[i] = (a[i] ^ b[i]) & 1u;
  return out;
}

}  // namespace uwb::phy
