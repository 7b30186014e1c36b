#include "phy/crc.h"

#include "common/error.h"
#include "phy/bits.h"

namespace uwb::phy {

uint16_t crc16_ccitt(std::span<const uint8_t> bits) {
  uint16_t crc = 0xFFFF;
  for (auto b : bits) {
    const auto in = static_cast<uint16_t>(b & 1u);
    const auto msb = static_cast<uint16_t>((crc >> 15) & 1u);
    crc = static_cast<uint16_t>(crc << 1);
    if (msb ^ in) crc ^= 0x1021;
  }
  return crc;
}

uint32_t crc32_ieee(std::span<const uint8_t> bits) {
  // Bitwise reflected CRC-32: shift right with reversed poly 0xEDB88320.
  uint32_t crc = 0xFFFFFFFFu;
  for (auto b : bits) {
    const uint32_t in = b & 1u;
    const uint32_t lsb = (crc ^ in) & 1u;
    crc >>= 1;
    if (lsb) crc ^= 0xEDB88320u;
  }
  return crc ^ 0xFFFFFFFFu;
}

BitVec append_crc16(const BitVec& bits) {
  BitVec out;
  out.reserve(bits.size() + 16);
  out.assign(bits.begin(), bits.end());
  append_uint_bits(out, crc16_ccitt(bits), 16);
  return out;
}

bool check_crc16(const BitVec& bits_with_crc) {
  if (bits_with_crc.size() < 16) return false;
  const std::size_t n = bits_with_crc.size() - 16;
  const auto expect = static_cast<uint16_t>(bits_to_uint(bits_with_crc, n, 16));
  return crc16_ccitt(std::span(bits_with_crc).first(n)) == expect;
}

BitVec append_crc32(const BitVec& bits) {
  BitVec out;
  out.reserve(bits.size() + 32);
  out.assign(bits.begin(), bits.end());
  append_uint_bits(out, crc32_ieee(bits), 32);
  return out;
}

bool check_crc32(const BitVec& bits_with_crc) {
  if (bits_with_crc.size() < 32) return false;
  const std::size_t n = bits_with_crc.size() - 32;
  const auto expect = static_cast<uint32_t>(bits_to_uint(bits_with_crc, n, 32));
  return crc32_ieee(std::span(bits_with_crc).first(n)) == expect;
}

}  // namespace uwb::phy
