#pragma once
/// \file crc.h
/// \brief CRC-16-CCITT and CRC-32 (IEEE 802.3) over bit vectors, used by the
///        packet framer for header and payload integrity checks.

#include <cstdint>
#include <span>

#include "common/types.h"

namespace uwb::phy {

/// CRC-16-CCITT (poly 0x1021, init 0xFFFF, no reflection), bitwise over the
/// message bits MSB-first.
uint16_t crc16_ccitt(std::span<const uint8_t> bits);

/// CRC-32 IEEE (poly 0x04C11DB7, init 0xFFFFFFFF, reflected, final XOR),
/// computed over bits MSB-first within the logical stream.
uint32_t crc32_ieee(std::span<const uint8_t> bits);

/// Appends the CRC-16 of \p bits (16 bits, MSB first).
BitVec append_crc16(const BitVec& bits);

/// True when the trailing 16 bits match the CRC-16 of the preceding bits.
bool check_crc16(const BitVec& bits_with_crc);

/// Appends the CRC-32 of \p bits (32 bits, MSB first).
BitVec append_crc32(const BitVec& bits);

/// True when the trailing 32 bits match the CRC-32 of the preceding bits.
bool check_crc32(const BitVec& bits_with_crc);

}  // namespace uwb::phy
