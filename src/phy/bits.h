#pragma once
/// \file bits.h
/// \brief Bit-vector utilities: packing, comparison, random payloads.

#include <cstdint>
#include <cstddef>
#include <string>

#include "common/rng.h"
#include "common/types.h"

namespace uwb::phy {

/// Number of differing positions; compares the first min(a,b) bits and
/// counts the length difference as errors.
std::size_t hamming_distance(const BitVec& a, const BitVec& b);

/// Packs bits (MSB first) into bytes; pads the final byte with zeros.
std::vector<uint8_t> pack_bits(const BitVec& bits);

/// Unpacks bytes into bits, MSB first.
BitVec unpack_bits(const std::vector<uint8_t>& bytes);

/// Converts an unsigned value to \p width bits, MSB first.
BitVec uint_to_bits(uint64_t value, int width);

/// Appends uint_to_bits(value, width) to \p out without a temporary.
void append_uint_bits(BitVec& out, uint64_t value, int width);

/// Parses up to 64 bits (MSB first) back into an unsigned value.
uint64_t bits_to_uint(const BitVec& bits, std::size_t first, std::size_t count);

/// "0101..."-style debug rendering.
std::string to_string(const BitVec& bits);

/// XOR of two equal-length bit vectors.
BitVec xor_bits(const BitVec& a, const BitVec& b);

}  // namespace uwb::phy
