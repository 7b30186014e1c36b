#pragma once
/// \file awgn.h
/// \brief Additive white Gaussian noise with the library's discrete-domain
///        Eb/N0 convention.
///
/// Convention (documented once, used everywhere): energies are discrete
/// sums, Eb = sum |x[n]|^2 over one bit's samples. Complex noise has total
/// per-sample variance N0 (N0/2 per rail); real noise has per-sample
/// variance N0/2. A unit-energy matched filter then sees noise variance
/// N0/2 on its decision rail and BER_BPSK = Q(sqrt(2 Eb/N0)), matching the
/// textbook curves the benches compare against.

#include <cstddef>
#include <cstdint>

#include "common/isa.h"
#include "common/rng.h"
#include "common/types.h"
#include "common/waveform.h"

namespace uwb::channel {
class FloatAwgn;
}  // namespace uwb::channel

namespace uwb::detail {

/// Adds sigma * N(0,1) to x[0..n) in place, one ziggurat draw from \p rng per
/// element in order, with the blocked clone for \p isa forced instead of the
/// host's choice (tests compare each clone with the scalar loop). The double
/// add_awgn overloads run this on the host's clone. \p isa must satisfy
/// isa_supported().
void add_awgn(Isa isa, double* x, std::size_t n, double sigma, Rng& rng);

/// FloatAwgn::add() with the clone for \p isa forced instead of the host's
/// choice, so tests can check that every clone writes the same bytes.
/// \p isa must satisfy isa_supported().
void add_awgn(Isa isa, channel::FloatAwgn& noise, float* x, std::size_t n);

}  // namespace uwb::detail

namespace uwb::channel {

/// Adds complex AWGN with total per-sample variance \p n0 in place.
void add_awgn(CplxVec& x, double n0, Rng& rng);

/// Adds real AWGN with per-sample variance n0/2 in place.
void add_awgn(RealVec& x, double n0, Rng& rng);

/// Single-precision real AWGN with per-sample variance n0/2, the gen-1
/// float capture's noise: a float ziggurat on eight xoshiro256++ lanes,
/// seeded by one draw from the trial Rng's engine, so each trial's noise
/// stays a pure function of its forked seed (the determinism contract);
/// realizations differ from the double overload's at the sampler level,
/// not just in rounding.
///
/// The stream: SplitMix64 expands the seed word into the eight lanes'
/// states and a ninth state, the rejection stream. Word 8b + l is lane l's
/// b-th output, and draw m of the stream's life takes the 32-bit half
/// m mod 2 (low half first) of word m / 2. A draw is accepted with one
/// compare on its own 32 bits (8-bit layer, sign bit, 23-bit mantissa);
/// the continuation of a rejected draw (wedge, tail, restart) reads only
/// the rejection stream, in ascending m. Draws are numbered over the
/// stream's life, so the bytes do not depend on how a buffer is split into
/// add() calls. One stream serves a whole capture: a gen-1 genie trial
/// adds it to the packed segments its receiver reads, in one add().
class FloatAwgn {
 public:
  /// Draws the stream's seed from \p rng, unless \p n0 is 0 (no noise).
  FloatAwgn(double n0, Rng& rng);

  /// Adds the next \p n draws of the stream to x[0 .. n).
  void add(float* x, std::size_t n);

  /// The variance of the noise added: sigma^2 for the float sigma applied.
  [[nodiscard]] double variance() const noexcept {
    return static_cast<double>(sigma_) * static_cast<double>(sigma_);
  }

  static constexpr std::size_t kLanes = 8;  ///< xoshiro256++ lanes
  static constexpr std::size_t kBlockDraws = 2 * kLanes;  ///< draws per word of every lane

 private:
  friend void detail::add_awgn(Isa isa, FloatAwgn& noise, float* x, std::size_t n);

  float sigma_ = 0.0f;
  std::uint64_t lanes_[4][kLanes] = {};  ///< state word k of lane l at [k][l]
  std::uint64_t reject_[4] = {};         ///< the rejection stream's state
  /// The draws of the latest block made for a partial one, and the first
  /// of them not added yet (kBlockDraws: none left).
  std::uint32_t block_[kBlockDraws] = {};
  std::size_t next_ = kBlockDraws;
};

/// FloatAwgn over one buffer: x[0 .. n) from a fresh stream.
void add_awgn(float* x, std::size_t n, double n0, Rng& rng);

/// Waveform overloads.
void add_awgn(CplxWaveform& x, double n0, Rng& rng);
void add_awgn(RealWaveform& x, double n0, Rng& rng);

/// N0 that realizes \p ebn0_db for a signal with discrete energy-per-bit
/// \p eb (sum |x|^2 per bit).
double n0_for_ebn0(double eb, double ebn0_db);

/// Discrete energy per bit of a waveform carrying \p num_bits bits.
double energy_per_bit(const CplxWaveform& x, std::size_t num_bits);
double energy_per_bit(const RealWaveform& x, std::size_t num_bits);

}  // namespace uwb::channel
