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

namespace uwb::detail {

/// Adds sigma * N(0,1) to x[0..n) in place, one ziggurat draw from \p rng per
/// element in order, with the blocked clone for \p isa forced instead of the
/// host's choice (tests compare each clone with the scalar loop). The double
/// add_awgn overloads run this on the host's clone. \p isa must satisfy
/// isa_supported().
void add_awgn(Isa isa, double* x, std::size_t n, double sigma, Rng& rng);

}  // namespace uwb::detail

namespace uwb::channel {

/// Adds complex AWGN with total per-sample variance \p n0 in place.
void add_awgn(CplxVec& x, double n0, Rng& rng);

/// Adds real AWGN with per-sample variance n0/2 in place.
void add_awgn(RealVec& x, double n0, Rng& rng);

/// Single-precision real AWGN with per-sample variance n0/2, the gen-1
/// float capture's noise: a float ziggurat on a xoshiro256++ stream seeded
/// by one draw from the trial Rng's engine, so each trial's noise stays a
/// pure function of its forked seed (the determinism contract);
/// realizations differ from the double overload's at the sampler level,
/// not just in rounding. One stream serves a whole capture: a gen-1 genie
/// trial synthesizes only the segments its receiver reads and adds their
/// noise in ascending sample order, one add() per segment. Each add()
/// draws its samples in pairs from one engine word, low half first; an
/// odd count's last sample takes the low half of a fresh word.
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

 private:
  float sigma_ = 0.0f;
  std::uint64_t state_[4] = {};
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
