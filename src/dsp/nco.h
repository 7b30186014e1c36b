#pragma once
/// \file nco.h
/// \brief Numerically controlled oscillator: phase-accumulator quadrature
///        tone generation for test tones and interferers.

#include <cmath>

#include "common/error.h"
#include "common/math_utils.h"
#include "common/types.h"

namespace uwb::dsp {

/// Fixed-frequency quadrature oscillator.
class Nco {
 public:
  /// \p freq_hz may be negative (spectral inversion); |freq| must be < fs/2.
  Nco(double freq_hz, double fs, double initial_phase_rad = 0.0)
      : phase_(initial_phase_rad) {
    detail::require(fs > 0.0, "Nco: fs must be positive");
    detail::require(std::abs(freq_hz) < fs / 2.0, "Nco: |freq| must be < fs/2");
    step_ = two_pi * freq_hz / fs;
  }

  /// Advances one sample and returns exp(j phase): cos on I, sin on Q.
  cplx step() noexcept {
    const cplx out(std::cos(phase_), std::sin(phase_));
    phase_ = wrap_phase(phase_ + step_);
    return out;
  }

  /// Generates \p n samples of the complex exponential.
  CplxVec generate(std::size_t n) {
    CplxVec out(n);
    for (auto& v : out) v = step();
    return out;
  }

 private:
  double phase_ = 0.0;
  double step_ = 0.0;
};

}  // namespace uwb::dsp
