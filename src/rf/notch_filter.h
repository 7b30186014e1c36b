#pragma once
/// \file notch_filter.h
/// \brief Tunable notch for narrowband-interferer suppression. The digital
///        back end's spectral monitor estimates the interferer frequency
///        "that may be used in the front end notch filter" (paper Section 3)
///        -- this is that filter.
///
/// Two variants:
///  * RealNotch: biquad pair notching +/- f0 in a real passband signal.
///  * ComplexNotch: first-order complex coefficient notch killing a single
///    signed baseband frequency, the natural form after direct conversion.

#include <span>

#include "common/types.h"
#include "common/waveform.h"
#include "dsp/biquad.h"

namespace uwb::rf {

/// Real-signal notch (wraps an RBJ biquad).
class RealNotch {
 public:
  RealNotch(double f0_hz, double q, double fs);

  [[nodiscard]] double center_frequency() const noexcept { return f0_; }

  /// Re-tunes the notch (state preserved; a real front end would glitch,
  /// which the settle-time parameter of the caller accounts for).
  void tune(double f0_hz);

  [[nodiscard]] RealWaveform process(const RealWaveform& x);

  void reset() noexcept { biquad_.reset(); }

 private:
  double f0_;
  double q_;
  double fs_;
  dsp::Biquad<double> biquad_;
};

/// Complex baseband notch: H(z) = (1 - e^{jw0} z^-1) / (1 - r e^{jw0} z^-1).
/// Unity gain far from w0, zero exactly at w0; \p pole_radius r in (0,1)
/// sets the notch width (closer to 1 = narrower).
class ComplexNotch {
 public:
  ComplexNotch(double f0_hz, double fs, double pole_radius = 0.98);

  [[nodiscard]] double center_frequency() const noexcept { return f0_; }
  [[nodiscard]] double pole_radius() const noexcept { return r_; }

  void tune(double f0_hz);

  /// Notch depth is infinite at f0; 3 dB width ~ fs (1-r)/pi.
  [[nodiscard]] double bandwidth_3db_hz() const noexcept;

  /// Filters \p x, sampled at \p fs (which must be the notch's rate), in
  /// place; the filter state carries over to the next call.
  void process(std::span<cplx> x, double fs);

  /// Response at a frequency (verification).
  [[nodiscard]] cplx response_at(double f_hz) const;

  void reset() noexcept { state_ = cplx{}; prev_in_ = cplx{}; }

 private:
  double f0_;
  double fs_;
  double r_;
  cplx zero_rot_;   ///< e^{j w0}
  cplx state_{};    ///< previous output
  cplx prev_in_{};  ///< previous input
};

}  // namespace uwb::rf
