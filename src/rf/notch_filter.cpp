#include "rf/notch_filter.h"

#include <cmath>

#include "common/error.h"
#include "common/math_utils.h"

namespace uwb::rf {

RealNotch::RealNotch(double f0_hz, double q, double fs)
    : f0_(f0_hz), q_(q), fs_(fs), biquad_(dsp::design_notch(f0_hz, q, fs)) {}

void RealNotch::tune(double f0_hz) {
  f0_ = f0_hz;
  biquad_.set_coeffs(dsp::design_notch(f0_hz, q_, fs_));
}

RealWaveform RealNotch::process(const RealWaveform& x) {
  detail::require(x.sample_rate() == fs_, "RealNotch: sample-rate mismatch");
  return RealWaveform(biquad_.process(x.samples()), fs_);
}

ComplexNotch::ComplexNotch(double f0_hz, double fs, double pole_radius)
    : f0_(f0_hz), fs_(fs), r_(pole_radius) {
  detail::require(fs > 0.0, "ComplexNotch: fs must be positive");
  detail::require(std::abs(f0_hz) < fs / 2.0, "ComplexNotch: |f0| must be < fs/2");
  detail::require(pole_radius > 0.0 && pole_radius < 1.0,
                  "ComplexNotch: pole radius must be in (0,1)");
  zero_rot_ = std::polar(1.0, two_pi * f0_ / fs_);
}

void ComplexNotch::tune(double f0_hz) {
  detail::require(std::abs(f0_hz) < fs_ / 2.0, "ComplexNotch::tune: |f0| must be < fs/2");
  f0_ = f0_hz;
  zero_rot_ = std::polar(1.0, two_pi * f0_ / fs_);
}

double ComplexNotch::bandwidth_3db_hz() const noexcept {
  return fs_ * (1.0 - r_) / pi;
}

void ComplexNotch::process(std::span<cplx> x, double fs) {
  detail::require(fs == fs_, "ComplexNotch: sample-rate mismatch");
  for (cplx& v : x) {
    // y[n] = x[n] - e^{jw0} x[n-1] + r e^{jw0} y[n-1]
    const cplx in = v;
    const cplx y = in - zero_rot_ * prev_in_ + r_ * zero_rot_ * state_;
    prev_in_ = in;
    state_ = y;
    v = y;
  }
}

cplx ComplexNotch::response_at(double f_hz) const {
  const cplx z_inv = std::polar(1.0, -two_pi * f_hz / fs_);
  return (1.0 - zero_rot_ * z_inv) / (1.0 - r_ * zero_rot_ * z_inv);
}

}  // namespace uwb::rf
