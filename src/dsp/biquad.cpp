#include "dsp/biquad.h"

#include <cmath>

#include "common/error.h"
#include "common/math_utils.h"

namespace uwb::dsp {

namespace {

void check_f0(double f0_hz, double fs) {
  detail::require(f0_hz > 0.0 && f0_hz < fs / 2.0, "biquad design: f0 must be in (0, fs/2)");
  detail::require(fs > 0.0, "biquad design: fs must be positive");
}

}  // namespace

BiquadCoeffs design_notch(double f0_hz, double q, double fs) {
  check_f0(f0_hz, fs);
  detail::require(q > 0.0, "design_notch: q must be positive");
  const double w0 = two_pi * f0_hz / fs;
  const double alpha = std::sin(w0) / (2.0 * q);
  const double cw = std::cos(w0);
  const double a0 = 1.0 + alpha;
  BiquadCoeffs c;
  c.b0 = 1.0 / a0;
  c.b1 = -2.0 * cw / a0;
  c.b2 = 1.0 / a0;
  c.a1 = -2.0 * cw / a0;
  c.a2 = (1.0 - alpha) / a0;
  return c;
}

BiquadCoeffs design_biquad_lowpass(double f0_hz, double q, double fs) {
  check_f0(f0_hz, fs);
  detail::require(q > 0.0, "design_biquad_lowpass: q must be positive");
  const double w0 = two_pi * f0_hz / fs;
  const double alpha = std::sin(w0) / (2.0 * q);
  const double cw = std::cos(w0);
  const double a0 = 1.0 + alpha;
  BiquadCoeffs c;
  c.b0 = (1.0 - cw) / 2.0 / a0;
  c.b1 = (1.0 - cw) / a0;
  c.b2 = (1.0 - cw) / 2.0 / a0;
  c.a1 = -2.0 * cw / a0;
  c.a2 = (1.0 - alpha) / a0;
  return c;
}

cplx biquad_response_at(const BiquadCoeffs& c, double f_hz, double fs) {
  const double w = two_pi * f_hz / fs;
  const cplx z1 = std::polar(1.0, -w);
  const cplx z2 = z1 * z1;
  return (c.b0 + c.b1 * z1 + c.b2 * z2) / (1.0 + c.a1 * z1 + c.a2 * z2);
}

}  // namespace uwb::dsp
