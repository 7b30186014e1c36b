#pragma once
/// \file biquad.h
/// \brief Second-order IIR sections (RBJ cookbook designs). The tunable
///        notch used by the RF front end to suppress the narrowband
///        interferer flagged by the digital spectral monitor is built here.

#include <cstddef>

#include "common/types.h"

namespace uwb::dsp {

/// Normalized biquad coefficients (a0 == 1).
struct BiquadCoeffs {
  double b0 = 1.0, b1 = 0.0, b2 = 0.0;
  double a1 = 0.0, a2 = 0.0;
};

/// RBJ notch at \p f0_hz with quality factor \p q (bandwidth f0/q).
BiquadCoeffs design_notch(double f0_hz, double q, double fs);

/// RBJ second-order Butterworth-style lowpass at \p f0_hz.
BiquadCoeffs design_biquad_lowpass(double f0_hz, double q, double fs);

/// Complex response of a biquad at frequency \p f (for verification).
cplx biquad_response_at(const BiquadCoeffs& c, double f_hz, double fs);

/// Direct-form-II-transposed stateful biquad over real or complex samples.
template <typename T>
class Biquad {
 public:
  Biquad() = default;
  explicit Biquad(const BiquadCoeffs& c) : c_(c) {}

  void set_coeffs(const BiquadCoeffs& c) noexcept { c_ = c; }
  [[nodiscard]] const BiquadCoeffs& coeffs() const noexcept { return c_; }

  T step(T x) noexcept {
    const T y = x * c_.b0 + z1_;
    z1_ = x * c_.b1 - y * c_.a1 + z2_;
    z2_ = x * c_.b2 - y * c_.a2;
    return y;
  }

  std::vector<T> process(const std::vector<T>& x) {
    std::vector<T> y(x.size());
    for (std::size_t i = 0; i < x.size(); ++i) y[i] = step(x[i]);
    return y;
  }

  void reset() noexcept {
    z1_ = T{};
    z2_ = T{};
  }

 private:
  BiquadCoeffs c_{};
  T z1_{};
  T z2_{};
};

/// Cascade of biquad sections (e.g. a deeper notch from two sections).
template <typename T>
class BiquadCascade {
 public:
  BiquadCascade() = default;
  explicit BiquadCascade(const std::vector<BiquadCoeffs>& sections) {
    for (const auto& c : sections) stages_.emplace_back(c);
  }

  [[nodiscard]] std::size_t num_sections() const noexcept { return stages_.size(); }

  T step(T x) noexcept {
    for (auto& st : stages_) x = st.step(x);
    return x;
  }

  std::vector<T> process(const std::vector<T>& x) {
    std::vector<T> y(x.size());
    for (std::size_t i = 0; i < x.size(); ++i) y[i] = step(x[i]);
    return y;
  }

  void reset() noexcept {
    for (auto& st : stages_) st.reset();
  }

 private:
  std::vector<Biquad<T>> stages_;
};

}  // namespace uwb::dsp
