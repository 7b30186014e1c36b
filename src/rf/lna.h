#pragma once
/// \file lna.h
/// \brief Behavioral low-noise amplifier: gain, noise figure and soft
///        compression. Section 1 requires the RF front end to "meet the
///        specifications on noise figure and linearity over a bandwidth
///        larger than 500 MHz"; this model supplies those specifications as
///        parameters.
///
/// The simulator's waveforms are unitless, so linearity is specified as
/// *headroom*: the soft-limiting knee sits headroom_db above the input's
/// rms level. A large headroom (default 20 dB) models an amplifier
/// operating in its linear region; small values model front-end overload
/// (e.g. a strong in-band interferer driving the LNA into compression).

#include <cstddef>

#include "common/isa.h"
#include "common/rng.h"
#include "common/types.h"

namespace uwb::rf {

/// LNA parameters.
struct LnaParams {
  double gain_db = 15.0;
  double noise_figure_db = 4.0;
  double headroom_db = 20.0;  ///< compression knee above input rms
};

/// Gain + additive noise + tanh envelope limiter on complex baseband.
///
/// Noise injection needs a reference: \p input_noise_variance is the total
/// input-referred noise power per sample already present (e.g. from the
/// channel). The LNA adds (F - 1) times that, the standard excess-noise
/// view of noise figure, so a noiseless configuration adds nothing.
///
/// A sample v is limited to v * sat * tanh(|v| / sat) / |v|. That factor is
/// a function of w = |v|^2 / sat^2 alone, and for w <= 1 it is evaluated as
/// a rational in w from tanh's continued fraction, within a few ulp of the
/// libm formula; larger and non-finite samples take the libm formula itself
/// (see docs/performance.md, "The gen-2 front-end workspace").
class Lna {
 public:
  explicit Lna(const LnaParams& params);

  [[nodiscard]] const LnaParams& params() const noexcept { return params_; }

  [[nodiscard]] double gain_linear() const noexcept { return gain_amp_; }

  /// Amplifies \p n complex baseband samples of \p in into \p out, which
  /// may equal \p in. The limiter's knee follows the rms of \p in; the
  /// excess noise is drawn one complex sample at a time, in sample order.
  void process(const cplx* in, std::size_t n, double input_noise_variance, Rng& rng,
               cplx* out) const;

  /// The saturation amplitude the limiter would use for an input of the
  /// given rms level.
  [[nodiscard]] double saturation_amplitude(double input_rms) const noexcept;

 private:
  LnaParams params_;
  double gain_amp_;
  double excess_noise_factor_;  ///< F - 1, linear
  double headroom_amp_;
};

}  // namespace uwb::rf

namespace uwb::detail {

/// The factor the limiter multiplies a sample (re, im) by at saturation
/// amplitude \p sat: sat * tanh(m / sat) / m with m = |(re, im)|, and 1 when
/// sat is not positive or m < 1e-300. Bit for bit what every kernel clone
/// applies.
[[nodiscard]] double lna_compression_factor(double re, double im, double sat) noexcept;

/// out[i] = in[i] * lna_compression_factor(in[i], sat) * gain (each part
/// multiplied by the factor, then by the gain) with the clone for \p isa
/// forced instead of the host's choice, so tests can compare every clone's
/// bytes with the portable one. \p out may equal \p in; \p isa must satisfy
/// isa_supported().
void lna_compress(Isa isa, const cplx* in, std::size_t n, double sat, double gain,
                  cplx* out) noexcept;

}  // namespace uwb::detail
