#pragma once
/// \file sampling.h
/// \brief Sample-and-hold front end: rate reduction from the "analog"
///        (oversampled) waveform to the ADC clock, with aperture jitter and
///        per-lane timing skew via fractional-delay interpolation.

#include "common/rng.h"
#include "common/types.h"
#include "common/waveform.h"

namespace uwb::adc {

/// Sampling parameters.
struct SamplingParams {
  double adc_rate_hz = 2e9;
  double aperture_jitter_rms_s = 0.0;
  double phase_offset_s = 0.0;  ///< static sampling-phase offset
};

/// Samples an oversampled "analog" waveform at the ADC clock. The input
/// rate must be an integer multiple of adc_rate_hz; sampling instants are
/// t_k = k/adc_rate + phase_offset + jitter_k, evaluated by linear
/// interpolation of the input.
class SampleAndHold {
 public:
  explicit SampleAndHold(const SamplingParams& params);

  [[nodiscard]] const SamplingParams& params() const noexcept { return params_; }

  [[nodiscard]] RealWaveform sample(const RealWaveform& analog, Rng& rng) const;
  [[nodiscard]] CplxWaveform sample(const CplxWaveform& analog, Rng& rng) const;

  /// Number of output samples produced from \p x_len input samples at rate
  /// \p fs_in -- pre-size the buffer handed to sample_to() and
  /// sample_interleaved_to().
  [[nodiscard]] std::size_t output_size(std::size_t x_len, double fs_in) const noexcept;

  /// sample() of \p x_len complex samples at \p fs_in into a caller-owned
  /// buffer of output_size() values, with the same bytes and jitter draws.
  /// Returns the number of samples written.
  std::size_t sample_to(const cplx* x, std::size_t x_len, double fs_in, Rng& rng,
                        cplx* out) const;

  /// Per-lane skewed sampling (time-interleaved converters) into a
  /// caller-owned buffer of output_size() floats: lane k of the
  /// lane_skews_s.size() lanes has an extra static skew lane_skews_s[k].
  /// Sampling instants are computed in double; the jitter-free lane path
  /// replaces the per-sample division by a reciprocal multiply (the float
  /// path carries no bit-identity contract with the double sampler) and the
  /// interpolation itself runs in float. Returns the number of samples
  /// written.
  std::size_t sample_interleaved_to(const float* x, std::size_t x_len, double fs_in,
                                    const RealVec& lane_skews_s, Rng& rng,
                                    float* out) const;

  /// The same sampling restricted to outputs [first, first + count) of the
  /// output_size() samples: writes out[0 .. count) with the bytes the
  /// whole-capture call above writes at out[first ..] (sample k uses lane
  /// k % lanes). Without aperture jitter it touches only the
  /// input around those instants; with jitter it draws the Gaussians of
  /// samples 0 .. first + count in order, as the whole-capture call does
  /// up to there. Requires first + count <= output_size(x_len, fs_in).
  void sample_interleaved_to(const float* x, std::size_t x_len, double fs_in,
                             const RealVec& lane_skews_s, Rng& rng, std::size_t first,
                             std::size_t count, float* out) const;

  /// An upper bound on the input that sample_interleaved_to() reads for
  /// outputs [0, end): no input sample at or past the returned index, which
  /// is at most \p x_len. Lets a caller sample a range as soon as its input
  /// is ready. Under aperture jitter an instant can land anywhere: x_len.
  [[nodiscard]] std::size_t input_end(std::size_t x_len, double fs_in,
                                      const RealVec& lane_skews_s,
                                      std::size_t end) const noexcept;

 private:
  template <typename T>
  std::size_t sample_impl(const T* x, std::size_t x_len, double fs_in, Rng& rng, T* out) const;
  template <typename T>
  [[nodiscard]] std::vector<T> sample_vec(const std::vector<T>& x, double fs_in, Rng& rng) const;

  SamplingParams params_;
};

}  // namespace uwb::adc
