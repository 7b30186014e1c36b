#pragma once
/// \file sampling.h
/// \brief Sample-and-hold front end: rate reduction from the "analog"
///        (oversampled) waveform to the ADC clock, with aperture jitter and
///        per-lane timing skew via fractional-delay interpolation.

#include <span>
#include <utility>

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

class SampleAndHold;

/// The per-capture set-up of time-interleaved sampling, made once by
/// SampleAndHold::plan_interleaved() for a capture of x_len samples and
/// reused by every range of it: the output count and, at an integer
/// oversampling ratio without jitter, each lane's input offset and
/// interpolation weights plus the outputs whose input needs no range
/// check. Reads the lane skews it was made from, which must outlive it.
class InterleavedPlan {
 public:
  [[nodiscard]] std::size_t output_size() const noexcept { return n_out_; }

  /// Samples outputs [first, first + count) into out[0 .. count), with the
  /// bytes SampleAndHold::sample_interleaved_to() writes at out[first ..]
  /// (sample k uses lane k % lanes). \p x holds the capture from sample
  /// \p x_first on and must cover input_range(first, count). Without
  /// aperture jitter only that input is read; with jitter the Gaussians of
  /// samples 0 .. first + count are drawn in order, as the whole-capture
  /// call does up to there. Requires first + count <= output_size().
  void sample(const float* x, std::size_t x_first, Rng& rng, std::size_t first,
              std::size_t count, float* out) const;

  /// The capture samples [lo, hi) that sampling outputs [first, first +
  /// count) can read, within [0, x_len): all of it under aperture jitter,
  /// where an instant can land anywhere.
  [[nodiscard]] std::pair<std::size_t, std::size_t> input_range(std::size_t first,
                                                                std::size_t count) const noexcept;

 private:
  friend class SampleAndHold;

  [[nodiscard]] double position(std::size_t k) const noexcept;

  SamplingParams params_;
  std::span<const double> skews_;
  std::size_t x_len_ = 0;
  double fs_in_ = 0.0;
  double inv_rate_ = 0.0;
  std::size_t n_out_ = 0;
  double min_lead_ = 0.0;  ///< min / max of phase + skew over the lanes, in seconds
  double max_lead_ = 0.0;
  // Integer ratio without jitter: instants advance `stride_` input samples.
  bool lanes_ = false;
  std::size_t stride_ = 0;
  std::ptrdiff_t off_[64] = {};
  float w0_[64] = {};
  float w1_[64] = {};
  std::ptrdiff_t min_off_ = 0;
  std::ptrdiff_t max_off_ = 0;
  std::size_t core_lo_ = 0;  ///< outputs [core_lo_, core_hi_) read inside the input
  std::size_t core_hi_ = 0;
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

  /// The set-up of sample_interleaved_to() for a capture of \p x_len
  /// samples at \p fs_in, to sample it range by range.
  [[nodiscard]] InterleavedPlan plan_interleaved(std::size_t x_len, double fs_in,
                                                 const RealVec& lane_skews_s) const;

 private:
  template <typename T>
  std::size_t sample_impl(const T* x, std::size_t x_len, double fs_in, Rng& rng, T* out) const;
  template <typename T>
  [[nodiscard]] std::vector<T> sample_vec(const std::vector<T>& x, double fs_in, Rng& rng) const;

  SamplingParams params_;
};

}  // namespace uwb::adc
