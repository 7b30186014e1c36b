#pragma once
/// \file flash_adc.h
/// \brief Flash converter with per-comparator threshold offsets, and the
///        4-way time-interleaved wrapper of the gen-1 chip's "2 GSPS FLASH
///        Interleaved Analog to Digital Converter" (paper Fig. 1).

#include <memory>

#include "adc/quantizer.h"
#include "common/isa.h"
#include "common/rng.h"

namespace uwb::adc {
class TimeInterleavedAdc;
}  // namespace uwb::adc

namespace uwb::detail {

/// TimeInterleavedAdc::convert_block(const float*, ...) with the ladder
/// clone for \p isa forced instead of the host's choice, so tests can
/// compare every clone's bytes with the portable one. \p isa must satisfy
/// isa_supported().
void convert_block(adc::TimeInterleavedAdc& adc, Isa isa, const float* x, std::size_t n,
                   float* levels) noexcept;

}  // namespace uwb::detail

namespace uwb::adc {

/// Flash ADC parameters.
struct FlashParams {
  int bits = 4;
  double full_scale = 1.0;
  double comparator_offset_sigma = 0.0;  ///< offset stddev as a fraction of one LSB
};

/// 2^bits - 1 comparators against a resistor ladder; each threshold carries
/// a static random offset (drawn once at construction, as in silicon).
class FlashAdc final : public Adc {
 public:
  FlashAdc(const FlashParams& params, Rng& rng);

  [[nodiscard]] int bits() const noexcept override { return params_.bits; }
  [[nodiscard]] double full_scale() const noexcept override { return params_.full_scale; }
  [[nodiscard]] int convert(double x) noexcept override;
  [[nodiscard]] double level_of(int code) const noexcept override;

  /// The (offset-perturbed) threshold array, ascending.
  [[nodiscard]] const RealVec& thresholds() const noexcept { return thresholds_; }

 private:
  FlashParams params_;
  RealVec thresholds_;
  double lsb_;
};

/// Per-lane mismatch of the interleaved converter.
struct InterleaveMismatch {
  double gain_sigma = 0.0;       ///< lane gain error stddev (fraction, e.g. 0.01)
  double offset_sigma = 0.0;     ///< lane offset stddev (fraction of full scale)
  double timing_skew_sigma_s = 0.0;  ///< lane sample-time skew stddev [s]
};

/// M-way time-interleaved ADC: lane k converts samples k, k+M, k+2M, ...
/// Lane gain/offset mismatch is applied per conversion; timing skew is
/// handled upstream by SampleAndHold (which knows the analog waveform).
class TimeInterleavedAdc final : public Adc {
 public:
  /// Builds \p num_lanes flash sub-ADCs with independent comparator offsets
  /// and lane mismatch drawn from \p mismatch.
  TimeInterleavedAdc(int num_lanes, const FlashParams& lane_params,
                     const InterleaveMismatch& mismatch, Rng& rng);

  [[nodiscard]] int bits() const noexcept override;
  [[nodiscard]] double full_scale() const noexcept override;

  /// Converts one sample through the current lane, then advances the lane
  /// counter (call reset() at a packet boundary for reproducibility).
  [[nodiscard]] int convert(double x) noexcept override;
  [[nodiscard]] double level_of(int code) const noexcept override;

  /// Converts \p n samples and writes each one's reconstruction level:
  /// bit-identical to calling level_of(convert(x[i])) in a loop (same lane
  /// rotation, gain/offset perturbation and thermometer count), but the
  /// comparator bank runs branch-free -- code = sum of (threshold <= v)
  /// over the sorted ladder -- instead of a per-sample binary search.
  void convert_block(const double* x, std::size_t n, double* levels) noexcept;

  /// Single-precision block conversion (the gen-1 float sample arena).
  /// Same lane rotation and thermometer count against float-rounded ladders
  /// built once at construction; with a shared full scale the reconstruction
  /// levels +/-(c + 0.5) * lsb are exact in float for converter resolutions
  /// up to the dyadic limit, so only threshold-crossing samples can differ
  /// from the double path. A 4-lane converter runs its ladder compares on
  /// 4/8/16 samples at once (portable/AVX2/AVX-512, common/isa.h); every
  /// level writes the bytes of the per-sample loop.
  void convert_block(const float* x, std::size_t n, float* levels) noexcept;

  void reset() noexcept override { lane_ = 0; }

  [[nodiscard]] int num_lanes() const noexcept { return static_cast<int>(lanes_.size()); }
  [[nodiscard]] double lane_gain(int lane) const { return gains_.at(static_cast<std::size_t>(lane)); }
  [[nodiscard]] double lane_offset(int lane) const { return offsets_.at(static_cast<std::size_t>(lane)); }
  [[nodiscard]] double lane_skew_s(int lane) const { return skews_s_.at(static_cast<std::size_t>(lane)); }

 private:
  std::vector<FlashAdc> lanes_;
  RealVec gains_;
  RealVec offsets_;
  RealVec skews_s_;
  std::size_t lane_ = 0;
  int last_lane_used_ = 0;

  // Float mirrors for the single-precision block path, built once at
  // construction: per-lane ladders padded to a multiple of 8 with +inf (the
  // thermometer count loop then has a fixed vectorizable trip count).
  std::vector<std::vector<float>> thr_f_;
  std::vector<float> gains_f_;
  std::vector<float> offsets_f_;
  float level_base_f_ = 0.0f;  ///< level_of(0) = -full_scale + lsb/2
  float lsb_f_ = 0.0f;
  // Transposed ladder for the pattern-blocked 4-lane path: row t holds
  // threshold t of lanes 0..3, repeated to kBlockRow entries, so a block of
  // consecutive samples starting on lane 0 compares against one contiguous
  // unit-stride row (vectorizes across the block instead of needing a
  // horizontal reduction per sample). Gains and offsets repeat the same way.
  static constexpr std::size_t kBlockRow = 16;
  std::vector<float> thr_t_;
  std::vector<float> gains_row_;
  std::vector<float> offsets_row_;
  std::size_t thr_rows_ = 0;  ///< unpadded ladder length (2^bits - 1)

  friend void detail::convert_block(TimeInterleavedAdc& adc, Isa isa, const float* x,
                                    std::size_t n, float* levels) noexcept;
};

}  // namespace uwb::adc
