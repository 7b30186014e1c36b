#include "adc/flash_adc.h"

#include <algorithm>
#include <cmath>
#include <cstdint>
#include <limits>

#include "common/error.h"
#include "common/simd.h"

namespace uwb::adc {

FlashAdc::FlashAdc(const FlashParams& params, Rng& rng) : params_(params) {
  detail::require(params.bits >= 1 && params.bits <= 10, "FlashAdc: bits must be in [1,10]");
  detail::require(params.full_scale > 0.0, "FlashAdc: full scale must be positive");
  const int num_codes = 1 << params.bits;
  lsb_ = 2.0 * params.full_scale / num_codes;
  thresholds_.resize(static_cast<std::size_t>(num_codes - 1));
  for (int k = 1; k < num_codes; ++k) {
    const double nominal = -params.full_scale + k * lsb_;
    const double offset = rng.gaussian(0.0, params.comparator_offset_sigma * lsb_);
    thresholds_[static_cast<std::size_t>(k - 1)] = nominal + offset;
  }
  // A real flash keeps its ladder ordered even with offsets: bubble-error
  // correction in the thermometer decoder amounts to sorting.
  std::sort(thresholds_.begin(), thresholds_.end());
}

int FlashAdc::convert(double x) noexcept {
  // Thermometer: count comparators tripped (thresholds ascending).
  const auto it = std::upper_bound(thresholds_.begin(), thresholds_.end(), x);
  return static_cast<int>(std::distance(thresholds_.begin(), it));
}

double FlashAdc::level_of(int code) const noexcept {
  const int num_codes = 1 << params_.bits;
  const int c = std::clamp(code, 0, num_codes - 1);
  return -params_.full_scale + (static_cast<double>(c) + 0.5) * lsb_;
}

TimeInterleavedAdc::TimeInterleavedAdc(int num_lanes, const FlashParams& lane_params,
                                       const InterleaveMismatch& mismatch, Rng& rng) {
  detail::require(num_lanes >= 1 && num_lanes <= 64,
                  "TimeInterleavedAdc: lanes must be in [1,64]");
  lanes_.reserve(static_cast<std::size_t>(num_lanes));
  for (int k = 0; k < num_lanes; ++k) {
    lanes_.emplace_back(lane_params, rng);
    gains_.push_back(1.0 + rng.gaussian(0.0, mismatch.gain_sigma));
    offsets_.push_back(rng.gaussian(0.0, mismatch.offset_sigma * lane_params.full_scale));
    skews_s_.push_back(rng.gaussian(0.0, mismatch.timing_skew_sigma_s));
  }
  // Float mirrors for the single-precision block path. Ladders are padded
  // to a multiple of 8 with +inf so the count loop's trip count is fixed
  // and vectorizable; +inf never trips a comparator.
  const double lsb = 2.0 * lane_params.full_scale / (1 << lane_params.bits);
  lsb_f_ = static_cast<float>(lsb);
  level_base_f_ = static_cast<float>(-lane_params.full_scale + 0.5 * lsb);
  thr_f_.resize(lanes_.size());
  for (std::size_t k = 0; k < lanes_.size(); ++k) {
    const RealVec& thr = lanes_[k].thresholds();
    const std::size_t padded = (thr.size() + 7) / 8 * 8;
    thr_f_[k].assign(padded, std::numeric_limits<float>::infinity());
    for (std::size_t t = 0; t < thr.size(); ++t) {
      thr_f_[k][t] = static_cast<float>(thr[t]);
    }
    gains_f_.push_back(static_cast<float>(gains_[k]));
    offsets_f_.push_back(static_cast<float>(offsets_[k]));
  }
  thr_rows_ = lanes_.front().thresholds().size();
  thr_t_.resize(thr_rows_ * kBlockRow);
  for (std::size_t c = 0; c < kBlockRow; ++c) {
    const std::size_t k = c % lanes_.size();
    for (std::size_t t = 0; t < thr_rows_; ++t) {
      thr_t_[t * kBlockRow + c] = static_cast<float>(lanes_[k].thresholds()[t]);
    }
    gains_row_.push_back(gains_f_[k]);
    offsets_row_.push_back(offsets_f_[k]);
  }
}

int TimeInterleavedAdc::bits() const noexcept { return lanes_.front().bits(); }

double TimeInterleavedAdc::full_scale() const noexcept { return lanes_.front().full_scale(); }

int TimeInterleavedAdc::convert(double x) noexcept {
  const std::size_t lane = lane_;
  lane_ = (lane_ + 1) % lanes_.size();
  last_lane_used_ = static_cast<int>(lane);
  // Lane gain/offset error applied to the analog input before conversion.
  const double perturbed = gains_[lane] * x + offsets_[lane];
  return lanes_[lane].convert(perturbed);
}

double TimeInterleavedAdc::level_of(int code) const noexcept {
  return lanes_[static_cast<std::size_t>(last_lane_used_)].level_of(code);
}

void TimeInterleavedAdc::convert_block(const double* x, std::size_t n,
                                       double* levels) noexcept {
  const std::size_t num_lanes = lanes_.size();
  std::size_t lane = lane_;
  for (std::size_t i = 0; i < n; ++i) {
    const double v = gains_[lane] * x[i] + offsets_[lane];
    const RealVec& thr = lanes_[lane].thresholds();
    // Thermometer decode: upper_bound's count of thresholds <= v, computed
    // branch-free over the whole (sorted) ladder.
    int code = 0;
    const std::size_t num_thr = thr.size();
    for (std::size_t t = 0; t < num_thr; ++t) {
      code += static_cast<int>(thr[t] <= v);
    }
    levels[i] = lanes_[lane].level_of(code);
    lane = (lane + 1) % num_lanes;
  }
  if (n > 0) {
    last_lane_used_ = static_cast<int>((lane + num_lanes - 1) % num_lanes);
  }
  lane_ = lane;
}

void TimeInterleavedAdc::convert_block(const float* x, std::size_t n,
                                       float* levels) noexcept {
  detail::convert_block(*this, host_isa(), x, n, levels);
}

namespace {

/// What the ladder body reads of a 4-lane converter: one row per threshold,
/// row_stride entries apart, holding that threshold for lanes 0,1,2,3,0,1,...;
/// the lane gains and offsets follow the same pattern.
struct LadderRows {
  const float* thr_t;
  std::size_t rows;
  std::size_t row_stride;
  const float* gains;
  const float* offsets;
  float level_base;
  float lsb;
};

/// The one ladder body every clone compiles: whole blocks of kW samples
/// starting on lane 0, each sample compared against every threshold of its
/// lane (one row per threshold) and counted in its own lane. Returns the
/// number of samples converted, a multiple of kW (and so of 4).
template <std::size_t kW>
[[gnu::always_inline]] inline std::size_t ladder_blocks(const LadderRows& lad, const float* x,
                                                        std::size_t n, float* levels) noexcept {
  using V = typename simd::Vec<float, kW * sizeof(float)>::type;
  using VI = typename simd::Vec<std::int32_t, kW * sizeof(float)>::type;
  V gain, offset;
  simd::load(gain, lad.gains);
  simd::load(offset, lad.offsets);
  const V base = lad.level_base - V{};
  const V lsb = lad.lsb - V{};
  std::size_t i = 0;
  for (; i + kW <= n; i += kW) {
    V v;
    simd::load(v, x + i);
    v = gain * v + offset;
    VI code = {};
    const float* row = lad.thr_t;
    for (std::size_t t = 0; t < lad.rows; ++t, row += lad.row_stride) {
      V thr;
      simd::load(thr, row);
      code -= (thr <= v);  // a tripped comparator reads -1
    }
    simd::store(levels + i, base + __builtin_convertvector(code, V) * lsb);
  }
  return i;
}

[[UWB_CLONE_PORTABLE]] std::size_t ladder_portable(const LadderRows& lad, const float* x,
                                                   std::size_t n, float* levels) noexcept {
  return ladder_blocks<4>(lad, x, n, levels);
}

#ifdef UWB_SIMD_X86
[[UWB_CLONE_AVX2]] std::size_t ladder_avx2(const LadderRows& lad, const float* x,
                                           std::size_t n, float* levels) noexcept {
  return ladder_blocks<8>(lad, x, n, levels);
}

[[UWB_CLONE_AVX512]] std::size_t ladder_avx512(const LadderRows& lad, const float* x,
                                               std::size_t n, float* levels) noexcept {
  return ladder_blocks<16>(lad, x, n, levels);
}
#endif

std::size_t ladder_on(Isa isa, const LadderRows& lad, const float* x, std::size_t n,
                      float* levels) noexcept {
  switch (isa) {
#ifdef UWB_SIMD_X86
    case Isa::kAvx512:
      return ladder_avx512(lad, x, n, levels);
    case Isa::kAvx2:
      return ladder_avx2(lad, x, n, levels);
#endif
    default:
      return ladder_portable(lad, x, n, levels);
  }
}

}  // namespace

}  // namespace uwb::adc

namespace uwb::detail {

void convert_block(adc::TimeInterleavedAdc& adc, Isa isa, const float* x, std::size_t n,
                   float* levels) noexcept {
  const std::size_t num_lanes = adc.lanes_.size();
  std::size_t lane = adc.lane_;
  const auto convert_one = [&](std::size_t i) {
    const float v = adc.gains_f_[lane] * x[i] + adc.offsets_f_[lane];
    const float* thr = adc.thr_f_[lane].data();
    const std::size_t num_thr = adc.thr_f_[lane].size();  // padded, multiple of 8
    std::int32_t code = 0;
    for (std::size_t t = 0; t < num_thr; ++t) {
      code += static_cast<std::int32_t>(thr[t] <= v);
    }
    levels[i] = adc.level_base_f_ + static_cast<float>(code) * adc.lsb_f_;
    lane = (lane + 1) % num_lanes;
  };
  std::size_t i = 0;
  // Pattern-blocked path for the gen-1 4-lane converter: once the rotation
  // reaches lane 0, consecutive samples hit lanes 0..3 in turn, so whole
  // blocks compare against the transposed ladder rows with no per-sample
  // horizontal reduction. Same compares against the same float ladders as
  // the per-sample loop, in an order that never changes any count.
  if (num_lanes == 4) {
    for (; i < n && lane != 0; ++i) convert_one(i);
    const adc::LadderRows lad{adc.thr_t_.data(), adc.thr_rows_, adc.kBlockRow,
                              adc.gains_row_.data(), adc.offsets_row_.data(),
                              adc.level_base_f_, adc.lsb_f_};
    i += adc::ladder_on(isa, lad, x + i, n - i, levels + i);  // lane stays 0
  }
  for (; i < n; ++i) convert_one(i);
  if (n > 0) {
    adc.last_lane_used_ = static_cast<int>((lane + num_lanes - 1) % num_lanes);
  }
  adc.lane_ = lane;
}

}  // namespace uwb::detail
