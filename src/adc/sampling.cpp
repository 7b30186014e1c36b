#include "adc/sampling.h"

#include <algorithm>
#include <cmath>
#include <cstdint>

#include "common/error.h"

namespace uwb::adc {

SampleAndHold::SampleAndHold(const SamplingParams& params) : params_(params) {
  detail::require(params.adc_rate_hz > 0.0, "SampleAndHold: ADC rate must be positive");
  detail::require(params.aperture_jitter_rms_s >= 0.0,
                  "SampleAndHold: jitter must be non-negative");
}

template <typename T>
std::size_t SampleAndHold::sample_impl(const T* x, std::size_t x_len, double fs_in, Rng& rng,
                                       T* out) const {
  const double ratio = fs_in / params_.adc_rate_hz;
  detail::require(ratio >= 1.0 - 1e-9, "SampleAndHold: input rate below ADC rate");
  const auto n_out = static_cast<std::size_t>(
      std::floor(static_cast<double>(x_len) / ratio));
  std::fill(out, out + n_out, T{});
  const bool jitter = params_.aperture_jitter_rms_s > 0.0;
  // floor(pos) + 1 >= x_len exactly when pos >= x_len - 1 (an integer).
  const double last = static_cast<double>(x_len) - 1.0;
  for (std::size_t k = 0; k < n_out; ++k) {
    double t_s = static_cast<double>(k) / params_.adc_rate_hz + params_.phase_offset_s;
    if (jitter) t_s += rng.gaussian(0.0, params_.aperture_jitter_rms_s);
    const double pos = t_s * fs_in;
    if (pos < 0.0) continue;
    if (pos >= last) break;
    // 0 <= pos < x_len - 1: the signed conversions truncate and convert
    // back as the unsigned ones would, without their range fix-ups.
    const auto i0 = static_cast<std::int64_t>(pos);
    const double frac = pos - static_cast<double>(i0);
    out[k] = x[i0] * (1.0 - frac) + x[i0 + 1] * frac;
  }
  return n_out;
}

template <typename T>
std::vector<T> SampleAndHold::sample_vec(const std::vector<T>& x, double fs_in,
                                         Rng& rng) const {
  detail::require(fs_in / params_.adc_rate_hz >= 1.0 - 1e-9,
                  "SampleAndHold: input rate below ADC rate");
  std::vector<T> out(output_size(x.size(), fs_in));
  sample_impl(x.data(), x.size(), fs_in, rng, out.data());
  return out;
}

RealWaveform SampleAndHold::sample(const RealWaveform& analog, Rng& rng) const {
  return RealWaveform(sample_vec(analog.samples(), analog.sample_rate(), rng),
                      params_.adc_rate_hz);
}

CplxWaveform SampleAndHold::sample(const CplxWaveform& analog, Rng& rng) const {
  return CplxWaveform(sample_vec(analog.samples(), analog.sample_rate(), rng),
                      params_.adc_rate_hz);
}

std::size_t SampleAndHold::sample_to(const cplx* x, std::size_t x_len, double fs_in, Rng& rng,
                                     cplx* out) const {
  return sample_impl(x, x_len, fs_in, rng, out);
}

std::size_t SampleAndHold::output_size(std::size_t x_len, double fs_in) const noexcept {
  const double ratio = fs_in / params_.adc_rate_hz;
  return static_cast<std::size_t>(std::floor(static_cast<double>(x_len) / ratio));
}

std::size_t SampleAndHold::sample_interleaved_to(const float* x, std::size_t x_len,
                                                 double fs_in, const RealVec& lane_skews_s,
                                                 Rng& rng, float* out) const {
  const InterleavedPlan plan = plan_interleaved(x_len, fs_in, lane_skews_s);
  plan.sample(x, 0, rng, 0, plan.output_size(), out);
  return plan.output_size();
}

InterleavedPlan SampleAndHold::plan_interleaved(std::size_t x_len, double fs_in,
                                                const RealVec& lane_skews_s) const {
  const double ratio = fs_in / params_.adc_rate_hz;
  detail::require(ratio >= 1.0 - 1e-9, "SampleAndHold: input rate below ADC rate");
  InterleavedPlan plan;
  plan.params_ = params_;
  plan.skews_ = lane_skews_s;
  plan.x_len_ = x_len;
  plan.fs_in_ = fs_in;
  plan.inv_rate_ = 1.0 / params_.adc_rate_hz;
  plan.n_out_ = static_cast<std::size_t>(std::floor(static_cast<double>(x_len) / ratio));
  plan.min_lead_ = plan.max_lead_ = params_.phase_offset_s;
  for (std::size_t l = 0; l < lane_skews_s.size(); ++l) {
    const double lead = params_.phase_offset_s + lane_skews_s[l];
    plan.min_lead_ = l == 0 ? lead : std::min(plan.min_lead_, lead);
    plan.max_lead_ = l == 0 ? lead : std::max(plan.max_lead_, lead);
  }

  const std::size_t num_lanes = lane_skews_s.size();
  if (params_.aperture_jitter_rms_s <= 0.0 && num_lanes > 0 && num_lanes <= 64 &&
      ratio == std::floor(ratio) && ratio < 1e9) {
    // Integer oversampling ratio (the gen-1 chip: 4 GS/s analog over a
    // 2 GS/s converter): sampling instants advance by exactly `stride`
    // analog samples, so each lane's interpolation fraction is a constant
    // frac((phase + skew) * fs) and the whole resample collapses to a
    // strided lerp -- no per-sample floor or double math.
    plan.lanes_ = true;
    plan.stride_ = static_cast<std::size_t>(ratio);
    for (std::size_t l = 0; l < num_lanes; ++l) {
      const double c = (params_.phase_offset_s + lane_skews_s[l]) * fs_in;
      const double fl = std::floor(c);
      plan.off_[l] = static_cast<std::ptrdiff_t>(fl);
      const auto fr = static_cast<float>(c - fl);
      plan.w0_[l] = 1.0f - fr;
      plan.w1_[l] = fr;
      plan.min_off_ = std::min(plan.min_off_, plan.off_[l]);
      plan.max_off_ = std::max(plan.max_off_, plan.off_[l]);
    }
    // Checked head/tail around an uncheckable core: k in [core_lo, core_hi)
    // has 0 <= k*stride + off[l] and k*stride + off[l] + 1 < x_len for
    // every lane.
    const std::size_t stride = plan.stride_;
    plan.core_lo_ = plan.min_off_ < 0
                        ? (static_cast<std::size_t>(-plan.min_off_) + stride - 1) / stride
                        : 0;
    if (static_cast<std::ptrdiff_t>(x_len) >= plan.max_off_ + 2) {
      plan.core_hi_ = (x_len - 1 - static_cast<std::size_t>(plan.max_off_ + 1)) / stride + 1;
    }
  }
  return plan;
}

double InterleavedPlan::position(std::size_t k) const noexcept {
  double t_s = static_cast<double>(k) * inv_rate_ + params_.phase_offset_s;
  if (!skews_.empty()) t_s += skews_[k % skews_.size()];
  return t_s * fs_in_;
}

void InterleavedPlan::sample(const float* x, std::size_t x_first, Rng& rng, std::size_t first,
                             std::size_t count, float* out) const {
  detail::require(first <= n_out_ && count <= n_out_ - first,
                  "SampleAndHold: sample range past the output");
  const std::size_t end = first + count;
  std::fill(out, out + count, 0.0f);
  const std::size_t num_lanes = skews_.size();
  // x[i - x_first] is capture sample i.
  const auto x0 = static_cast<std::ptrdiff_t>(x_first);

  if (lanes_) {
    const std::size_t core_lo = std::clamp(core_lo_, first, end);
    const std::size_t core_hi = std::clamp(core_hi_, core_lo, end);
    const auto checked = [&](std::size_t begin, std::size_t stop) {
      for (std::size_t k = begin; k < stop; ++k) {
        const std::ptrdiff_t i0 =
            static_cast<std::ptrdiff_t>(k * stride_) + off_[k % num_lanes];
        if (i0 < 0 || static_cast<std::size_t>(i0) + 1 >= x_len_) continue;
        const std::size_t l = k % num_lanes;
        out[k - first] = x[i0 - x0] * w0_[l] + x[i0 - x0 + 1] * w1_[l];
      }
    };
    checked(first, core_lo);
    std::size_t lane = core_lo % num_lanes;
    for (std::size_t k = core_lo; k < core_hi; ++k) {
      const float* xs = x + (static_cast<std::ptrdiff_t>(k * stride_) + off_[lane] - x0);
      out[k - first] = xs[0] * w0_[lane] + xs[1] * w1_[lane];
      lane = (lane + 1 == num_lanes) ? 0 : lane + 1;
    }
    checked(core_hi, end);
    return;
  }

  if (params_.aperture_jitter_rms_s <= 0.0) {
    // Sampling instants are a pure function of k. The per-sample loop stops
    // at the first instant past the input; within one lane the instants
    // only grow, so that stop fell before `first` exactly when it did for
    // the last sample of some lane before `first`.
    const auto past_input = [&](double pos) {
      return pos >= 0.0 && static_cast<std::size_t>(pos) + 1 >= x_len_;
    };
    const std::size_t period = std::max<std::size_t>(num_lanes, 1);
    for (std::size_t k = first - std::min(first, period); k < first; ++k) {
      if (past_input(position(k))) return;
    }
    for (std::size_t k = first; k < end; ++k) {
      const double pos = position(k);
      if (pos < 0.0) continue;
      if (past_input(pos)) break;
      const auto i0 = static_cast<std::size_t>(pos);
      const auto frac = static_cast<float>(pos - static_cast<double>(i0));
      out[k - first] = x[i0 - x_first] * (1.0f - frac) + x[i0 + 1 - x_first] * frac;
    }
    return;
  }

  // Aperture jitter: one Gaussian per sample in sample order, so the draws
  // of every sample before `first` are made (and dropped) as well.
  for (std::size_t k = 0; k < end; ++k) {
    double t_s = static_cast<double>(k) * inv_rate_ + params_.phase_offset_s;
    t_s += rng.gaussian(0.0, params_.aperture_jitter_rms_s);
    if (num_lanes > 0) {
      t_s += skews_[k % num_lanes];
    }
    const double pos = t_s * fs_in_;
    if (pos < 0.0) continue;
    const auto i0 = static_cast<std::size_t>(pos);
    if (i0 + 1 >= x_len_) break;
    if (k < first) continue;
    const auto frac = static_cast<float>(pos - static_cast<double>(i0));
    out[k - first] = x[i0 - x_first] * (1.0f - frac) + x[i0 + 1 - x_first] * frac;
  }
}

std::pair<std::size_t, std::size_t> InterleavedPlan::input_range(
    std::size_t first, std::size_t count) const noexcept {
  if (params_.aperture_jitter_rms_s > 0.0) return {0, x_len_};
  if (count == 0) return {0, 0};
  // Sample k interpolates input floor(pos) and floor(pos) + 1; outside the
  // lane path pos is k * ratio + (phase + skew) * fs up to rounding far
  // below one sample, so a sample of margin on each side covers it.
  const std::size_t last = first + count - 1;
  double lo;
  double hi;
  if (lanes_) {
    lo = static_cast<double>(first * stride_) + static_cast<double>(min_off_);
    hi = static_cast<double>(last * stride_) + static_cast<double>(max_off_) + 2.0;
  } else {
    lo = std::floor((static_cast<double>(first) * inv_rate_ + min_lead_) * fs_in_) - 1.0;
    hi = std::floor((static_cast<double>(last) * inv_rate_ + max_lead_) * fs_in_) + 3.0;
  }
  const auto clamp = [&](double v) {
    return v <= 0.0 ? std::size_t{0}
                    : std::min(x_len_, static_cast<std::size_t>(v));
  };
  return {clamp(lo), clamp(hi)};
}

}  // namespace uwb::adc
