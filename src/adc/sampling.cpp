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
  const std::size_t n_out = output_size(x_len, fs_in);
  sample_interleaved_to(x, x_len, fs_in, lane_skews_s, rng, 0, n_out, out);
  return n_out;
}

void SampleAndHold::sample_interleaved_to(const float* x, std::size_t x_len, double fs_in,
                                          const RealVec& lane_skews_s, Rng& rng,
                                          std::size_t first, std::size_t count,
                                          float* out) const {
  const double ratio = fs_in / params_.adc_rate_hz;
  detail::require(ratio >= 1.0 - 1e-9, "SampleAndHold: input rate below ADC rate");
  const auto n_out = static_cast<std::size_t>(
      std::floor(static_cast<double>(x_len) / ratio));
  detail::require(first <= n_out && count <= n_out - first,
                  "SampleAndHold: sample range past the output");
  const std::size_t end = first + count;
  std::fill(out, out + count, 0.0f);
  const std::size_t num_lanes = lane_skews_s.size();
  const bool jitter_free = params_.aperture_jitter_rms_s <= 0.0;
  const double inv_rate = 1.0 / params_.adc_rate_hz;

  if (jitter_free && num_lanes > 0 && num_lanes <= 64 &&
      ratio == std::floor(ratio) && ratio < 1e9) {
    // Integer oversampling ratio (the gen-1 chip: 4 GS/s analog over a
    // 2 GS/s converter): sampling instants advance by exactly `stride`
    // analog samples, so each lane's interpolation fraction is a constant
    // frac((phase + skew) * fs) and the whole resample collapses to a
    // strided lerp -- no per-sample floor or double math.
    const auto stride = static_cast<std::size_t>(ratio);
    std::ptrdiff_t off[64];
    float w0[64];
    float w1[64];
    std::ptrdiff_t min_off = 0;
    std::ptrdiff_t max_off = 0;
    for (std::size_t l = 0; l < num_lanes; ++l) {
      const double c = (params_.phase_offset_s + lane_skews_s[l]) * fs_in;
      const double fl = std::floor(c);
      off[l] = static_cast<std::ptrdiff_t>(fl);
      const auto fr = static_cast<float>(c - fl);
      w0[l] = 1.0f - fr;
      w1[l] = fr;
      min_off = std::min(min_off, off[l]);
      max_off = std::max(max_off, off[l]);
    }
    // Checked head/tail around an uncheckable core: k in [k_lo, k_hi) has
    // 0 <= k*stride + off[l] and k*stride + off[l] + 1 < x_len for every lane.
    const std::size_t k_lo =
        min_off < 0 ? (static_cast<std::size_t>(-min_off) + stride - 1) / stride : 0;
    std::size_t k_hi = 0;
    if (static_cast<std::ptrdiff_t>(x_len) >= max_off + 2) {
      k_hi = (x_len - 1 - static_cast<std::size_t>(max_off + 1)) / stride + 1;
    }
    const std::size_t core_lo = std::clamp(k_lo, first, end);
    const std::size_t core_hi = std::clamp(k_hi, core_lo, end);
    const auto checked = [&](std::size_t begin, std::size_t stop) {
      for (std::size_t k = begin; k < stop; ++k) {
        const std::ptrdiff_t i0 =
            static_cast<std::ptrdiff_t>(k * stride) + off[k % num_lanes];
        if (i0 < 0 || static_cast<std::size_t>(i0) + 1 >= x_len) continue;
        const std::size_t l = k % num_lanes;
        out[k - first] = x[i0] * w0[l] + x[i0 + 1] * w1[l];
      }
    };
    checked(first, core_lo);
    std::size_t lane = core_lo % num_lanes;
    for (std::size_t k = core_lo; k < core_hi; ++k) {
      const float* xs = x + static_cast<std::ptrdiff_t>(k * stride) + off[lane];
      out[k - first] = xs[0] * w0[lane] + xs[1] * w1[lane];
      lane = (lane + 1 == num_lanes) ? 0 : lane + 1;
    }
    checked(core_hi, end);
    return;
  }

  if (jitter_free) {
    // Sampling instants are a pure function of k. The per-sample loop stops
    // at the first instant past the input; within one lane the instants
    // only grow, so that stop fell before `first` exactly when it did for
    // the last sample of some lane before `first`.
    const auto pos_of = [&](std::size_t k) {
      double t_s = static_cast<double>(k) * inv_rate + params_.phase_offset_s;
      if (num_lanes > 0) t_s += lane_skews_s[k % num_lanes];
      return t_s * fs_in;
    };
    const auto past_input = [&](double pos) {
      return pos >= 0.0 && static_cast<std::size_t>(pos) + 1 >= x_len;
    };
    const std::size_t period = std::max<std::size_t>(num_lanes, 1);
    for (std::size_t k = first - std::min(first, period); k < first; ++k) {
      if (past_input(pos_of(k))) return;
    }
    for (std::size_t k = first; k < end; ++k) {
      const double pos = pos_of(k);
      if (pos < 0.0) continue;
      if (past_input(pos)) break;
      const auto i0 = static_cast<std::size_t>(pos);
      const auto frac = static_cast<float>(pos - static_cast<double>(i0));
      out[k - first] = x[i0] * (1.0f - frac) + x[i0 + 1] * frac;
    }
    return;
  }

  // Aperture jitter: one Gaussian per sample in sample order, so the draws
  // of every sample before `first` are made (and dropped) as well.
  for (std::size_t k = 0; k < end; ++k) {
    double t_s = static_cast<double>(k) * inv_rate + params_.phase_offset_s;
    t_s += rng.gaussian(0.0, params_.aperture_jitter_rms_s);
    if (num_lanes > 0) {
      t_s += lane_skews_s[k % num_lanes];
    }
    const double pos = t_s * fs_in;
    if (pos < 0.0) continue;
    const auto i0 = static_cast<std::size_t>(pos);
    if (i0 + 1 >= x_len) break;
    if (k < first) continue;
    const auto frac = static_cast<float>(pos - static_cast<double>(i0));
    out[k - first] = x[i0] * (1.0f - frac) + x[i0 + 1] * frac;
  }
}

std::size_t SampleAndHold::input_end(std::size_t x_len, double fs_in,
                                     const RealVec& lane_skews_s,
                                     std::size_t end) const noexcept {
  if (end == 0) return 0;
  if (params_.aperture_jitter_rms_s > 0.0) return x_len;
  // Sample k interpolates input floor(pos) and floor(pos) + 1, where pos is
  // k * ratio + (phase + skew) * fs up to rounding far below one sample.
  double lead = params_.phase_offset_s;
  for (const double skew : lane_skews_s) lead = std::max(lead, params_.phase_offset_s + skew);
  const double last = static_cast<double>(end - 1) * (fs_in / params_.adc_rate_hz) + lead * fs_in;
  const double bound = std::ceil(std::max(last, 0.0)) + 3.0;
  return bound >= static_cast<double>(x_len) ? x_len : static_cast<std::size_t>(bound);
}

}  // namespace uwb::adc
