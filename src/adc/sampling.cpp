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

std::size_t SampleAndHold::sample_interleaved_to(const double* x, std::size_t x_len,
                                                 double fs_in, const RealVec& lane_skews_s,
                                                 Rng& rng, double* out) const {
  const double ratio = fs_in / params_.adc_rate_hz;
  detail::require(ratio >= 1.0 - 1e-9, "SampleAndHold: input rate below ADC rate");
  const auto n_out = static_cast<std::size_t>(
      std::floor(static_cast<double>(x_len) / ratio));
  std::fill(out, out + n_out, 0.0);
  const std::size_t num_lanes = lane_skews_s.size();
  const bool jitter_free = params_.aperture_jitter_rms_s <= 0.0;

  if (jitter_free && num_lanes > 0) {
    // Hot path of the gen-1 front end: sampling instants are deterministic,
    // so the loop carries only a lane counter -- no RNG, no modulo, no
    // per-sample branch beyond the range clamp.
    std::size_t lane = 0;
    for (std::size_t k = 0; k < n_out; ++k) {
      const double t_s = static_cast<double>(k) / params_.adc_rate_hz +
                         params_.phase_offset_s + lane_skews_s[lane];
      lane = (lane + 1 == num_lanes) ? 0 : lane + 1;
      const double pos = t_s * fs_in;
      if (pos < 0.0) continue;
      const auto i0 = static_cast<std::size_t>(pos);
      if (i0 + 1 >= x_len) break;
      const double frac = pos - static_cast<double>(i0);
      out[k] = x[i0] * (1.0 - frac) + x[i0 + 1] * frac;
    }
    return n_out;
  }

  for (std::size_t k = 0; k < n_out; ++k) {
    double t_s = static_cast<double>(k) / params_.adc_rate_hz + params_.phase_offset_s;
    if (!jitter_free) {
      t_s += rng.gaussian(0.0, params_.aperture_jitter_rms_s);
    }
    if (num_lanes > 0) {
      t_s += lane_skews_s[k % num_lanes];
    }
    const double pos = t_s * fs_in;
    if (pos < 0.0) continue;
    const auto i0 = static_cast<std::size_t>(pos);
    if (i0 + 1 >= x_len) break;
    const double frac = pos - static_cast<double>(i0);
    out[k] = x[i0] * (1.0 - frac) + x[i0 + 1] * frac;
  }
  return n_out;
}

std::size_t SampleAndHold::sample_interleaved_to(const float* x, std::size_t x_len,
                                                 double fs_in, const RealVec& lane_skews_s,
                                                 Rng& rng, float* out) const {
  const double ratio = fs_in / params_.adc_rate_hz;
  detail::require(ratio >= 1.0 - 1e-9, "SampleAndHold: input rate below ADC rate");
  const auto n_out = static_cast<std::size_t>(
      std::floor(static_cast<double>(x_len) / ratio));
  std::fill(out, out + n_out, 0.0f);
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
    k_hi = std::min(k_hi, n_out);
    const auto checked = [&](std::size_t begin, std::size_t end) {
      for (std::size_t k = begin; k < end; ++k) {
        const std::ptrdiff_t i0 =
            static_cast<std::ptrdiff_t>(k * stride) + off[k % num_lanes];
        if (i0 < 0 || static_cast<std::size_t>(i0) + 1 >= x_len) continue;
        const std::size_t l = k % num_lanes;
        out[k] = x[i0] * w0[l] + x[i0 + 1] * w1[l];
      }
    };
    checked(0, std::min(k_lo, n_out));
    std::size_t lane = k_lo % num_lanes;
    for (std::size_t k = k_lo; k < k_hi; ++k) {
      const float* xs = x + static_cast<std::ptrdiff_t>(k * stride) + off[lane];
      out[k] = xs[0] * w0[lane] + xs[1] * w1[lane];
      lane = (lane + 1 == num_lanes) ? 0 : lane + 1;
    }
    checked(std::max(k_hi, k_lo), n_out);
    return n_out;
  }

  if (jitter_free && num_lanes > 0) {
    std::size_t lane = 0;
    for (std::size_t k = 0; k < n_out; ++k) {
      const double t_s = static_cast<double>(k) * inv_rate + params_.phase_offset_s +
                         lane_skews_s[lane];
      lane = (lane + 1 == num_lanes) ? 0 : lane + 1;
      const double pos = t_s * fs_in;
      if (pos < 0.0) continue;
      const auto i0 = static_cast<std::size_t>(pos);
      if (i0 + 1 >= x_len) break;
      const auto frac = static_cast<float>(pos - static_cast<double>(i0));
      out[k] = x[i0] * (1.0f - frac) + x[i0 + 1] * frac;
    }
    return n_out;
  }

  for (std::size_t k = 0; k < n_out; ++k) {
    double t_s = static_cast<double>(k) * inv_rate + params_.phase_offset_s;
    if (!jitter_free) {
      t_s += rng.gaussian(0.0, params_.aperture_jitter_rms_s);
    }
    if (num_lanes > 0) {
      t_s += lane_skews_s[k % num_lanes];
    }
    const double pos = t_s * fs_in;
    if (pos < 0.0) continue;
    const auto i0 = static_cast<std::size_t>(pos);
    if (i0 + 1 >= x_len) break;
    const auto frac = static_cast<float>(pos - static_cast<double>(i0));
    out[k] = x[i0] * (1.0f - frac) + x[i0 + 1] * frac;
  }
  return n_out;
}

}  // namespace uwb::adc
