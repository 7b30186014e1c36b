#include "dsp/resampler.h"

#include "common/error.h"
#include "dsp/filter_design.h"
#include "dsp/fir_filter.h"

namespace uwb::dsp {

namespace {

template <typename T>
std::vector<T> zero_stuff(const std::vector<T>& x, int factor) {
  std::vector<T> out(x.size() * static_cast<std::size_t>(factor), T{});
  for (std::size_t i = 0; i < x.size(); ++i) out[i * factor] = x[i];
  return out;
}

/// Keeps every factor-th sample of an already filtered signal.
template <typename T>
std::vector<T> keep_every(const std::vector<T>& x, int factor) {
  std::vector<T> out;
  out.reserve(x.size() / static_cast<std::size_t>(factor) + 1);
  for (std::size_t i = 0; i < x.size(); i += static_cast<std::size_t>(factor)) {
    out.push_back(x[i]);
  }
  return out;
}

}  // namespace

RealWaveform upsample(const RealWaveform& x, int factor, std::size_t filter_taps) {
  detail::require(factor >= 1, "upsample: factor must be >= 1");
  if (factor == 1) return x;
  const double new_fs = x.sample_rate() * factor;
  auto stuffed = zero_stuff(x.samples(), factor);
  // Interpolation filter: cutoff at the old Nyquist, gain = factor to
  // preserve amplitude after zero-stuffing.
  RealVec taps = design_lowpass(0.45 * x.sample_rate(), new_fs, filter_taps);
  for (auto& t : taps) t *= factor;
  return RealWaveform(convolve_same(stuffed, taps), new_fs);
}

CplxWaveform upsample(const CplxWaveform& x, int factor, std::size_t filter_taps) {
  detail::require(factor >= 1, "upsample: factor must be >= 1");
  if (factor == 1) return x;
  const double new_fs = x.sample_rate() * factor;
  auto stuffed = zero_stuff(x.samples(), factor);
  RealVec taps = design_lowpass(0.45 * x.sample_rate(), new_fs, filter_taps);
  for (auto& t : taps) t *= factor;
  return CplxWaveform(convolve_same(stuffed, taps), new_fs);
}

RealWaveform decimate(const RealWaveform& x, int factor, std::size_t filter_taps) {
  detail::require(factor >= 1, "decimate: factor must be >= 1");
  if (factor == 1) return x;
  const double new_fs = x.sample_rate() / factor;
  const RealVec taps = design_lowpass(0.45 * new_fs, x.sample_rate(), filter_taps);
  auto filtered = convolve_same(x.samples(), taps);
  return RealWaveform(keep_every(filtered, factor), new_fs);
}

CplxWaveform decimate(const CplxWaveform& x, int factor, std::size_t filter_taps) {
  detail::require(factor >= 1, "decimate: factor must be >= 1");
  if (factor == 1) return x;
  const double new_fs = x.sample_rate() / factor;
  const RealVec taps = design_lowpass(0.45 * new_fs, x.sample_rate(), filter_taps);
  auto filtered = convolve_same(x.samples(), taps);
  return CplxWaveform(keep_every(filtered, factor), new_fs);
}

}  // namespace uwb::dsp
