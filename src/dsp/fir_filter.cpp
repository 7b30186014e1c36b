#include "dsp/fir_filter.h"

#include <algorithm>
#include <type_traits>

#include "dsp/aligned.h"
#include "dsp/correlator.h"
#include "dsp/fast_convolve.h"

namespace uwb::dsp {

namespace {

template <typename TX, typename TH, typename TY>
std::vector<TY> convolve_direct(const std::vector<TX>& x, const std::vector<TH>& h) {
  if (x.empty() || h.empty()) return {};
  std::vector<TY> y(x.size() + h.size() - 1, TY{});
  for (std::size_t i = 0; i < x.size(); ++i) {
    for (std::size_t k = 0; k < h.size(); ++k) {
      y[i + k] += x[i] * h[k];
    }
  }
  return y;
}

/// Extracts the "same"-mode window in place: shifts the kept samples to the
/// front of the full-convolution buffer and truncates, so no second vector
/// is allocated or copied.
template <typename TY>
std::vector<TY> take_same(std::vector<TY> full, std::size_t x_len, std::size_t h_len) {
  const std::size_t start = (h_len - 1) / 2;
  std::move(full.begin() + static_cast<std::ptrdiff_t>(start),
            full.begin() + static_cast<std::ptrdiff_t>(start + x_len), full.begin());
  full.resize(x_len);
  return full;
}

}  // namespace

RealVec convolve(const RealVec& x, const RealVec& h) {
  if (use_fft_convolve(x.size(), h.size(), ConvKind::kRealReal)) {
    RealVec out;
    ols_convolve(x, h, out, thread_fft_workspace());
    return out;
  }
  return convolve_direct<double, double, double>(x, h);
}

CplxVec convolve(const CplxVec& x, const RealVec& h) {
  if (use_fft_convolve(x.size(), h.size(), ConvKind::kCplxReal)) {
    CplxVec out;
    ols_convolve(x, h, out, thread_fft_workspace());
    return out;
  }
  return convolve_direct<cplx, double, cplx>(x, h);
}

CplxVec convolve(const CplxVec& x, const CplxVec& h) {
  if (use_fft_convolve(x.size(), h.size(), ConvKind::kCplxCplx)) {
    CplxVec out;
    ols_convolve(x, h, out, thread_fft_workspace());
    return out;
  }
  return convolve_direct<cplx, cplx, cplx>(x, h);
}

RealVec convolve_same(const RealVec& x, const RealVec& h) {
  if (x.empty() || h.empty()) return {};
  if (use_fft_convolve(x.size(), h.size(), ConvKind::kRealReal)) {
    return take_same(convolve(x, h), x.size(), h.size());
  }
  RealVec y(x.size());
  convolve_same_to(x.data(), x.size(), h, y.data());
  return y;
}

namespace {

/// Direct "same"-mode kernel shared by the real, float and complex entry
/// points. Gather form over reversed taps: the scatter full convolution adds
/// x[i]*h[k] in ascending-i order, which for a fixed output is descending-k
/// -- i.e. ascending over the reversed kernel. Accumulating that way keeps
/// every double and complex output bit-identical to the scatter form while
/// the interior runs contiguous-stride through dot_bank's vector blocks.
/// Taps are T for real samples and double for complex ones.
template <typename T>
void convolve_same_direct(const T* x, std::size_t x_len, const RealVec& h, T* y) {
  using Tap = std::conditional_t<std::is_same_v<T, cplx>, double, T>;
  const std::size_t h_len = h.size();
  const std::size_t start = (h_len - 1) / 2;
  const TapScratch<Tap> taps(h.data(), h_len, /*reversed=*/true);
  const Tap* r = taps.data();

  const auto n = static_cast<std::ptrdiff_t>(x_len);
  const auto edge_out = [&](std::size_t j) {
    const std::ptrdiff_t off =
        static_cast<std::ptrdiff_t>(j + start) - static_cast<std::ptrdiff_t>(h_len - 1);
    const std::size_t m_lo = off < 0 ? static_cast<std::size_t>(-off) : 0;
    const std::ptrdiff_t m_hi = std::min(static_cast<std::ptrdiff_t>(h_len), n - off);
    T acc{};
    for (std::size_t m = m_lo; static_cast<std::ptrdiff_t>(m) < m_hi; ++m) {
      acc += x[off + static_cast<std::ptrdiff_t>(m)] * r[m];
    }
    y[j] = acc;
  };

  const std::size_t head_end = std::min(h_len - 1 - start, x_len);
  for (std::size_t j = 0; j < head_end; ++j) edge_out(j);
  if (x_len >= h_len) {
    dot_bank(x, x_len - h_len + 1, r, h_len, y + head_end);
    for (std::size_t j = x_len - start; j < x_len; ++j) edge_out(j);
  } else {
    for (std::size_t j = head_end; j < x_len; ++j) edge_out(j);
  }
}

}  // namespace

void convolve_same_to(const double* x, std::size_t x_len, const RealVec& h, double* y) {
  const std::size_t h_len = h.size();
  if (x_len == 0 || h_len == 0) return;
  if (use_fft_convolve(x_len, h_len, ConvKind::kRealReal)) {
    const std::size_t start = (h_len - 1) / 2;
    const RealVec xin(x, x + x_len);
    RealVec full;
    ols_convolve(xin, h, full, thread_fft_workspace());
    std::copy(full.begin() + static_cast<std::ptrdiff_t>(start),
              full.begin() + static_cast<std::ptrdiff_t>(start + x_len), y);
    return;
  }
  convolve_same_direct(x, x_len, h, y);
}

void convolve_same_to(const float* x, std::size_t x_len, const RealVec& h, float* y) {
  if (x_len == 0 || h.empty()) return;
  convolve_same_direct(x, x_len, h, y);
}

CplxVec convolve_same(const CplxVec& x, const RealVec& h) {
  if (x.empty() || h.empty()) return {};
  if (use_fft_convolve(x.size(), h.size(), ConvKind::kCplxReal)) {
    return take_same(convolve(x, h), x.size(), h.size());
  }
  CplxVec y(x.size());
  convolve_same_direct(x.data(), x.size(), h, y.data());
  return y;
}

RealWaveform filter_same(const RealWaveform& x, const RealVec& taps) {
  return RealWaveform(convolve_same(x.samples(), taps), x.sample_rate());
}

CplxWaveform filter_same(const CplxWaveform& x, const RealVec& taps) {
  return CplxWaveform(convolve_same(x.samples(), taps), x.sample_rate());
}

}  // namespace uwb::dsp
