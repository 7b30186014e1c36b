#include "dsp/fir_filter.h"

#include <algorithm>
#include <type_traits>

#include "common/simd.h"
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
      if constexpr (std::is_same_v<TX, cplx> && std::is_same_v<TH, cplx>) {
        // std::complex's product bytes, unfused at -march=native.
        y[i + k] += simd::cmul(x[i], h[k]);
      } else {
        y[i + k] += x[i] * h[k];
      }
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
/// points: outputs [first, last) of the x_len, written to y[0 ..), over the
/// h_len reversed taps \p r. Gather form: the scatter full convolution
/// adds x[i]*h[k] in ascending-i order, which for a fixed output is
/// descending-k -- i.e. ascending over the reversed kernel. Accumulating that way keeps every
/// double and complex output bit-identical to the scatter form while the
/// interior runs contiguous-stride through dot_bank's vector blocks, whose
/// outputs do not depend on where a block starts. Taps are T for real
/// samples and double for complex ones.
template <typename T, typename Tap>
void convolve_same_direct(const T* x, std::size_t x_len, const Tap* r, std::size_t h_len, T* y,
                          std::size_t first, std::size_t last) {
  const std::size_t start = (h_len - 1) / 2;

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
    y[j - first] = acc;
  };

  // Outputs [head_end, tail_begin) see the whole kernel.
  const std::size_t head_end = std::min(h_len - 1 - start, x_len);
  const std::size_t tail_begin = x_len >= h_len ? x_len - start : head_end;
  for (std::size_t j = first; j < std::min(last, head_end); ++j) edge_out(j);
  const std::size_t lo = std::max(first, head_end);
  const std::size_t hi = std::min(last, tail_begin);
  if (lo < hi) dot_bank(x + (lo - head_end), hi - lo, r, h_len, y + (lo - first));
  for (std::size_t j = std::max(first, tail_begin); j < last; ++j) edge_out(j);
}

/// convolve_same_direct() over \p h, reversed and converted per call.
template <typename T>
void convolve_same_direct(const T* x, std::size_t x_len, const RealVec& h, T* y,
                          std::size_t first, std::size_t last) {
  using Tap = std::conditional_t<std::is_same_v<T, cplx>, double, T>;
  const TapScratch<Tap> taps(h.data(), h.size(), /*reversed=*/true);
  convolve_same_direct(x, x_len, taps.data(), h.size(), y, first, last);
}

/// convolve_same_to() above the FFT crossover: the full overlap-save
/// convolution, then its "same" window.
template <typename T>
void convolve_same_fft_to(const T* x, std::size_t x_len, const RealVec& h, T* y) {
  const std::size_t start = (h.size() - 1) / 2;
  const std::vector<T> xin(x, x + x_len);
  std::vector<T> full;
  ols_convolve(xin, h, full, thread_fft_workspace());
  std::copy(full.begin() + static_cast<std::ptrdiff_t>(start),
            full.begin() + static_cast<std::ptrdiff_t>(start + x_len), y);
}

}  // namespace

void convolve_same_to(const double* x, std::size_t x_len, const RealVec& h, double* y) {
  if (x_len == 0 || h.empty()) return;
  if (use_fft_convolve(x_len, h.size(), ConvKind::kRealReal)) {
    convolve_same_fft_to(x, x_len, h, y);
    return;
  }
  convolve_same_direct(x, x_len, h, y, 0, x_len);
}

void convolve_same_to(const cplx* x, std::size_t x_len, const RealVec& h, cplx* y) {
  if (x_len == 0 || h.empty()) return;
  if (use_fft_convolve(x_len, h.size(), ConvKind::kCplxReal)) {
    convolve_same_fft_to(x, x_len, h, y);
    return;
  }
  convolve_same_direct(x, x_len, h, y, 0, x_len);
}

void convolve_same_to(const float* x, std::size_t x_len, const RealVec& h, float* y) {
  if (x_len == 0 || h.empty()) return;
  convolve_same_direct(x, x_len, h, y, 0, x_len);
}

void convolve_same_to(const float* x, std::size_t x_len, std::span<const float> reversed_taps,
                      float* y, std::size_t first, std::size_t count) {
  detail::require(first <= x_len && count <= x_len - first,
                  "convolve_same_to: output range past the input");
  if (count == 0 || reversed_taps.empty()) return;
  convolve_same_direct(x, x_len, reversed_taps.data(), reversed_taps.size(), y, first,
                       first + count);
}

CplxVec convolve_same(const CplxVec& x, const RealVec& h) {
  if (x.empty() || h.empty()) return {};
  if (use_fft_convolve(x.size(), h.size(), ConvKind::kCplxReal)) {
    return take_same(convolve(x, h), x.size(), h.size());
  }
  CplxVec y(x.size());
  convolve_same_direct(x.data(), x.size(), h, y.data(), 0, x.size());
  return y;
}

RealWaveform filter_same(const RealWaveform& x, const RealVec& taps) {
  return RealWaveform(convolve_same(x.samples(), taps), x.sample_rate());
}

CplxWaveform filter_same(const CplxWaveform& x, const RealVec& taps) {
  return CplxWaveform(convolve_same(x.samples(), taps), x.sample_rate());
}

}  // namespace uwb::dsp
