#include "dsp/correlator.h"

#include <algorithm>
#include <cmath>

#include "common/simd.h"
#include "dsp/fast_convolve.h"

namespace uwb::dsp {

CplxVec correlate(const CplxVec& x, const CplxVec& tmpl) {
  if (tmpl.empty() || x.size() < tmpl.size()) return {};
  if (use_fft_convolve(x.size(), tmpl.size(), ConvKind::kCplxCplx)) {
    CplxVec out;
    ols_correlate(x, tmpl, out, thread_fft_workspace());
    return out;
  }
  const std::size_t num_lags = x.size() - tmpl.size() + 1;
  CplxVec out(num_lags);
  for (std::size_t k = 0; k < num_lags; ++k) {
    out[k] = dot_conj(x.data() + k, tmpl.data(), tmpl.size());
  }
  return out;
}

CplxVec correlate(const CplxVec& x, const RealVec& tmpl) {
  if (tmpl.empty() || x.size() < tmpl.size()) return {};
  if (use_fft_convolve(x.size(), tmpl.size(), ConvKind::kCplxCplx)) {
    CplxVec out;
    ols_correlate(x, CplxVec(tmpl.begin(), tmpl.end()), out, thread_fft_workspace());
    return out;
  }
  CplxVec out(x.size() - tmpl.size() + 1);
  dot_bank(x.data(), out.size(), tmpl.data(), tmpl.size(), out.data());
  return out;
}

RealVec correlate(const RealVec& x, const RealVec& tmpl) {
  if (tmpl.empty() || x.size() < tmpl.size()) return {};
  if (use_fft_convolve(x.size(), tmpl.size(), ConvKind::kRealReal)) {
    RealVec out;
    ols_correlate(x, tmpl, out, thread_fft_workspace());
    return out;
  }
  RealVec out(x.size() - tmpl.size() + 1);
  dot_bank(x.data(), out.size(), tmpl.data(), tmpl.size(), out.data());
  return out;
}

namespace {

/// Runs whole blocks of kAcc vectors of outputs from index \p j on; returns
/// the first output index not written. Each lane is one output and owns its
/// accumulator: out[k] = sum_m x[k + kStride*m] * h[m], taps ascending. The
/// kAcc independent add chains per block hide the FP-add latency.
template <std::size_t kBytes, std::size_t kAcc, std::size_t kStride, typename T>
[[gnu::always_inline]] inline std::size_t dot_bank_blocks(const T* x, std::size_t j,
                                                          std::size_t num_out, const T* h,
                                                          std::size_t h_len, T* out) noexcept {
  using V = typename simd::Vec<T, kBytes>::type;
  constexpr std::size_t kW = kBytes / sizeof(T);
  for (; j + kAcc * kW <= num_out; j += kAcc * kW) {
    V acc[kAcc] = {};
    const T* xm = x + j;
    for (std::size_t m = 0; m < h_len; ++m, xm += kStride) {
      const V hm = h[m] - V{};
      for (std::size_t a = 0; a < kAcc; ++a) {
        V xv;
        simd::load(xv, xm + a * kW);
        acc[a] += xv * hm;
      }
    }
    for (std::size_t a = 0; a < kAcc; ++a) simd::store(out + j + a * kW, acc[a]);
  }
  return j;
}

/// Runs kN vectors of outputs starting at \p start[0 .. kN) as one block,
/// with the accumulation of dot_bank_blocks.
template <std::size_t kBytes, std::size_t kN, std::size_t kStride, typename T>
[[gnu::always_inline]] inline void dot_bank_vectors(const T* x, const std::size_t* start,
                                                    const T* h, std::size_t h_len,
                                                    T* out) noexcept {
  using V = typename simd::Vec<T, kBytes>::type;
  V acc[kN] = {};
  for (std::size_t m = 0; m < h_len; ++m) {
    const V hm = h[m] - V{};
    for (std::size_t a = 0; a < kN; ++a) {
      V xv;
      simd::load(xv, x + start[a] + kStride * m);
      acc[a] += xv * hm;
    }
  }
  for (std::size_t a = 0; a < kN; ++a) simd::store(out + start[a], acc[a]);
}

/// Outputs [j, num_out), fewer than kAcc vectors' worth, as one block of
/// whole vectors whose last one ends at num_out: it overlaps outputs the
/// block before wrote and writes them again with the same bytes, so short
/// runs (a few dozen outputs) run as parallel add chains, not one vector
/// after another and then scalar by scalar. Requires num_out >= kW.
template <std::size_t kBytes, std::size_t kAcc, std::size_t kStride, typename T>
[[gnu::always_inline]] inline void dot_bank_rest(const T* x, std::size_t j, std::size_t num_out,
                                                 const T* h, std::size_t h_len,
                                                 T* out) noexcept {
  constexpr std::size_t kW = kBytes / sizeof(T);
  const std::size_t vecs = (num_out - j + kW - 1) / kW;  // 1 .. kAcc
  std::size_t start[kAcc];
  for (std::size_t a = 0; a < vecs; ++a) start[a] = std::min(j + a * kW, num_out - kW);
  static_assert(kAcc == 8);
  switch (vecs) {
    case 1: return dot_bank_vectors<kBytes, 1, kStride>(x, start, h, h_len, out);
    case 2: return dot_bank_vectors<kBytes, 2, kStride>(x, start, h, h_len, out);
    case 3: return dot_bank_vectors<kBytes, 3, kStride>(x, start, h, h_len, out);
    case 4: return dot_bank_vectors<kBytes, 4, kStride>(x, start, h, h_len, out);
    case 5: return dot_bank_vectors<kBytes, 5, kStride>(x, start, h, h_len, out);
    case 6: return dot_bank_vectors<kBytes, 6, kStride>(x, start, h, h_len, out);
    case 7: return dot_bank_vectors<kBytes, 7, kStride>(x, start, h, h_len, out);
    default: return dot_bank_vectors<kBytes, 8, kStride>(x, start, h, h_len, out);
  }
}

/// The one dot_bank body every clone compiles: wide blocks, then the rest
/// as one block of overlapping vectors, or scalars when there are fewer
/// outputs than one vector holds. Every tier adds the same products in the
/// same order, so neither the block width, the overlap nor the ISA changes
/// a byte. kStride = 2 runs interleaved complex data against real taps (the
/// real and imaginary parts are independent lanes).
template <std::size_t kBytes, std::size_t kAcc, std::size_t kStride, typename T>
[[gnu::always_inline]] inline void dot_bank_body(const T* x, std::size_t num_out, const T* h,
                                                 std::size_t h_len, T* out) noexcept {
  constexpr std::size_t kW = kBytes / sizeof(T);
  const std::size_t j = dot_bank_blocks<kBytes, kAcc, kStride>(x, 0, num_out, h, h_len, out);
  if (j == num_out) return;
  if (num_out >= kW) {
    dot_bank_rest<kBytes, kAcc, kStride>(x, j, num_out, h, h_len, out);
    return;
  }
  for (std::size_t k = j; k < num_out; ++k) {
    T acc{};
    for (std::size_t m = 0; m < h_len; ++m) acc += x[k + kStride * m] * h[m];
    out[k] = acc;
  }
}

// Accumulator vectors per block: enough independent add chains to hide
// the FP-add latency without spilling.
constexpr std::size_t kAcc = 8;

template <std::size_t kStride, typename T>
[[UWB_CLONE_PORTABLE]] void dot_bank_portable(const T* x, std::size_t num_out, const T* h,
                                              std::size_t h_len, T* out) noexcept {
  dot_bank_body<16, kAcc, kStride>(x, num_out, h, h_len, out);
}

#ifdef UWB_SIMD_X86
template <std::size_t kStride, typename T>
[[UWB_CLONE_AVX2]] void dot_bank_avx2(const T* x, std::size_t num_out, const T* h,
                                      std::size_t h_len, T* out) noexcept {
  dot_bank_body<32, kAcc, kStride>(x, num_out, h, h_len, out);
}

template <std::size_t kStride, typename T>
[[UWB_CLONE_AVX512]] void dot_bank_avx512(const T* x, std::size_t num_out, const T* h,
                                          std::size_t h_len, T* out) noexcept {
  dot_bank_body<64, kAcc, kStride>(x, num_out, h, h_len, out);
}
#endif

template <std::size_t kStride, typename T>
void dot_bank_on(Isa isa, const T* x, std::size_t num_out, const T* h, std::size_t h_len,
                 T* out) noexcept {
  switch (isa) {
#ifdef UWB_SIMD_X86
    case Isa::kAvx512:
      return dot_bank_avx512<kStride>(x, num_out, h, h_len, out);
    case Isa::kAvx2:
      return dot_bank_avx2<kStride>(x, num_out, h, h_len, out);
#endif
    default:
      return dot_bank_portable<kStride>(x, num_out, h, h_len, out);
  }
}

}  // namespace

void dot_bank(const double* x, std::size_t num_lags, const double* h, std::size_t h_len,
              double* out) noexcept {
  detail::dot_bank(host_isa(), x, num_lags, h, h_len, out);
}

void dot_bank(const float* x, std::size_t num_lags, const float* h, std::size_t h_len,
              float* out) noexcept {
  detail::dot_bank(host_isa(), x, num_lags, h, h_len, out);
}

void dot_bank(const cplx* x, std::size_t num_lags, const double* h, std::size_t h_len,
              cplx* out) noexcept {
  detail::dot_bank(host_isa(), x, num_lags, h, h_len, out);
}

RealVec normalized_correlation(const CplxVec& x, const CplxVec& tmpl) {
  if (tmpl.empty() || x.size() < tmpl.size()) return {};
  double tmpl_energy = 0.0;
  for (const auto& v : tmpl) tmpl_energy += std::norm(v);
  const double tmpl_norm = std::sqrt(tmpl_energy);

  const std::size_t n = tmpl.size();
  const std::size_t num_lags = x.size() - n + 1;
  RealVec out(num_lags);

  // Running window energy for O(1) per-lag normalization.
  double win_energy = 0.0;
  for (std::size_t i = 0; i < n; ++i) win_energy += std::norm(x[i]);
  for (std::size_t k = 0; k < num_lags; ++k) {
    const cplx c = dot_conj(x.data() + k, tmpl.data(), n);
    const double denom = std::sqrt(std::max(win_energy, 1e-300)) * tmpl_norm;
    out[k] = std::abs(c) / denom;
    if (k + 1 < num_lags) {
      win_energy += std::norm(x[k + n]) - std::norm(x[k]);
      win_energy = std::max(win_energy, 0.0);
    }
  }
  return out;
}

RealVec normalized_correlation(const RealVec& x, const RealVec& tmpl) {
  if (tmpl.empty() || x.size() < tmpl.size()) return {};
  double tmpl_energy = 0.0;
  for (double v : tmpl) tmpl_energy += v * v;
  const double tmpl_norm = std::sqrt(tmpl_energy);

  const std::size_t n = tmpl.size();
  const std::size_t num_lags = x.size() - n + 1;
  RealVec out(num_lags);

  double win_energy = 0.0;
  for (std::size_t i = 0; i < n; ++i) win_energy += x[i] * x[i];
  for (std::size_t k = 0; k < num_lags; ++k) {
    const double c = dot(x.data() + k, tmpl.data(), n);
    const double denom = std::sqrt(std::max(win_energy, 1e-300)) * tmpl_norm;
    out[k] = c / denom;
    if (k + 1 < num_lags) {
      win_energy += x[k + n] * x[k + n] - x[k] * x[k];
      win_energy = std::max(win_energy, 0.0);
    }
  }
  return out;
}

std::size_t argmax_abs(const CplxVec& x) {
  std::size_t best = 0;
  double best_mag = -1.0;
  for (std::size_t i = 0; i < x.size(); ++i) {
    const double m = std::norm(x[i]);
    if (m > best_mag) {
      best_mag = m;
      best = i;
    }
  }
  return best;
}

std::size_t argmax_abs(const RealVec& x) {
  std::size_t best = 0;
  double best_mag = -1.0;
  for (std::size_t i = 0; i < x.size(); ++i) {
    const double m = std::abs(x[i]);
    if (m > best_mag) {
      best_mag = m;
      best = i;
    }
  }
  return best;
}

cplx dot_conj(const cplx* x, const cplx* tmpl, std::size_t n) noexcept {
  // simd::cmul: std::complex's product bytes, unfused at -march=native.
  cplx acc{};
  for (std::size_t i = 0; i < n; ++i) acc += simd::cmul(x[i], std::conj(tmpl[i]));
  return acc;
}

double dot(const double* x, const double* tmpl, std::size_t n) noexcept {
  double acc = 0.0;
  for (std::size_t i = 0; i < n; ++i) acc += x[i] * tmpl[i];
  return acc;
}

}  // namespace uwb::dsp

namespace uwb::detail {

void dot_bank(Isa isa, const double* x, std::size_t num_lags, const double* h,
              std::size_t h_len, double* out) noexcept {
  dsp::dot_bank_on<1>(isa, x, num_lags, h, h_len, out);
}

void dot_bank(Isa isa, const float* x, std::size_t num_lags, const float* h,
              std::size_t h_len, float* out) noexcept {
  dsp::dot_bank_on<1>(isa, x, num_lags, h, h_len, out);
}

void dot_bank(Isa isa, const cplx* x, std::size_t num_lags, const double* h,
              std::size_t h_len, cplx* out) noexcept {
  // std::complex<double> is layout-compatible with double[2]: the bank
  // runs over the interleaved (re, im) doubles with tap stride 2.
  dsp::dot_bank_on<2>(isa, reinterpret_cast<const double*>(x), 2 * num_lags, h, h_len,
                      reinterpret_cast<double*>(out));
}

}  // namespace uwb::detail
