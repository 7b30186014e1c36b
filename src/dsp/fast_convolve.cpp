#include "dsp/fast_convolve.h"

#include <algorithm>
#include <atomic>

#include "common/math_utils.h"
#include "dsp/fft.h"

namespace uwb::dsp {

namespace {

std::atomic<bool> g_fast_enabled{true};

using detail::LaneCheck;

/// Picks the overlap-save FFT size for a kernel of \p h_len taps and a
/// result of \p out_len samples: a single full-size transform when the
/// whole job fits in a modest block, otherwise a block about 4x the kernel
/// so ~3/4 of every transform produces valid output.
std::size_t pick_fft_size(std::size_t h_len, std::size_t out_len) {
  const std::size_t full = next_pow2(out_len);
  const std::size_t block = std::max<std::size_t>(1024, next_pow2(4 * h_len));
  return std::min(full, block);
}

/// Stages the n-sample block whose first sample is x[i0] (indices outside
/// x read as zero): copies the in-range span and zero-fills the edges, with
/// no per-sample branches.
template <typename T>
void stage_block(const std::vector<T>& x, std::ptrdiff_t i0, std::vector<T>& block) {
  const auto n = static_cast<std::ptrdiff_t>(block.size());
  const std::ptrdiff_t lo = std::clamp<std::ptrdiff_t>(-i0, 0, n);
  const std::ptrdiff_t hi =
      std::clamp<std::ptrdiff_t>(static_cast<std::ptrdiff_t>(x.size()) - i0, lo, n);
  std::fill(block.begin(), block.begin() + lo, T{});
  std::copy(x.begin() + (i0 + lo), x.begin() + (i0 + hi), block.begin() + lo);
  std::fill(block.begin() + hi, block.end(), T{});
}

/// Whether the job's products need the Annex G lane step: only if some
/// part of the signal or the staged kernel is not tame (see fft.h).
LaneCheck lane_check(Isa isa, const double* x, std::size_t x_count, const double* h,
                     std::size_t h_count) {
  return detail::spectral_tame(isa, x, x_count, detail::kOlsTameBound) &&
                 detail::spectral_tame(isa, h, h_count, detail::kOlsTameBound)
             ? LaneCheck::kNone
             : LaneCheck::kAlways;
}

/// Core overlap-save loop: full linear convolution of \p x with the
/// \p h_len-tap kernel the caller staged into ws.kernel_fft[0..h_len).
/// Valid block outputs are handed to \p store(full_index, value).
template <typename StoreFn>
void ols_run(Isa isa, const CplxVec& x, std::size_t h_len, StoreFn&& store, FftWorkspace& ws) {
  const std::size_t x_len = x.size();
  const std::size_t out_len = x_len + h_len - 1;
  const std::size_t n = pick_fft_size(h_len, out_len);
  const std::size_t hop = n - h_len + 1;  // valid outputs per block
  const FftPlan& plan = fft_plan(n);
  const LaneCheck check = lane_check(isa, reinterpret_cast<const double*>(x.data()), 2 * x_len,
                                     reinterpret_cast<const double*>(ws.kernel_fft.data()),
                                     2 * h_len);

  // Kernel spectrum (zero stale bytes past the staged taps).
  ws.kernel_fft.resize(n, cplx{});
  std::fill(ws.kernel_fft.begin() + static_cast<std::ptrdiff_t>(h_len),
            ws.kernel_fft.end(), cplx{});
  detail::fft(isa, plan, ws.kernel_fft.data(), false, check);

  ws.block.resize(n);
  for (std::size_t s = 0; s < out_len; s += hop) {
    // Outputs [s, s+hop) need input indices [s - (h_len-1), s - (h_len-1) + n).
    stage_block(x, static_cast<std::ptrdiff_t>(s) - static_cast<std::ptrdiff_t>(h_len - 1),
                ws.block);
    detail::fft(isa, plan, ws.block.data(), false, check);
    detail::spectrum_mul(isa, ws.block.data(), ws.kernel_fft.data(), n, check);
    detail::fft(isa, plan, ws.block.data(), true, check);
    const std::size_t count = std::min(hop, out_len - s);
    for (std::size_t t = 0; t < count; ++t) store(s + t, ws.block[h_len - 1 + t]);
  }
}

/// Real x real overlap-save core on the half-size real transform: same
/// block decomposition as ols_run (pick_fft_size depends only on sizes),
/// but each block pays one forward + one inverse RfftPlan execution --
/// roughly half the complex-transform work. The caller staged the kernel
/// taps into ws.rblock[0..h_len).
template <typename StoreFn>
void ols_run_real(Isa isa, const RealVec& x, std::size_t h_len, StoreFn&& store,
                  FftWorkspace& ws) {
  const std::size_t x_len = x.size();
  const std::size_t out_len = x_len + h_len - 1;
  const std::size_t n = std::max<std::size_t>(2, pick_fft_size(h_len, out_len));
  const std::size_t hop = n - h_len + 1;  // valid outputs per block
  const RfftPlan& plan = rfft_plan(n);
  const std::size_t bins = plan.bins();
  const LaneCheck check = lane_check(isa, x.data(), x_len, ws.rblock.data(), h_len);

  // Kernel half-spectrum (zero stale bytes past the staged taps).
  ws.rblock.resize(n);
  std::fill(ws.rblock.begin() + static_cast<std::ptrdiff_t>(h_len),
            ws.rblock.end(), 0.0);
  ws.kernel_rfft.resize(bins);
  detail::rfft_forward(isa, plan, ws.rblock.data(), ws.kernel_rfft.data(), check);
  ws.rspec.resize(bins);

  for (std::size_t s = 0; s < out_len; s += hop) {
    stage_block(x, static_cast<std::ptrdiff_t>(s) - static_cast<std::ptrdiff_t>(h_len - 1),
                ws.rblock);
    detail::rfft_forward(isa, plan, ws.rblock.data(), ws.rspec.data(), check);
    detail::spectrum_mul(isa, ws.rspec.data(), ws.kernel_rfft.data(), bins, check);
    detail::rfft_inverse(isa, plan, ws.rspec.data(), ws.rblock.data(), check);
    const std::size_t count = std::min(hop, out_len - s);
    for (std::size_t t = 0; t < count; ++t) store(s + t, ws.rblock[h_len - 1 + t]);
  }
}

/// Shared prologue for the complex convolve overloads: stage the kernel,
/// size the output, run the block loop.
template <typename TH>
void ols_convolve_impl(Isa isa, const CplxVec& x, const std::vector<TH>& h, CplxVec& out,
                       FftWorkspace& ws) {
  if (x.empty() || h.empty()) {
    out.clear();
    return;
  }
  out.resize(x.size() + h.size() - 1);
  ws.kernel_fft.resize(std::max(ws.kernel_fft.size(), h.size()));
  std::copy(h.begin(), h.end(), ws.kernel_fft.begin());
  ols_run(isa, x, h.size(), [&](std::size_t idx, const cplx& v) { out[idx] = v; }, ws);
}

}  // namespace

FftWorkspace& thread_fft_workspace() {
  thread_local FftWorkspace ws;
  return ws;
}

void set_fast_convolve_enabled(bool enabled) noexcept {
  g_fast_enabled.store(enabled, std::memory_order_relaxed);
}

bool fast_convolve_enabled() noexcept {
  return g_fast_enabled.load(std::memory_order_relaxed);
}

bool use_fft_convolve(std::size_t x_len, std::size_t h_len, ConvKind kind) noexcept {
  if (!fast_convolve_enabled()) return false;
  if (x_len == 0 || h_len == 0) return false;
  std::size_t min_kernel = kFftMinKernelCplxCplx;
  switch (kind) {
    case ConvKind::kRealReal: min_kernel = kFftMinKernelRealReal; break;
    case ConvKind::kCplxReal: min_kernel = kFftMinKernelCplxReal; break;
    case ConvKind::kCplxCplx: min_kernel = kFftMinKernelCplxCplx; break;
  }
  const std::size_t kernel = std::min(x_len, h_len);
  if (kernel < min_kernel) return false;
  return x_len * h_len >= kFftMinProduct;
}

void ols_convolve(const RealVec& x, const RealVec& h, RealVec& out, FftWorkspace& ws) {
  detail::ols_convolve(host_isa(), x, h, out, ws);
}

void ols_convolve(const CplxVec& x, const RealVec& h, CplxVec& out, FftWorkspace& ws) {
  detail::ols_convolve(host_isa(), x, h, out, ws);
}

void ols_convolve(const CplxVec& x, const CplxVec& h, CplxVec& out, FftWorkspace& ws) {
  detail::ols_convolve(host_isa(), x, h, out, ws);
}

void ols_correlate(const RealVec& x, const RealVec& tmpl, RealVec& out, FftWorkspace& ws) {
  detail::ols_correlate(host_isa(), x, tmpl, out, ws);
}

void ols_correlate(const CplxVec& x, const CplxVec& tmpl, CplxVec& out, FftWorkspace& ws) {
  detail::ols_correlate(host_isa(), x, tmpl, out, ws);
}

}  // namespace uwb::dsp

namespace uwb::detail {

void ols_convolve(Isa isa, const RealVec& x, const RealVec& h, RealVec& out,
                  dsp::FftWorkspace& ws) {
  if (x.empty() || h.empty()) {
    out.clear();
    return;
  }
  out.resize(x.size() + h.size() - 1);
  ws.rblock.resize(std::max(ws.rblock.size(), h.size()));
  std::copy(h.begin(), h.end(), ws.rblock.begin());
  dsp::ols_run_real(isa, x, h.size(), [&](std::size_t idx, double v) { out[idx] = v; }, ws);
}

void ols_convolve(Isa isa, const CplxVec& x, const RealVec& h, CplxVec& out,
                  dsp::FftWorkspace& ws) {
  dsp::ols_convolve_impl(isa, x, h, out, ws);
}

void ols_convolve(Isa isa, const CplxVec& x, const CplxVec& h, CplxVec& out,
                  dsp::FftWorkspace& ws) {
  dsp::ols_convolve_impl(isa, x, h, out, ws);
}

// correlate(x, t)[k] equals conv(x, reverse(conj(t)))[k + |t| - 1] over the
// valid lags.
void ols_correlate(Isa isa, const RealVec& x, const RealVec& tmpl, RealVec& out,
                   dsp::FftWorkspace& ws) {
  const std::size_t m = tmpl.size();
  if (m == 0 || x.size() < m) {
    out.clear();
    return;
  }
  const std::size_t num_lags = x.size() - m + 1;
  out.resize(num_lags);
  ws.rblock.resize(std::max(ws.rblock.size(), m));
  for (std::size_t i = 0; i < m; ++i) ws.rblock[i] = tmpl[m - 1 - i];
  dsp::ols_run_real(isa, x, m, [&](std::size_t idx, double v) {
    if (idx < m - 1) return;  // partial-overlap prefix of the full convolution
    const std::size_t lag = idx - (m - 1);
    if (lag >= num_lags) return;
    out[lag] = v;
  }, ws);
}

void ols_correlate(Isa isa, const CplxVec& x, const CplxVec& tmpl, CplxVec& out,
                   dsp::FftWorkspace& ws) {
  const std::size_t m = tmpl.size();
  if (m == 0 || x.size() < m) {
    out.clear();
    return;
  }
  const std::size_t num_lags = x.size() - m + 1;
  out.resize(num_lags);
  ws.kernel_fft.resize(std::max(ws.kernel_fft.size(), m));
  for (std::size_t i = 0; i < m; ++i) ws.kernel_fft[i] = std::conj(tmpl[m - 1 - i]);
  dsp::ols_run(isa, x, m, [&](std::size_t idx, const cplx& v) {
    if (idx < m - 1) return;  // partial-overlap prefix of the full convolution
    const std::size_t lag = idx - (m - 1);
    if (lag >= num_lags) return;
    out[lag] = v;
  }, ws);
}

}  // namespace uwb::detail
