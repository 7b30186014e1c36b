#pragma once
/// \file fast_convolve.h
/// \brief Overlap-save FFT convolution behind the library's convolve /
///        correlate entry points, with a runtime policy switch and reusable
///        per-thread scratch workspaces.
///
/// Dispatch contract: dsp::convolve, dsp::convolve_same and dsp::correlate
/// route through use_fft_convolve(). Below the crossover the direct O(N*M)
/// kernels run (they win on short kernels); above it the work goes through
/// overlap-save block convolution on cached FftPlans. The crossover
/// constants were measured with bench_dsp_micro (see docs/performance.md).
///
/// Determinism: for a fixed policy setting the output is a pure function of
/// the inputs -- block decomposition depends only on sizes, and the scratch
/// workspace is thread-local, so parallel sweep workers never share state.
/// Flipping the policy changes results only at the ~1e-12 rounding level
/// (FFT and direct accumulation orders differ).

#include <cstddef>

#include "common/isa.h"
#include "common/types.h"

namespace uwb::dsp {

/// Reusable scratch for FFT convolution. Buffers grow to the largest size
/// seen and are then reused allocation-free; a sweep worker thread keeps one
/// workspace for its whole trial stream (see thread_fft_workspace()).
struct FftWorkspace {
  CplxVec kernel_fft;  ///< H = FFT(kernel), one block size
  CplxVec block;       ///< per-block staging / transform buffer
  // Real x real jobs run on the half-size real transform (dsp::RfftPlan)
  // instead: real staging buffer plus half-spectrum kernel/work buffers.
  RealVec rblock;       ///< real per-block staging / kernel staging buffer
  CplxVec kernel_rfft;  ///< H = rfft(kernel), n/2 + 1 bins
  CplxVec rspec;        ///< per-block half-spectrum work buffer
};

/// The per-thread workspace used by the auto-dispatching entry points.
/// Thread-local: engine workers each reuse their own buffers trial after
/// trial with zero reallocation once warmed up.
FftWorkspace& thread_fft_workspace();

/// Globally enables/disables the FFT fast path (default: enabled).
/// Tests and benches flip this to compare against the direct kernels;
/// production code leaves it on.
void set_fast_convolve_enabled(bool enabled) noexcept;
[[nodiscard]] bool fast_convolve_enabled() noexcept;

/// RAII guard for scoped policy changes in tests/benches.
class FastConvolveGuard {
 public:
  explicit FastConvolveGuard(bool enabled) noexcept
      : saved_(fast_convolve_enabled()) {
    set_fast_convolve_enabled(enabled);
  }
  ~FastConvolveGuard() { set_fast_convolve_enabled(saved_); }
  FastConvolveGuard(const FastConvolveGuard&) = delete;
  FastConvolveGuard& operator=(const FastConvolveGuard&) = delete;

 private:
  bool saved_;
};

/// Sample-type combination of a convolution, used by the dispatch policy:
/// a direct real MAC costs ~2 flops, complex*real ~4, complex*complex ~8,
/// while the FFT path always pays complex transforms -- so the crossover
/// kernel length shrinks as the direct arithmetic gets heavier.
enum class ConvKind { kRealReal, kCplxReal, kCplxCplx };

/// Measured dispatch crossovers (bench_dsp_micro "Convolve*"/"Correlate*"
/// fixtures, 16k-sample signal; see docs/performance.md): the FFT path wins
/// once the kernel reaches the per-kind tap count below AND the direct-cost
/// proxy x_len * h_len clears kFftMinProduct. Real x real runs on the
/// half-size real transform (RfftPlan), which moved its crossover down
/// from 128: direct still wins at 64 taps, rfft wins from 96 up.
inline constexpr std::size_t kFftMinKernelRealReal = 96;
inline constexpr std::size_t kFftMinKernelCplxReal = 64;
inline constexpr std::size_t kFftMinKernelCplxCplx = 32;
inline constexpr std::size_t kFftMinProduct = 1u << 15;

/// True when (x_len, h_len) should take the overlap-save path under the
/// current policy.
[[nodiscard]] bool use_fft_convolve(std::size_t x_len, std::size_t h_len,
                                    ConvKind kind) noexcept;

/// Overlap-save full linear convolution, result length x+h-1, written into
/// \p out (resized; reuses capacity). No allocation once \p ws is warm.
void ols_convolve(const RealVec& x, const RealVec& h, RealVec& out, FftWorkspace& ws);
void ols_convolve(const CplxVec& x, const RealVec& h, CplxVec& out, FftWorkspace& ws);
void ols_convolve(const CplxVec& x, const CplxVec& h, CplxVec& out, FftWorkspace& ws);

/// Overlap-save sliding correlation (same definition as dsp::correlate:
/// out[k] = sum_i x[k+i] * conj(tmpl[i]), valid lags only), written into
/// \p out. Implemented as convolution with the conjugate-reversed template.
void ols_correlate(const RealVec& x, const RealVec& tmpl, RealVec& out, FftWorkspace& ws);
void ols_correlate(const CplxVec& x, const CplxVec& tmpl, CplxVec& out, FftWorkspace& ws);

}  // namespace uwb::dsp

namespace uwb::detail {

/// The dsp::ols_convolve / dsp::ols_correlate overloads with every
/// transform and spectrum product on the clone for \p isa (the public
/// overloads pass host_isa()). Tests compare the clones through these.
void ols_convolve(Isa isa, const RealVec& x, const RealVec& h, RealVec& out,
                  dsp::FftWorkspace& ws);
void ols_convolve(Isa isa, const CplxVec& x, const RealVec& h, CplxVec& out,
                  dsp::FftWorkspace& ws);
void ols_convolve(Isa isa, const CplxVec& x, const CplxVec& h, CplxVec& out,
                  dsp::FftWorkspace& ws);
void ols_correlate(Isa isa, const RealVec& x, const RealVec& tmpl, RealVec& out,
                   dsp::FftWorkspace& ws);
void ols_correlate(Isa isa, const CplxVec& x, const CplxVec& tmpl, CplxVec& out,
                   dsp::FftWorkspace& ws);

}  // namespace uwb::detail
