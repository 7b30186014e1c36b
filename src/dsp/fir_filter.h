#pragma once
/// \file fir_filter.h
/// \brief Direct-form FIR filtering with real taps over real or complex
///        samples; both streaming (stateful) and block (convolution) modes.

#include <cstddef>

#include "common/error.h"
#include "common/types.h"
#include "common/waveform.h"

namespace uwb::dsp {

/// Streaming direct-form FIR with real coefficients.
///
/// The template parameter is the sample type (double or cplx). State is kept
/// between process() calls so a long signal can be filtered in chunks.
template <typename T>
class FirFilter {
 public:
  explicit FirFilter(RealVec taps) : taps_(std::move(taps)), history_(taps_.size(), T{}) {
    detail::require(!taps_.empty(), "FirFilter: taps must be non-empty");
  }

  [[nodiscard]] const RealVec& taps() const noexcept { return taps_; }
  [[nodiscard]] std::size_t order() const noexcept { return taps_.size() - 1; }

  /// Group delay of a symmetric FIR, in samples.
  [[nodiscard]] double group_delay() const noexcept {
    return (static_cast<double>(taps_.size()) - 1.0) / 2.0;
  }

  /// Pushes one sample and returns one filtered sample.
  T step(T x) noexcept {
    history_[pos_] = x;
    T acc{};
    std::size_t idx = pos_;
    for (std::size_t k = 0; k < taps_.size(); ++k) {
      acc += history_[idx] * taps_[k];
      idx = (idx == 0) ? taps_.size() - 1 : idx - 1;
    }
    pos_ = (pos_ + 1) % taps_.size();
    return acc;
  }

  /// Filters a block, preserving state across calls.
  std::vector<T> process(const std::vector<T>& x) {
    std::vector<T> y(x.size());
    for (std::size_t i = 0; i < x.size(); ++i) y[i] = step(x[i]);
    return y;
  }

  /// Clears the delay-line state.
  void reset() noexcept {
    for (auto& v : history_) v = T{};
    pos_ = 0;
  }

 private:
  RealVec taps_;
  std::vector<T> history_;
  std::size_t pos_ = 0;
};

/// Full linear convolution y = x * h (length |x|+|h|-1). Auto-dispatches:
/// short kernels run the direct form, large x*h products go through
/// overlap-save FFT convolution (see dsp/fast_convolve.h for the policy).
RealVec convolve(const RealVec& x, const RealVec& h);

/// Full linear convolution for complex signal with real kernel.
CplxVec convolve(const CplxVec& x, const RealVec& h);

/// Full linear convolution for complex signal with complex kernel.
CplxVec convolve(const CplxVec& x, const CplxVec& h);

/// "Same"-mode convolution: output length equals input length, kernel group
/// delay compensated (for symmetric kernels centred at (|h|-1)/2).
RealVec convolve_same(const RealVec& x, const RealVec& h);

/// "Same"-mode real convolution into a caller-owned buffer \p y of length
/// \p x_len (no allocation beyond a small reversed-tap scratch). Hot-path
/// form for per-packet workspaces: bit-identical to convolve_same(x, h) --
/// the direct path runs a blocked gather kernel whose per-output tap order
/// matches the scatter form exactly, and FFT-worthy kernels fall through to
/// the same overlap-save engine.
void convolve_same_to(const double* x, std::size_t x_len, const RealVec& h, double* y);

/// Single-precision "same"-mode convolution into a caller-owned buffer (the
/// gen-1 float sample arena). Same blocked gather kernel at twice the SIMD
/// width; always direct -- the float pipeline's anti-alias filter sits far
/// below the FFT crossover. Taps are converted to float once per call.
void convolve_same_to(const float* x, std::size_t x_len, const RealVec& h, float* y);

/// "Same"-mode convolution for complex input with real kernel. The direct
/// path gathers through the complex dot_bank (tap stride 2 over the
/// interleaved samples), bit-identical to the "same" window of the scatter
/// full convolution; FFT-worthy kernels take the overlap-save engine.
CplxVec convolve_same(const CplxVec& x, const RealVec& h);

/// Filters a waveform with a FIR in "same" mode, preserving the sample rate.
RealWaveform filter_same(const RealWaveform& x, const RealVec& taps);

/// Filters a complex waveform with a FIR in "same" mode.
CplxWaveform filter_same(const CplxWaveform& x, const RealVec& taps);

}  // namespace uwb::dsp
