#pragma once
/// \file correlator.h
/// \brief Sliding correlation / matched filtering -- the workhorse of the
///        paper's digital back end (acquisition, channel estimation, demod).

#include <cstddef>

#include "common/isa.h"
#include "common/types.h"

namespace uwb::dsp {

/// Cross-correlation of \p x against template \p tmpl at every lag where the
/// template fully overlaps: out[k] = sum_i x[k+i] * conj(tmpl[i]),
/// k in [0, |x| - |tmpl|]. Empty if the template is longer than the signal.
/// Large x*tmpl products auto-dispatch to overlap-save FFT correlation
/// (see dsp/fast_convolve.h); short templates stay on the direct kernel.
CplxVec correlate(const CplxVec& x, const CplxVec& tmpl);

/// Real-valued version.
RealVec correlate(const RealVec& x, const RealVec& tmpl);

/// Real correlation into a caller-owned buffer \p out of length
/// |x| - |tmpl| + 1 (requires |x| >= |tmpl| >= 1). Bit-identical to
/// correlate(x, tmpl); exists so per-packet workspaces can reuse their
/// output buffers. Returns the number of lags written.
std::size_t correlate_to(const double* x, std::size_t x_len, const RealVec& tmpl, double* out);

/// Single-precision correlation into a caller-owned buffer (the gen-1 float
/// sample arena). Always runs the direct blocked kernel -- the float pipeline
/// only matched-filters short templates, far below the FFT crossover -- with
/// the template converted to float once per call.
std::size_t correlate_to(const float* x, std::size_t x_len, const RealVec& tmpl, float* out);

/// Bank of sliding dot products: out[j] = sum_m x[j+m] * h[m] for
/// j in [0, num_lags). The hot kernel under correlate(), correlate_to() and
/// the direct path of convolve_same_to(). Each output accumulates alone in
/// ascending-tap order -- bit-identical to calling dot() per lag -- while
/// blocks of lags fill the vector registers. The kernel is compiled once
/// per ISA level (common/isa.h) and runs the host's widest; every level
/// writes the same bytes.
void dot_bank(const double* x, std::size_t num_lags, const double* h, std::size_t h_len,
              double* out) noexcept;

/// Single-precision bank: same kernel, twice the lanes per vector.
void dot_bank(const float* x, std::size_t num_lags, const float* h, std::size_t h_len,
              float* out) noexcept;

/// Complex samples against real taps: out[j] = sum_m x[j+m] * h[m], the
/// real and imaginary parts each accumulated in ascending-tap order exactly
/// as the scalar complex-times-real sum does. Runs the same kernel with a
/// tap stride of 2 over the interleaved (re, im) doubles.
void dot_bank(const cplx* x, std::size_t num_lags, const double* h, std::size_t h_len,
              cplx* out) noexcept;

/// Normalized correlation magnitude in [0, 1]:
/// |corr| / (||window|| * ||template||), robust to received power.
RealVec normalized_correlation(const CplxVec& x, const CplxVec& tmpl);

/// Real-valued normalized correlation (signed, in [-1, 1]).
RealVec normalized_correlation(const RealVec& x, const RealVec& tmpl);

/// Index of the maximum-magnitude element; 0 for empty input.
std::size_t argmax_abs(const CplxVec& x);

/// Index of the maximum-magnitude element; 0 for empty input.
std::size_t argmax_abs(const RealVec& x);

/// Single-point correlation (dot product with conjugated template).
cplx dot_conj(const cplx* x, const cplx* tmpl, std::size_t n) noexcept;

/// Single-point real correlation.
double dot(const double* x, const double* tmpl, std::size_t n) noexcept;

/// Streaming integrate-and-dump: accumulates blocks of \p length samples and
/// emits one output per block (despreading pulses-per-bit style signals).
template <typename T>
class IntegrateAndDump {
 public:
  explicit IntegrateAndDump(std::size_t length) : length_(length) {}

  /// Pushes one sample; returns true when a dump occurred (result in out).
  bool push(T x, T& out) noexcept {
    acc_ += x;
    if (++count_ == length_) {
      out = acc_;
      acc_ = T{};
      count_ = 0;
      return true;
    }
    return false;
  }

  void reset() noexcept {
    acc_ = T{};
    count_ = 0;
  }

 private:
  std::size_t length_;
  T acc_{};
  std::size_t count_ = 0;
};

}  // namespace uwb::dsp

namespace uwb::detail {

/// dsp::dot_bank with the clone for \p isa forced instead of the host's
/// choice, so tests can compare every clone's bytes with the portable one.
/// \p isa must satisfy isa_supported().
void dot_bank(Isa isa, const double* x, std::size_t num_lags, const double* h,
              std::size_t h_len, double* out) noexcept;
void dot_bank(Isa isa, const float* x, std::size_t num_lags, const float* h,
              std::size_t h_len, float* out) noexcept;
void dot_bank(Isa isa, const cplx* x, std::size_t num_lags, const double* h,
              std::size_t h_len, cplx* out) noexcept;

}  // namespace uwb::detail
