#include "rf/lna.h"

#include <algorithm>
#include <cmath>
#include <cstdint>
#include <cstring>
#include <utility>

#include "common/error.h"
#include "common/math_utils.h"
#include "common/simd.h"

namespace uwb::rf {

Lna::Lna(const LnaParams& params) : params_(params) {
  detail::require(params.noise_figure_db >= 0.0, "Lna: noise figure must be >= 0 dB");
  detail::require(params.headroom_db > 0.0, "Lna: headroom must be positive");
  gain_amp_ = db_to_amp(params.gain_db);
  excess_noise_factor_ = from_db(params.noise_figure_db) - 1.0;
  headroom_amp_ = db_to_amp(params.headroom_db);
}

double Lna::saturation_amplitude(double input_rms) const noexcept {
  return input_rms * headroom_amp_;
}

void Lna::process(const cplx* in, std::size_t n, double input_noise_variance, Rng& rng,
                  cplx* out) const {
  const double added_var = excess_noise_factor_ * input_noise_variance;
  const double sigma = std::sqrt(std::max(added_var, 0.0));
  // The knee follows the rms of the input, measured before the LNA's noise.
  double acc = 0.0;
  for (std::size_t i = 0; i < n; ++i) acc += std::norm(in[i]);
  const double input_rms = n == 0 ? 0.0 : std::sqrt(acc / static_cast<double>(n));
  const double sat = saturation_amplitude(input_rms);
  // Noise first, then the limiter: the limiter draws nothing, so the draws
  // keep their per-sample order.
  const cplx* src = in;
  if (sigma > 0.0) {
    for (std::size_t i = 0; i < n; ++i) out[i] = in[i] + rng.cgaussian(sigma * sigma);
    src = out;
  }
  uwb::detail::lna_compress(host_isa(), src, n, sat, gain_amp_, out);
}

}  // namespace uwb::rf

namespace uwb {

namespace {

// ------------------------------------------------------- the limiter factor --
//
// f(w) = tanh(u) / u with u = |v| / sat and w = u^2. tanh's continued
// fraction tanh(u) = u / (1 + w / (3 + w / (5 + ...))), cut after the
// partial denominator 17, gives f = 1 - w A(w) / D(w) with
//   A(w) = w^4 + 1430 w^3 + 289575 w^2 + 16081065 w + 218243025,
//   D(w) = w^5 + 1485 w^4 + 315315 w^3 + 18918900 w^2 + 310134825 w
//          + 654729075
// (A(0) / D(0) = 1/3). On 0 <= w <= 1 the truncation error is below
// 6.5e-20 relative. The coefficients are exact doubles and every term is
// nonnegative, so A and D carry a few ulp of relative rounding at most, and
// f is 1 minus a correction of at most 0.24, which scales that down again:
// f lands within 2 ulp of a long-double tanh and within 4 ulp of the libm
// formula, which itself strays up to 4 ulp (tests/test_rf.cpp).

constexpr double kA1 = 1430.0, kA2 = 289575.0, kA3 = 16081065.0, kA4 = 218243025.0;
constexpr double kD1 = 1485.0, kD2 = 315315.0, kD3 = 18918900.0, kD4 = 310134825.0,
                 kD5 = 654729075.0;

/// Saturation amplitudes the rational path takes. Inside this range 1 / sat
/// is a normal double, and a sample below the 1e-300 cut-off has w < 1e-40,
/// where f rounds to exactly 1, as the cut-off's factor is.
constexpr double kSatLo = 1e-280;
constexpr double kSatHi = 1e280;

/// sat * tanh(m / sat) / m, or 1 when sat is not positive or m < 1e-300:
/// the libm formula, for samples outside the rational's range.
[[gnu::noinline]] double exact_factor(cplx x, double sat) noexcept {
  if (!(sat > 0.0)) return 1.0;
  const double mag = std::abs(x);
  if (mag < 1e-300) return 1.0;
  return sat * std::tanh(mag / sat) / mag;
}

/// f = 1 - w A(w) / D(w), lane by lane. T is double or a vector of doubles
/// (passed by reference, see common/simd.h); `c - T{}` spreads a constant.
/// The polynomials are split in powers of w^2 (Estrin's scheme), which
/// halves the dependent chain of Horner's rule.
template <typename T>
[[gnu::always_inline]] inline void rational_factor(T& f, const T& w) noexcept {
  const T w2 = w * w;
  // A = (w^2 + (a1 w + a2)) w^2 + (a3 w + a4)
  const T num = (w2 + (w * (kA1 - T{}) + (kA2 - T{}))) * w2 + (w * (kA3 - T{}) + (kA4 - T{}));
  // D = ((w + d1) w^2 + (d2 w + d3)) w^2 + (d4 w + d5)
  const T den = ((w + (kD1 - T{})) * w2 + (w * (kD2 - T{}) + (kD3 - T{}))) * w2 +
                (w * (kD4 - T{}) + (kD5 - T{}));
  f = (1.0 - T{}) - w * (num / den);
}

/// The factor of one sample on the rational path (sat in range).
[[gnu::always_inline]] inline double factor_one(cplx x, double sat, double inv_sat) noexcept {
  const double a = x.real() * inv_sat;
  const double b = x.imag() * inv_sat;
  const double w = a * a + b * b;
  if (!(w <= 1.0)) return exact_factor(x, sat);
  double f;
  rational_factor(f, w);
  return f;
}

template <std::size_t kBytes>
using Vd = typename simd::Vec<double, kBytes>::type;
template <std::size_t kBytes>
using Vm = typename simd::Vec<std::int64_t, kBytes>::type;

/// Shuffle masks over a vector of sizeof...(I) double lanes, for two
/// interleaved vectors (v0, v1) holding sizeof...(I) complex values.
template <typename M, typename Seq>
struct Masks;
template <typename M, std::size_t... I>
struct Masks<M, std::index_sequence<I...>> {
  static constexpr std::size_t kD = sizeof...(I);
  /// Real (kRe) and imaginary (kIm) parts of the block's values, in order.
  static constexpr M kRe = {static_cast<std::int64_t>(2 * I)...};
  static constexpr M kIm = {static_cast<std::int64_t>(2 * I + 1)...};
  /// Per-value lanes back to (re, im) pairs: values 0 .. kD/2-1 (kLo) and
  /// kD/2 .. kD-1 (kHi), each lane twice.
  static constexpr M kLo = {static_cast<std::int64_t>(I / 2)...};
  static constexpr M kHi = {static_cast<std::int64_t>(kD / 2 + I / 2)...};
};

/// True when any lane of \p m is nonzero.
template <std::size_t kBytes>
[[gnu::always_inline]] inline bool any_lane(const Vm<kBytes>& m) noexcept {
  if constexpr (kBytes == 16) {
    return (m[0] | m[1]) != 0;
  } else {
    Vm<kBytes / 2> h[2];
    std::memcpy(h, &m, kBytes);
    const Vm<kBytes / 2> r = h[0] | h[1];
    return any_lane<kBytes / 2>(r);
  }
}

/// The one limiter body every clone compiles. A block is two vectors of
/// interleaved samples, kBytes / 8 complex values; their squared parts are
/// split into a vector of a^2 and one of b^2, so each lane computes one
/// value's w = a^2 + b^2 and its factor with factor_one's operations, and
/// the factors are spread back over the (re, im) pairs. The vector and
/// scalar tiers therefore write the same bytes. A value with w > 1 or a
/// non-finite part is redone with the libm formula from the loaded input,
/// which stays valid when out == in.
template <std::size_t kBytes>
[[gnu::always_inline]] inline void compress_body(const cplx* in, std::size_t n, double sat,
                                                 double gain, cplx* out) noexcept {
  using V = Vd<kBytes>;
  using M = Vm<kBytes>;
  using K = Masks<M, std::make_index_sequence<kBytes / 8>>;
  constexpr std::size_t kBlock = kBytes / 8;  // complex values per block
  const double inv_sat = 1.0 / sat;
  const V vinv = inv_sat - V{};
  const V vgain = gain - V{};
  const V one = 1.0 - V{};
  const auto* src = reinterpret_cast<const double*>(in);  // (re, im) pairs
  auto* dst = reinterpret_cast<double*>(out);
  std::size_t i = 0;
  for (; i + kBlock <= n; i += kBlock) {
    V v[2];
    simd::load(v[0], src + 2 * i);
    simd::load(v[1], src + 2 * i + kBlock);
    const V s0 = v[0] * vinv;
    const V s1 = v[1] * vinv;
    const V sq0 = s0 * s0;
    const V sq1 = s1 * s1;
    const V w = __builtin_shuffle(sq0, sq1, K::kRe) + __builtin_shuffle(sq0, sq1, K::kIm);
    V f;
    rational_factor(f, w);
    V y0 = v[0] * __builtin_shuffle(f, K::kLo) * vgain;
    V y1 = v[1] * __builtin_shuffle(f, K::kHi) * vgain;
    simd::store(dst + 2 * i, y0);
    simd::store(dst + 2 * i + kBlock, y1);
    const M wild = ~(w <= one);
    if (any_lane<kBytes>(wild)) [[unlikely]] {
      const auto* x = reinterpret_cast<const cplx*>(v);
      for (std::size_t l = 0; l < kBlock; ++l) {
        if (wild[l] == 0) continue;
        const double fx = exact_factor(x[l], sat);
        out[i + l] = cplx(x[l].real() * fx * gain, x[l].imag() * fx * gain);
      }
    }
  }
  for (; i < n; ++i) {
    const cplx x = in[i];
    const double fx = factor_one(x, sat, inv_sat);
    out[i] = cplx(x.real() * fx * gain, x.imag() * fx * gain);
  }
}

[[UWB_CLONE_PORTABLE]] void compress_portable(const cplx* in, std::size_t n, double sat,
                                              double gain, cplx* out) noexcept {
  compress_body<16>(in, n, sat, gain, out);
}

#ifdef UWB_SIMD_X86
[[UWB_CLONE_AVX2]] void compress_avx2(const cplx* in, std::size_t n, double sat, double gain,
                                      cplx* out) noexcept {
  compress_body<32>(in, n, sat, gain, out);
}

[[UWB_CLONE_AVX512]] void compress_avx512(const cplx* in, std::size_t n, double sat,
                                          double gain, cplx* out) noexcept {
  compress_body<64>(in, n, sat, gain, out);
}
#endif

bool rational_range(double sat) noexcept { return sat >= kSatLo && sat <= kSatHi; }

}  // namespace

namespace detail {

[[UWB_CLONE_PORTABLE]] double lna_compression_factor(double re, double im, double sat) noexcept {
  const cplx x(re, im);
  return rational_range(sat) ? factor_one(x, sat, 1.0 / sat) : exact_factor(x, sat);
}

void lna_compress(Isa isa, const cplx* in, std::size_t n, double sat, double gain,
                  cplx* out) noexcept {
  if (!rational_range(sat)) {
    for (std::size_t i = 0; i < n; ++i) {
      const cplx x = in[i];
      const double f = exact_factor(x, sat);
      out[i] = cplx(x.real() * f * gain, x.imag() * f * gain);
    }
    return;
  }
  switch (isa) {
#ifdef UWB_SIMD_X86
    case Isa::kAvx512:
      compress_avx512(in, n, sat, gain, out);
      return;
    case Isa::kAvx2:
      compress_avx2(in, n, sat, gain, out);
      return;
#endif
    default:
      compress_portable(in, n, sat, gain, out);
      return;
  }
}

}  // namespace detail

}  // namespace uwb
