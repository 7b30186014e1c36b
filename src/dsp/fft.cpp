#include "dsp/fft.h"

#include <bit>
#include <cmath>
#include <cstring>
#include <limits>
#include <map>
#include <memory>
#include <mutex>
#include <utility>

#include "common/error.h"
#include "common/math_utils.h"
#include "common/simd.h"
#include "obs/profile.h"

namespace uwb::dsp {

/// What the kernels read from a plan.
struct FftArgs {
  std::size_t n = 0;
  const std::uint32_t* swaps = nullptr;  ///< bit-reversal swap pairs (n < 64)
  std::size_t num_swaps = 0;
  const std::uint32_t* tiles = nullptr;  ///< bit-reversal tile pairs (n >= 64)
  std::size_t num_tiles = 0;
  const double* re = nullptr;  ///< twiddle real parts, each twice
  const double* im = nullptr;  ///< imaginary parts, each twice (conjugated for inverse)
  bool inverse = false;
};

struct RfftArgs {
  std::size_t m = 0;       ///< half size: the complex transform's length
  const cplx* w = nullptr;  ///< W_n^k, k in [0, m/2]
  FftArgs half;
};

struct FftPlanTables {
  static FftArgs of(const FftPlan& p, bool inverse) noexcept {
    return FftArgs{p.n_,
                   p.swaps_.data(),
                   p.swaps_.size() / 2,
                   p.tiles_.data(),
                   p.tiles_.size() / 2,
                   p.tw_re_.data(),
                   inverse ? p.tw_im_conj_.data() : p.tw_im_.data(),
                   inverse};
  }
  static RfftArgs of(const RfftPlan& p, bool inverse) noexcept {
    return RfftArgs{p.n_ / 2, p.w_.data(), of(*p.half_, inverse)};
  }
};

namespace {

// ------------------------------------------------------------ lane kernels --
//
// Samples stay interleaved (re, im): a kBytes vector holds kBytes / 16
// complex values. A product a * b takes a as it is and b as two vectors of
// duplicated parts, (br, br, ...) and (bi, bi, ...), and computes
//   p1 = a * br = (ar*br, ai*br),  p2 = swap(a) * bi = (ai*bi, ar*bi),
//   t  = (p1 - p2 in even lanes, p2 + p1 in odd lanes)
//      = (ar*br - ai*bi, ar*bi + ai*br),
// the operands and operations std::complex<double> multiplication uses.
// Vector arithmetic is per-lane IEEE and the clones never contract (common/
// simd.h), so each lane is the scalar expression's bytes.

template <std::size_t kBytes>
using Vd = typename simd::Vec<double, kBytes>::type;
template <std::size_t kBytes>
using Vm = typename simd::Vec<std::int64_t, kBytes>::type;
template <std::size_t kBytes>
using Vu = typename simd::Vec<std::uint64_t, kBytes>::type;

/// Constant shuffle masks over the sizeof...(I) double lanes of one vector.
template <typename M, typename Seq>
struct Masks;
template <typename M, std::size_t... I>
struct Masks<M, std::index_sequence<I...>> {
  static constexpr std::size_t kD = sizeof...(I);
  /// (re, im) -> (im, re) in every complex lane.
  static constexpr M kSwap = {static_cast<std::int64_t>(I ^ 1)...};
  /// Even lanes from the first operand, odd lanes from the second.
  static constexpr M kEvenOdd = {static_cast<std::int64_t>(I % 2 == 0 ? I : I + kD)...};
  /// (re, im) -> (re, re) and (im, im).
  static constexpr M kDupRe = {static_cast<std::int64_t>(I & ~std::size_t{1})...};
  static constexpr M kDupIm = {static_cast<std::int64_t>(I | 1)...};
  /// Complex lanes in reverse order.
  static constexpr M kReverse = {static_cast<std::int64_t>(kD - 2 - (I & ~std::size_t{1}) +
                                                           (I & 1))...};
  /// For transposing complex lanes (transpose_block): (a0, b0, a2, b2) and
  /// (a1, b1, a3, b3) of two vectors a and b, and the low (high) halves of
  /// a then b.
  static constexpr M kPairEven = {
      static_cast<std::int64_t>((I / 4) * 4 + I % 2 + (I % 4 >= 2 ? kD : 0))...};
  static constexpr M kPairOdd = {
      static_cast<std::int64_t>((I / 4) * 4 + 2 + I % 2 + (I % 4 >= 2 ? kD : 0))...};
  static constexpr M kLowHalves = {
      static_cast<std::int64_t>(I < kD / 2 ? I : I - kD / 2 + kD)...};
  static constexpr M kHighHalves = {
      static_cast<std::int64_t>(I < kD / 2 ? I + kD / 2 : I + kD)...};
};
template <std::size_t kBytes>
using MasksOf = Masks<Vm<kBytes>, std::make_index_sequence<kBytes / 8>>;

/// The OR of all lanes of \p m, halving the vector down to one lane pair.
template <std::size_t kBytes>
[[gnu::always_inline]] inline std::uint64_t or_lanes(const Vu<kBytes>& m) noexcept {
  if constexpr (kBytes == 16) {
    return m[0] | m[1];
  } else {
    Vu<kBytes / 2> h[2];
    std::memcpy(h, &m, kBytes);
    const Vu<kBytes / 2> r = h[0] | h[1];
    return or_lanes<kBytes / 2>(r);
  }
}

/// Sign bit set in each lane whose magnitude bits are at least \p t's
/// (ordered like the magnitudes, NaN above infinity): integer ops only,
/// so no clone turns a compare mask back into a vector lane by lane.
template <std::size_t kBytes>
[[gnu::always_inline]] inline void at_least(Vu<kBytes>& out, const Vd<kBytes>& x,
                                            std::uint64_t t) noexcept {
  constexpr std::uint64_t kAbs = ~std::uint64_t{0} >> 1;
  Vu<kBytes> bits;
  std::memcpy(&bits, &x, kBytes);
  out = (bits & kAbs) + ((std::uint64_t{1} << 63) - t);
}

/// std::complex multiplication, Annex G step included: where both parts of
/// the product are NaN it calls the library routine (__muldc3). Out of line
/// and out of the vectorizer's reach, so SLP cannot fuse ac - bd, ad + bc
/// into one vfmaddsub.
[[gnu::noinline, gnu::optimize("fp-contract=off", "no-tree-vectorize")]] cplx scalar_mul(
    cplx a, cplx b) noexcept {
  return a * b;
}

/// The Annex G step for the lanes of t = a * b (see cmul): a lane whose two
/// parts are NaN goes to the library routine, which returns the same two
/// NaNs unless an operand or a partial product is infinite -- only those
/// lanes are redone, by scalar std::complex multiplication.
template <std::size_t kBytes>
[[gnu::always_inline]] inline void annex_g(Vd<kBytes>& t, const Vd<kBytes>& a,
                                           const Vd<kBytes>& br, const Vd<kBytes>& bi,
                                           const Vd<kBytes>& p1, const Vd<kBytes>& p2) noexcept {
  using U = Vu<kBytes>;
  using K = MasksOf<kBytes>;
  constexpr std::uint64_t kInf = 0x7FF0000000000000;
  U nan;
  at_least<kBytes>(nan, t, kInf + 1);
  const U both = nan & __builtin_shuffle(nan, K::kSwap);
  U wild{};
  for (const Vd<kBytes>* x : {&a, &br, &bi, &p1, &p2}) {
    U inf_or_nan;
    U x_nan;
    at_least<kBytes>(inf_or_nan, *x, kInf);
    at_least<kBytes>(x_nan, *x, kInf + 1);
    wild |= inf_or_nan & ~x_nan;
  }
  const U redo = both & (wild | __builtin_shuffle(wild, K::kSwap));
  if ((or_lanes<kBytes>(redo) >> 63) == 0) return;
  for (std::size_t l = 0; l < kBytes / 8; l += 2) {
    if ((redo[l] >> 63) == 0) continue;
    const cplx r = scalar_mul(cplx(a[l], a[l + 1]), cplx(br[l], bi[l]));
    t[l] = r.real();
    t[l + 1] = r.imag();
  }
}

/// \p x's kW complex lanes duplicated per part (see cmul).
template <std::size_t kBytes>
[[gnu::always_inline]] inline void dup_parts(const Vd<kBytes>& x, Vd<kBytes>& re,
                                             Vd<kBytes>& im) noexcept {
  using K = MasksOf<kBytes>;
  re = __builtin_shuffle(x, K::kDupRe);
  im = __builtin_shuffle(x, K::kDupIm);
}

/// t = a * b, b given as its duplicated parts br = (br, br, ...) and
/// bi = (bi, bi, ...). kChecked adds the Annex G step, which reads the
/// operands after writing t: t must not alias them.
template <std::size_t kBytes, bool kChecked>
[[gnu::always_inline]] inline void cmul(Vd<kBytes>& t, const Vd<kBytes>& a, const Vd<kBytes>& br,
                                        const Vd<kBytes>& bi) noexcept {
  using K = MasksOf<kBytes>;
  const Vd<kBytes> as = __builtin_shuffle(a, K::kSwap);
  const Vd<kBytes> p1 = a * br;
  const Vd<kBytes> p2 = as * bi;
  t = __builtin_shuffle(p1 - p2, p2 + p1, K::kEvenOdd);
  if constexpr (kChecked) annex_g<kBytes>(t, a, br, bi, p1, p2);
}

/// One radix-2 butterfly per complex lane: t = v * w, then (u + t, u - t).
template <std::size_t kBytes, bool kChecked>
[[gnu::always_inline]] inline void butterfly(Vd<kBytes>& u, Vd<kBytes>& v, const Vd<kBytes>& wr,
                                             const Vd<kBytes>& wi) noexcept {
  Vd<kBytes> t;
  cmul<kBytes, kChecked>(t, v, wr, wi);
  v = u - t;
  u = u + t;
}

/// butterfly() with twiddles j .. j + kW - 1 read from the plan's
/// duplicated tables.
template <std::size_t kBytes, bool kChecked>
[[gnu::always_inline]] inline void butterfly_at(Vd<kBytes>& u, Vd<kBytes>& v, const FftArgs& a,
                                                std::size_t j) noexcept {
  Vd<kBytes> wr;
  Vd<kBytes> wi;
  simd::load(wr, a.re + 2 * j);
  simd::load(wi, a.im + 2 * j);
  butterfly<kBytes, kChecked>(u, v, wr, wi);
}

/// Transposes the kW x kW block of complex values held by b[0..kW): after
/// it, b[j] holds complex lane j of every input vector, in order.
template <std::size_t kBytes>
[[gnu::always_inline]] inline void transpose_block(Vd<kBytes>* b) noexcept {
  using K = MasksOf<kBytes>;
  if constexpr (kBytes == 32) {
    const Vd<kBytes> t0 = __builtin_shuffle(b[0], b[1], K::kLowHalves);
    b[1] = __builtin_shuffle(b[0], b[1], K::kHighHalves);
    b[0] = t0;
  } else if constexpr (kBytes == 64) {
    const Vd<kBytes> t0 = __builtin_shuffle(b[0], b[1], K::kPairEven);
    const Vd<kBytes> t1 = __builtin_shuffle(b[0], b[1], K::kPairOdd);
    const Vd<kBytes> t2 = __builtin_shuffle(b[2], b[3], K::kPairEven);
    const Vd<kBytes> t3 = __builtin_shuffle(b[2], b[3], K::kPairOdd);
    b[0] = __builtin_shuffle(t0, t2, K::kLowHalves);
    b[2] = __builtin_shuffle(t0, t2, K::kHighHalves);
    b[1] = __builtin_shuffle(t1, t3, K::kLowHalves);
    b[3] = __builtin_shuffle(t1, t3, K::kHighHalves);
  }
}

/// 3-bit reversal.
constexpr std::size_t kRev3[8] = {0, 4, 2, 6, 1, 5, 3, 7};

/// One 8 x 8 tile of the bit reversal, with stages len = 2, 4, 8 on the
/// way. Write an index as i = [a | b | c] (a: top 3 bits, c: low 3 bits);
/// its reversal is [rev(c) | rev(b) | rev(a)], so the 64 values with
/// middle bits b -- 8 rows a of 8 consecutive c, \p in with \p in_stride
/// doubles between rows -- land in tile rev(b) transposed: row rev(c) of
/// \p out holds column c. Rows are loaded in reversed-row order, so each
/// stage of the first three pairs two whole rows: its butterflies run on
/// full vectors with one broadcast twiddle per row pair, and the transpose
/// comes last.
template <std::size_t kBytes, bool kChecked>
[[gnu::always_inline]] inline void tile_stages(const FftArgs& a, const double* in,
                                               std::size_t in_stride, double* out,
                                               std::size_t out_stride) noexcept {
  using V = Vd<kBytes>;
  constexpr std::size_t kW = kBytes / 16;
  constexpr std::size_t kD = kBytes / 8;
  constexpr std::size_t kV = 8 / kW;  // vectors per row
  V r[8][kV];
  for (std::size_t row = 0; row < 8; ++row) {
    for (std::size_t v = 0; v < kV; ++v) {
      simd::load(r[row][v], in + kRev3[row] * in_stride + v * kD);
    }
  }
  for (std::size_t h = 1; h < 8; h *= 2) {
    for (std::size_t blk = 0; blk < 8; blk += 2 * h) {
      for (std::size_t k = 0; k < h; ++k) {
        const V wr = a.re[2 * (h - 1 + k)] - V{};
        const V wi = a.im[2 * (h - 1 + k)] - V{};
        for (std::size_t v = 0; v < kV; ++v) {
          butterfly<kBytes, kChecked>(r[blk + k][v], r[blk + k + h][v], wr, wi);
        }
      }
    }
  }
  for (std::size_t g = 0; g < kV; ++g) {    // row group: rows g kW .. g kW + kW - 1
    for (std::size_t u = 0; u < kV; ++u) {  // column block: columns u kW .. u kW + kW - 1
      V blk[kW];
      for (std::size_t j = 0; j < kW; ++j) blk[j] = r[g * kW + j][u];
      transpose_block<kBytes>(blk);
      for (std::size_t j = 0; j < kW; ++j) {
        simd::store(out + kRev3[u * kW + j] * out_stride + g * kD, blk[j]);
      }
    }
  }
}

/// The bit reversal and stages len = 2, 4, 8 of an n >= 64 transform, in
/// place: tiles b and rev(b) trade places, the second staged through a
/// local copy.
template <std::size_t kBytes, bool kChecked>
[[gnu::always_inline]] inline void tile_pass(const FftArgs& a, double* d) noexcept {
  const std::size_t stride = 2 * (a.n / 8);
  double spare[8 * 16];
  for (std::size_t p = 0; p < a.num_tiles; ++p) {
    double* t0 = d + 16 * std::size_t{a.tiles[2 * p]};
    double* t1 = d + 16 * std::size_t{a.tiles[2 * p + 1]};
    if (t0 != t1) {
      for (std::size_t row = 0; row < 8; ++row) {
        std::memcpy(spare + 16 * row, t1 + row * stride, 16 * sizeof(double));
      }
    }
    tile_stages<kBytes, kChecked>(a, t0, stride, t1, stride);
    if (t0 != t1) tile_stages<kBytes, kChecked>(a, spare, 16, t0, stride);
  }
}

/// One radix-2 stage of half length h >= kW (complex values).
template <std::size_t kBytes, bool kChecked>
[[gnu::always_inline]] inline void stage_pass(const FftArgs& a, double* d, std::size_t h) noexcept {
  constexpr std::size_t kW = kBytes / 16;
  for (std::size_t i = 0; i < a.n; i += 2 * h) {
    for (std::size_t k = 0; k < h; k += kW) {
      double* p = d + 2 * (i + k);
      Vd<kBytes> u;
      Vd<kBytes> v;
      simd::load(u, p);
      simd::load(v, p + 2 * h);
      butterfly_at<kBytes, kChecked>(u, v, a, h - 1 + k);
      simd::store(p, u);
      simd::store(p + 2 * h, v);
    }
  }
}

/// Stages of half length h and 2h >= 2 kW in one memory pass: the same
/// butterflies as two stage_pass calls, each on its own stage's twiddle.
template <std::size_t kBytes, bool kChecked>
[[gnu::always_inline]] inline void stage_pair_pass(const FftArgs& a, double* d,
                                                   std::size_t h) noexcept {
  constexpr std::size_t kW = kBytes / 16;
  for (std::size_t i = 0; i < a.n; i += 4 * h) {
    for (std::size_t k = 0; k < h; k += kW) {
      double* p = d + 2 * (i + k);
      Vd<kBytes> q0;
      Vd<kBytes> q1;
      Vd<kBytes> q2;
      Vd<kBytes> q3;
      simd::load(q0, p);
      simd::load(q1, p + 2 * h);
      simd::load(q2, p + 4 * h);
      simd::load(q3, p + 6 * h);
      butterfly_at<kBytes, kChecked>(q0, q1, a, h - 1 + k);
      butterfly_at<kBytes, kChecked>(q2, q3, a, h - 1 + k);
      butterfly_at<kBytes, kChecked>(q0, q2, a, 2 * h - 1 + k);
      butterfly_at<kBytes, kChecked>(q1, q3, a, 3 * h - 1 + k);
      simd::store(p, q0);
      simd::store(p + 2 * h, q1);
      simd::store(p + 4 * h, q2);
      simd::store(p + 6 * h, q3);
    }
  }
}

/// The transform: bit reversal, then every radix-2 stage in order len = 2,
/// 4, ..., n, then the inverse's 1/n scale. Below 64 points it swaps and
/// runs one complex value per vector.
template <std::size_t kBytes, bool kChecked>
[[gnu::always_inline]] inline void fft_body(const FftArgs& a, cplx* x) noexcept {
  double* d = reinterpret_cast<double*>(x);
  std::size_t h = 1;
  if (a.n < 64) {
    if constexpr (kBytes > 16) {
      return fft_body<16, kChecked>(a, x);
    } else {
      for (std::size_t s = 0; s < a.num_swaps; ++s) {
        double* pi = d + 2 * std::size_t{a.swaps[2 * s]};
        double* pj = d + 2 * std::size_t{a.swaps[2 * s + 1]};
        Vd<16> xi;
        Vd<16> xj;
        simd::load(xi, pi);
        simd::load(xj, pj);
        simd::store(pi, xj);
        simd::store(pj, xi);
      }
    }
  } else {
    tile_pass<kBytes, kChecked>(a, d);
    h = 8;
  }
  if (a.n > h && (std::countr_zero(a.n / h) & 1) != 0) {
    stage_pass<kBytes, kChecked>(a, d, h);
    h *= 2;
  }
  for (; h < a.n; h *= 4) stage_pair_pass<kBytes, kChecked>(a, d, h);
  if (a.inverse) {
    const Vd<kBytes> s = 1.0 / static_cast<double>(a.n) - Vd<kBytes>{};
    for (std::size_t i = 0; i < 2 * a.n; i += kBytes / 8) {
      Vd<kBytes> v;
      simd::load(v, d + i);
      v *= s;
      simd::store(d + i, v);
    }
  }
}

/// All \p count doubles at \p p satisfy |v| < bound (NaN does not).
template <std::size_t kBytes>
[[gnu::always_inline]] inline bool tame_body(const double* p, std::size_t count,
                                             double bound) noexcept {
  constexpr std::size_t kD = kBytes / 8;
  const auto t = std::bit_cast<std::uint64_t>(bound);
  Vu<kBytes> wild{};
  std::size_t i = 0;
  for (; i + kD <= count; i += kD) {
    Vd<kBytes> v;
    Vu<kBytes> w;
    simd::load(v, p + i);
    at_least<kBytes>(w, v, t);
    wild |= w;
  }
  bool all = (or_lanes<kBytes>(wild) >> 63) == 0;
  for (; i < count; ++i) all = all && p[i] < bound && p[i] > -bound;
  return all;
}

/// Split steps k .. k + kW - 1 of the forward real transform (their mirror
/// bins m - k - kW + 1 .. m - k, reversed into lanes), as the scalar loop:
///   e = 0.5 * (a + conj(b)),  o = (0, -0.5) * (a - conj(b)),  t = W^k * o,
///   X[k] = e + t,  X[m - k] = conj(e - t).
template <std::size_t kBytes, bool kChecked>
[[gnu::always_inline]] inline void split_step(double* s, const cplx* w, std::size_t m,
                                              std::size_t k) noexcept {
  using V = Vd<kBytes>;
  using K = MasksOf<kBytes>;
  constexpr std::size_t kW = kBytes / 16;
  double* pa = s + 2 * k;
  double* pb = s + 2 * (m - k - kW + 1);
  V a;
  V b;
  V wk;
  simd::load(a, pa);
  simd::load(b, pb);
  b = __builtin_shuffle(b, K::kReverse);
  simd::load(wk, reinterpret_cast<const double*>(w + k));
  const V half = 0.5 - V{};
  // a + conj(b) = (ar + br, ai - bi); a - conj(b) = (ar - br, ai + bi).
  const V sum = a + b;
  const V dif = a - b;
  const V e = __builtin_shuffle(sum, dif, K::kEvenOdd) * half;
  const V dd = __builtin_shuffle(dif, sum, K::kEvenOdd);
  const V neg_half = __builtin_shuffle(0.0 - V{}, -0.5 - V{}, K::kEvenOdd);  // (0, -0.5)
  V dr;
  V di;
  dup_parts<kBytes>(dd, dr, di);
  V o;
  cmul<kBytes, kChecked>(o, neg_half, dr, di);
  V orr;
  V oi;
  dup_parts<kBytes>(o, orr, oi);
  V t;
  cmul<kBytes, kChecked>(t, wk, orr, oi);
  const V lo = e + t;
  const V hd = e - t;
  const V hi = __builtin_shuffle(hd, -hd, K::kEvenOdd);
  simd::store(pa, lo);
  simd::store(pb, __builtin_shuffle(hi, K::kReverse));
}

/// Merge steps k .. k + kW - 1 of the inverse real transform, as the scalar
/// loop: e = 0.5 * (a + conj(b)), o = conj(W^k) * (0.5 * (a - conj(b))),
///   Z[k] = e + (-o.im, o.re),  Z[m - k] = conj(e) + (o.im, o.re).
template <std::size_t kBytes, bool kChecked>
[[gnu::always_inline]] inline void merge_step(double* s, const cplx* w, std::size_t m,
                                              std::size_t k) noexcept {
  using V = Vd<kBytes>;
  using K = MasksOf<kBytes>;
  constexpr std::size_t kW = kBytes / 16;
  double* pa = s + 2 * k;
  double* pb = s + 2 * (m - k - kW + 1);
  V a;
  V b;
  V wk;
  simd::load(a, pa);
  simd::load(b, pb);
  b = __builtin_shuffle(b, K::kReverse);
  simd::load(wk, reinterpret_cast<const double*>(w + k));
  const V half = 0.5 - V{};
  const V sum = a + b;
  const V dif = a - b;
  const V e = __builtin_shuffle(sum, dif, K::kEvenOdd) * half;
  const V hd = __builtin_shuffle(dif, sum, K::kEvenOdd) * half;
  const V wc = __builtin_shuffle(wk, -wk, K::kEvenOdd);  // conj(W^k)
  V hr;
  V hi;
  dup_parts<kBytes>(hd, hr, hi);
  V o;
  cmul<kBytes, kChecked>(o, wc, hr, hi);
  const V os = __builtin_shuffle(o, K::kSwap);  // (o.im, o.re)
  // e + (-o.im, o.re) = (er - oi, ei + or); conj(e) + (o.im, o.re) = (er + oi, or - ei).
  const V plus = e + os;
  const V lo = __builtin_shuffle(e - os, plus, K::kEvenOdd);
  const V up = __builtin_shuffle(plus, os - e, K::kEvenOdd);
  simd::store(pa, lo);
  simd::store(pb, __builtin_shuffle(up, K::kReverse));
}

template <std::size_t kBytes, bool kChecked>
[[gnu::always_inline]] inline void rfft_forward_body(const RfftArgs& r, const double* x,
                                                     cplx* spec) noexcept {
  constexpr std::size_t kW = kBytes / 16;
  const std::size_t m = r.m;
  // Pack pairs of reals into the half-length complex buffer z[j] =
  // x[2j] + i*x[2j+1] and transform once at size m.
  std::memcpy(reinterpret_cast<double*>(spec), x, m * sizeof(cplx));
  fft_body<kBytes, kChecked>(r.half, spec);
  const cplx z0 = spec[0];
  spec[0] = cplx(z0.real() + z0.imag(), 0.0);
  spec[m] = cplx(z0.real() - z0.imag(), 0.0);
  double* s = reinterpret_cast<double*>(spec);
  std::size_t k = 1;
  for (; k + kW <= m / 2; k += kW) split_step<kBytes, kChecked>(s, r.w, m, k);
  for (; k < m - k; ++k) split_step<16, kChecked>(s, r.w, m, k);
  // Self-paired bin k = m/2: W_n^{m/2} = -i collapses to a conjugation.
  if (m >= 2) spec[m / 2] = std::conj(spec[m / 2]);
}

template <std::size_t kBytes, bool kChecked>
[[gnu::always_inline]] inline void rfft_inverse_body(const RfftArgs& r, cplx* spec,
                                                     double* x) noexcept {
  constexpr std::size_t kW = kBytes / 16;
  const std::size_t m = r.m;
  // Bin 0 folds X[0] and X[m] (imaginary parts ignored: they are zero for
  // any spectrum of a real signal, and for products of such spectra).
  const double x0 = spec[0].real();
  const double xm = spec[m].real();
  spec[0] = cplx(0.5 * (x0 + xm), 0.5 * (x0 - xm));
  double* s = reinterpret_cast<double*>(spec);
  std::size_t k = 1;
  for (; k + kW <= m / 2; k += kW) merge_step<kBytes, kChecked>(s, r.w, m, k);
  for (; k < m - k; ++k) merge_step<16, kChecked>(s, r.w, m, k);
  if (m >= 2) spec[m / 2] = std::conj(spec[m / 2]);
  // The half plan's 1/m scale is exactly the 1/n the real transform needs
  // once the factor-of-two packing is unwound.
  fft_body<kBytes, kChecked>(r.half, spec);
  std::memcpy(x, reinterpret_cast<const double*>(spec), m * sizeof(cplx));
}

template <std::size_t kBytes, bool kChecked>
[[gnu::always_inline]] inline void mul_body(double* a, const double* b, std::size_t n) noexcept {
  constexpr std::size_t kW = kBytes / 16;
  std::size_t k = 0;
  for (; k + kW <= n; k += kW) {
    Vd<kBytes> av;
    Vd<kBytes> bv;
    simd::load(av, a + 2 * k);
    simd::load(bv, b + 2 * k);
    Vd<kBytes> br;
    Vd<kBytes> bi;
    Vd<kBytes> t;
    dup_parts<kBytes>(bv, br, bi);
    cmul<kBytes, kChecked>(t, av, br, bi);
    simd::store(a + 2 * k, t);
  }
  if constexpr (kW > 1) mul_body<16, kChecked>(a + 2 * k, b + 2 * k, n - k);
}

/// Whether a kernel must run the Annex G step, given its inputs.
template <std::size_t kBytes>
[[gnu::always_inline]] inline bool needs_check(detail::LaneCheck check, const double* p,
                                               std::size_t count, double bound) noexcept {
  switch (check) {
    case detail::LaneCheck::kNone:
      return false;
    case detail::LaneCheck::kAlways:
      return true;
    default:
      return !tame_body<kBytes>(p, count, bound);
  }
}

// The entry points every clone compiles, one per kernel.
struct FftOp {
  template <std::size_t kBytes>
  [[gnu::always_inline]] static void run(const FftArgs& a, cplx* x, detail::LaneCheck c) noexcept {
    if (needs_check<kBytes>(c, reinterpret_cast<const double*>(x), 2 * a.n,
                            detail::kFftTameBound)) {
      fft_body<kBytes, true>(a, x);
    } else {
      fft_body<kBytes, false>(a, x);
    }
  }
};

struct RfftForwardOp {
  template <std::size_t kBytes>
  [[gnu::always_inline]] static void run(const RfftArgs& r, const double* x, cplx* spec,
                                         detail::LaneCheck c) noexcept {
    if (needs_check<kBytes>(c, x, 2 * r.m, detail::kFftTameBound)) {
      rfft_forward_body<kBytes, true>(r, x, spec);
    } else {
      rfft_forward_body<kBytes, false>(r, x, spec);
    }
  }
};

struct RfftInverseOp {
  template <std::size_t kBytes>
  [[gnu::always_inline]] static void run(const RfftArgs& r, cplx* spec, double* x,
                                         detail::LaneCheck c) noexcept {
    if (needs_check<kBytes>(c, reinterpret_cast<const double*>(spec), 2 * (r.m + 1),
                            detail::kFftTameBound)) {
      rfft_inverse_body<kBytes, true>(r, spec, x);
    } else {
      rfft_inverse_body<kBytes, false>(r, spec, x);
    }
  }
};

struct MulOp {
  template <std::size_t kBytes>
  [[gnu::always_inline]] static void run(cplx* a, const cplx* b, std::size_t n,
                                         detail::LaneCheck c) noexcept {
    auto* ad = reinterpret_cast<double*>(a);
    const auto* bd = reinterpret_cast<const double*>(b);
    if (c == detail::LaneCheck::kNone) {
      mul_body<kBytes, false>(ad, bd, n);
    } else {
      mul_body<kBytes, true>(ad, bd, n);
    }
  }
};

struct TameOp {
  template <std::size_t kBytes>
  [[gnu::always_inline]] static bool run(const double* p, std::size_t count,
                                         double bound) noexcept {
    return tame_body<kBytes>(p, count, bound);
  }
};

template <typename Op, typename... Args>
[[UWB_CLONE_PORTABLE]] auto run_portable(Args... args) noexcept {
  return Op::template run<16>(args...);
}

#ifdef UWB_SIMD_X86
template <typename Op, typename... Args>
[[UWB_CLONE_AVX2]] auto run_avx2(Args... args) noexcept {
  return Op::template run<32>(args...);
}

template <typename Op, typename... Args>
[[UWB_CLONE_AVX512]] auto run_avx512(Args... args) noexcept {
  return Op::template run<64>(args...);
}
#endif

/// Runs kernel \p Op on the clone for \p isa.
template <typename Op, typename... Args>
auto run_on(Isa isa, Args... args) noexcept {
  switch (isa) {
#ifdef UWB_SIMD_X86
    case Isa::kAvx512:
      return run_avx512<Op>(args...);
    case Isa::kAvx2:
      return run_avx2<Op>(args...);
#endif
    default:
      return run_portable<Op>(args...);
  }
}

}  // namespace

// ---------------------------------------------------------------- FftPlan ----

FftPlan::FftPlan(std::size_t n) : n_(n) {
  detail::require(is_pow2(n), "FftPlan: length must be a power of two");

  // Bit reversal: index pairs (i, rev(i)), i < rev(i), below 64 points;
  // from 64 up, pairs (b, rev(b)), b <= rev(b), of the middle index bits
  // that select an 8 x 8 tile (see tile_stages).
  const std::size_t bits = static_cast<std::size_t>(std::countr_zero(n));
  const auto reverse = [](std::size_t v, std::size_t width) {
    std::size_t r = 0;
    for (std::size_t b = 0; b < width; ++b) r |= ((v >> b) & 1) << (width - 1 - b);
    return r;
  };
  const std::size_t units = n < 64 ? n : n / 64;
  const std::size_t width = n < 64 ? bits : bits - 6;
  std::vector<std::uint32_t>& pairs = n < 64 ? swaps_ : tiles_;
  for (std::size_t i = 0; i < units; ++i) {
    const std::size_t j = reverse(i, width);
    if (i < j || (n >= 64 && i == j)) {
      pairs.push_back(static_cast<std::uint32_t>(i));
      pairs.push_back(static_cast<std::uint32_t>(j));
    }
  }

  // Forward twiddles exp(-2 pi i k / len) for every stage, concatenated:
  // len = 2 contributes 1 entry, len = 4 two entries, ... (n - 1 total).
  const std::size_t count = n > 1 ? n - 1 : 0;
  tw_re_.reserve(2 * count);
  tw_im_.reserve(2 * count);
  tw_im_conj_.reserve(2 * count);
  for (std::size_t len = 2; len <= n; len <<= 1) {
    const double ang = -two_pi / static_cast<double>(len);
    for (std::size_t k = 0; k < len / 2; ++k) {
      const double a = ang * static_cast<double>(k);
      const cplx w(std::cos(a), std::sin(a));
      const cplx wc = std::conj(w);
      tw_re_.insert(tw_re_.end(), 2, w.real());
      tw_im_.insert(tw_im_.end(), 2, w.imag());
      tw_im_conj_.insert(tw_im_conj_.end(), 2, wc.imag());
    }
  }
}

void FftPlan::forward(cplx* x) const noexcept {
  detail::fft(host_isa(), *this, x, false, detail::LaneCheck::kIfNeeded);
}

void FftPlan::inverse(cplx* x) const noexcept {
  detail::fft(host_isa(), *this, x, true, detail::LaneCheck::kIfNeeded);
}

void FftPlan::forward(CplxVec& x) const {
  detail::require(x.size() == n_, "FftPlan::forward: buffer/plan size mismatch");
  forward(x.data());
}

void FftPlan::inverse(CplxVec& x) const {
  detail::require(x.size() == n_, "FftPlan::inverse: buffer/plan size mismatch");
  inverse(x.data());
}

namespace {
// Plan-cache state. The map is never destroyed (returned references must
// stay valid for the process lifetime); hit/miss counters live under the
// same mutex as the map, so fft_plan pays no extra synchronization.
std::mutex g_plan_mutex;
std::uint64_t g_plan_hits = 0;
std::uint64_t g_plan_misses = 0;
}  // namespace

const FftPlan& fft_plan(std::size_t n) {
  detail::require(is_pow2(n), "fft_plan: length must be a power of two");
  // Plans are never evicted, so returned references stay valid; the map
  // lives for the process lifetime and holds one immutable plan per size.
  static std::map<std::size_t, std::unique_ptr<FftPlan>>* cache =
      new std::map<std::size_t, std::unique_ptr<FftPlan>>();
  const std::lock_guard<std::mutex> lock(g_plan_mutex);
  auto& slot = (*cache)[n];
  if (slot == nullptr) {
    ++g_plan_misses;
    slot = std::make_unique<FftPlan>(n);
  } else {
    ++g_plan_hits;
  }
  return *slot;
}

FftPlanCacheStats fft_plan_cache_stats() {
  const std::lock_guard<std::mutex> lock(g_plan_mutex);
  return FftPlanCacheStats{g_plan_hits, g_plan_misses};
}

// --------------------------------------------------------------- RfftPlan ----

RfftPlan::RfftPlan(std::size_t n, const FftPlan& half) : n_(n), half_(&half) {
  detail::require(is_pow2(n) && n >= 2, "RfftPlan: length must be a power of two >= 2");
  detail::require(half.size() == n / 2, "RfftPlan: half plan size mismatch");
  const std::size_t m = n / 2;
  w_.resize(m / 2 + 1);
  for (std::size_t k = 0; k <= m / 2; ++k) {
    const double a = -two_pi * static_cast<double>(k) / static_cast<double>(n);
    w_[k] = cplx(std::cos(a), std::sin(a));
  }
}

// Forward: pack the n reals as n/2 complex values z[j] = x[2j] + i x[2j+1],
// transform once at size m = n/2, and disentangle: with E/O the spectra of
// the even/odd subsequences,
//   E[k] = (Z[k] + conj(Z[m-k])) / 2,  O[k] = (Z[k] - conj(Z[m-k])) / (2i),
//   X[k] = E[k] + W_n^k * O[k],        X[m-k] = conj(E[k] - W_n^k * O[k]).
// Inverse: re-entangle into the packed half-length transform,
//   E[k] = (X[k] + conj(X[m-k])) / 2,
//   O[k] = conj(W_n^k) * (X[k] - conj(X[m-k])) / 2,
//   Z[k] = E[k] + i * O[k],
// and transform back at size m.
void RfftPlan::forward(const double* x, cplx* spec) const noexcept {
  detail::rfft_forward(host_isa(), *this, x, spec, detail::LaneCheck::kIfNeeded);
}

void RfftPlan::inverse(cplx* spec, double* x) const noexcept {
  detail::rfft_inverse(host_isa(), *this, spec, x, detail::LaneCheck::kIfNeeded);
}

const RfftPlan& rfft_plan(std::size_t n) {
  detail::require(is_pow2(n) && n >= 2, "rfft_plan: length must be a power of two >= 2");
  // Resolve the half-size complex plan before taking the lock below —
  // fft_plan() serializes on the same mutex.
  const FftPlan& half = fft_plan(n / 2);
  static std::map<std::size_t, std::unique_ptr<RfftPlan>>* cache =
      new std::map<std::size_t, std::unique_ptr<RfftPlan>>();
  const std::lock_guard<std::mutex> lock(g_plan_mutex);
  auto& slot = (*cache)[n];
  if (slot == nullptr) {
    ++g_plan_misses;
    slot = std::make_unique<RfftPlan>(n, half);
  } else {
    ++g_plan_hits;
  }
  return *slot;
}

// ----------------------------------------------------------- free helpers ----

void fft_inplace(CplxVec& x) {
  detail::require(is_pow2(x.size()), "fft: length must be a power of two");
  fft_plan(x.size()).forward(x.data());
}

void ifft_inplace(CplxVec& x) {
  detail::require(is_pow2(x.size()), "fft: length must be a power of two");
  fft_plan(x.size()).inverse(x.data());
}

CplxVec fft(const CplxVec& x, std::size_t n) {
  const std::size_t len = (n == 0) ? next_pow2(x.size()) : n;
  detail::require(is_pow2(len), "fft: requested length must be a power of two");
  CplxVec buf(len, cplx{});
  const std::size_t copy = std::min(len, x.size());
  for (std::size_t i = 0; i < copy; ++i) buf[i] = x[i];
  fft_inplace(buf);
  return buf;
}

CplxVec fft(const RealVec& x, std::size_t n) {
  const std::size_t len = (n == 0) ? next_pow2(x.size()) : n;
  detail::require(is_pow2(len), "fft: requested length must be a power of two");
  CplxVec buf(len, cplx{});
  const std::size_t copy = std::min(len, x.size());
  for (std::size_t i = 0; i < copy; ++i) buf[i] = cplx(x[i], 0.0);
  fft_inplace(buf);
  return buf;
}

CplxVec ifft(const CplxVec& x) {
  CplxVec buf = x;
  ifft_inplace(buf);
  return buf;
}

CplxVec rfft(const RealVec& x, std::size_t n) {
  if (x.empty() && n == 0) return {};
  std::size_t len = (n == 0) ? next_pow2(x.size()) : n;
  if (len < 2) len = 2;
  detail::require(is_pow2(len), "rfft: requested length must be a power of two");
  const RfftPlan& plan = rfft_plan(len);
  RealVec padded(len, 0.0);
  const std::size_t copy = std::min(len, x.size());
  for (std::size_t i = 0; i < copy; ++i) padded[i] = x[i];
  CplxVec spec(plan.bins());
  plan.forward(padded.data(), spec.data());
  return spec;
}

RealVec irfft(const CplxVec& spec, std::size_t out_len) {
  if (spec.empty()) return {};
  detail::require(spec.size() >= 2 && is_pow2(spec.size() - 1),
                  "irfft: spectrum must have 2^k + 1 bins");
  const std::size_t len = 2 * (spec.size() - 1);
  const RfftPlan& plan = rfft_plan(len);
  CplxVec scratch = spec;  // inverse() consumes its input
  RealVec out(len);
  plan.inverse(scratch.data(), out.data());
  if (out_len != 0 && out_len < out.size()) out.resize(out_len);
  return out;
}

double bin_frequency(std::size_t k, std::size_t n, double fs) {
  detail::require(n > 0, "bin_frequency: n must be positive");
  const double f = static_cast<double>(k) * fs / static_cast<double>(n);
  return (k < n / 2) ? f : f - fs;
}

}  // namespace uwb::dsp

namespace uwb::detail {

bool spectral_tame(Isa isa, const double* p, std::size_t count, double bound) noexcept {
  return dsp::run_on<dsp::TameOp>(isa, p, count, bound);
}

void fft(Isa isa, const dsp::FftPlan& plan, cplx* x, bool inverse, LaneCheck check) noexcept {
  const obs::StageTimer timer(obs::Stage::kFftExec, plan.size());
  dsp::run_on<dsp::FftOp>(isa, dsp::FftPlanTables::of(plan, inverse), x, check);
}

void rfft_forward(Isa isa, const dsp::RfftPlan& plan, const double* x, cplx* spec,
                  LaneCheck check) noexcept {
  const obs::StageTimer timer(obs::Stage::kFftExec, plan.size() / 2);
  dsp::run_on<dsp::RfftForwardOp>(isa, dsp::FftPlanTables::of(plan, false), x, spec, check);
}

void rfft_inverse(Isa isa, const dsp::RfftPlan& plan, cplx* spec, double* x,
                  LaneCheck check) noexcept {
  const obs::StageTimer timer(obs::Stage::kFftExec, plan.size() / 2);
  dsp::run_on<dsp::RfftInverseOp>(isa, dsp::FftPlanTables::of(plan, true), spec, x, check);
}

void spectrum_mul(Isa isa, cplx* a, const cplx* b, std::size_t n, LaneCheck check) noexcept {
  dsp::run_on<dsp::MulOp>(isa, a, b, n, check);
}

}  // namespace uwb::detail
