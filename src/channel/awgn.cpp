#include "channel/awgn.h"

#include <algorithm>
#include <bit>
#include <cmath>
#include <cstdint>
#include <cstring>
#include <span>

#include "common/error.h"
#include "common/math_utils.h"
#include "common/simd.h"
#include "obs/profile.h"

namespace uwb::channel {

namespace {

// ---- Ziggurat standard-normal sampler -------------------------------------
//
// Noise synthesis is the largest per-packet cost that is not a convolution:
// a gen-1 packet adds noise over millions of oversampled "analog" samples,
// and std::normal_distribution (Marsaglia polar) spends ~25 ns per draw in
// log/sqrt and rejection retries. The 256-layer ziggurat (Marsaglia & Tsang
// 2000) accepts ~98.8% of draws with one engine call, one table lookup and
// one compare -- same exact N(0,1) law, ~5x faster.
//
// Draws here consume the same engine (Mt64Block) as Rng::gaussian but with a
// different consumption pattern, so AWGN realizations differ from the polar
// sampler's; every draw is still a pure function of the trial's forked seed,
// which is all the engine's byte-identity guarantees require. Rng::gaussian
// itself is untouched: channel realizations, jitter and converter mismatch
// keep their exact historical streams.

constexpr int kZigLayers = 256;
constexpr double kZigR = 3.6541528853610088;      // base-layer right edge
constexpr double kZigArea = 0.00492867323399;     // per-layer area

struct ZigguratTables {
  double x[kZigLayers + 1];  // layer right edges, decreasing; x[256] = 0
  double y[kZigLayers + 1];  // f(x[i]) = exp(-x[i]^2/2), increasing

  ZigguratTables() {
    x[0] = kZigArea * std::exp(0.5 * kZigR * kZigR);  // v / f(r)
    x[1] = kZigR;
    for (int i = 1; i < kZigLayers; ++i) {
      const double fx = std::exp(-0.5 * x[i] * x[i]);
      x[i + 1] = std::sqrt(-2.0 * std::log(kZigArea / x[i] + fx));
    }
    x[kZigLayers] = 0.0;
    for (int i = 0; i <= kZigLayers; ++i) y[i] = std::exp(-0.5 * x[i] * x[i]);
  }
};

const ZigguratTables& zig_tables() {
  static const ZigguratTables tables;
  return tables;
}

inline double uniform01(Mt64Block& eng) {
  return static_cast<double>(eng() >> 11) * 0x1.0p-53;
}

/// One standard-normal draw. Hot path: single engine call, layer index from
/// the low 8 bits, sign from bit 8, a 52-bit mantissa as the in-layer
/// uniform, and one compare against the next layer's edge.
double zig_normal(Mt64Block& eng, const ZigguratTables& t) {
  while (true) {
    const std::uint64_t u = eng();
    const int i = static_cast<int>(u & 255u);
    const double sign = (u & 256u) != 0 ? -1.0 : 1.0;
    const double ux = static_cast<double>(u >> 12) * 0x1.0p-52;
    const double cand = ux * t.x[i];
    if (cand < t.x[i + 1]) return sign * cand;
    if (i == 0) {
      // Tail beyond r (Marsaglia's exponential-majorant method).
      double xt;
      double yt;
      do {
        xt = -std::log(1.0 - uniform01(eng)) / kZigR;
        yt = -std::log(1.0 - uniform01(eng));
      } while (yt + yt < xt * xt);
      return sign * (kZigR + xt);
    }
    // Wedge between layer edges: accept iff the point lands under the pdf.
    const double yr = t.y[i] + uniform01(eng) * (t.y[i + 1] - t.y[i]);
    if (yr < std::exp(-0.5 * cand * cand)) return sign * cand;
  }
}

// ---- Blocked fast path -----------------------------------------------------
//
// The double overloads read their words straight from the engine's buffer,
// kBlock at a time, and run the one-compare hot path on all of them at once.
// The outputs of the leading accepted draws are added and their words
// skipped; at the first miss, one scalar zig_normal draw (wedge and tail
// included) consumes the missed word and the next block starts after it.
// Every draw thus sees the word, operations and order of the scalar loop
// `x[k] += sigma * zig_normal(eng, t)`:
// - the in-layer uniform (u >> 12) * 2^-52 is formed as
//   bit_cast<double>(0x3FF0000000000000 | u >> 12) - 1.0, the same value
//   exactly, and one that vectorizes without AVX-512DQ's int64 conversion;
// - the sign is XOR-ed into the top bit, which equals sign * cand for the
//   hot path's cand >= 0 (+0 included);
// - the clones pin fp-contract=off, so sigma * z + x[k] stays two roundings.

constexpr std::size_t kBlock = 8;

/// Runs the hot path on the kBlock draws whose words start at \p u and adds
/// the sigma-scaled outputs of the leading draws it accepts to x[0..);
/// returns how many it accepted (kBlock when none missed).
template <std::size_t kBytes>
[[gnu::always_inline]] inline std::size_t zig_block(double* x, const std::uint64_t* u,
                                                    double sigma,
                                                    const ZigguratTables& t) noexcept {
  using VD = typename simd::Vec<double, kBytes>::type;
  using VU = typename simd::Vec<std::uint64_t, kBytes>::type;
  using VI = typename simd::Vec<std::int64_t, kBytes>::type;
  constexpr std::size_t kW = kBytes / sizeof(double);
  constexpr std::size_t kVecs = kBlock / kW;
  static_assert(kBlock % kW == 0);
  VD z[kVecs];
  VI miss[kVecs];
  VI any_miss = {};
  for (std::size_t v = 0; v < kVecs; ++v) {
    VU w;
    simd::load(w, u + v * kW);
    VD edge;
    VD next_edge;
    for (std::size_t l = 0; l < kW; ++l) {
      edge[l] = t.x[w[l] & 255u];
      next_edge[l] = t.x[(w[l] & 255u) + 1];
    }
    const VD ux = reinterpret_cast<VD>((w >> 12) | 0x3FF0000000000000ULL) - 1.0;
    const VD cand = ux * edge;
    miss[v] = ~(cand < next_edge);
    any_miss |= miss[v];
    z[v] = reinterpret_cast<VD>(reinterpret_cast<VU>(cand) ^ ((w & 256u) << 55));
  }
  bool all = true;
  for (std::size_t l = 0; l < kW; ++l) all &= any_miss[l] == 0;
  if (all) [[likely]] {
    for (std::size_t v = 0; v < kVecs; ++v) {
      VD xv;
      simd::load(xv, x + v * kW);
      xv += sigma * z[v];
      simd::store(x + v * kW, xv);
    }
    return kBlock;
  }
  std::size_t j = 0;
  for (std::size_t v = 0; v < kVecs; ++v) {
    for (std::size_t l = 0; l < kW; ++l, ++j) {
      if (miss[v][l] != 0) return j;
      x[j] += sigma * z[v][l];
    }
  }
  return j;
}

/// Adds sigma * N(0,1) to x[0..n), one draw per element in order.
template <std::size_t kBytes>
[[gnu::always_inline]] inline void add_awgn_body(double* x, std::size_t n, double sigma,
                                                 Mt64Block& eng, const ZigguratTables& t) {
  std::size_t k = 0;
  while (k + kBlock <= n) {
    const std::span<const std::uint64_t> words = eng.buffered();
    if (words.size() >= kBlock) {
      const std::size_t accepted = zig_block<kBytes>(x + k, words.data(), sigma, t);
      eng.skip(accepted);
      k += accepted;
      if (accepted == kBlock) continue;
    }
    x[k++] += sigma * zig_normal(eng, t);
  }
  for (; k < n; ++k) x[k] += sigma * zig_normal(eng, t);
}

[[UWB_CLONE_PORTABLE]] void add_awgn_portable(double* x, std::size_t n, double sigma,
                                              Mt64Block& eng, const ZigguratTables& t) {
  add_awgn_body<16>(x, n, sigma, eng, t);
}

#ifdef UWB_SIMD_X86
[[UWB_CLONE_AVX2]] void add_awgn_avx2(double* x, std::size_t n, double sigma, Mt64Block& eng,
                                      const ZigguratTables& t) {
  add_awgn_body<32>(x, n, sigma, eng, t);
}

[[UWB_CLONE_AVX512]] void add_awgn_avx512(double* x, std::size_t n, double sigma,
                                          Mt64Block& eng, const ZigguratTables& t) {
  add_awgn_body<64>(x, n, sigma, eng, t);
}
#endif

// ---- Single-precision ziggurat on eight xoshiro256++ lanes ----------------
//
// Each 64-bit word feeds two float ziggurat draws (32 bits each: 8-bit layer
// index, sign bit, 23-bit in-layer mantissa). Eight independent xoshiro256++
// lanes make a block of eight words -- sixteen draws -- per step, so a vector
// of lanes steps them all at once, and draws that miss the one-compare accept
// take their continuation from a separate rejection stream: a miss shifts no
// later draw's words, so the vector loop only queues it (about 1.5% of
// draws, one block in five) and a scalar fix-up continues the queue in order.

constexpr std::size_t kLanes = FloatAwgn::kLanes;
constexpr std::size_t kBlockDraws = FloatAwgn::kBlockDraws;
/// Blocks per clone call: the miss queue's 32-bit indices stay in range.
constexpr std::size_t kMaxBlocks = std::size_t{1} << 26;
static_assert(std::endian::native == std::endian::little,
              "a block's draws are its words' 32-bit halves in memory order");

/// SplitMix64 (the reference seeding method of xoshiro): advances \p z and
/// returns its next output.
inline std::uint64_t splitmix64(std::uint64_t& z) noexcept {
  z += 0x9e3779b97f4a7c15ULL;
  std::uint64_t t = z;
  t = (t ^ (t >> 30)) * 0xbf58476d1ce4e5b9ULL;
  t = (t ^ (t >> 27)) * 0x94d049bb133111ebULL;
  return t ^ (t >> 31);
}

/// One xoshiro256++ step on the state words s0..s3 (scalars or vectors of
/// lanes): writes the output to \p out and advances the state.
template <typename T>
[[gnu::always_inline]] inline void xoshiro_step(T& out, T& s0, T& s1, T& s2, T& s3) noexcept {
  const T sum = s0 + s3;
  out = ((sum << 23) | (sum >> 41)) + s0;
  const T t = s1 << 17;
  s2 ^= s0;
  s3 ^= s1;
  s1 ^= s2;
  s0 ^= s3;
  s2 ^= t;
  s3 = (s3 << 45) | (s3 >> 19);
}

/// The rejection stream: one xoshiro256++ generator over FloatAwgn's
/// reject_ words.
struct RejectStream {
  std::uint64_t* s;
  std::uint64_t next() noexcept {
    std::uint64_t out = 0;
    xoshiro_step(out, s[0], s[1], s[2], s[3]);
    return out;
  }
};

struct ZigguratTablesF {
  float x[kZigLayers + 1];
  float y[kZigLayers + 1];
  /// Layer i's edges x[i] (low half) and x[i + 1] (high half), for gathers
  /// that fetch both in one 64-bit element (long long: the gathers' type).
  long long edges[kZigLayers];

  ZigguratTablesF() {
    const ZigguratTables& d = zig_tables();
    for (int i = 0; i <= kZigLayers; ++i) {
      x[i] = static_cast<float>(d.x[i]);
      y[i] = static_cast<float>(d.y[i]);
    }
    for (int i = 0; i < kZigLayers; ++i) {
      edges[i] = static_cast<long long>(std::bit_cast<std::uint32_t>(x[i]) |
                                        std::uint64_t{std::bit_cast<std::uint32_t>(x[i + 1])}
                                            << 32);
    }
  }
};

const ZigguratTablesF& zig_tables_f() {
  static const ZigguratTablesF tables;
  return tables;
}

/// The fast path's candidate for the 32-bit draw \p u: the in-layer
/// uniform (23-bit mantissa) times its layer's edge, unsigned.
inline float zig_cand_f(std::uint32_t u, const ZigguratTablesF& t) noexcept {
  return static_cast<float>(u >> 9) * 0x1.0p-23f * t.x[u & 255u];
}

/// \p mag with the sign of draw \p u (bit 8) in its top bit.
inline float zig_signed_f(std::uint32_t u, float mag) noexcept {
  return std::bit_cast<float>(std::bit_cast<std::uint32_t>(mag) | ((u & 256u) << 23));
}

/// Rejection continuation for a 32-bit draw that missed the in-layer accept
/// (about 1.5% of draws). Out of line on purpose: the hot loops then carry
/// only the one-compare fast path. Fresh uniforms come from whole words of
/// the rejection stream. A wedge attempt takes one word: its low half is the
/// height uniform, its high half a fresh draw that replaces the rejected
/// one when the point lies above the pdf. Both outcomes are computed before
/// either is picked, so neither the word count nor a branch waits on the
/// exp(), and the continuations of queued draws overlap. The base-layer
/// tail runs Marsaglia's double-precision exponential method on 53-bit
/// uniforms from pairs of words.
[[gnu::noinline, UWB_CLONE_PORTABLE]] float zig_slow_f(std::uint32_t u, RejectStream& rej,
                                                      const ZigguratTablesF& t) {
  while (true) {
    const std::uint32_t i = u & 255u;
    if (i == 0) {
      double xt;
      double yt;
      do {
        const double u1 = static_cast<double>(rej.next() >> 11) * 0x1.0p-53;
        const double u2 = static_cast<double>(rej.next() >> 11) * 0x1.0p-53;
        xt = -std::log(1.0 - u1) / kZigR;
        yt = -std::log(1.0 - u2);
      } while (yt + yt < xt * xt);
      return zig_signed_f(u, static_cast<float>(kZigR + xt));
    }
    const float cand = zig_cand_f(u, t);
    const std::uint64_t w = rej.next();
    const float uy = static_cast<float>(static_cast<std::uint32_t>(w)) * 0x1.0p-32f;
    const float yr = t.y[i] + uy * (t.y[i + 1] - t.y[i]);
    const bool under = yr < std::exp(-0.5f * cand * cand);
    const auto fresh = static_cast<std::uint32_t>(w >> 32);
    const float fresh_cand = zig_cand_f(fresh, t);
    const bool fresh_ok = fresh_cand < t.x[(fresh & 255u) + 1];
    if (under || fresh_ok) [[likely]] {
      // A select by mask: a branch on `under`, which no predictor can
      // learn, would mispredict and serialize on the exp().
      const std::uint32_t keep = 0u - static_cast<std::uint32_t>(under);
      return std::bit_cast<float>(
          (std::bit_cast<std::uint32_t>(zig_signed_f(u, cand)) & keep) |
          (std::bit_cast<std::uint32_t>(zig_signed_f(fresh, fresh_cand)) & ~keep));
    }
    u = fresh;  // the fresh draw missed too: its own continuation
  }
}

/// One draw: the one-compare fast path, else the continuation.
inline float zig_one_f(std::uint32_t u, RejectStream& rej, const ZigguratTablesF& t) {
  const float cand = zig_cand_f(u, t);
  if (cand < t.x[(u & 255u) + 1]) [[likely]] return zig_signed_f(u, cand);
  return zig_slow_f(u, rej, t);
}

/// edge[l] = t.x[layer[l]] and next_edge[l] = t.x[layer[l] + 1] for every
/// lane: in the AVX2 and AVX-512F clones, gathers of both edges at once from
/// t.edges. Builtins, not the intrinsics: an intrinsic would be inlined into
/// this body before the body reaches its clone's target.
template <std::size_t kBytes, typename VF, typename VI>
[[gnu::always_inline]] inline void lookup_edges(VF& edge, VF& next_edge, const ZigguratTablesF& t,
                                                const VI& layer) noexcept {
#ifdef UWB_SIMD_X86
  if constexpr (kBytes >= 32) {
    using VH = typename simd::Vec<int, kBytes / 2>::type;  // half the lanes' indices
    using VP = typename simd::Vec<long long, kBytes>::type;  // their edge pairs
    using VS = typename simd::Vec<int, kBytes>::type;        // the pairs as 32-bit lanes
    VH idx[2];
    std::memcpy(idx, &layer, sizeof(idx));  // both halves' indices from one 32-bit vector
    VP pairs[2];
#pragma GCC diagnostic push
#pragma GCC diagnostic ignored "-Wpsabi"  // the builtins' vector results never cross a call
    for (int h = 0; h < 2; ++h) {
      if constexpr (kBytes == 64) {
        pairs[h] = __builtin_ia32_gathersiv8di(VP{}, t.edges, idx[h], static_cast<char>(-1), 8);
      } else {
        pairs[h] = __builtin_ia32_gathersiv4di(VP{}, t.edges, idx[h], ~VP{}, 8);
      }
    }
#pragma GCC diagnostic pop
    // Lane l's pair is floats 2l (x[i]) and 2l + 1 (x[i + 1]) of the two halves.
    VS even;
    for (std::size_t l = 0; l < kBytes / 4; ++l) even[l] = static_cast<int>(2 * l);
    edge = reinterpret_cast<VF>(__builtin_shuffle(reinterpret_cast<VS>(pairs[0]),
                                                  reinterpret_cast<VS>(pairs[1]), even));
    next_edge = reinterpret_cast<VF>(__builtin_shuffle(reinterpret_cast<VS>(pairs[0]),
                                                       reinterpret_cast<VS>(pairs[1]), even + 1));
    return;
  }
#endif
  for (std::size_t l = 0; l < sizeof(VF) / sizeof(float); ++l) {
    edge[l] = t.x[layer[l]];
    next_edge[l] = t.x[layer[l] + 1];
  }
}

/// Bit l set when lane l of the compare result \p m is true (all ones).
template <std::size_t kBytes, typename VI>
[[gnu::always_inline]] inline unsigned lane_bits(const VI& m) noexcept {
#ifdef UWB_SIMD_X86
  if constexpr (kBytes == 64) {
    return static_cast<std::uint16_t>(__builtin_ia32_ptestmd512(m, m, static_cast<short>(-1)));
  } else if constexpr (kBytes == 32) {
    using VF = typename simd::Vec<float, kBytes>::type;
    return static_cast<unsigned>(__builtin_ia32_movmskps256(reinterpret_cast<VF>(m)));
  } else {
    using VF = typename simd::Vec<float, kBytes>::type;
    return static_cast<unsigned>(__builtin_ia32_movmskps(reinterpret_cast<VF>(m)));
  }
#else
  unsigned bits = 0;
  for (std::size_t l = 0; l < sizeof(VI) / sizeof(m[0]); ++l) bits |= (m[l] != 0 ? 1u : 0u) << l;
  return bits;
#endif
}

/// Draws waiting for their continuation: index into the buffer and 32-bit
/// draw, in ascending order.
struct MissQueue {
  static constexpr std::size_t kCapacity = 256;
  std::uint32_t at[kCapacity] = {};
  std::uint32_t u[kCapacity] = {};
  std::size_t size = 0;

  /// Adds sigma * (continued draw) to x at every queued index, in order.
  void flush(float* x, float sigma, RejectStream& rej, const ZigguratTablesF& t) {
    for (std::size_t k = 0; k < size; ++k) x[at[k]] += sigma * zig_slow_f(u[k], rej, t);
    size = 0;
  }
};

/// Adds sigma * N(0,1) to x[0 .. 16 * blocks), one block of the lanes per
/// sixteen samples. Accepted draws are added in the vector loop; the others
/// are left as they are, queued, and given their continuation in ascending
/// order, so each sample gets x + sigma * z with the scalar roundings.
template <std::size_t kBytes>
[[gnu::always_inline]] inline void float_awgn_blocks(float* x, std::size_t blocks, float sigma,
                                                     std::uint64_t (&lanes)[4][kLanes],
                                                     RejectStream& rej,
                                                     const ZigguratTablesF& t) {
  using VW = typename simd::Vec<std::uint64_t, kBytes>::type;
  using VU = typename simd::Vec<std::uint32_t, kBytes>::type;
  using VI = typename simd::Vec<std::int32_t, kBytes>::type;
  using VF = typename simd::Vec<float, kBytes>::type;
  constexpr std::size_t kWords = kBytes / sizeof(std::uint64_t);  // lanes per vector
  constexpr std::size_t kVecs = kLanes / kWords;                   // vectors per block
  constexpr std::size_t kDraws = 2 * kWords;                       // draws per vector
  static_assert(kLanes % kWords == 0);
  VW s0[kVecs], s1[kVecs], s2[kVecs], s3[kVecs];
  for (std::size_t v = 0; v < kVecs; ++v) {
    simd::load(s0[v], lanes[0] + v * kWords);
    simd::load(s1[v], lanes[1] + v * kWords);
    simd::load(s2[v], lanes[2] + v * kWords);
    simd::load(s3[v], lanes[3] + v * kWords);
  }
  MissQueue queue;
  for (std::size_t b = 0; b < blocks; ++b) {
    float* xb = x + b * kBlockDraws;
    VU u[kVecs];
    unsigned misses = 0;  // bit j: draw j of the block missed
    for (std::size_t v = 0; v < kVecs; ++v) {
      VW w;
      xoshiro_step(w, s0[v], s1[v], s2[v], s3[v]);
      u[v] = reinterpret_cast<VU>(w);
      const VI layer = reinterpret_cast<VI>(u[v] & 255u);
      VF edge;
      VF next_edge;
      lookup_edges<kBytes>(edge, next_edge, t, layer);
      const VF ux = __builtin_convertvector(reinterpret_cast<VI>(u[v] >> 9), VF) * 0x1.0p-23f;
      const VF cand = ux * edge;
      const VI miss = ~(cand < next_edge);
      misses |= lane_bits<kBytes>(miss) << (v * kDraws);
      const VF z = reinterpret_cast<VF>(reinterpret_cast<VU>(cand) | ((u[v] & 256u) << 23));
      VF xv;
      simd::load(xv, xb + v * kDraws);
      const VF sum = xv + sigma * z;
      xv = miss ? xv : sum;
      simd::store(xb + v * kDraws, xv);
    }
#ifdef UWB_SIMD_X86
    if constexpr (kBytes == 64) {
      // One vector holds the block: compress its misses into the queue
      // without a branch (a fifth of the blocks have one, at random).
      VI at;
      for (std::size_t l = 0; l < kDraws; ++l) at[l] = static_cast<std::int32_t>(l);
      at += static_cast<std::int32_t>(b * kBlockDraws);
      const auto keep = static_cast<short>(misses);
#pragma GCC diagnostic push
#pragma GCC diagnostic ignored "-Wpsabi"  // as in lookup_edges
      const VI packed_at = __builtin_ia32_compresssi512_mask(at, VI{}, keep);
      const VI packed_u = __builtin_ia32_compresssi512_mask(reinterpret_cast<VI>(u[0]), VI{}, keep);
#pragma GCC diagnostic pop
      simd::store(queue.at + queue.size, packed_at);
      simd::store(queue.u + queue.size, packed_u);
      queue.size += static_cast<std::size_t>(std::popcount(misses));
    } else
#endif
    {
      if (misses == 0) [[likely]] continue;
      for (; misses != 0; misses &= misses - 1) {
        const auto j = static_cast<std::size_t>(std::countr_zero(misses));
        queue.at[queue.size] = static_cast<std::uint32_t>(b * kBlockDraws + j);
        queue.u[queue.size++] = u[j / kDraws][j % kDraws];
      }
    }
    if (queue.size > MissQueue::kCapacity - kBlockDraws) queue.flush(x, sigma, rej, t);
  }
  queue.flush(x, sigma, rej, t);
  for (std::size_t v = 0; v < kVecs; ++v) {
    simd::store(lanes[0] + v * kWords, s0[v]);
    simd::store(lanes[1] + v * kWords, s1[v]);
    simd::store(lanes[2] + v * kWords, s2[v]);
    simd::store(lanes[3] + v * kWords, s3[v]);
  }
}

[[UWB_CLONE_PORTABLE]] void float_awgn_portable(float* x, std::size_t blocks, float sigma,
                                                std::uint64_t (&lanes)[4][kLanes],
                                                RejectStream& rej, const ZigguratTablesF& t) {
  float_awgn_blocks<16>(x, blocks, sigma, lanes, rej, t);
}

#ifdef UWB_SIMD_X86
[[UWB_CLONE_AVX2]] void float_awgn_avx2(float* x, std::size_t blocks, float sigma,
                                        std::uint64_t (&lanes)[4][kLanes], RejectStream& rej,
                                        const ZigguratTablesF& t) {
  float_awgn_blocks<32>(x, blocks, sigma, lanes, rej, t);
}

[[UWB_CLONE_AVX512]] void float_awgn_avx512(float* x, std::size_t blocks, float sigma,
                                            std::uint64_t (&lanes)[4][kLanes],
                                            RejectStream& rej, const ZigguratTablesF& t) {
  float_awgn_blocks<64>(x, blocks, sigma, lanes, rej, t);
}
#endif

}  // namespace

FloatAwgn::FloatAwgn(double n0, Rng& rng) {
  detail::require(n0 >= 0.0, "add_awgn: N0 must be non-negative");
  if (n0 == 0.0) return;
  sigma_ = static_cast<float>(std::sqrt(n0 / 2.0));
  std::uint64_t z = rng.engine()();
  for (std::size_t l = 0; l < kLanes; ++l) {
    for (auto& word : lanes_) word[l] = splitmix64(z);
  }
  for (auto& word : reject_) word = splitmix64(z);
}

void FloatAwgn::add(float* x, std::size_t n) { detail::add_awgn(host_isa(), *this, x, n); }

void add_awgn(float* x, std::size_t n, double n0, Rng& rng) {
  detail::require(n0 >= 0.0, "add_awgn: N0 must be non-negative");
  if (n0 == 0.0 || n == 0) return;
  const obs::StageTimer timer(obs::Stage::kChannelNoise, n);
  FloatAwgn(n0, rng).add(x, n);
}

void add_awgn(CplxVec& x, double n0, Rng& rng) {
  detail::require(n0 >= 0.0, "add_awgn: N0 must be non-negative");
  if (n0 == 0.0) return;
  const obs::StageTimer timer(obs::Stage::kChannelNoise, x.size());
  // Draw 2k is sample k's real part and 2k + 1 its imaginary part, and
  // cplx += adds per rail, so the samples are 2n consecutive doubles.
  detail::add_awgn(host_isa(), reinterpret_cast<double*>(x.data()), 2 * x.size(),
                   std::sqrt(n0 / 2.0), rng);
}

void add_awgn(RealVec& x, double n0, Rng& rng) {
  detail::require(n0 >= 0.0, "add_awgn: N0 must be non-negative");
  if (n0 == 0.0) return;
  const obs::StageTimer timer(obs::Stage::kChannelNoise, x.size());
  detail::add_awgn(host_isa(), x.data(), x.size(), std::sqrt(n0 / 2.0), rng);
}

void add_awgn(CplxWaveform& x, double n0, Rng& rng) { add_awgn(x.samples(), n0, rng); }

void add_awgn(RealWaveform& x, double n0, Rng& rng) { add_awgn(x.samples(), n0, rng); }

double n0_for_ebn0(double eb, double ebn0_db) {
  detail::require(eb > 0.0, "n0_for_ebn0: Eb must be positive");
  return eb / from_db(ebn0_db);
}

double energy_per_bit(const CplxWaveform& x, std::size_t num_bits) {
  detail::require(num_bits > 0, "energy_per_bit: num_bits must be positive");
  return x.total_energy() / static_cast<double>(num_bits);
}

double energy_per_bit(const RealWaveform& x, std::size_t num_bits) {
  detail::require(num_bits > 0, "energy_per_bit: num_bits must be positive");
  return x.total_energy() / static_cast<double>(num_bits);
}

}  // namespace uwb::channel

namespace uwb::detail {

// Pinned like the clones: the head and tail draws' x + sigma * z stay two
// roundings under any build flags.
[[UWB_CLONE_PORTABLE]] void add_awgn(Isa isa, channel::FloatAwgn& noise, float* x,
                                     std::size_t n) {
  using channel::kBlockDraws;
  if (noise.sigma_ == 0.0f) return;
  const float sigma = noise.sigma_;
  const channel::ZigguratTablesF& t = channel::zig_tables_f();
  channel::RejectStream rej{noise.reject_};
  // The rest of the last partial block, then whole blocks, then the head
  // of a new one: draws in stream order, continuations in that order too.
  std::size_t k = 0;
  for (; noise.next_ < kBlockDraws && k < n; ++k) {
    x[k] += sigma * channel::zig_one_f(noise.block_[noise.next_++], rej, t);
  }
  for (std::size_t blocks; (blocks = std::min((n - k) / kBlockDraws, channel::kMaxBlocks)) > 0;
       k += blocks * kBlockDraws) {
    switch (isa) {
#ifdef UWB_SIMD_X86
      case Isa::kAvx512:
        channel::float_awgn_avx512(x + k, blocks, sigma, noise.lanes_, rej, t);
        break;
      case Isa::kAvx2:
        channel::float_awgn_avx2(x + k, blocks, sigma, noise.lanes_, rej, t);
        break;
#endif
      default:
        channel::float_awgn_portable(x + k, blocks, sigma, noise.lanes_, rej, t);
    }
  }
  if (k == n) return;
  for (std::size_t l = 0; l < channel::kLanes; ++l) {
    std::uint64_t w = 0;
    channel::xoshiro_step(w, noise.lanes_[0][l], noise.lanes_[1][l], noise.lanes_[2][l],
                          noise.lanes_[3][l]);
    noise.block_[2 * l] = static_cast<std::uint32_t>(w);
    noise.block_[2 * l + 1] = static_cast<std::uint32_t>(w >> 32);
  }
  noise.next_ = 0;
  for (; k < n; ++k) x[k] += sigma * channel::zig_one_f(noise.block_[noise.next_++], rej, t);
}

void add_awgn(Isa isa, double* x, std::size_t n, double sigma, Rng& rng) {
  const channel::ZigguratTables& t = channel::zig_tables();
  switch (isa) {
#ifdef UWB_SIMD_X86
    case Isa::kAvx512:
      return channel::add_awgn_avx512(x, n, sigma, rng.engine(), t);
    case Isa::kAvx2:
      return channel::add_awgn_avx2(x, n, sigma, rng.engine(), t);
#endif
    default:
      return channel::add_awgn_portable(x, n, sigma, rng.engine(), t);
  }
}

}  // namespace uwb::detail
