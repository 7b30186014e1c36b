#include "common/rng.h"

#include "common/simd.h"

namespace uwb {

namespace {

// std::mt19937_64's parameters (the C++ standard's [rand.predef]).
constexpr std::size_t kN = Mt64Block::kWords;
constexpr std::size_t kM = 156;
constexpr std::uint64_t kMatrixA = 0xb5026f5aa96619e9ULL;
constexpr std::uint64_t kUpperMask = ~std::uint64_t{0} << 31;
constexpr std::uint64_t kLowerMask = ~kUpperMask;

/// One word (or one vector of words) of the twist: the new state[k] from
/// state[k], state[k + 1] and the already-final state[k +/- kM] (\p far).
/// Vectors go by reference: a vector returned by value from a function
/// compiled for a narrower ISA would change the ABI.
template <typename V>
[[gnu::always_inline]] inline void twist(V& out, const V& cur, const V& next,
                                         const V& far) noexcept {
  const V y = (cur & kUpperMask) | (next & kLowerMask);
  out = far ^ (y >> 1) ^ ((V{} - (y & 1)) & kMatrixA);
}

template <typename V>
[[gnu::always_inline]] inline void temper(V& z) noexcept {
  z ^= (z >> 29) & 0x5555555555555555ULL;
  z ^= (z << 17) & 0x71d67fffeda60000ULL;
  z ^= (z << 37) & 0xfff7eee000000000ULL;
  z ^= z >> 43;
}

/// Twists state[k] for k in [kLo, kHi), reading state[k + kFar]. Within one
/// call no word reads another word the call writes -- state[k + 1] is read
/// before it is twisted and state[k + kFar] lies outside [kLo, kHi) -- so
/// lanes are independent and every clone writes std's words.
template <std::size_t kBytes, std::size_t kLo, std::size_t kHi, std::ptrdiff_t kFar>
[[gnu::always_inline]] inline void twist_range(std::uint64_t* s) noexcept {
  using V = typename simd::Vec<std::uint64_t, kBytes>::type;
  constexpr std::size_t kW = kBytes / sizeof(std::uint64_t);
  constexpr std::size_t kTail = kHi - (kHi - kLo) % kW;
  for (std::size_t k = kLo; k < kTail; k += kW) {
    V cur;
    V next;
    V far;
    simd::load(cur, s + k);
    simd::load(next, s + k + 1);
    simd::load(far, s + k + kFar);
    twist(cur, cur, next, far);
    simd::store(s + k, cur);
  }
  for (std::size_t k = kTail; k < kHi; ++k) twist(s[k], s[k], s[k + 1], s[k + kFar]);
}

/// The one refill body every clone compiles: std's twist in its three
/// segments, then the tempering of all kN new words into \p out.
template <std::size_t kBytes>
[[gnu::always_inline]] inline void refill_body(std::uint64_t* s, std::uint64_t* out) noexcept {
  using V = typename simd::Vec<std::uint64_t, kBytes>::type;
  constexpr std::size_t kW = kBytes / sizeof(std::uint64_t);
  static_assert(kN % kW == 0);
  constexpr auto kFar = static_cast<std::ptrdiff_t>(kM);
  twist_range<kBytes, 0, kN - kM, kFar>(s);
  twist_range<kBytes, kN - kM, kN - 1, kFar - static_cast<std::ptrdiff_t>(kN)>(s);
  twist(s[kN - 1], s[kN - 1], s[0], s[kM - 1]);
  for (std::size_t k = 0; k < kN; k += kW) {
    V z;
    simd::load(z, s + k);
    temper(z);
    simd::store(out + k, z);
  }
}

[[UWB_CLONE_PORTABLE]] void refill_portable(std::uint64_t* s, std::uint64_t* out) noexcept {
  refill_body<16>(s, out);
}

#ifdef UWB_SIMD_X86
[[UWB_CLONE_AVX2]] void refill_avx2(std::uint64_t* s, std::uint64_t* out) noexcept {
  refill_body<32>(s, out);
}

[[UWB_CLONE_AVX512]] void refill_avx512(std::uint64_t* s, std::uint64_t* out) noexcept {
  refill_body<64>(s, out);
}
#endif

}  // namespace

void Mt64Block::refill() noexcept { detail::refill(*this, host_isa()); }

namespace detail {

void refill(Mt64Block& eng, Isa isa) noexcept {
  switch (isa) {
#ifdef UWB_SIMD_X86
    case Isa::kAvx512:
      refill_avx512(eng.state_, eng.out_);
      break;
    case Isa::kAvx2:
      refill_avx2(eng.state_, eng.out_);
      break;
#endif
    default:
      refill_portable(eng.state_, eng.out_);
  }
  eng.pos_ = 0;
}

}  // namespace detail

}  // namespace uwb
