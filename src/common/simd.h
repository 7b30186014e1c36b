#pragma once
/// \file simd.h
/// \brief Building blocks of the ISA-dispatched kernels (common/isa.h):
///        GCC vector-extension types, unaligned lane load/store, and the
///        attributes every kernel clone carries.
///
/// A kernel is one always-inline body over Vec<T, kBytes>; each clone
/// instantiates it at its register width under its own target attribute:
/// 16-byte vectors in the portable clone, 32 under AVX2, 64 under AVX-512F.
/// Vector arithmetic is per-lane IEEE, so every lane computes exactly the
/// scalar expression it replaces -- as long as no clone contracts a*b + c
/// into a fused multiply-add. The clone attributes therefore pin
/// fp-contract=off in the source: the benchmark build compiles src/ with
/// its own flags, so the top-level CMake setting alone is not enough.

#include <cstddef>
#include <cstring>

#if defined(__x86_64__)
#define UWB_SIMD_X86 1
#endif

#define UWB_CLONE_PORTABLE gnu::optimize("fp-contract=off")
#define UWB_CLONE_AVX2 gnu::target("avx2"), gnu::optimize("fp-contract=off")
#define UWB_CLONE_AVX512 gnu::target("avx512f"), gnu::optimize("fp-contract=off")

namespace uwb::simd {

/// Vec<T, kBytes>::type: a kBytes-wide GCC vector of T lanes.
template <typename T, std::size_t kBytes>
struct Vec;
template <typename T>
struct Vec<T, 16> {
  typedef T type __attribute__((vector_size(16)));
};
template <typename T>
struct Vec<T, 32> {
  typedef T type __attribute__((vector_size(32)));
};
template <typename T>
struct Vec<T, 64> {
  typedef T type __attribute__((vector_size(64)));
};

// The helpers take vectors by reference: a vector passed or returned by
// value from a function compiled for a narrower ISA would change the ABI.
//
// To fill every lane with a scalar s, write `s - V{}` in the kernel body
// itself: s - (+0) is exactly s for every s, -0 included (s + 0 would turn
// -0 into +0), and GCC compiles it to one broadcast -- but only when the
// expression sits in the clone's inlined body, not behind a helper.

/// Unaligned load of one vector from \p p into \p v.
template <typename V, typename T>
[[gnu::always_inline]] inline void load(V& v, const T* p) noexcept {
  std::memcpy(&v, p, sizeof(V));
}

/// Unaligned store of one vector to \p p.
template <typename V, typename T>
[[gnu::always_inline]] inline void store(T* p, const V& v) noexcept {
  std::memcpy(p, &v, sizeof(V));
}

}  // namespace uwb::simd
