#pragma once
/// \file isa.h
/// \brief Instruction-set levels of the dispatched sample kernels, and the
///        one-per-process choice among them.
///
/// The hot gather kernels (dsp::dot_bank, the flash ADC ladder) are
/// compiled once per level from one body and picked at run time from what
/// the CPU reports, so a portable build still runs AVX-512 on a host that
/// has it. Every level computes the same bytes (see docs/performance.md,
/// "ISA dispatch").

namespace uwb {

/// Kernel instruction-set levels, lowest first.
enum class Isa {
  kPortable,  ///< the build's baseline codegen (SSE2 on x86-64)
  kAvx2,      ///< 256-bit vectors
  kAvx512,    ///< 512-bit vectors (AVX-512F)
};

inline constexpr Isa kAllIsas[] = {Isa::kPortable, Isa::kAvx2, Isa::kAvx512};

/// True when this CPU (and OS) can run kernels compiled for \p isa.
[[nodiscard]] bool isa_supported(Isa isa) noexcept;

/// The level the dispatched kernels use: AVX-512F if supported, else AVX2,
/// else portable. Detected once per process.
[[nodiscard]] Isa host_isa() noexcept;

/// "portable", "avx2" or "avx512".
[[nodiscard]] const char* isa_name(Isa isa) noexcept;

}  // namespace uwb
