#include "common/isa.h"

namespace uwb {

bool isa_supported(Isa isa) noexcept {
#if defined(__x86_64__)
  __builtin_cpu_init();  // idempotent; needed if called before constructors run
#endif
  switch (isa) {
    case Isa::kPortable:
      return true;
#if defined(__x86_64__)
    // libgcc's probe also checks that the OS saves the wide register state.
    case Isa::kAvx2:
      return __builtin_cpu_supports("avx2");
    case Isa::kAvx512:
      return __builtin_cpu_supports("avx512f");
#endif
    default:
      return false;
  }
}

Isa host_isa() noexcept {
  static const Isa isa = isa_supported(Isa::kAvx512) ? Isa::kAvx512
                         : isa_supported(Isa::kAvx2) ? Isa::kAvx2
                                                     : Isa::kPortable;
  return isa;
}

const char* isa_name(Isa isa) noexcept {
  switch (isa) {
    case Isa::kAvx2:
      return "avx2";
    case Isa::kAvx512:
      return "avx512";
    default:
      return "portable";
  }
}

}  // namespace uwb
