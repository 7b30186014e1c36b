#pragma once
/// \file isa_clones.h
/// \brief Helpers of the clone-identity tests: the ISA levels this host runs,
///        and a byte comparison that names the first differing element.

#include <gtest/gtest.h>

#include <cstddef>
#include <cstring>
#include <iostream>
#include <string>
#include <vector>

#include "common/isa.h"

namespace uwb::test {

/// Every ISA level this host runs, portable first. Prints
/// "[ SKIPPED ISA ] <name>" for each level it cannot run and records them
/// in the test's "skipped_isas" property.
inline std::vector<Isa> supported_isas_or_report_skips() {
  std::vector<Isa> run;
  std::string skipped;
  for (const Isa isa : kAllIsas) {
    if (isa_supported(isa)) {
      run.push_back(isa);
    } else {
      std::cout << "[ SKIPPED ISA ] " << isa_name(isa) << ": not supported by this host\n";
      skipped += skipped.empty() ? isa_name(isa) : std::string(",") + isa_name(isa);
    }
  }
  if (!skipped.empty()) ::testing::Test::RecordProperty("skipped_isas", skipped);
  return run;
}

/// Index of the first element whose bytes differ, or n when all match.
template <typename T>
std::size_t first_byte_mismatch(const T* a, const T* b, std::size_t n) {
  for (std::size_t i = 0; i < n; ++i) {
    if (std::memcmp(a + i, b + i, sizeof(T)) != 0) return i;
  }
  return n;
}

}  // namespace uwb::test
