#pragma once
/// \file perfbench.h
/// \brief Declarations shared by the benchmark's translation units: the
///        metric list it prints, the allocation counters, and the per-layer
///        kernel timings.

#include <cstdint>
#include <string>
#include <utility>
#include <vector>

namespace perfbench {

/// Metrics in print order: name -> (value, unit).
struct Metrics {
  std::vector<std::pair<std::string, std::pair<double, std::string>>> items;

  void set(const std::string& name, double value, const std::string& unit) {
    items.emplace_back(name, std::make_pair(value, unit));
  }
};

/// Allocation counts made through the global operator new while counting
/// is enabled (alloc_count.cpp replaces it in this binary only).
struct AllocCounts {
  std::uint64_t calls = 0;
  std::uint64_t bytes = 0;
};
void set_alloc_counting(bool enabled);
[[nodiscard]] AllocCounts alloc_counts();

/// Single-threaded kernel timings of the gen-1 (\p gen1) or gen-2 pipeline
/// at the sizes the nominal link configuration feeds it (layers.cpp). The
/// other pipeline's kernel metrics are set to 0.
void measure_kernels(Metrics& out, bool gen1);

/// Median of \p values (copied; empty input gives 0).
[[nodiscard]] double median(std::vector<double> values);

}  // namespace perfbench
