#include "dsp/window.h"

#include <cmath>

#include "common/error.h"
#include "common/math_utils.h"

namespace uwb::dsp {

namespace {

/// Generalized cosine window sum_k a_k cos(2 pi k n / (N-1)).
RealVec cosine_window(std::size_t n, double a0, double a1, double a2) {
  RealVec w(n, 1.0);
  if (n == 1) return w;
  const double denom = static_cast<double>(n - 1);
  for (std::size_t i = 0; i < n; ++i) {
    const double x = two_pi * static_cast<double>(i) / denom;
    w[i] = a0 - a1 * std::cos(x) + a2 * std::cos(2.0 * x);
  }
  return w;
}

}  // namespace

RealVec hann(std::size_t n) { return cosine_window(n, 0.5, 0.5, 0.0); }

RealVec hamming(std::size_t n) { return cosine_window(n, 0.54, 0.46, 0.0); }

RealVec make_window(WindowType type, std::size_t n) {
  detail::require(n >= 1, "make_window: n must be >= 1");
  switch (type) {
    case WindowType::kRectangular:
      return RealVec(n, 1.0);
    case WindowType::kHann:
      return hann(n);
    case WindowType::kHamming:
      return hamming(n);
    case WindowType::kBlackman:
      return cosine_window(n, 0.42, 0.5, 0.08);
  }
  throw InvalidArgument("make_window: unknown window type");
}

double noise_bandwidth_bins(const RealVec& window) {
  detail::require(!window.empty(), "noise_bandwidth_bins: empty window");
  double sum = 0.0, sum_sq = 0.0;
  for (double v : window) {
    sum += v;
    sum_sq += v * v;
  }
  const double n = static_cast<double>(window.size());
  return n * sum_sq / (sum * sum);
}

}  // namespace uwb::dsp
