#pragma once
/// \file window.h
/// \brief Window functions for FIR design and spectral estimation.

#include <cstddef>

#include "common/types.h"

namespace uwb::dsp {

/// Supported window shapes.
enum class WindowType {
  kRectangular,
  kHann,
  kHamming,
  kBlackman,
};

/// Returns an n-point window of the given type.
RealVec make_window(WindowType type, std::size_t n);

/// n-point Hann window.
RealVec hann(std::size_t n);

/// n-point Hamming window.
RealVec hamming(std::size_t n);

/// Equivalent noise bandwidth of a window, in bins (1.0 for rectangular,
/// 1.5 for Hann). Needed to calibrate PSD estimates.
double noise_bandwidth_bins(const RealVec& window);

}  // namespace uwb::dsp
