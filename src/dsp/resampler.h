#pragma once
/// \file resampler.h
/// \brief Integer-factor rate conversion with anti-alias / anti-image
///        filtering. Used to move between the RF-rate and ADC-rate domains.

#include <cstddef>

#include "common/types.h"
#include "common/waveform.h"

namespace uwb::dsp {

/// Inserts factor-1 zeros between samples, then applies an interpolation
/// lowpass at the original Nyquist edge. Output rate = fs * factor.
RealWaveform upsample(const RealWaveform& x, int factor, std::size_t filter_taps = 63);

/// Complex version of upsample().
CplxWaveform upsample(const CplxWaveform& x, int factor, std::size_t filter_taps = 63);

/// Anti-alias lowpass at the new Nyquist edge, then keeps every factor-th
/// sample. Output rate = fs / factor.
RealWaveform decimate(const RealWaveform& x, int factor, std::size_t filter_taps = 63);

/// Complex version of decimate().
CplxWaveform decimate(const CplxWaveform& x, int factor, std::size_t filter_taps = 63);

}  // namespace uwb::dsp
