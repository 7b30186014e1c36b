#pragma once
/// \file filter_design.h
/// \brief FIR tap design: windowed-sinc low/high/band-pass, raised-cosine
///        and root-raised-cosine pulse-shaping prototypes.
///
/// All designs return unit-DC-gain (lowpass) or unit-center-gain (bandpass)
/// tap vectors usable with uwb::dsp::FirFilter or dsp::convolve.

#include <cstddef>

#include "common/types.h"
#include "dsp/window.h"

namespace uwb::dsp {

/// Windowed-sinc lowpass. \p cutoff_hz is the -6 dB edge, \p fs the sample
/// rate, \p num_taps the filter length (odd recommended for a symmetric,
/// integer-group-delay filter).
RealVec design_lowpass(double cutoff_hz, double fs, std::size_t num_taps,
                       WindowType window = WindowType::kHamming);

/// Windowed-sinc highpass via spectral inversion of the lowpass design.
/// \p num_taps must be odd.
RealVec design_highpass(double cutoff_hz, double fs, std::size_t num_taps,
                        WindowType window = WindowType::kHamming);

/// Windowed-sinc bandpass with edges [low_hz, high_hz].
RealVec design_bandpass(double low_hz, double high_hz, double fs, std::size_t num_taps,
                        WindowType window = WindowType::kHamming);

/// Raised-cosine pulse-shaping taps. \p symbol_rate_hz = 1/T, \p beta the
/// roll-off in [0,1], \p span_symbols the one-sided span in symbols,
/// \p samples_per_symbol the oversampling. Peak normalized to 1.
RealVec design_raised_cosine(double symbol_rate_hz, double beta, int span_symbols,
                             int samples_per_symbol);

/// Root-raised-cosine taps (same parameters as design_raised_cosine);
/// normalized to unit energy so a matched pair gives unity gain at the peak.
RealVec design_root_raised_cosine(double symbol_rate_hz, double beta, int span_symbols,
                                  int samples_per_symbol);

/// Frequency response H(f) of a FIR at a single frequency (for verification).
cplx fir_response_at(const RealVec& taps, double freq_hz, double fs);

/// Magnitude response |H(f)| in dB at a single frequency.
double fir_gain_db_at(const RealVec& taps, double freq_hz, double fs);

}  // namespace uwb::dsp
