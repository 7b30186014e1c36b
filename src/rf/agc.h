#pragma once
/// \file agc.h
/// \brief Variable-gain amplifier with an automatic gain control loop that
///        loads the ADC optimally -- critical at 1-5 bit resolutions where
///        both clipping and underloading destroy the paper's resolution
///        trade-offs.

#include <span>

#include "common/types.h"
#include "common/waveform.h"

namespace uwb::rf {

/// AGC parameters.
struct AgcParams {
  double target_rms = 0.25;       ///< desired rms relative to ADC full scale 1.0
  double min_gain_db = -40.0;
  double max_gain_db = 60.0;
  std::size_t window = 256;       ///< power-measurement window (samples)
  double step_db = 1.0;           ///< per-window gain adjustment (loop mode)
};

/// Gain control. Two modes:
///  * one_shot(): measure the whole buffer, set the exact gain (models a
///    converged AGC during the preamble -- what BER sims use).
///  * track(): windowed feedback loop with step_db moves (models dynamics).
class Agc {
 public:
  explicit Agc(const AgcParams& params = {});

  [[nodiscard]] const AgcParams& params() const noexcept { return params_; }
  [[nodiscard]] double gain_db() const noexcept { return gain_db_; }

  /// Measures rms of \p x and applies the exact gain to hit target_rms,
  /// clamped to the gain range, in place.
  void one_shot(std::span<cplx> x);

  /// Windowed tracking loop; gain_db() holds the final gain afterwards.
  CplxWaveform track(const CplxWaveform& x);

  void reset() noexcept { gain_db_ = 0.0; }

 private:
  AgcParams params_;
  double gain_db_ = 0.0;
};

}  // namespace uwb::rf
