#pragma once
/// \file front_end.h
/// \brief The composed receive front end of Fig. 3: LNA -> quadrature
///        direct-conversion mixer -> (optional notch) -> VGA/AGC, plus the
///        Friis cascade arithmetic that turns per-stage specs into a system
///        noise figure.
///
/// The receive chain runs baseband-equivalent: complex baseband at the
/// analog rate carries the impairments (compression, I/Q imbalance, DC
/// offset, phase noise, notch, AGC) without synthesizing a 21+ GS/s
/// carrier.
///
/// Data flow of process(), over two grow-only buffers the front end owns
/// (one front end per receiver, so one workspace per receiver):
///
///   capture --LNA (noise, limiter, gain)--> ws_analog_
///           phase noise, I/Q impairments: in place on ws_analog_
///           --anti-alias FIR--> ws_filtered_
///           notch, AGC scale: in place on ws_filtered_ --> returned view
///
/// The caller's capture is only read, and the sample-and-hold reads the
/// returned view directly. Once the buffers have grown to the capture's
/// size the chain allocates nothing (an anti-alias filter long enough for
/// the FFT path excepted). process_baseband() is the copying form.

#include <optional>
#include <span>

#include "common/rng.h"
#include "common/types.h"
#include "common/waveform.h"
#include "dsp/aligned.h"
#include "pulse/band_plan.h"
#include "rf/agc.h"
#include "rf/lna.h"
#include "rf/mixer.h"
#include "rf/notch_filter.h"
#include "rf/synthesizer.h"

namespace uwb::rf {

/// One gain stage for the Friis cascade.
struct CascadeStage {
  const char* name = "stage";
  double gain_db = 0.0;
  double noise_figure_db = 0.0;
};

/// Cascaded noise figure (dB) of a chain of stages (Friis formula).
double cascade_noise_figure_db(const std::vector<CascadeStage>& stages);

/// Front-end configuration.
struct FrontEndParams {
  LnaParams lna{};
  IqImpairments iq{};
  SynthesizerParams synth{};
  AgcParams agc{};
  double baseband_cutoff_hz = 300e6;  ///< anti-alias lowpass (one-sided)
  double analog_fs = 4e9;             ///< rate the baseband path runs at
  std::size_t anti_alias_taps = 63;
  bool enable_agc = true;
};

/// The gen-2 receive front end.
class FrontEnd {
 public:
  FrontEnd(const FrontEndParams& params, const pulse::BandPlan& plan);

  [[nodiscard]] const FrontEndParams& params() const noexcept { return params_; }

  /// Tunes the LO to a band-plan channel; returns settle time [s].
  double tune(int channel) { return synth_.tune(channel); }
  [[nodiscard]] int channel() const noexcept { return synth_.channel(); }

  /// Enables the notch at the given baseband offset frequency (driven by
  /// the digital spectral monitor).
  void set_notch(double f0_offset_hz, double fs);

  /// Disables the notch.
  void clear_notch() noexcept { notch_.reset(); }

  [[nodiscard]] bool notch_enabled() const noexcept { return notch_.has_value(); }

  /// System noise figure of this configuration [dB].
  [[nodiscard]] double system_noise_figure_db() const;

  /// Baseband-equivalent receive processing of a capture at \p fs (see
  /// file comment). \p input_noise_variance is the per-sample noise power
  /// already on x (the LNA adds its excess noise relative to this). The
  /// returned view is valid until the next call.
  [[nodiscard]] std::span<const cplx> process(std::span<const cplx> x, double fs,
                                              double input_noise_variance, Rng& rng);

  /// process() returning a copy of the output.
  [[nodiscard]] CplxWaveform process_baseband(const CplxWaveform& x,
                                              double input_noise_variance, Rng& rng);

 private:
  FrontEndParams params_;
  Lna lna_;
  Synthesizer synth_;
  Agc agc_;
  std::optional<ComplexNotch> notch_;
  RealVec anti_alias_taps_;  ///< baseband anti-alias lowpass at analog_fs
  dsp::AlignedVec<cplx> ws_analog_;    ///< LNA output; phase noise, I/Q in place
  dsp::AlignedVec<cplx> ws_filtered_;  ///< FIR output; notch, AGC in place
};

}  // namespace uwb::rf
