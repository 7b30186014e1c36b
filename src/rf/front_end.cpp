#include "rf/front_end.h"

#include <cmath>

#include "common/error.h"
#include "common/math_utils.h"
#include "dsp/filter_design.h"
#include "dsp/fir_filter.h"

namespace uwb::rf {

double cascade_noise_figure_db(const std::vector<CascadeStage>& stages) {
  detail::require(!stages.empty(), "cascade_noise_figure_db: empty chain");
  double f_total = 0.0;
  double gain_product = 1.0;
  for (std::size_t i = 0; i < stages.size(); ++i) {
    const double f = from_db(stages[i].noise_figure_db);
    if (i == 0) {
      f_total = f;
    } else {
      f_total += (f - 1.0) / gain_product;
    }
    gain_product *= from_db(stages[i].gain_db);
  }
  return to_db(f_total);
}

FrontEnd::FrontEnd(const FrontEndParams& params, const pulse::BandPlan& plan)
    : params_(params), lna_(params.lna), synth_(plan, params.synth),
      agc_(params.agc) {
  anti_alias_taps_ = dsp::design_lowpass(params.baseband_cutoff_hz, params.analog_fs,
                                         params.anti_alias_taps);
}

void FrontEnd::set_notch(double f0_offset_hz, double fs) {
  notch_.emplace(f0_offset_hz, fs);
}

double FrontEnd::system_noise_figure_db() const {
  // LNA -> mixer (assumed 10 dB NF, 0 dB conversion gain) -> baseband VGA
  // (15 dB NF). Representative 2005-era direct-conversion numbers.
  return cascade_noise_figure_db({
      {"lna", params_.lna.gain_db, params_.lna.noise_figure_db},
      {"mixer", 0.0, 10.0},
      {"vga", 20.0, 15.0},
  });
}

std::span<const cplx> FrontEnd::process(std::span<const cplx> x, double fs,
                                        double input_noise_variance, Rng& rng) {
  detail::require(fs == params_.analog_fs,
                  "FrontEnd::process: configure analog_fs to match the input");
  const std::size_t n = x.size();
  ws_analog_.resize(n);
  const std::span<cplx> analog(ws_analog_.data(), n);
  // LNA: excess noise + envelope compression + gain.
  lna_.process(x.data(), n, input_noise_variance, rng, analog.data());
  // LO phase noise (multiplicative).
  synth_.apply_phase_noise(analog, fs, rng);
  // Direct-conversion I/Q impairments.
  if (!params_.iq.ideal()) apply_iq_impairments(analog, params_.iq);
  // Anti-alias lowpass ahead of the converters (the baseband filter of the
  // direct-conversion chain). Without it, wideband noise folds into the
  // ADC's Nyquist band and costs several dB of effective Eb/N0.
  ws_filtered_.resize(n);
  const std::span<cplx> out(ws_filtered_.data(), n);
  dsp::convolve_same_to(analog.data(), n, anti_alias_taps_, out.data());
  // Optional interferer notch.
  if (notch_.has_value()) {
    notch_->reset();
    notch_->process(out, fs);
  }
  // AGC loads the ADC.
  if (params_.enable_agc) agc_.one_shot(out);
  return out;
}

CplxWaveform FrontEnd::process_baseband(const CplxWaveform& x, double input_noise_variance,
                                        Rng& rng) {
  const std::span<const cplx> y = process(x.samples(), x.sample_rate(), input_noise_variance, rng);
  return CplxWaveform(CplxVec(y.begin(), y.end()), x.sample_rate());
}

}  // namespace uwb::rf
