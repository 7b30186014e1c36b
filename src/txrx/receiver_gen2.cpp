#include "txrx/receiver_gen2.h"

#include <algorithm>
#include <cmath>

#include "adc/quantizer.h"
#include "common/error.h"
#include "common/math_utils.h"
#include "dsp/correlator.h"
#include "equalizer/demodulator.h"
#include "equalizer/mlse.h"
#include "equalizer/rake.h"
#include "estimation/snr_estimator.h"
#include "obs/profile.h"
#include "phy/modulation.h"

namespace uwb::txrx {

Gen2Receiver::Gen2Receiver(const Gen2Config& config, Rng& rng)
    : config_(config),
      plan_(),
      front_end_(config.front_end, plan_),
      sampler_(adc::SamplingParams{config.adc_rate, config.aperture_jitter_rms_s, 0.0}),
      adc_i_(config.sar, rng),
      // Q's mismatch draws follow I's on rng; its comparator noise gets its
      // own salt, since a fork of rng depends on (seed, salt) alone.
      adc_q_(config.sar, rng, adc::SarAdc::kNoiseSaltQ),
      estimator_(config.chanest),
      monitor_(estimation::SpectralMonitorConfig{1024, 12.0, 4}) {
  detail::require(config.analog_fs >= config.adc_rate,
                  "Gen2Receiver: analog rate must be >= ADC rate");
  detail::require(config.adc_rate >= config.prf_hz,
                  "Gen2Receiver: ADC rate must cover the PRF");
  payload_mod_ = phy::make_modulator(config_.modulation, config_.prf_hz);
  payload_mod_prf_hz_ = config_.prf_hz;
}

const phy::Modulator& Gen2Receiver::payload_modulator() {
  // PPM bakes the position offset from the PRF, so the PRF is part of the
  // staleness key alongside the scheme.
  if (payload_mod_ == nullptr || payload_mod_->scheme() != config_.modulation ||
      payload_mod_prf_hz_ != config_.prf_hz) {
    payload_mod_ = phy::make_modulator(config_.modulation, config_.prf_hz);
    payload_mod_prf_hz_ = config_.prf_hz;
  }
  return *payload_mod_;
}

const CplxWaveform& Gen2Receiver::digitize(const CplxWaveform& rx, double noise_variance,
                                           Rng& rng) {
  obs::StageTimer fe_timer(obs::Stage::kRxFrontend, rx.size());
  const std::span<const cplx> analog =
      front_end_.process(rx.samples(), rx.sample_rate(), noise_variance, rng);
  ws_sampled_.resize(sampler_.output_size(analog.size(), rx.sample_rate()));
  const std::size_t n =
      sampler_.sample_to(analog.data(), analog.size(), rx.sample_rate(), rng, ws_sampled_.data());
  fe_timer.finish();
  obs::StageTimer adc_timer(obs::Stage::kAdcQuantize, n);
  adc_i_.reset();
  adc_q_.reset();
  if (ws_codes_.sample_rate() != config_.adc_rate) {
    ws_codes_ = CplxWaveform(std::move(ws_codes_.samples()), config_.adc_rate);
  }
  CplxVec& codes = ws_codes_.samples();
  codes.resize(n);
  adc::digitize_iq_to(ws_sampled_.data(), n, adc_i_, adc_q_, codes.data());
  adc_timer.finish();
  return ws_codes_;
}

Gen2RxResult Gen2Receiver::receive(const CplxWaveform& rx, const Gen2Transmitter& tx,
                                   const TxFrame& tx_reference, const Gen2RxOptions& options,
                                   Rng& rng, const BitVec* expected_payload) {
  Gen2RxResult result;
  front_end_.clear_notch();

  // ---- Analog front end + sampling + conversion --------------------------
  Rng analog_rng = rng.fork(0xA11A);
  Rng analog_rng_replay = analog_rng;  // identical stream for the notch re-run
  // A view of the receiver's workspace: the notch re-run below refills it.
  const CplxWaveform& adc_out = digitize(rx, options.noise_variance, analog_rng);

  // ---- Spectral monitoring (digital back end) ----------------------------
  if (options.run_spectral_monitor && adc_out.size() >= monitor_.config().fft_size) {
    result.interferer = monitor_.analyze(adc_out);
    if (result.interferer.detected && options.auto_notch) {
      // The monitor's estimate drives the front-end notch; the packet is
      // reprocessed through the (analog) chain with the notch engaged.
      front_end_.set_notch(result.interferer.frequency_hz, config_.analog_fs);
      (void)digitize(rx, options.noise_variance, analog_rng_replay);
      result.notch_applied = true;
    }
  }

  // ---- Acquisition + channel estimation -----------------------------------
  const CplxVec& preamble_tmpl = tx.preamble_template_adc();
  if (adc_out.size() < preamble_tmpl.size() + 16) {
    return result;  // capture too short; not acquired
  }
  obs::StageTimer acq_timer(obs::Stage::kSyncAcquire, adc_out.size());
  const estimation::ChannelEstimate est =
      estimator_.estimate(adc_out, preamble_tmpl, options.genie_timing ? options.genie_offset : 0);
  acq_timer.finish();
  result.channel_estimate = est.cir;
  result.timing_offset = est.reference_offset;
  if (est.cir.empty() || est.peak_magnitude <= 0.0) {
    return result;  // nothing found
  }
  result.acquired = true;

  // ---- Matched filter ------------------------------------------------------
  // Real pulse taps of the transmitter actually passed in: complex samples
  // against real taps, the same sums as a promoted complex template.
  obs::StageTimer mf_timer(obs::Stage::kCorrelateRake, adc_out.size());
  CplxWaveform y(dsp::correlate(adc_out.samples(), tx.pulse_taps_adc()), config_.adc_rate);
  mf_timer.finish();

  // ---- Symbol bookkeeping --------------------------------------------------
  const std::size_t sps = config_.samples_per_bit_adc();
  const std::size_t t0 = result.timing_offset;
  const phy::Modulator& payload_mod = payload_modulator();
  const std::size_t overhead_symbols = tx_reference.overhead_symbols;
  const std::size_t payload_symbols = tx_reference.payload_symbols;
  const std::size_t total_symbols = overhead_symbols + payload_symbols;
  if (t0 + total_symbols * sps >= y.size()) {
    result.acquired = false;  // timing points past the capture
    return result;
  }

  // ---- RAKE / MF demodulation over the whole frame -------------------------
  const equalizer::SymbolTiming all_timing{t0, sps, total_symbols};
  const equalizer::RakeReceiver rake(config_.rake, est.cir, config_.adc_rate);
  result.rake_energy_capture = rake.energy_capture();

  obs::StageTimer rake_timer(obs::Stage::kCorrelateRake, total_symbols);
  std::vector<double> soft_all;
  if (config_.use_rake) {
    soft_all = rake.demodulate(y, all_timing);
  } else {
    // Single-finger matched filter on the strongest estimated path.
    const channel::Cir strongest = est.cir.strongest(1);
    const cplx w = strongest.taps().empty() ? cplx{1.0, 0.0} : strongest.taps().front().gain;
    const auto d = strongest.taps().empty()
                       ? std::size_t{0}
                       : static_cast<std::size_t>(
                             std::llround(strongest.taps().front().delay_s * config_.adc_rate));
    equalizer::SymbolTiming shifted = all_timing;
    shifted.t0 += d;
    soft_all = equalizer::matched_filter_soft(y, shifted, w);
  }
  rake_timer.finish();

  const obs::StageTimer demod_timer(obs::Stage::kDemodDecide, payload_symbols);

  // ---- Data-aided amplitude / SNR reference from the preamble --------------
  const BitVec& preamble_bits = tx.framer().preamble_bits();
  std::vector<double> aligned;
  aligned.reserve(std::min<std::size_t>(preamble_bits.size(), overhead_symbols));
  for (std::size_t m = 0; m < preamble_bits.size() && m < overhead_symbols; ++m) {
    const double sign = preamble_bits[m] ? -1.0 : 1.0;
    aligned.push_back(sign * soft_all[m]);
  }
  double amp_ref = 0.0;
  for (double v : aligned) amp_ref += v;
  amp_ref /= std::max<std::size_t>(aligned.size(), 1);
  result.amplitude_reference = amp_ref;
  if (aligned.size() >= 2) {
    result.snr_estimate_db = to_db(std::max(estimation::snr_data_aided(aligned), 1e-12));
  }

  // ---- Payload demodulation -------------------------------------------------
  BitVec decoded_body;
  const equalizer::SymbolTiming pay_timing{t0 + overhead_symbols * sps, sps, payload_symbols};

  const bool mlse_possible =
      config_.use_mlse && config_.modulation == phy::Modulation::kBpsk;
  bool mlse_done = false;
  if (mlse_possible) {
    // Viterbi demodulation runs on the RAKE combiner's symbol stream: the
    // channel estimate sets the fingers (energy capture), the trellis
    // resolves the residual ISI. The effective symbol-spaced response of
    // channel + combiner is learned data-aided on the known preamble -- PN
    // balance makes the correlation estimate nearly least-squares.
    const int memory = config_.mlse.memory;
    std::vector<cplx> g(static_cast<std::size_t>(memory) + 1, cplx{});
    std::size_t count = 0;
    for (std::size_t m = static_cast<std::size_t>(memory);
         m < preamble_bits.size() && m < overhead_symbols; ++m) {
      for (int l = 0; l <= memory; ++l) {
        const double a = preamble_bits[m - static_cast<std::size_t>(l)] ? -1.0 : 1.0;
        g[static_cast<std::size_t>(l)] += cplx(soft_all[m] * a, 0.0);
      }
      ++count;
    }
    if (count > 0) {
      for (auto& v : g) v /= static_cast<double>(count);
    }
    if (count > 16 && std::abs(g[0]) > 1e-9) {
      CplxVec obs(payload_symbols);
      for (std::size_t m = 0; m < payload_symbols; ++m) {
        obs[m] = cplx(soft_all[overhead_symbols + m], 0.0);
      }
      const equalizer::MlseDemodulator mlse(config_.mlse, g);
      decoded_body = mlse.demodulate(obs);
      mlse_done = true;
    }
  }

  if (!mlse_done) {
    std::vector<double> soft_pay;
    if (config_.modulation == phy::Modulation::kPpm) {
      const std::size_t ppm_off = sps / 2;
      soft_pay = config_.use_rake
                     ? rake.demodulate_ppm(y, pay_timing, ppm_off)
                     : equalizer::matched_filter_soft_ppm(y, pay_timing, ppm_off);
    } else {
      soft_pay.assign(soft_all.begin() + static_cast<std::ptrdiff_t>(overhead_symbols),
                      soft_all.begin() +
                          static_cast<std::ptrdiff_t>(overhead_symbols + payload_symbols));
      // Amplitude normalization for threshold demappers (OOK / 4-PAM).
      if (std::abs(amp_ref) > 1e-12) {
        for (auto& v : soft_pay) v /= amp_ref;
      }
    }
    result.payload_soft = soft_pay;  // outer FEC decoders want the soft stream
    decoded_body = payload_mod.demap(soft_pay);
  }

  // ---- Error accounting -------------------------------------------------------
  const std::size_t body_start = tx_reference.frame_bits.size() - tx_reference.body_bits;
  const BitVec* truth = expected_payload;
  BitVec tx_body;
  if (truth == nullptr) {
    tx_body.assign(tx_reference.frame_bits.begin() + static_cast<std::ptrdiff_t>(body_start),
                   tx_reference.frame_bits.end());
    truth = &tx_body;
  }
  const std::size_t n_cmp = std::min(decoded_body.size(), truth->size());
  std::size_t errors = 0;
  for (std::size_t i = 0; i < n_cmp; ++i) {
    if ((decoded_body[i] != 0) != ((*truth)[i] != 0)) ++errors;
  }
  result.bit_errors = errors + (truth->size() - n_cmp);
  result.bits_compared = truth->size();
  result.payload.assign(decoded_body.begin(),
                        decoded_body.begin() +
                            static_cast<std::ptrdiff_t>(std::min(decoded_body.size(),
                                                                 tx_reference.payload.size())));
  return result;
}

}  // namespace uwb::txrx
