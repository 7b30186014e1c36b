// Per-layer kernel timings: each kernel is called single-threaded through
// its module's public function, on inputs built the way the nominal link
// builds them (the gen2_cm_grid and gen1_waterfall point configurations),
// so the sizes are the ones the workloads feed those kernels.
//
// Gen-2 chain (CM3 packet at 12 dB): S-V draw, channel convolution, RF
// front end, anti-alias FIR, SAR conversion, channel estimation, RAKE, MLSE,
// and the FFT plan sizes the channel convolution uses. Gen-1 chain (AWGN
// packet at 8 dB): float AWGN synthesis, the interleaved sampler and the
// flash ADC, sized from one profiled gen-1 packet. A workload times only the
// chain of its own link generation; the other chain's metrics read 0.

#include <algorithm>
#include <bit>
#include <chrono>
#include <cmath>
#include <cstdint>
#include <vector>

#include "adc/flash_adc.h"
#include "adc/quantizer.h"
#include "adc/sampling.h"
#include "adc/sar_adc.h"
#include "channel/awgn.h"
#include "channel/saleh_valenzuela.h"
#include "dsp/correlator.h"
#include "dsp/fft.h"
#include "dsp/fir_filter.h"
#include "engine/scenario_registry.h"
#include "equalizer/mlse.h"
#include "equalizer/rake.h"
#include "estimation/channel_estimator.h"
#include "obs/profile.h"
#include "perfbench.h"
#include "pulse/band_plan.h"
#include "rf/front_end.h"
#include "txrx/link.h"
#include "txrx/transmitter.h"

namespace {

using namespace uwb;
using Clock = std::chrono::steady_clock;

/// Keeps a result observable so the timed call cannot be discarded.
template <typename T>
void keep(const T& value) {
  asm volatile("" : : "g"(&value) : "memory");
}

/// Median nanoseconds per call of \p fn: one warm-up call, then 15 timed
/// repetitions of an inner loop sized to run at least ~0.5 ms each.
template <typename Fn>
double ns_per_call(Fn&& fn) {
  fn();
  int inner = 1;
  for (;;) {
    const auto start = Clock::now();
    for (int i = 0; i < inner; ++i) fn();
    const double ns = std::chrono::duration<double, std::nano>(Clock::now() - start).count();
    if (ns >= 5e5 || inner >= (1 << 20)) break;
    inner *= 2;
  }
  std::vector<double> reps;
  for (int r = 0; r < 15; ++r) {
    const auto start = Clock::now();
    for (int i = 0; i < inner; ++i) fn();
    reps.push_back(std::chrono::duration<double, std::nano>(Clock::now() - start).count() /
                   inner);
  }
  return perfbench::median(reps);
}

/// The first point of \p scenario restricted to axis=value.
engine::PointSpec point_of(const char* scenario, const char* axis, const char* value) {
  engine::ScenarioSpec spec = engine::ScenarioRegistry::global().make(scenario);
  engine::restrict_scenario(spec, axis, value);
  return spec.points.front();
}

void measure_gen2(perfbench::Metrics& out) {
  const engine::PointSpec point = point_of("gen2_cm_grid", "channel", "CM3");
  const txrx::Gen2Config& cfg = point.link.gen2();
  Rng rng(0x9e2b);

  const txrx::Gen2Transmitter tx(cfg);
  auto [wave, frame] = tx.transmit(rng.bits(point.link.options.payload_bits));
  wave.delay_samples(16);

  const channel::SalehValenzuela sv(channel::cm_by_index(3));
  double sv_us = 0.0;
  for (int cm = 1; cm <= 4; ++cm) {
    const channel::SalehValenzuela model(txrx::ensemble_sv_params(cm, txrx::Generation::kGen2));
    sv_us += ns_per_call([&] { keep(model.realize(rng)); }) / 1e3 / 4.0;
  }
  out.set("channel.sv_realize_us", sv_us, "us");

  const channel::Cir cir = sv.realize(rng);
  const CplxVec h = cir.sampled(cfg.analog_fs);
  out.set("dsp.fast_convolve_ns",
          ns_per_call([&] { keep(dsp::convolve(wave.samples(), h)); }), "ns");

  // The block size overlap-save plans for this convolution (see
  // dsp/fast_convolve.cpp): min(next_pow2(out_len), max(1024, next_pow2(4 h))).
  const std::size_t out_len = wave.size() + h.size() - 1;
  const std::size_t n =
      std::min(std::bit_ceil(out_len), std::max<std::size_t>(1024, std::bit_ceil(4 * h.size())));
  CplxVec buf(n);
  for (cplx& v : buf) v = rng.cgaussian();
  const dsp::FftPlan& plan = dsp::fft_plan(n);
  out.set("dsp.fft_ns", ns_per_call([&] {
            plan.forward(buf.data());
            keep(buf);
          }),
          "ns");
  RealVec real(n);
  for (double& v : real) v = rng.gaussian();
  CplxVec spec(n / 2 + 1);
  const dsp::RfftPlan& rplan = dsp::rfft_plan(n);
  out.set("dsp.rfft_ns", ns_per_call([&] {
            rplan.forward(real.data(), spec.data());
            keep(spec);
          }),
          "ns");

  CplxWaveform rx = cir.apply(wave);
  rx.pad(static_cast<std::size_t>(64e-9 * cfg.analog_fs));
  const double n0 = channel::n0_for_ebn0(frame.energy_per_bit, 12.0);
  channel::add_awgn(rx, n0, rng);

  RealVec taps(cfg.front_end.anti_alias_taps);
  for (double& t : taps) t = rng.gaussian() / static_cast<double>(taps.size());
  out.set("dsp.fir_ns_per_sample",
          ns_per_call([&] { keep(dsp::filter_same(rx, taps)); }) /
              static_cast<double>(rx.size()),
          "ns");

  const pulse::BandPlan plan_bands;
  rf::FrontEnd front_end(cfg.front_end, plan_bands);
  out.set("rf.frontend_us",
          ns_per_call([&] { keep(front_end.process_baseband(rx, n0, rng)); }) / 1e3, "us");

  const CplxWaveform analog = front_end.process_baseband(rx, n0, rng);
  const adc::SampleAndHold sampler(
      adc::SamplingParams{cfg.adc_rate, cfg.aperture_jitter_rms_s, 0.0});
  const CplxWaveform sampled = sampler.sample(analog, rng);
  adc::SarAdc adc_i(cfg.sar, rng);
  adc::SarAdc adc_q(cfg.sar, rng);
  out.set("adc.sar_ns_per_sample",
          ns_per_call([&] { keep(adc::digitize_iq(sampled.samples(), adc_i, adc_q)); }) /
              static_cast<double>(sampled.size()),
          "ns");

  const CplxWaveform adc_out(adc::digitize_iq(sampled.samples(), adc_i, adc_q), cfg.adc_rate);
  const estimation::ChannelEstimator estimator(cfg.chanest);
  out.set("sync.acquire_us", ns_per_call([&] {
            keep(estimator.estimate(adc_out, tx.preamble_template_adc(), 0));
          }) / 1e3,
          "us");

  const estimation::ChannelEstimate est =
      estimator.estimate(adc_out, tx.preamble_template_adc(), 0);
  CplxVec pulse_tmpl;
  for (double t : tx.pulse_taps_adc()) pulse_tmpl.emplace_back(t, 0.0);
  const CplxWaveform y(dsp::correlate(adc_out.samples(), pulse_tmpl), cfg.adc_rate);
  const std::size_t sps = cfg.samples_per_bit_adc();
  const std::size_t symbols = frame.overhead_symbols + frame.payload_symbols;
  // A failed estimate (t0 past the capture) still times the full frame
  // from the capture start.
  const std::size_t t0 =
      est.reference_offset + symbols * sps < y.size() ? est.reference_offset : 0;
  const equalizer::RakeReceiver rake(cfg.rake, est.cir.empty() ? cir : est.cir, cfg.adc_rate);
  const equalizer::SymbolTiming timing{t0, sps, symbols};
  out.set("equalizer.rake_us", ns_per_call([&] { keep(rake.demodulate(y, timing)); }) / 1e3,
          "us");

  const std::vector<double> soft = rake.demodulate(y, timing);
  CplxVec observations;
  for (std::size_t m = frame.overhead_symbols; m < soft.size(); ++m) {
    observations.emplace_back(soft[m], 0.0);
  }
  std::vector<cplx> g(static_cast<std::size_t>(cfg.mlse.memory) + 1);
  for (std::size_t l = 0; l < g.size(); ++l) g[l] = cplx(std::pow(0.4, static_cast<double>(l)), 0.0);
  const equalizer::MlseDemodulator mlse(cfg.mlse, g);
  out.set("equalizer.mlse_us", ns_per_call([&] { keep(mlse.demodulate(observations)); }) / 1e3,
          "us");
}

void measure_gen1(perfbench::Metrics& out) {
  const engine::PointSpec point = point_of("gen1_waterfall", "ebn0_db", "8");
  const txrx::Gen1Config& cfg = point.link.gen1();
  Rng rng(0x9e1b);

  // Capture sizes from the program's own stage profiler on one packet.
  obs::StageProfiler profiler;
  {
    const obs::ScopedStageProfile scope(&profiler);
    const std::unique_ptr<txrx::Link> link = txrx::make_link(point.link, 1);
    Rng trial = rng.fork(0);
    (void)link->run_packet(point.link.options, trial);
  }
  const obs::StageTable table = profiler.merged();
  auto per_call = [&](obs::Stage stage) {
    const obs::StageStats& s = table[stage];
    return static_cast<std::size_t>(s.calls > 0 ? s.samples / s.calls : 0);
  };
  const std::size_t n_analog = std::max<std::size_t>(per_call(obs::Stage::kChannelNoise), 1);
  const std::size_t n_adc = std::max<std::size_t>(per_call(obs::Stage::kAdcQuantize), 1);

  std::vector<float> analog(n_analog);
  out.set("channel.awgn_ns_per_draw", ns_per_call([&] {
            channel::add_awgn(analog.data(), analog.size(), 1e-3, rng);
            keep(analog);
          }) / static_cast<double>(n_analog),
          "ns");

  for (float& v : analog) v = static_cast<float>(rng.uniform(-1.0, 1.0));
  adc::TimeInterleavedAdc adc(cfg.adc_lanes,
                              adc::FlashParams{cfg.adc_bits, 1.0, cfg.comparator_offset_sigma},
                              cfg.interleave, rng);
  RealVec skews;
  for (int lane = 0; lane < adc.num_lanes(); ++lane) skews.push_back(adc.lane_skew_s(lane));
  const adc::SampleAndHold sampler(
      adc::SamplingParams{cfg.adc_rate, cfg.aperture_jitter_rms_s, 0.0});
  std::vector<float> sampled(
      std::max<std::size_t>(sampler.output_size(n_analog, cfg.analog_fs), 1));
  out.set("adc.sampler_ns_per_sample", ns_per_call([&] {
            (void)sampler.sample_interleaved_to(analog.data(), analog.size(), cfg.analog_fs,
                                                skews, rng, sampled.data());
            keep(sampled);
          }) / static_cast<double>(sampled.size()),
          "ns");

  std::vector<float> codes(n_adc);
  std::vector<float> input(n_adc);
  for (float& v : input) v = static_cast<float>(rng.uniform(-1.0, 1.0));
  out.set("adc.flash_ns_per_sample", ns_per_call([&] {
            adc.reset();
            adc.convert_block(input.data(), input.size(), codes.data());
            keep(codes);
          }) / static_cast<double>(n_adc),
          "ns");
}

}  // namespace

namespace perfbench {

void measure_kernels(Metrics& out, bool gen1) {
  static const char* const kGen2[][2] = {
      {"channel.sv_realize_us", "us"}, {"dsp.fast_convolve_ns", "ns"},
      {"dsp.fft_ns", "ns"},            {"dsp.rfft_ns", "ns"},
      {"dsp.fir_ns_per_sample", "ns"}, {"rf.frontend_us", "us"},
      {"adc.sar_ns_per_sample", "ns"}, {"sync.acquire_us", "us"},
      {"equalizer.rake_us", "us"},     {"equalizer.mlse_us", "us"}};
  static const char* const kGen1[][2] = {{"channel.awgn_ns_per_draw", "ns"},
                                         {"adc.sampler_ns_per_sample", "ns"},
                                         {"adc.flash_ns_per_sample", "ns"}};
  if (gen1) {
    for (const auto& [name, unit] : kGen2) out.set(name, 0.0, unit);
    measure_gen1(out);
  } else {
    measure_gen2(out);
    for (const auto& [name, unit] : kGen1) out.set(name, 0.0, unit);
  }
}

}  // namespace perfbench
