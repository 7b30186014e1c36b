// Tests for the transceiver layer: configurations, transmitters, power
// model, and single-packet receiver happy paths.

#include <gtest/gtest.h>

#include <cfloat>
#include <cmath>
#include <cstdio>
#include <cstring>
#include <fstream>
#include <limits>
#include <optional>
#include <span>
#include <sstream>
#include <string>
#include <vector>

#include "adc/flash_adc.h"
#include "adc/sampling.h"
#include "common/error.h"
#include "channel/awgn.h"
#include "common/math_utils.h"
#include "common/rng.h"
#include "channel/saleh_valenzuela.h"
#include "dsp/correlator.h"
#include "dsp/fast_convolve.h"
#include "dsp/filter_design.h"
#include "dsp/fir_filter.h"
#include "dsp/power_spectrum.h"
#include "engine/scenario_registry.h"
#include "engine/sinks.h"
#include "engine/sweep_engine.h"
#include "gen1_reference.h"
#include "sim/scenario.h"
#include "stats/sampling.h"
#include "txrx/link.h"
#include "txrx/power_model.h"
#include "txrx/receiver_gen1.h"
#include "txrx/receiver_gen2.h"
#include "txrx/transmitter.h"

namespace uwb::txrx {
namespace {

// --------------------------------------------------------------- configs ----

TEST(Config, Gen1PaperNumerology) {
  const Gen1Config config = sim::gen1_nominal();
  EXPECT_DOUBLE_EQ(config.adc_rate, 2e9);  // the 2 GSps converter
  EXPECT_EQ(config.adc_lanes, 4);          // 4-way interleaved
  // 2 GHz / 648 / 16 = 192.9 kbps ~ the paper's 193 kbps link.
  EXPECT_NEAR(config.bit_rate_hz(), 193e3, 1e3);
  // PN period = 127 frames = 41.1 us.
  EXPECT_NEAR(127.0 * 648.0 / 2e9, 41.1e-6, 0.2e-6);
}

TEST(Config, Gen2PaperNumerology) {
  const Gen2Config config = sim::gen2_nominal();
  EXPECT_DOUBLE_EQ(config.prf_hz, 100e6);
  EXPECT_DOUBLE_EQ(config.bit_rate_hz(), 100e6);  // 100 Mbps
  EXPECT_EQ(config.sar.bits, 5);                  // two 5-bit SARs
  EXPECT_EQ(config.chanest.quantization_bits, 4); // 4-bit CIR taps
  EXPECT_DOUBLE_EQ(config.pulse.bandwidth_hz, 500e6);
  EXPECT_EQ(config.samples_per_bit_adc(), 10u);
}

// ----------------------------------------------------------- transmitters ----

TEST(Gen1Transmitter, FrameLayout) {
  const Gen1Config config = sim::gen1_fast();
  const Gen1Transmitter tx(config);
  Rng rng(1);
  auto [wave, frame] = tx.transmit(rng.bits(32));
  EXPECT_EQ(frame.preamble_bits, 127u);  // 1 repetition in the fast config
  EXPECT_GT(wave.size(), 127u * config.frame_samples_analog());
  EXPECT_GT(frame.energy_per_bit, 0.0);
  // Data bits: SFD(16) + header(32) + payload+CRC(64).
  EXPECT_EQ(frame.frame_bits.size(), 16u + 32u + 64u);
}

TEST(Gen1Transmitter, PreambleChipsAreAntipodal) {
  const Gen1Transmitter tx(sim::gen1_nominal());
  EXPECT_EQ(tx.preamble_chips().size(), 127u);
  for (double c : tx.preamble_chips()) {
    EXPECT_TRUE(c == 1.0 || c == -1.0);
  }
  EXPECT_EQ(tx.preamble_frames(), 254u);  // 2 repetitions
}

TEST(Gen1Transmitter, SparseTrainDescribesTheDenseWaveform) {
  // transmit_train and transmit must be two views of the same signal:
  // summing shifted prototype copies over the slot amplitudes rebuilds the
  // dense waveform exactly.
  const Gen1Config config = sim::gen1_fast();
  const Gen1Transmitter tx(config);
  Rng rng(7);
  const BitVec payload = rng.bits(32);
  auto [wave, frame] = tx.transmit(payload);
  const Gen1Train train = tx.transmit_train(payload);

  ASSERT_EQ(train.frame.frame_bits, frame.frame_bits);
  EXPECT_EQ(train.frame.energy_per_bit, frame.energy_per_bit);
  ASSERT_EQ(train.amplitudes.size(),
            frame.preamble_bits + frame.frame_bits.size() *
                                      static_cast<std::size_t>(config.pulses_per_bit));

  const RealVec& proto = tx.prototype().samples();
  const std::size_t frame_samples = config.frame_samples_analog();
  RealVec dense(frame_samples * train.amplitudes.size() + proto.size(), 0.0);
  for (std::size_t s = 0; s < train.amplitudes.size(); ++s) {
    for (std::size_t i = 0; i < proto.size(); ++i) {
      dense[s * frame_samples + i] += train.amplitudes[s] * proto[i];
    }
  }
  ASSERT_EQ(dense.size(), wave.size());
  for (std::size_t i = 0; i < dense.size(); ++i) {
    ASSERT_EQ(dense[i], wave[i]) << "sample " << i;
  }
}

TEST(Gen1Link, SparseChannelPathMatchesDenseConvolution) {
  // The fast multipath path applies the channel as shift-adds of the
  // composite kernel g = prototype (x) CIR; convolution distributes over
  // the slot sum, so it must equal the dense cir.apply_real to rounding.
  const Gen1Config config = sim::gen1_fast();
  const Gen1Transmitter tx(config);
  Rng rng(11);
  const BitVec payload = rng.bits(32);
  auto [wave, frame] = tx.transmit(payload);
  const Gen1Train train = tx.transmit_train(payload);

  channel::SvParams params = channel::cm_by_index(3);
  params.complex_phases = false;
  const channel::Cir cir = channel::SalehValenzuela(params).realize(rng);

  const dsp::FastConvolveGuard guard(false);  // exact direct reference
  const RealWaveform dense = cir.apply_real(wave);

  const CplxVec hc = cir.sampled(config.analog_fs);
  RealVec hr(hc.size());
  for (std::size_t i = 0; i < hc.size(); ++i) hr[i] = hc[i].real();
  const RealVec g = dsp::convolve(tx.prototype().samples(), hr);

  const std::size_t frame_samples = config.frame_samples_analog();
  RealVec sparse(frame_samples * train.amplitudes.size() + g.size(), 0.0);
  for (std::size_t s = 0; s < train.amplitudes.size(); ++s) {
    for (std::size_t i = 0; i < g.size(); ++i) {
      sparse[s * frame_samples + i] += train.amplitudes[s] * g[i];
    }
  }
  ASSERT_EQ(sparse.size(), dense.size());
  double peak = 0.0;
  for (double v : sparse) peak = std::max(peak, std::abs(v));
  for (std::size_t i = 0; i < sparse.size(); ++i) {
    ASSERT_NEAR(sparse[i], dense[i], 1e-9 * std::max(1.0, peak)) << "sample " << i;
  }
}

TEST(Gen1Link, PacketOutcomeAgreesWithTheDenseReference) {
  // End to end against the dense double reference: the link synthesizes
  // the planned segments in float, the reference the whole capture in
  // double. Their noise realizations differ by design (the link runs the
  // single-precision sampler), so per-trial agreement at operating Eb/N0 is
  // not defined. At 40 dB the noise is decades below every decision margin
  // on both, so the bit decisions are a function of the pre-noise signal
  // alone -- which both build from the same trial Rng and channel
  // realization (float vs double rounding, see
  // Gen1Reference.FloatSegmentsMatchTheDenseDoubleCapture) -- and the error
  // counts, channel-induced errors included, must match exactly.
  const Gen1Config config = sim::gen1_fast();
  TrialOptions options = default_options(Generation::kGen1);
  options.cm = 3;
  options.ebn0_db = 40.0;
  for (uint64_t trial = 0; trial < 3; ++trial) {
    Gen1Link float_link(config, 99);
    Gen1Link reference_link(config, 99);
    const Rng root(1234);
    Rng rng_float = root.fork(trial);
    Rng rng_reference = root.fork(trial);
    const TrialResult got = float_link.run_packet(options, rng_float);
    const Gen1TrialResult want =
        reference::gen1_reference_packet(reference_link, options, rng_reference);
    EXPECT_EQ(got.bits, want.bits) << "trial " << trial;
    EXPECT_EQ(got.errors, want.errors) << "trial " << trial;
  }
}

/// The packed index of capture sample \p i under \p segments, or -1 when
/// no segment holds it.
std::size_t packed_index(std::span<const CaptureSegment> segments, std::size_t i) {
  std::size_t packed = 0;
  for (const CaptureSegment& seg : segments) {
    if (i >= seg.begin && i < seg.end) return packed + (i - seg.begin);
    packed += seg.size();
  }
  return static_cast<std::size_t>(-1);
}

TEST(Gen1Reference, FloatSegmentsMatchTheDenseDoubleCapture) {
  // The same (spec, seed) through the float link and the dense double
  // reference, noiseless: Eb/N0 = +inf makes N0 exactly 0, so neither adds
  // noise and the link's packed capture is its pre-noise signal.
  const Gen1Config config = sim::gen1_fast();
  const std::size_t F = config.frame_samples_analog();
  const auto ppb = static_cast<std::size_t>(config.pulses_per_bit);
  for (const int cm : {0, 3}) {
    SCOPED_TRACE(cm);
    TrialOptions options = default_options(Generation::kGen1);
    options.cm = cm;
    options.ebn0_db = std::numeric_limits<double>::infinity();
    for (uint64_t trial = 0; trial < 2; ++trial) {
      Gen1Link link(config, 99);
      const Rng root(1234);
      Rng rng_float = root.fork(trial);
      Rng rng_reference = root.fork(trial);
      (void)link.run_packet(options, rng_float);
      const std::vector<float> got(link.last_capture().begin(), link.last_capture().end());
      const reference::Gen1DenseCapture ref =
          reference::gen1_dense_capture(link, options, rng_reference);
      Gen1RxOptions rx_opts;
      rx_opts.genie_timing = true;
      rx_opts.genie_offset = ref.delay_frames * config.frame_samples_adc;
      const std::span<const CaptureSegment> segments = link.receiver().plan_capture(
          ref.wave.size(), config.analog_fs, link.transmitter(), ref.frame.frame_bits.size(),
          rx_opts);
      const std::vector<float> want = reference::pack_segments(segments, ref.wave);
      ASSERT_EQ(got.size(), want.size()) << "the link planned another capture";

      // Per sample: the link rounds each slot's amplitude, kernel tap and
      // product to float and sums at most K = ceil(|g| / F) + 1 slots in
      // float, so its error is at most K (K + 2) float epsilons of the
      // largest single-slot term max|a| max|g| (the reference's double
      // error is nine decades smaller).
      double a_max = 0.0;
      for (const double a : ref.amplitudes) a_max = std::max(a_max, std::abs(a));
      double g_max = 0.0;
      for (const double g : ref.kernel) g_max = std::max(g_max, std::abs(g));
      const double slots = static_cast<double>(ceil_div(ref.kernel.size(), F) + 1);
      const double tol = slots * (slots + 2.0) * FLT_EPSILON * a_max * g_max;
      std::size_t packed = 0;
      for (const CaptureSegment& seg : segments) {
        for (std::size_t i = seg.begin; i < seg.end; ++i, ++packed) {
          ASSERT_NEAR(got[packed], ref.wave[i], tol) << "capture sample " << i;
        }
      }

      // The noiseless matched filter at each demanded output: the data
      // section's pulses correlated with the prototype. Each must lie
      // inside the segments and agree within 1e-5 of the largest peak --
      // four decades below one step of the 4-bit converter.
      const RealVec& proto = link.transmitter().prototype().samples();
      std::vector<double> peak_float;
      std::vector<double> peak_double;
      double peak_max = 0.0;
      for (std::size_t pulse = 0; pulse < ref.frame.frame_bits.size() * ppb; ++pulse) {
        const std::size_t p =
            (ref.delay_frames + link.transmitter().preamble_frames() + pulse) * F;
        double pf = 0.0;
        double pd = 0.0;
        for (std::size_t i = 0; i < proto.size(); ++i) {
          const std::size_t at = packed_index(segments, p + i);
          ASSERT_LT(at, got.size()) << "pulse " << pulse << " leaves the segments";
          pf += static_cast<double>(got[at]) * proto[i];
          pd += ref.wave[p + i] * proto[i];
        }
        peak_float.push_back(pf);
        peak_double.push_back(pd);
        peak_max = std::max(peak_max, std::abs(pd));
      }
      ASSERT_GT(peak_max, 0.0);
      for (std::size_t k = 0; k < peak_float.size(); ++k) {
        EXPECT_NEAR(peak_float[k], peak_double[k], 1e-5 * peak_max) << "pulse " << k;
      }
    }
  }
}

TEST(Gen1Reference, AcquisitionAgreesWithTheDenseReference) {
  // An acquisition trial plans the whole capture: at 40 dB the float link
  // and the dense reference must find the same timing. (The code phase is
  // relative to where stage 2 starts, which the CFAR trip sets; it need not
  // match.)
  const Gen1Config config = sim::gen1_nominal();
  TrialOptions options = default_options(Generation::kGen1);
  options.kind = TrialKind::kAcquisition;
  options.genie_timing = false;
  options.ebn0_db = 40.0;
  Gen1Link float_link(config, 0xACE);
  Gen1Link reference_link(config, 0xACE);
  Rng rng_float(5);
  Rng rng_reference(5);
  const Gen1Link::AcqTrial got = float_link.run_acquisition(options, rng_float, 2);
  reference::Gen1DenseCapture ref =
      reference::gen1_dense_capture(reference_link, options, rng_reference);
  channel::add_awgn(ref.wave, ref.n0, rng_reference);
  const double setpoint = reference_link.receiver().agc_setpoint(
      ref.amplitudes, ref.kernel, 0.5 * ref.n0, ref.wave.size());
  const Gen1AcqResult want = reference::acquire_dense(
      reference_link.receiver(), ref.wave, reference_link.transmitter(), setpoint, rng_reference);
  ASSERT_TRUE(got.acq.acquired);
  ASSERT_TRUE(want.acquired);
  EXPECT_TRUE(got.timing_correct);
  EXPECT_EQ(got.acq.timing_offset, want.timing_offset);
  EXPECT_EQ(got.acq.pulse_phase, want.pulse_phase);
}

TEST(Gen1Tilt, AwgnDirectionKeepsAllItsEnergyInsideTheSegments) {
  // On AWGN a data bit's received contribution is its pulses_per_bit
  // monocycles, each under a demanded matched-filter output, so the planned
  // segments hold all of it: restricting the tilt direction to them drops
  // nothing, and the renormalized direction is the unrestricted one.
  const Gen1Config config = sim::gen1_fast();
  const Gen1Transmitter tx(config);
  Rng rng(0x711);
  const Gen1Train train = tx.transmit_train(rng.bits(32));
  const std::size_t F = config.frame_samples_analog();
  const auto ppb = static_cast<std::size_t>(config.pulses_per_bit);
  const std::size_t delay_frames = 5;
  const RealVec& proto = tx.prototype().samples();
  const std::size_t n = (delay_frames + train.amplitudes.size()) * F + proto.size() +
                        static_cast<std::size_t>(64e-9 * config.analog_fs);
  Rng mismatch(1);
  Gen1Receiver receiver(config, mismatch);
  Gen1RxOptions options;
  options.genie_timing = true;
  options.genie_offset = delay_frames * config.frame_samples_adc;
  const std::span<const CaptureSegment> segments = receiver.plan_capture(
      n, config.analog_fs, tx, train.frame.frame_bits.size(), options);
  std::size_t covered = 0;
  for (const CaptureSegment& seg : segments) covered += seg.size();
  ASSERT_LT(covered, n / 10) << "the plan covers the whole capture";

  const std::vector<double>& spread = tx.spread_chips();
  std::vector<float> shape((ppb - 1) * F + proto.size(), 0.0f);
  for (std::size_t k = 0; k < ppb; ++k) {
    for (std::size_t i = 0; i < proto.size(); ++i) {
      shape[k * F + i] += static_cast<float>(spread[k % spread.size()]) *
                          static_cast<float>(proto[i]);
    }
  }
  double energy = 0.0;
  for (const float v : shape) energy += static_cast<double>(v) * v;
  for (const std::size_t bit : {std::size_t{0}, train.frame.frame_bits.size() / 2,
                                train.frame.frame_bits.size() - 1}) {
    SCOPED_TRACE(bit);
    const std::size_t offset = (delay_frames + tx.preamble_frames() + bit * ppb) * F;
    const PackedRun run = pack_run(shape, offset, segments);
    double kept = 0.0;
    for (const float v : run.samples) kept += static_cast<double>(v) * v;
    EXPECT_EQ(kept, energy);
    EXPECT_LT(run.samples.size(), shape.size() / 4) << "the gaps between pulses were kept";
  }
}

/// \p scenario's result document at a tiny budget on \p workers workers.
std::string gen1_result_json(const engine::ScenarioSpec& scenario, std::size_t workers) {
  const std::string path =
      ::testing::TempDir() + "txrx_" + scenario.name + "_" + std::to_string(workers) + ".json";
  engine::SweepConfig config;
  config.seed = 0x717;
  config.workers = workers;
  config.stop.min_errors = 1'000'000;
  config.stop.max_bits = 1'000'000;
  config.stop.max_trials = 6;
  {
    engine::SweepEngine engine(config);
    engine::JsonSink sink(path);
    (void)engine.run(scenario, {&sink});
  }
  std::ifstream in(path, std::ios::binary);
  std::ostringstream bytes;
  bytes << in.rdbuf();
  std::remove(path.c_str());
  std::remove((path + ".run.json").c_str());
  return bytes.str();
}

TEST(Gen1Tilt, Cm3TrialWeightIsFiniteAndWorkerCountIndependent) {
  // Under CM3 the composite kernel outlasts the segments, so the direction
  // is cut to them and renormalized: the weight stays a finite single-rung
  // ratio, bounded by log(scale), and sweeps are byte-identical for any
  // worker count.
  TrialOptions options = default_options(Generation::kGen1);
  options.cm = 3;
  options.ebn0_db = 8.0;
  options.sampling.mode = stats::SamplingMode::kNoiseScale;
  Gen1Link link(sim::gen1_fast(), 3);
  const Rng root(0x3C);
  for (std::size_t trial = 0; trial < 4; ++trial) {
    TrialContext context;
    context.noise_scale = options.sampling.scale;
    context.sampling_trial = trial;
    context.sampling_resolved = true;
    Rng rng = root.fork(trial);
    const TrialResult result = link.run_packet(options, rng, context);
    EXPECT_EQ(result.bits, 1u);
    const std::optional<double> llr = result.metric(metric_names::kIsLlr);
    ASSERT_TRUE(llr.has_value());
    EXPECT_TRUE(std::isfinite(*llr)) << "trial " << trial;
    EXPECT_LE(*llr, std::log(options.sampling.scale) + 1e-12) << "trial " << trial;
  }

  engine::ScenarioSpec scenario = engine::ScenarioRegistry::global().make("gen1_waterfall");
  scenario.name = "gen1_cm3_tilted";
  scenario.points.resize(2);
  for (engine::PointSpec& point : scenario.points) {
    point.link.options.cm = 3;
    point.link.options.sampling.mode = stats::SamplingMode::kNoiseScale;
  }
  const std::string one = gen1_result_json(scenario, 1);
  ASSERT_FALSE(one.empty());
  EXPECT_NE(one.find("\"ess\""), std::string::npos) << "the points are not weighted";
  EXPECT_EQ(one, gen1_result_json(scenario, 3));
}

TEST(Gen2Transmitter, FrameLayoutBpsk) {
  const Gen2Config config = sim::gen2_fast();
  const Gen2Transmitter tx(config);
  Rng rng(2);
  auto [wave, frame] = tx.transmit(rng.bits(100));
  // Overhead: preamble (63*2) + SFD 16 + header 32.
  EXPECT_EQ(frame.overhead_symbols, 126u + 16u + 32u);
  EXPECT_EQ(frame.payload_symbols, 132u);  // payload + CRC-32, BPSK
  EXPECT_EQ(frame.body_bits, 132u);
  EXPECT_EQ(wave.sample_rate(), config.analog_fs);
  EXPECT_GT(frame.energy_per_bit, 0.0);
}

TEST(Gen2Transmitter, OccupiedBandwidthIs500MHz) {
  const Gen2Config config = sim::gen2_fast();
  const Gen2Transmitter tx(config);
  Rng rng(3);
  auto [wave, frame] = tx.transmit(rng.bits(400));
  const dsp::Psd psd = dsp::welch_psd(wave, 1024);
  const double bw = dsp::bandwidth_at_level(psd, -10.0);
  EXPECT_NEAR(bw, 500e6, 150e6);
}

TEST(Gen2Transmitter, PassbandSynthesisAtChannel) {
  Gen2Config config = sim::gen2_fast();
  config.channel_index = 4;  // ~5 GHz (Fig. 4)
  const Gen2Transmitter tx(config);
  Rng rng(4);
  auto [bb, frame] = tx.transmit(rng.bits(16));
  // Truncate for speed.
  const CplxWaveform head = bb.slice(0, std::min<std::size_t>(bb.size(), 16384));
  const RealWaveform rf = tx.transmit_passband(head, 20e9);
  EXPECT_DOUBLE_EQ(rf.sample_rate(), 20e9);
  const dsp::Psd psd = dsp::welch_psd(rf, 4096);
  const pulse::BandPlan plan;
  EXPECT_NEAR(psd.freq_hz[psd.peak_bin()], plan.center_frequency(4), 500e6);
}

TEST(Gen2Transmitter, PreambleTemplateMatchesConfig) {
  const Gen2Config config = sim::gen2_fast();
  const Gen2Transmitter tx(config);
  const CplxVec tmpl = tx.preamble_template_adc();
  // 126 preamble symbols at 10 samples/bit plus the pulse tail.
  EXPECT_GT(tmpl.size(), 1260u);
  EXPECT_LT(tmpl.size(), 1400u);
}

// ------------------------------------------------------------ power model ----

TEST(PowerModel, Gen1AdcPlusDigitalDominate) {
  const PowerBreakdown bd = gen1_power(sim::gen1_nominal());
  EXPECT_GT(bd.total_w(), 0.0);
  // The paper's claim: more than half in the ADC + digital back end.
  EXPECT_GT(bd.adc_plus_digital_fraction(), 0.5);
}

TEST(PowerModel, Gen2AdcPlusDigitalDominate) {
  const PowerBreakdown bd = gen2_power(sim::gen2_nominal());
  EXPECT_GT(bd.adc_plus_digital_fraction(), 0.5);
}

TEST(PowerModel, MlseCostScalesWithStates) {
  Gen2Config small = sim::gen2_nominal();
  small.mlse.memory = 2;
  Gen2Config big = small;
  big.mlse.memory = 6;
  const double p_small = gen2_power(small).group_w("Digital");
  const double p_big = gen2_power(big).group_w("Digital");
  EXPECT_GT(p_big, p_small);
}

TEST(PowerModel, EnergyPerBitTradeoff) {
  // Fewer RAKE fingers and no MLSE = less energy per bit.
  Gen2Config lean = sim::gen2_nominal();
  lean.rake.num_fingers = 2;
  lean.use_mlse = false;
  lean.mlse.memory = 1;
  Gen2Config rich = sim::gen2_nominal();
  rich.rake.num_fingers = 16;
  rich.mlse.memory = 6;
  EXPECT_LT(gen2_energy_per_bit_j(lean), gen2_energy_per_bit_j(rich));
}

TEST(PowerModel, AdcPowerScalesWithBits) {
  Gen2Config b4 = sim::gen2_nominal();
  b4.sar.bits = 4;
  Gen2Config b6 = sim::gen2_nominal();
  b6.sar.bits = 6;
  EXPECT_NEAR(gen2_power(b6).group_w("ADC") / gen2_power(b4).group_w("ADC"), 4.0, 0.01);
}

// -------------------------------------------------------- receiver smoke ----

TEST(Gen2Receiver, CleanPacketZeroErrors) {
  const Gen2Config config = sim::gen2_fast();
  Gen2Link link(config, 0xBEEF);
  txrx::TrialOptions options;
  options.ebn0_db = 25.0;  // essentially clean
  options.payload_bits = 64;
  options.cm = 0;
  const Gen2TrialResult trial = link.run_packet_full(options);
  EXPECT_TRUE(trial.rx.acquired);
  EXPECT_EQ(trial.errors, 0u) << "ber=" << static_cast<double>(trial.errors) / trial.bits;
  EXPECT_GT(trial.rx.rake_energy_capture, 0.5);
}

TEST(Gen2Receiver, MultipathPacketDecodes) {
  const Gen2Config config = sim::gen2_fast();
  Gen2Link link(config, 0xCAFE);
  txrx::TrialOptions options;
  options.ebn0_db = 22.0;
  options.payload_bits = 64;
  options.cm = 1;  // mild LOS multipath
  std::size_t total_bits = 0, total_errors = 0;
  for (int p = 0; p < 5; ++p) {
    const Gen2TrialResult trial = link.run_packet_full(options);
    total_bits += trial.bits;
    total_errors += trial.errors;
  }
  EXPECT_LT(static_cast<double>(total_errors) / static_cast<double>(total_bits), 0.02);
}

TEST(Gen2Receiver, IAndQConvertersDrawSeparateComparatorNoise) {
  // Equal I and Q rails through ideal-cap SARs with comparator noise and an
  // otherwise I/Q-symmetric chain (no phase noise, no I/Q imbalance, no
  // channel noise): the real and imaginary parts of the channel estimate
  // then differ only through the two converters' comparator noise. If both
  // drew one stream, every tap would come out with equal parts. 16-bit taps
  // resolve the noise's trace but not the overlap-save rounding.
  Gen2Config config = sim::gen2_fast();
  config.chanest.quantization_bits = 16;
  config.sar.cap_mismatch_sigma = 0.0;
  config.sar.comparator_noise = 0.05;
  Rng rng(31);
  Gen2Receiver receiver(config, rng);
  const Gen2Transmitter tx(config);
  Rng tx_rng(32);
  const auto [wave, frame] = tx.transmit(tx_rng.bits(64));
  CplxVec rails(wave.size());
  for (std::size_t i = 0; i < rails.size(); ++i) {
    rails[i] = cplx(wave[i].real(), wave[i].real());
  }
  CplxWaveform rx(std::move(rails), wave.sample_rate());
  rx.pad(static_cast<std::size_t>(64e-9 * config.analog_fs));  // room for late fingers
  Gen2RxOptions options;
  options.run_spectral_monitor = false;
  const Gen2RxResult result = receiver.receive(rx, tx, frame, options, rng);
  ASSERT_TRUE(result.acquired);
  ASSERT_FALSE(result.channel_estimate.empty());
  std::size_t unequal = 0;
  for (const auto& tap : result.channel_estimate.taps()) {
    unequal += tap.gain.real() != tap.gain.imag() ? 1 : 0;
  }
  EXPECT_GT(unequal, 0u);
}

TEST(Gen1Receiver, CleanPacketZeroErrors) {
  const Gen1Config config = sim::gen1_fast();
  Gen1Link link(config, 0xF00D);
  txrx::TrialOptions options;
  options.ebn0_db = 20.0;
  options.payload_bits = 16;
  options.genie_timing = true;
  const Gen1TrialResult trial = link.run_packet_full(options);
  EXPECT_EQ(trial.errors, 0u);
  EXPECT_GT(trial.bits, 0u);
}

/// The gen-1 anti-alias filter, as the receiver designs it.
RealVec gen1_anti_alias(const Gen1Config& config) {
  return dsp::design_lowpass(0.45 * config.adc_rate, config.analog_fs, 63);
}

/// The gen-1 receiver's whole-capture chain built from its public pieces:
/// anti-alias filter, interleaved sampler, the AGC gain of \p setpoint,
/// flash conversion, matched filter. \p mismatch_seed seeds the converter
/// as the receiver's constructor does.
std::vector<float> dense_gen1_matched_filter(const Gen1Config& config, const Gen1Transmitter& tx,
                                             const RealWaveform& rx, std::uint64_t mismatch_seed,
                                             double setpoint) {
  const std::size_t n = rx.size();
  std::vector<float> x(n);
  for (std::size_t i = 0; i < n; ++i) x[i] = static_cast<float>(rx[i]);
  std::vector<float> filtered(n);
  dsp::convolve_same_to(x.data(), n, gen1_anti_alias(config), filtered.data());

  Rng mismatch(mismatch_seed);
  adc::TimeInterleavedAdc adc(
      config.adc_lanes,
      adc::FlashParams{config.adc_bits, 1.0, config.comparator_offset_sigma},
      config.interleave, mismatch);
  RealVec skews;
  for (int k = 0; k < adc.num_lanes(); ++k) skews.push_back(adc.lane_skew_s(k));
  const adc::SampleAndHold sampler(
      adc::SamplingParams{config.adc_rate, config.aperture_jitter_rms_s, 0.0});
  std::vector<float> sampled(sampler.output_size(n, rx.sample_rate()));
  Rng unused(0);
  (void)sampler.sample_interleaved_to(filtered.data(), n, rx.sample_rate(), skews, unused,
                                      sampled.data());
  for (float& v : sampled) v *= static_cast<float>(0.25 / std::sqrt(setpoint));
  std::vector<float> levels(sampled.size());
  adc.reset();
  adc.convert_block(sampled.data(), sampled.size(), levels.data());
  const RealVec& taps = tx.pulse_taps_adc();
  std::vector<float> taps_f(taps.begin(), taps.end());
  std::vector<float> mf(levels.size() - taps.size() + 1);
  dsp::dot_bank(levels.data(), mf.size(), taps_f.data(), taps_f.size(), mf.data());
  return mf;
}

TEST(Gen1Receiver, GenieDespreadEqualsHandDespreadOfDenseMatchedFilter) {
  // A genie receive reads only the capture segments under the windows its
  // despreader reads; cut from one dense capture, at the same AGC setpoint,
  // its decisions and soft sums must be those of the whole-capture matched
  // filter, including bits whose last pulses fall past a cut capture. The
  // 648-sample frame gets one segment per window; 40-sample frames put
  // windows close enough that their segments merge; on 8-sample frames
  // the windows would overlap, so the receiver plans the whole capture.
  Gen1Config short_frames = sim::gen1_fast();
  short_frames.frame_samples_adc = 8;
  Gen1Config close_frames = sim::gen1_fast();
  close_frames.frame_samples_adc = 40;
  for (const Gen1Config& config : {sim::gen1_fast(), close_frames, short_frames}) {
    SCOPED_TRACE(config.frame_samples_adc);
    const Gen1Transmitter tx(config);
    Rng rng(0x6E1);
    const BitVec payload = rng.bits(32);
    auto [wave, frame] = tx.transmit(payload);
    const std::size_t delay_frames = 5;
    wave.delay_samples(delay_frames * config.frame_samples_analog());
    wave.pad(static_cast<std::size_t>(64e-9 * config.analog_fs));
    const double n0 = channel::n0_for_ebn0(frame.energy_per_bit, 3.0);
    channel::add_awgn(wave, n0, rng);
    const std::size_t cut_frames = 40;  // two and a half bits
    RealVec cut(wave.samples().begin(),
                wave.samples().end() -
                    static_cast<std::ptrdiff_t>(cut_frames * config.frame_samples_analog()));
    const std::vector<double> amplitudes = tx.transmit_train(payload).amplitudes;

    for (const RealWaveform& rx : {wave, RealWaveform(cut, wave.sample_rate())}) {
      Rng mismatch(0xAD);
      Gen1Receiver receiver(config, mismatch);
      Gen1RxOptions options;
      options.genie_timing = true;
      options.genie_offset = delay_frames * config.frame_samples_adc;
      const double setpoint =
          receiver.agc_setpoint(amplitudes, tx.prototype().samples(), 0.5 * n0, rx.size());
      const std::size_t demanded = frame.frame_bits.size() * 16;
      const std::span<const CaptureSegment> segments = receiver.plan_capture(
          rx.size(), rx.sample_rate(), tx, frame.frame_bits.size(), options);
      if (config.frame_samples_adc == 8) {
        ASSERT_EQ(segments.size(), 1u);
        EXPECT_EQ(segments[0].begin, 0u);
        EXPECT_EQ(segments[0].end, rx.size());
      } else if (config.frame_samples_adc == 40) {
        EXPECT_LT(segments.size(), demanded / 2) << "no segments merged";
      } else {
        std::size_t covered = 0;
        for (const CaptureSegment& seg : segments) covered += seg.size();
        EXPECT_LT(covered, rx.size() / 10);
        EXPECT_GT(segments.size(), demanded / 2);
      }
      Rng rx_rng(1);
      const Gen1RxResult got =
          reference::receive_dense(receiver, rx, tx, frame, options, setpoint, rx_rng);

      const std::vector<float> mf = dense_gen1_matched_filter(config, tx, rx, 0xAD, setpoint);
      const std::size_t F = config.frame_samples_adc;
      const auto ppb = static_cast<std::size_t>(config.pulses_per_bit);
      const std::vector<double>& spread = tx.spread_chips();
      const std::size_t first = options.genie_offset + tx.preamble_frames() * F;
      ASSERT_EQ(got.data_bits.size(), frame.frame_bits.size());
      ASSERT_EQ(got.data_soft.size(), frame.frame_bits.size());
      std::size_t outside = 0;
      std::size_t errors = 0;
      for (std::size_t b = 0; b < frame.frame_bits.size(); ++b) {
        double soft = 0.0;
        for (std::size_t k = 0; k < ppb; ++k) {
          const std::size_t idx = first + (b * ppb + k) * F;
          if (idx < mf.size()) {
            soft += spread[k % spread.size()] * mf[idx];
          } else {
            ++outside;
          }
        }
        EXPECT_EQ(std::memcmp(&got.data_soft[b], &soft, sizeof soft), 0)
            << "bit " << b << ": " << got.data_soft[b] << " vs " << soft;
        EXPECT_EQ(got.data_bits[b], soft < 0.0 ? 1 : 0) << "bit " << b;
        errors += (got.data_bits[b] != 0) != (frame.frame_bits[b] != 0) ? 1 : 0;
      }
      EXPECT_EQ(got.bit_errors, errors);
      if (rx.size() < wave.size()) {
        EXPECT_GT(outside, 0u) << "the cut reaches no pulse";
      }
    }
  }
}

/// A gen-1 train through \p kernel, scattered densely in double, and the
/// energy of its full convolution with the anti-alias filter.
double dense_filtered_energy(const Gen1Config& config, const std::vector<double>& amplitudes,
                             const RealVec& kernel) {
  const std::size_t F = config.frame_samples_analog();
  RealVec x(F * amplitudes.size() + kernel.size(), 0.0);
  for (std::size_t s = 0; s < amplitudes.size(); ++s) {
    for (std::size_t i = 0; i < kernel.size(); ++i) x[s * F + i] += amplitudes[s] * kernel[i];
  }
  const RealVec z = dsp::convolve(x, gen1_anti_alias(config));
  double energy = 0.0;
  for (const double v : z) energy += v * v;
  return energy;
}

TEST(Gen1Receiver, AgcSetpointSignalTermIsTheFilteredTrainEnergy) {
  // Noiseless, the setpoint times the capture length is sum_m c_m R_q(m F):
  // the energy of the filtered train, slot overlaps included. A CM4
  // composite kernel outlasts the 300-sample frame, so there adjacent slots
  // overlap.
  Gen1Config short_frames = sim::gen1_fast();
  short_frames.frame_samples_adc = 300;
  Rng rng(0x5E7);
  channel::SvParams cm4 = channel::cm_by_index(4);
  cm4.complex_phases = false;
  const CplxVec h = channel::SalehValenzuela(cm4).realize(rng).sampled(4e9);
  RealVec hr(h.size());
  for (std::size_t i = 0; i < h.size(); ++i) hr[i] = h[i].real();
  for (const Gen1Config& config : {sim::gen1_fast(), short_frames}) {
    SCOPED_TRACE(config.frame_samples_adc);
    const Gen1Transmitter tx(config);
    const std::vector<double> amplitudes = tx.transmit_train(rng.bits(48)).amplitudes;
    const RealVec cm4_kernel = dsp::convolve(tx.prototype().samples(), hr);
    if (config.frame_samples_adc == 300) {
      ASSERT_GT(cm4_kernel.size(), 2 * config.frame_samples_analog()) << "no slot overlap";
    }
    Rng mismatch(1);
    const Gen1Receiver receiver(config, mismatch);
    for (const RealVec& kernel : {tx.prototype().samples(), cm4_kernel}) {
      const double expected = dense_filtered_energy(config, amplitudes, kernel);
      const std::size_t n = 3'000'000;
      const double modeled =
          receiver.agc_setpoint(amplitudes, kernel, 0.0, n) * static_cast<double>(n);
      EXPECT_NEAR(modeled / expected, 1.0, 1e-9) << "kernel of " << kernel.size() << " samples";
    }
  }
}

TEST(Gen1Receiver, AgcSetpointNoiseTermIsTheMeanFilteredNoisePower) {
  // Noise only: the filtered power of FloatAwgn captures, averaged over 40
  // seeds, must lie within 4 standard errors of the modeled term
  // (two-sided coverage above 99.99% for a normal mean); the capture edges,
  // where the filter runs partly outside, are included.
  const Gen1Config config = sim::gen1_fast();
  Rng mismatch(1);
  const Gen1Receiver receiver(config, mismatch);
  const RealVec h = gen1_anti_alias(config);
  const std::size_t n = 20'000;
  const double n0 = 0.37;
  constexpr int kSeeds = 40;
  std::vector<double> powers;
  double noise_var = 0.0;
  for (int seed = 0; seed < kSeeds; ++seed) {
    Rng rng(1000 + static_cast<std::uint64_t>(seed));
    std::vector<float> x(n, 0.0f);
    channel::FloatAwgn noise(n0, rng);
    noise.add(x.data(), n);
    noise_var = noise.variance();
    std::vector<float> y(n);
    dsp::convolve_same_to(x.data(), n, h, y.data());
    double p = 0.0;
    for (const float v : y) p += static_cast<double>(v) * v;
    powers.push_back(p / static_cast<double>(n));
  }
  double mean = 0.0;
  for (const double p : powers) mean += p / kSeeds;
  double var = 0.0;
  for (const double p : powers) var += (p - mean) * (p - mean) / (kSeeds - 1);
  const double modeled = receiver.agc_setpoint({}, {}, noise_var, n);
  EXPECT_NEAR(mean, modeled, 4.0 * std::sqrt(var / kSeeds));
}

TEST(Gen1Receiver, AcquisitionFindsTiming) {
  const Gen1Config config = sim::gen1_nominal();
  Gen1Link link(config, 0xACE);
  txrx::TrialOptions options;
  options.ebn0_db = 18.0;  // gen-1's short-range link budget leaves ample margin
  options.payload_bits = 8;
  options.genie_timing = false;
  const auto trial = link.run_acquisition(options);
  EXPECT_TRUE(trial.acq.acquired);
  EXPECT_TRUE(trial.timing_correct);
  // Modeled sync time must satisfy the paper's < 70 us budget with the
  // default parallelism.
  EXPECT_LT(trial.acq.sync_time_s, 70e-6);
}


// ------------------------------------------------------------ unified Link ----

TEST(UnifiedLink, MakeLinkDispatchesOnTheSpecGeneration) {
  const LinkSpec spec1 = LinkSpec::for_gen1(sim::gen1_fast());
  const LinkSpec spec2 = LinkSpec::for_gen2(sim::gen2_fast());
  const auto link1 = make_link(spec1, 1);
  const auto link2 = make_link(spec2, 1);
  EXPECT_EQ(link1->generation(), Generation::kGen1);
  EXPECT_EQ(link2->generation(), Generation::kGen2);
  EXPECT_NE(dynamic_cast<Gen1Link*>(link1.get()), nullptr);
  EXPECT_NE(dynamic_cast<Gen2Link*>(link2.get()), nullptr);
}

TEST(UnifiedLink, CapsReflectTheHardware) {
  const auto gen1 = make_link(LinkSpec::for_gen1(sim::gen1_fast()), 2);
  const auto gen2 = make_link(LinkSpec::for_gen2(sim::gen2_fast()), 2);
  EXPECT_FALSE(gen1->caps().complex_baseband);
  EXPECT_TRUE(gen1->caps().supports_acquisition_trials);
  EXPECT_FALSE(gen1->caps().supports_fec);
  EXPECT_NEAR(gen1->caps().bit_rate_hz, 193e3, 1e3);
  EXPECT_TRUE(gen2->caps().complex_baseband);
  EXPECT_TRUE(gen2->caps().supports_interferer);
  EXPECT_TRUE(gen2->caps().supports_fec);
  EXPECT_DOUBLE_EQ(gen2->caps().bit_rate_hz, 100e6);
}

TEST(UnifiedLink, DefaultOptionsPerGeneration) {
  const TrialOptions gen1 = default_options(Generation::kGen1);
  EXPECT_TRUE(gen1.genie_timing);
  EXPECT_EQ(gen1.payload_bits, 32u);
  const TrialOptions gen2 = default_options(Generation::kGen2);
  EXPECT_FALSE(gen2.genie_timing);
  EXPECT_EQ(gen2.payload_bits, 200u);
}

TEST(UnifiedLink, SamePacketThroughBaseAndConcreteInterfaces) {
  // The virtual run_packet must report exactly what the detailed variant
  // reports, for the same per-trial Rng.
  const Gen2Config config = sim::gen2_fast();
  TrialOptions options;
  options.payload_bits = 64;
  options.ebn0_db = 14.0;
  options.cm = 1;

  Gen2Link detailed(config, 77);
  Rng rng_a(123);
  const Gen2TrialResult full = detailed.run_packet_full(options, rng_a);

  const auto link = make_link(LinkSpec::for_gen2(config, options), 77);
  Rng rng_b(123);
  const TrialResult slim = link->run_packet(options, rng_b);

  EXPECT_EQ(slim.bits, full.bits);
  EXPECT_EQ(slim.errors, full.errors);
  ASSERT_TRUE(slim.metric(metric_names::kAcquired).has_value());
  EXPECT_EQ(*slim.metric(metric_names::kAcquired), full.rx.acquired ? 1.0 : 0.0);
  EXPECT_EQ(slim.metric(metric_names::kRakeEnergyCapture), full.rx.rake_energy_capture);
  EXPECT_EQ(slim.metric(metric_names::kSnrEstimate), full.rx.snr_estimate_db);
  EXPECT_FALSE(slim.metric("no_such_metric").has_value());
}

TEST(UnifiedLink, Gen1RejectsGen2OnlyOptionsLoudly) {
  TrialOptions interferer = default_options(Generation::kGen1);
  interferer.interferer = true;
  EXPECT_THROW((void)make_link(LinkSpec::for_gen1(sim::gen1_fast(), interferer), 1),
               InvalidArgument);

  TrialOptions coded = default_options(Generation::kGen1);
  coded.fec = fec::k3_rate_half();
  EXPECT_THROW((void)make_link(LinkSpec::for_gen1(sim::gen1_fast(), coded), 1),
               InvalidArgument);

  // The run path is guarded too, not only the factory.
  Gen1Link link(sim::gen1_fast(), 1);
  Rng rng(5);
  EXPECT_THROW((void)link.run_packet(interferer, rng), InvalidArgument);
}

TEST(UnifiedLink, AcquisitionTrialsRunThroughRunPacket) {
  // The gen-1 acquisition side door folded into the generic interface:
  // run_packet(kind = kAcquisition) must report exactly what
  // run_acquisition reports, as attempt/failure accounting plus metrics.
  const Gen1Config config = sim::gen1_nominal();
  TrialOptions options = default_options(Generation::kGen1);
  options.kind = TrialKind::kAcquisition;
  options.genie_timing = false;
  options.payload_bits = 8;
  options.ebn0_db = 18.0;

  Gen1Link detailed(config, 0xACE);
  Rng rng_a(42);
  const Gen1Link::AcqTrial reference =
      detailed.run_acquisition(options, rng_a, options.acq_tol_samples);

  const auto link = make_link(LinkSpec::for_gen1(config, options), 0xACE);
  Rng rng_b(42);
  const TrialResult trial = link->run_packet(options, rng_b);

  EXPECT_EQ(trial.bits, 1u);  // one acquisition attempt
  EXPECT_EQ(trial.errors, reference.timing_correct ? 0u : 1u);
  EXPECT_EQ(trial.metric(metric_names::kAcquired), reference.acq.acquired ? 1.0 : 0.0);
  EXPECT_EQ(trial.metric(metric_names::kTimingCorrect),
            reference.timing_correct ? 1.0 : 0.0);
  if (reference.acq.acquired) {
    EXPECT_EQ(trial.metric(metric_names::kSyncTime), reference.acq.sync_time_s);
  } else {
    EXPECT_FALSE(trial.metric(metric_names::kSyncTime).has_value());
  }
}

TEST(UnifiedLink, Gen2RejectsAcquisitionTrialsLoudly) {
  TrialOptions options;  // gen-2 defaults
  options.kind = TrialKind::kAcquisition;
  EXPECT_THROW((void)make_link(LinkSpec::for_gen2(sim::gen2_fast(), options), 1),
               InvalidArgument);
  Gen2Link link(sim::gen2_fast(), 1);
  Rng rng(5);
  EXPECT_THROW((void)link.run_packet(options, rng), InvalidArgument);
  EXPECT_THROW((void)trial_metric_names(Generation::kGen2, TrialKind::kAcquisition),
               InvalidArgument);
}

TEST(UnifiedLink, MetricVocabularyMatchesCapsAndKind) {
  // Caps advertise the full vocabulary; trial_metric_names narrows it to
  // what one trial kind actually emits, and the emitted sets match what
  // run_packet produces (the acquired flag at minimum).
  const auto gen1 = make_link(LinkSpec::for_gen1(sim::gen1_fast()), 3);
  const auto gen2 = make_link(LinkSpec::for_gen2(sim::gen2_fast()), 3);
  EXPECT_EQ(gen1->caps().metric_names,
            (std::vector<std::string>{metric_names::kAcquired,
                                      metric_names::kIsLlr,
                                      metric_names::kTimingCorrect,
                                      metric_names::kSyncTime}));
  EXPECT_EQ(gen2->caps().metric_names,
            (std::vector<std::string>{metric_names::kAcquired,
                                      metric_names::kRakeEnergyCapture,
                                      metric_names::kSnrEstimate,
                                      metric_names::kInterfererDetected,
                                      metric_names::kInterfererPom,
                                      metric_names::kInterfererFreqErr,
                                      metric_names::kIsLlr}));
  EXPECT_EQ(trial_metric_names(Generation::kGen1, TrialKind::kPacket),
            (std::vector<std::string>{metric_names::kAcquired,
                                      metric_names::kIsLlr}));
  EXPECT_EQ(trial_metric_names(Generation::kGen1, TrialKind::kAcquisition),
            (std::vector<std::string>{metric_names::kAcquired,
                                      metric_names::kTimingCorrect,
                                      metric_names::kSyncTime}));
  EXPECT_EQ(trial_metric_names(Generation::kGen2, TrialKind::kPacket),
            gen2->caps().metric_names);

  // validate_spec rejects names outside the kind's vocabulary.
  LinkSpec spec = LinkSpec::for_gen1(sim::gen1_fast());
  spec.options.record_metrics = {metric_names::kSyncTime};  // packet kind: not emitted
  EXPECT_THROW(validate_spec(spec), InvalidArgument);
  spec.options.record_metrics = {metric_names::kAcquired};
  EXPECT_NO_THROW(validate_spec(spec));
}

}  // namespace
}  // namespace uwb::txrx
