// Tests for the RF behavioral models: LNA, mixers, synthesizer, notch,
// AGC, cascaded front end.

#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <cmath>
#include <cstdint>
#include <cstdlib>
#include <cstring>
#include <limits>
#include <new>
#include <optional>
#include <vector>

#include "adc/sampling.h"
#include "adc/sar_adc.h"
#include "channel/awgn.h"
#include "channel/interferer.h"
#include "channel/saleh_valenzuela.h"
#include "common/error.h"
#include "common/isa.h"
#include "common/math_utils.h"
#include "common/rng.h"
#include "dsp/filter_design.h"
#include "dsp/fir_filter.h"
#include "dsp/nco.h"
#include "dsp/power_spectrum.h"
#include "isa_clones.h"
#include "rf/agc.h"
#include "rf/front_end.h"
#include "rf/lna.h"
#include "rf/mixer.h"
#include "rf/notch_filter.h"
#include "rf/synthesizer.h"
#include "txrx/receiver_gen2.h"
#include "txrx/transmitter.h"

// Counting replacements of the global allocation functions: while
// g_count_allocs is set, every allocation adds one to g_allocs (the
// workspace allocation test below).
namespace {

std::atomic<bool> g_count_allocs{false};
std::atomic<std::size_t> g_allocs{0};

void* counted_alloc(std::size_t size) {
  if (g_count_allocs.load(std::memory_order_relaxed)) g_allocs.fetch_add(1);
  if (void* p = std::malloc(size == 0 ? 1 : size)) return p;
  throw std::bad_alloc();
}

void* counted_alloc(std::size_t size, std::align_val_t align) {
  if (g_count_allocs.load(std::memory_order_relaxed)) g_allocs.fetch_add(1);
  const auto a = static_cast<std::size_t>(align);
  // aligned_alloc needs a size that is a multiple of the alignment.
  if (void* p = std::aligned_alloc(a, ((size == 0 ? 1 : size) + a - 1) / a * a)) return p;
  throw std::bad_alloc();
}

}  // namespace

void* operator new(std::size_t size) { return counted_alloc(size); }
void* operator new[](std::size_t size) { return counted_alloc(size); }
void* operator new(std::size_t size, std::align_val_t align) { return counted_alloc(size, align); }
void* operator new[](std::size_t size, std::align_val_t align) {
  return counted_alloc(size, align);
}
void operator delete(void* p) noexcept { std::free(p); }
void operator delete[](void* p) noexcept { std::free(p); }
void operator delete(void* p, std::size_t) noexcept { std::free(p); }
void operator delete[](void* p, std::size_t) noexcept { std::free(p); }
void operator delete(void* p, std::align_val_t) noexcept { std::free(p); }
void operator delete[](void* p, std::align_val_t) noexcept { std::free(p); }
void operator delete(void* p, std::size_t, std::align_val_t) noexcept { std::free(p); }
void operator delete[](void* p, std::size_t, std::align_val_t) noexcept { std::free(p); }

namespace uwb::rf {
namespace {

// ------------------------------------------------------------------ lna ----

TEST(Lna, SmallSignalGain) {
  LnaParams params;
  params.gain_db = 15.0;
  params.noise_figure_db = 0.0;  // noiseless for this check
  const Lna lna(params);
  Rng rng(1);
  CplxWaveform x(CplxVec(1000, cplx{1e-4, 0.0}), 1e9);  // far below compression
  lna.process(x.samples().data(), x.size(), 0.0, rng, x.samples().data());
  EXPECT_NEAR(amp_to_db(x[500].real() / 1e-4), 15.0, 0.05);
}

TEST(Lna, CompressesSignalPeaksAboveHeadroom) {
  LnaParams params;
  params.gain_db = 20.0;
  params.noise_figure_db = 0.0;
  params.headroom_db = 20.0;
  const Lna lna(params);
  Rng rng(2);
  // Mostly unit samples plus outliers far above the headroom: the outliers
  // must be soft-limited near the saturation level while the unit samples
  // stay essentially linear.
  CplxVec samples(1000, cplx{1.0, 0.0});
  for (std::size_t i = 0; i < 10; ++i) samples[i * 100] = 1000.0;
  CplxWaveform x(samples, 1e9);
  const double rms = std::sqrt(mean_power(samples));
  const double sat = lna.saturation_amplitude(rms);
  lna.process(x.samples().data(), x.size(), 0.0, rng, x.samples().data());
  EXPECT_LT(x[0].real(), sat * lna.gain_linear() * 1.01);          // outlier clamped
  EXPECT_NEAR(x[1].real(), 1.0 * lna.gain_linear(), 0.05 * lna.gain_linear());  // linear
}

TEST(Lna, ExcessNoiseMatchesNoiseFigure) {
  LnaParams params;
  params.gain_db = 0.0;  // unit gain isolates the added noise
  params.noise_figure_db = 3.0102;  // F = 2 -> adds as much noise as present
  const Lna lna(params);
  Rng rng(3);
  CplxWaveform x(CplxVec(200000, cplx{}), 1e9);
  // Reference noise small enough to stay in the linear region of the
  // compression model: expect (F-1) * N_in added to silence.
  const double n_in = 1e-6;
  lna.process(x.samples().data(), x.size(), n_in, rng, x.samples().data());
  EXPECT_NEAR(x.power(), n_in, 0.05 * n_in);
}

// ---------------------------------------------------------------- mixer ----

TEST(Mixer, UpconverterPutsBasebandOnTheCarrier) {
  // Without imbalance the upconverter outputs Re{x_bb e^{j w t}} plus the
  // default -100 dB LO feedthrough: a baseband phasor at 50 MHz lands as a
  // cosine at fc + 50 MHz.
  const double fs = 20e9;
  const double fc = 4e9;
  const std::size_t n = 4096;
  CplxVec bb(n);
  for (std::size_t i = 0; i < n; ++i) {
    bb[i] = std::polar(1.0, two_pi * 50e6 * static_cast<double>(i) / fs);
  }
  const Upconverter up(fc, fs);
  const RealWaveform rf = up.process(CplxWaveform(bb, fs));
  ASSERT_EQ(rf.size(), n);
  double max_err = 0.0;
  for (std::size_t i = 0; i < n; ++i) {
    const double t = static_cast<double>(i) / fs;
    const double want = std::cos(two_pi * (fc + 50e6) * t) + 1e-5 * std::cos(two_pi * fc * t);
    max_err = std::max(max_err, std::abs(rf[i] - want));
  }
  EXPECT_LT(max_err, 1e-9);
}

TEST(Mixer, ImageRejectionDependsOnImbalance) {
  IqImpairments ideal;
  EXPECT_GT(image_rejection_ratio_db(ideal), 100.0);
  IqImpairments imbalanced;
  imbalanced.gain_imbalance_db = 0.5;
  imbalanced.phase_imbalance_rad = 0.05;
  const double irr = image_rejection_ratio_db(imbalanced);
  EXPECT_GT(irr, 20.0);
  EXPECT_LT(irr, 40.0);
}

TEST(Mixer, BasebandImpairmentsCreateImage) {
  // A positive-frequency tone through an imbalanced chain leaks power at
  // the mirror frequency.
  const double fs = 1e9;
  CplxVec x(8192);
  for (std::size_t i = 0; i < x.size(); ++i) {
    x[i] = std::polar(1.0, two_pi * 100e6 * static_cast<double>(i) / fs);
  }
  IqImpairments imp;
  imp.gain_imbalance_db = 1.0;
  imp.phase_imbalance_rad = 0.1;
  CplxWaveform y(x, fs);
  apply_iq_impairments(y.samples(), imp);
  const dsp::Psd psd = dsp::welch_psd(y, 1024);
  const double signal = psd.density_w_per_hz[psd.bin_of(100e6)];
  const double image = psd.density_w_per_hz[psd.bin_of(-100e6)];
  const double measured_irr = to_db(signal / image);
  EXPECT_NEAR(measured_irr, image_rejection_ratio_db(imp), 2.0);
}

TEST(Mixer, DcOffsetShowsAtZero) {
  const double fs = 1e9;
  IqImpairments imp;
  imp.dc_offset_i = 0.1;
  CplxWaveform y(CplxVec(1024, cplx{}), fs);
  apply_iq_impairments(y.samples(), imp);
  EXPECT_NEAR(y[100].real(), 0.1, 1e-12);
}

// ------------------------------------------------------------ synthesizer ----

TEST(Synthesizer, TuneAndSettle) {
  const pulse::BandPlan plan;
  SynthesizerParams params;
  params.settle_time_s = 2e-6;
  Synthesizer synth(plan, params);
  EXPECT_EQ(synth.channel(), 0);
  EXPECT_DOUBLE_EQ(synth.tune(5), 2e-6);
  EXPECT_EQ(synth.channel(), 5);
  EXPECT_DOUBLE_EQ(synth.tune(5), 0.0);  // already there
  EXPECT_NEAR(synth.frequency(), plan.center_frequency(5), 1.0);
  EXPECT_THROW(synth.tune(14), InvalidArgument);
}

TEST(Synthesizer, PhaseNoiseRms) {
  const pulse::BandPlan plan;
  SynthesizerParams params;
  params.phase_noise_rms_rad = 0.05;
  params.loop_bandwidth_hz = 1e6;
  Synthesizer synth(plan, params);
  Rng rng(4);
  const RealVec theta = synth.phase_noise(500000, 1e9, rng);
  double acc = 0.0;
  for (double t : theta) acc += t * t;
  EXPECT_NEAR(std::sqrt(acc / theta.size()), 0.05, 0.01);
}

TEST(Synthesizer, ZeroPhaseNoiseIsTransparent) {
  const pulse::BandPlan plan;
  Synthesizer synth(plan, SynthesizerParams{});
  Rng rng(5);
  CplxVec x(100, cplx{1.0, 0.0});
  synth.apply_phase_noise(x, 1e9, rng);
  for (const auto& v : x) EXPECT_EQ(v, (cplx{1.0, 0.0}));
}

// ---------------------------------------------------------------- notch ----

TEST(ComplexNotch, KillsTargetToneOnly) {
  const double fs = 1e9;
  ComplexNotch notch(120e6, fs, 0.98);
  // Tone at the notch frequency.
  dsp::Nco jam(120e6, fs);
  dsp::Nco want(-200e6, fs);
  CplxVec mixed(20000);
  for (auto& v : mixed) v = jam.step() + want.step();
  notch.process(mixed, fs);
  const dsp::Psd psd = dsp::welch_psd(CplxWaveform(mixed, fs), 1024);
  const double jam_level = psd.density_w_per_hz[psd.bin_of(120e6)];
  const double want_level = psd.density_w_per_hz[psd.bin_of(-200e6)];
  EXPECT_GT(to_db(want_level / std::max(jam_level, 1e-300)), 25.0);
}

TEST(ComplexNotch, ResponseAnalytic) {
  ComplexNotch notch(50e6, 1e9, 0.95);
  EXPECT_LT(std::abs(notch.response_at(50e6)), 1e-9);
  EXPECT_NEAR(std::abs(notch.response_at(-400e6)), 1.0, 0.1);
  EXPECT_GT(notch.bandwidth_3db_hz(), 1e6);
}

TEST(ComplexNotch, TuneMoves) {
  ComplexNotch notch(50e6, 1e9);
  notch.tune(-80e6);
  EXPECT_LT(std::abs(notch.response_at(-80e6)), 1e-9);
  EXPECT_THROW(notch.tune(600e6), InvalidArgument);
}

TEST(RealNotch, SuppressesBothSidebands) {
  const double fs = 2e9;
  RealNotch notch(300e6, 10.0, fs);
  RealVec x(20000);
  for (std::size_t i = 0; i < x.size(); ++i) {
    x[i] = std::cos(two_pi * 300e6 * static_cast<double>(i) / fs);
  }
  const RealWaveform out = notch.process(RealWaveform(x, fs));
  // Post-transient power strongly reduced.
  double tail_power = 0.0;
  for (std::size_t i = 10000; i < out.size(); ++i) tail_power += out[i] * out[i];
  tail_power /= 10000.0;
  EXPECT_LT(tail_power, 0.01);
}

// ------------------------------------------------------------------ agc ----

TEST(Agc, OneShotHitsTarget) {
  AgcParams params;
  params.target_rms = 0.25;
  Agc agc(params);
  Rng rng(6);
  CplxVec x(10000);
  for (auto& v : x) v = rng.cgaussian(4.0);  // rms 2
  CplxWaveform y(x, 1e9);
  agc.one_shot(y.samples());
  EXPECT_NEAR(std::sqrt(y.power()), 0.25, 0.01);
  EXPECT_NEAR(agc.gain_db(), amp_to_db(0.25 / 2.0), 0.2);
}

TEST(Agc, RespectsGainLimits) {
  AgcParams params;
  params.target_rms = 0.25;
  params.max_gain_db = 10.0;
  Agc agc(params);
  CplxVec x(100, cplx{1e-6, 0.0});  // needs ~108 dB of gain
  CplxWaveform y(x, 1e9);
  agc.one_shot(y.samples());
  EXPECT_NEAR(agc.gain_db(), 10.0, 1e-9);
  EXPECT_LT(std::sqrt(y.power()), 0.25);
}

TEST(Agc, TrackingConverges) {
  AgcParams params;
  params.target_rms = 0.25;
  params.window = 128;
  params.step_db = 1.0;
  Agc agc(params);
  Rng rng(7);
  CplxVec x(60000);
  for (auto& v : x) v = rng.cgaussian(1.0);
  const CplxWaveform y = agc.track(CplxWaveform(x, 1e9));
  // Final quarter of the buffer should sit near the target.
  double acc = 0.0;
  for (std::size_t i = 45000; i < 60000; ++i) acc += std::norm(y[i]);
  EXPECT_NEAR(std::sqrt(acc / 15000.0), 0.25, 0.05);
}

// ------------------------------------------------------------- front end ----

TEST(FrontEnd, FriisCascade) {
  // Textbook: 15 dB gain / 3 dB NF LNA followed by a 10 dB NF mixer:
  // F = 2 + (10 - 1)/31.6 = 2.28 -> 3.59 dB.
  const double nf = cascade_noise_figure_db({{"lna", 15.0, 3.0}, {"mixer", 0.0, 10.0}});
  EXPECT_NEAR(nf, 3.59, 0.05);
}

TEST(FrontEnd, FirstStageDominates) {
  const double good_first =
      cascade_noise_figure_db({{"lna", 20.0, 2.0}, {"vga", 10.0, 15.0}});
  const double bad_first =
      cascade_noise_figure_db({{"vga", 10.0, 15.0}, {"lna", 20.0, 2.0}});
  EXPECT_LT(good_first, bad_first - 8.0);
}

TEST(FrontEnd, BasebandPathPreservesSignalShape) {
  const pulse::BandPlan plan;
  FrontEndParams params;
  params.enable_agc = true;
  params.analog_fs = 1e9;
  FrontEnd fe(params, plan);
  Rng rng(8);
  // A clean tone should come through (scaled by AGC) without distortion.
  dsp::Nco tone(30e6, 1e9);
  CplxVec x = tone.generate(4096);
  for (auto& v : x) v *= 1e-3;
  const CplxWaveform y = fe.process_baseband(CplxWaveform(x, 1e9), 0.0, rng);
  EXPECT_NEAR(std::sqrt(y.power()), params.agc.target_rms, 0.02);
}

TEST(FrontEnd, NotchIntegration) {
  const pulse::BandPlan plan;
  FrontEndParams params;
  params.enable_agc = false;
  params.analog_fs = 1e9;
  FrontEnd fe(params, plan);
  fe.set_notch(100e6, 1e9);
  EXPECT_TRUE(fe.notch_enabled());
  Rng rng(9);
  dsp::Nco jam(100e6, 1e9);
  CplxVec x = jam.generate(20000);
  const CplxWaveform y = fe.process_baseband(CplxWaveform(x, 1e9), 0.0, rng);
  // Steady-state jam power crushed.
  double tail = 0.0;
  for (std::size_t i = 10000; i < y.size(); ++i) tail += std::norm(y[i]);
  EXPECT_LT(tail / 10000.0, 0.05);
  fe.clear_notch();
  EXPECT_FALSE(fe.notch_enabled());
}

TEST(FrontEnd, TuneDelegatesToSynthesizer) {
  const pulse::BandPlan plan;
  FrontEnd fe(FrontEndParams{}, plan);
  EXPECT_GT(fe.tune(3), 0.0);
  EXPECT_EQ(fe.channel(), 3);
  EXPECT_GT(fe.system_noise_figure_db(), 3.0);
  EXPECT_LT(fe.system_noise_figure_db(), 12.0);
}


// ------------------------------------------------- limiter factor kernel ----

/// Distance in ulps between two doubles of the same sign.
std::int64_t ulp_distance(double a, double b) {
  std::int64_t ia = 0;
  std::int64_t ib = 0;
  std::memcpy(&ia, &a, sizeof a);
  std::memcpy(&ib, &b, sizeof b);
  return ia > ib ? ia - ib : ib - ia;
}

/// The limiter factor as the LNA computed it per sample before the
/// rational kernel: sat * tanh(m / sat) / m through std::abs and std::tanh,
/// and 1 (the sample passed through) when sat is not positive or
/// m < 1e-300.
double libm_factor(double re, double im, double sat) {
  if (!(sat > 0.0)) return 1.0;
  const double mag = std::abs(cplx(re, im));
  if (mag < 1e-300) return 1.0;
  return sat * std::tanh(mag / sat) / mag;
}

TEST(LnaCompression, FactorWithinFourUlpOfLibmFormula) {
  // Dense u = m / sat grid over the rational's range and past its w > 1
  // fallback, plus 0, tiny u and u = 1, at saturations across the scales
  // the rational takes (1e-280 .. 1e280); each point at its own phase.
  std::vector<double> us;
  for (int k = 0; k <= 40000; ++k) us.push_back(k * 5e-5);  // 0 .. 2
  for (int e = -300; e <= 0; e += 5) us.push_back(std::pow(10.0, e));
  for (int k = 1; k <= 200; ++k) us.push_back(2.0 + k * 0.25);  // .. 52
  for (double d = -4e-16; d <= 4e-16; d += 1e-16) us.push_back(1.0 + d);
  const bool long_double_reference = std::numeric_limits<long double>::digits > 53;
  std::int64_t worst_libm = 0;
  std::int64_t worst_long_double = 0;
  std::size_t fallbacks = 0;
  for (const double sat : {1.0, 0.37, 3.3e-5, 2.2e7, 1e-280, 1e280}) {
    for (std::size_t k = 0; k < us.size(); ++k) {
      const double m = us[k] * sat;
      const double phase = 0.1 + 0.37 * static_cast<double>(k);
      const double re = m * std::cos(phase);
      const double im = m * std::sin(phase);
      const double f = detail::lna_compression_factor(re, im, sat);
      const double ref = libm_factor(re, im, sat);
      worst_libm = std::max(worst_libm, ulp_distance(f, ref));
      ASSERT_LE(ulp_distance(f, ref), 4) << "sat " << sat << " u " << us[k];
      const double w = (re / sat) * (re / sat) + (im / sat) * (im / sat);
      if (w > 1.0 + 1e-12) {
        // The fallback is the libm formula itself.
        ++fallbacks;
        ASSERT_EQ(ulp_distance(f, ref), 0) << "sat " << sat << " u " << us[k];
      } else if (long_double_reference && std::abs(cplx(re, im)) >= 1e-300) {
        const long double ul = std::hypot(static_cast<long double>(re),
                                          static_cast<long double>(im)) /
                               static_cast<long double>(sat);
        const auto truth = static_cast<double>(std::tanh(ul) / ul);
        worst_long_double = std::max(worst_long_double, ulp_distance(f, truth));
      }
    }
  }
  EXPECT_GT(fallbacks, 1000u);
  EXPECT_LE(worst_long_double, 2);
  RecordProperty("worst_ulps_vs_libm", static_cast<int>(worst_libm));
  RecordProperty("worst_ulps_vs_long_double", static_cast<int>(worst_long_double));

  // Edges: sat == 0 (and not positive, or NaN) and zero or subnormal
  // samples pass through with factor exactly 1, as before.
  const double sub = std::numeric_limits<double>::denorm_min();
  for (const double sat : {0.0, -1.0, std::nan(""), 1.0, 1e-280}) {
    for (const cplx x : {cplx(0.0, 0.0), cplx(-0.0, 0.0), cplx(sub, -sub), cplx(1e-310, 0.0)}) {
      EXPECT_EQ(detail::lna_compression_factor(x.real(), x.imag(), sat), 1.0)
          << x << " sat " << sat;
    }
  }
  EXPECT_EQ(detail::lna_compression_factor(3.0, 4.0, 0.0), 1.0);
  // Outside the rational's saturation range the libm formula runs as is.
  for (const double sat : {1e-300, 1e300, std::numeric_limits<double>::infinity()}) {
    const double f = detail::lna_compression_factor(0.3 * sat, 0.1 * sat, sat);
    const double ref = libm_factor(0.3 * sat, 0.1 * sat, sat);
    EXPECT_EQ(std::memcmp(&f, &ref, sizeof f), 0) << "sat " << sat;
  }
}

TEST(IsaDispatch, LnaCompressClonesMatchPortableBytes) {
  const std::vector<Isa> isas = test::supported_isas_or_report_skips();
  Rng rng(41);
  const double inf = std::numeric_limits<double>::infinity();
  const double nan = std::numeric_limits<double>::quiet_NaN();
  const double sub = std::numeric_limits<double>::denorm_min();
  // Samples that stress every branch: signed zeros, subnormals, parts that
  // overflow w, infinities and NaNs, and values either side of the knee.
  const cplx specials[] = {{0.0, 0.0},   {-0.0, 0.0}, {0.0, -0.0},  {sub, -sub},
                           {1e-310, 0},  {1e200, 1},  {-1e200, 0},  {inf, 0.0},
                           {0.0, -inf},  {nan, 1.0},  {1.0, nan},   {2.5, 0.0},
                           {0.0, -2.5},  {1.7, 1.8},  {-2.6, 0.01}, {1e-160, 1e-160}};
  std::size_t lengths[] = {0, 1, 2, 3, 4, 5, 7, 8, 9, 15, 16, 17, 31, 33, 63, 64, 65, 1001};
  for (const std::size_t n : lengths) {
    CplxVec x(n);
    for (std::size_t i = 0; i < n; ++i) {
      x[i] = rng.uniform() < 0.2 ? specials[rng.uniform_int(0, std::size(specials) - 1)]
                                 : rng.cgaussian(2.0);
    }
    for (const double sat : {2.5, 0.4, 0.0, -1.0, nan, 1e-300, 1e290}) {
      const double gain = 5.62;
      CplxVec portable(n);
      detail::lna_compress(Isa::kPortable, x.data(), n, sat, gain, portable.data());
      for (std::size_t i = 0; i < n; ++i) {
        const double f = detail::lna_compression_factor(x[i].real(), x[i].imag(), sat);
        const cplx want(x[i].real() * f * gain, x[i].imag() * f * gain);
        ASSERT_EQ(std::memcmp(&portable[i], &want, sizeof want), 0)
            << "n " << n << " sat " << sat << " i " << i << " x " << x[i];
      }
      for (const Isa isa : isas) {
        CplxVec out(n);
        detail::lna_compress(isa, x.data(), n, sat, gain, out.data());
        EXPECT_EQ(test::first_byte_mismatch(out.data(), portable.data(), n), n)
            << isa_name(isa) << " n " << n << " sat " << sat;
        CplxVec in_place = x;
        detail::lna_compress(isa, in_place.data(), n, sat, gain, in_place.data());
        EXPECT_EQ(test::first_byte_mismatch(in_place.data(), portable.data(), n), n)
            << isa_name(isa) << " in place, n " << n << " sat " << sat;
      }
    }
  }
}

// ------------------------------------------- front-end workspace codes ----

/// The gen-2 front end, sample-and-hold and SAR pair as they ran before the
/// workspace pipeline, kept as the reference: the per-sample std::abs /
/// std::tanh limiter, phase noise through a theta vector, and a separate
/// copy out of every stage. Returns the ADC codes.
CplxVec reference_codes(const CplxWaveform& x, double n0, const FrontEndParams& p,
                        std::optional<double> notch_hz, double jitter_s,
                        const adc::SarParams& sar, std::uint64_t sar_seed, Rng& rng,
                        std::size_t* knee_crossings) {
  const double fs = x.sample_rate();
  // LNA.
  CplxVec y = x.samples();
  const double gain_amp = db_to_amp(p.lna.gain_db);
  const double sigma = std::sqrt(std::max((from_db(p.lna.noise_figure_db) - 1.0) * n0, 0.0));
  double acc = 0.0;
  for (const cplx& v : y) acc += std::norm(v);
  const double rms = y.empty() ? 0.0 : std::sqrt(acc / static_cast<double>(y.size()));
  const double sat = rms * db_to_amp(p.lna.headroom_db);
  for (cplx& v : y) {
    if (sigma > 0.0) v += rng.cgaussian(sigma * sigma);
    if (sat > 0.0) {
      const double mag = std::abs(v);
      if (mag > sat) ++*knee_crossings;
      if (!(mag < 1e-300)) v = v * (sat * std::tanh(mag / sat) / mag);
    }
    v = v * gain_amp;
  }
  // LO phase noise.
  if (p.synth.phase_noise_rms_rad > 0.0 && !y.empty()) {
    RealVec theta(y.size());
    const double a = std::exp(-two_pi * p.synth.loop_bandwidth_hz / fs);
    const double target_var = p.synth.phase_noise_rms_rad * p.synth.phase_noise_rms_rad;
    const double sigma_w = std::sqrt(target_var * (1.0 - a * a));
    double state = rng.gaussian(0.0, p.synth.phase_noise_rms_rad);
    for (double& t : theta) {
      state = a * state + rng.gaussian(0.0, sigma_w);
      t = state;
    }
    for (std::size_t i = 0; i < y.size(); ++i) y[i] *= std::polar(1.0, theta[i]);
  }
  // I/Q impairments.
  if (!p.iq.ideal()) {
    const double half_imb = db_to_amp(p.iq.gain_imbalance_db / 2.0);
    const double gi = half_imb;
    const double gq = 1.0 / half_imb;
    const cplx e_minus = std::polar(1.0, -p.iq.phase_imbalance_rad);
    const cplx e_plus = std::polar(1.0, p.iq.phase_imbalance_rad);
    const cplx a = 0.5 * (gi + gq * e_minus);
    const cplx b = 0.5 * (gi - gq * e_plus);
    const cplx dc(p.iq.dc_offset_i, p.iq.dc_offset_q);
    CplxVec out(y.size());
    for (std::size_t i = 0; i < y.size(); ++i) out[i] = a * y[i] + b * std::conj(y[i]) + dc;
    y = out;
  }
  // Anti-alias FIR.
  y = dsp::convolve_same(y, dsp::design_lowpass(p.baseband_cutoff_hz, fs, p.anti_alias_taps));
  // Notch, from a cleared state.
  if (notch_hz.has_value()) {
    const cplx zero_rot = std::polar(1.0, two_pi * *notch_hz / fs);
    const double r = 0.98;
    cplx state{};
    cplx prev_in{};
    CplxVec out(y.size());
    for (std::size_t i = 0; i < y.size(); ++i) {
      const cplx v = y[i] - zero_rot * prev_in + r * zero_rot * state;
      prev_in = y[i];
      state = v;
      out[i] = v;
    }
    y = out;
  }
  // One-shot AGC.
  if (p.enable_agc) {
    double sum = 0.0;
    for (const cplx& v : y) sum += std::norm(v);
    const double r = y.empty() ? 0.0 : std::sqrt(sum / static_cast<double>(y.size()));
    const double wanted_db = (r > 0.0) ? amp_to_db(p.agc.target_rms / r) : p.agc.max_gain_db;
    const double gain = db_to_amp(std::clamp(wanted_db, p.agc.min_gain_db, p.agc.max_gain_db));
    CplxVec out = y;
    for (cplx& v : out) v *= gain;
    y = out;
  }
  // Sample-and-hold at the SAR rate (1 GS/s).
  const double adc_rate = 1e9;
  const auto n_out =
      static_cast<std::size_t>(std::floor(static_cast<double>(y.size()) / (fs / adc_rate)));
  CplxVec sampled(n_out, cplx{});
  for (std::size_t k = 0; k < n_out; ++k) {
    double t_s = static_cast<double>(k) / adc_rate;
    if (jitter_s > 0.0) t_s += rng.gaussian(0.0, jitter_s);
    const double pos = t_s * fs;
    if (pos < 0.0) continue;
    const auto i0 = static_cast<std::size_t>(pos);
    if (i0 + 1 >= y.size()) break;
    const double frac = pos - static_cast<double>(i0);
    sampled[k] = y[i0] * (1.0 - frac) + y[i0 + 1] * frac;
  }
  Rng sar_rng(sar_seed);
  adc::SarAdc adc_i(sar, sar_rng);
  adc::SarAdc adc_q(sar, sar_rng, adc::SarAdc::kNoiseSaltQ);
  return adc::digitize_iq(sampled, adc_i, adc_q);
}

/// One gen-2 capture at the analog rate: a random 200-bit packet through
/// a fresh channel realization (cm 0 = AWGN), an optional CW interferer
/// 10 dB above the signal at 80 MHz, and AWGN at \p ebn0_db. Returns the
/// capture and its N0.
std::pair<CplxWaveform, double> make_capture(const txrx::Gen2Config& cfg,
                                             const txrx::Gen2Transmitter& tx, int cm,
                                             double ebn0_db, bool interferer, Rng& rng) {
  auto [rx, frame] = tx.transmit(rng.bits(200));
  if (cm >= 1) rx = channel::SalehValenzuela(channel::cm_by_index(cm)).realize(rng).apply(rx);
  rx.pad(static_cast<std::size_t>(64e-9 * cfg.analog_fs));
  if (interferer) channel::add_cw_interferer(rx, 80e6, rx.power(), -10.0, rng);
  const double n0 = channel::n0_for_ebn0(frame.energy_per_bit, ebn0_db);
  channel::add_awgn(rx, n0, rng);
  return {std::move(rx), n0};
}

TEST(FrontEndWorkspace, SarCodesMatchPerSampleReference) {
  // Six front-end configurations: the gen-2 default, LNA excess noise,
  // LO phase noise with aperture jitter, I/Q imbalance with DC offsets,
  // the notch engaged on the interferer, and a 3 dB knee that drives the
  // limiter's w > 1 fallback. Each runs AWGN and CM1-CM4 at 8, 12 and
  // 16 dB, with and without the interferer, two packets each: 360 captures.
  struct Case {
    const char* name;
    FrontEndParams fe;
    std::optional<double> notch_hz;
    double jitter_s = 0.0;
  };
  const txrx::Gen2Config cfg;
  std::vector<Case> cases(6, Case{"", cfg.front_end, std::nullopt, 0.0});
  cases[0].name = "default";
  cases[1].name = "lna noise";
  cases[1].fe.lna.noise_figure_db = 4.0;
  cases[2].name = "phase noise + jitter";
  cases[2].fe.synth.phase_noise_rms_rad = 0.05;
  cases[2].jitter_s = 1e-12;
  cases[3].name = "iq imbalance";
  cases[3].fe.iq.gain_imbalance_db = 0.5;
  cases[3].fe.iq.phase_imbalance_rad = 0.05;
  cases[3].fe.iq.dc_offset_i = 0.01;
  cases[3].fe.iq.dc_offset_q = -0.01;
  cases[4].name = "notch";
  cases[4].notch_hz = 80e6;
  cases[5].name = "3 dB knee";
  cases[5].fe.lna.headroom_db = 3.0;

  const txrx::Gen2Transmitter tx(cfg);
  const pulse::BandPlan plan;
  std::size_t captures = 0;
  std::size_t knee_crossings = 0;
  for (const Case& c : cases) {
    FrontEnd fe(c.fe, plan);  // one workspace across every capture of the case
    if (c.notch_hz.has_value()) fe.set_notch(*c.notch_hz, cfg.analog_fs);
    const adc::SampleAndHold sampler(adc::SamplingParams{cfg.adc_rate, c.jitter_s, 0.0});
    std::uint64_t seed = 1000;
    for (int cm = 0; cm <= 4; ++cm) {
      for (const double ebn0_db : {8.0, 12.0, 16.0}) {
        for (const bool interferer : {false, true}) {
          for (int packet = 0; packet < 2; ++packet, ++seed) {
            Rng capture_rng(seed);
            const auto [x, n0] = make_capture(cfg, tx, cm, ebn0_db, interferer, capture_rng);
            Rng ref_rng(seed + 1);
            const CplxVec want = reference_codes(x, n0, c.fe, c.notch_hz, c.jitter_s, cfg.sar,
                                                 seed, ref_rng, &knee_crossings);

            Rng rng(seed + 1);
            const std::span<const cplx> analog = fe.process(x.samples(), x.sample_rate(), n0, rng);
            CplxVec sampled(sampler.output_size(analog.size(), x.sample_rate()));
            sampler.sample_to(analog.data(), analog.size(), x.sample_rate(), rng, sampled.data());
            Rng sar_rng(seed);
            adc::SarAdc adc_i(cfg.sar, sar_rng);
            adc::SarAdc adc_q(cfg.sar, sar_rng, adc::SarAdc::kNoiseSaltQ);
            CplxVec got(sampled.size());
            adc::digitize_iq_to(sampled.data(), sampled.size(), adc_i, adc_q, got.data());

            ASSERT_EQ(got.size(), want.size());
            ASSERT_EQ(test::first_byte_mismatch(got.data(), want.data(), got.size()), got.size())
                << c.name << ", cm " << cm << ", " << ebn0_db << " dB, interferer "
                << interferer << ", packet " << packet;
            ++captures;
          }
        }
      }
    }
  }
  EXPECT_EQ(captures, 360u);
  EXPECT_GT(knee_crossings, 0u);  // the fallback ran
}

TEST(FrontEndWorkspace, WarmedReceiverDigitizesWithoutAllocating) {
  txrx::Gen2Config cfg;
  cfg.front_end.lna.noise_figure_db = 3.0;
  cfg.front_end.synth.phase_noise_rms_rad = 0.02;
  cfg.front_end.iq.gain_imbalance_db = 0.3;
  const txrx::Gen2Transmitter tx(cfg);
  Rng part(7);
  txrx::Gen2Receiver receiver(cfg, part);

  Rng capture_rng(8);
  const auto [big, n0_big] = make_capture(cfg, tx, 4, 12.0, true, capture_rng);
  const auto [small, n0_small] = make_capture(cfg, tx, 0, 12.0, false, capture_rng);
  ASSERT_GT(big.size(), small.size());

  // The receiver's digitize() is the reference chain's codes...
  Rng rng(9);
  const CplxWaveform& codes = receiver.digitize(big, n0_big, rng);
  std::size_t knee_crossings = 0;
  Rng ref_rng(9);
  const CplxVec want = reference_codes(big, n0_big, cfg.front_end, std::nullopt, 0.0, cfg.sar,
                                       7, ref_rng, &knee_crossings);
  ASSERT_EQ(codes.size(), want.size());
  EXPECT_EQ(test::first_byte_mismatch(codes.samples().data(), want.data(), want.size()),
            want.size());
  EXPECT_EQ(codes.sample_rate(), cfg.adc_rate);

  // ...and once the workspace has grown, a call allocates nothing, for the
  // same capture or a shorter one.
  for (const auto* capture : {&big, &small}) {
    Rng again(10);
    g_allocs.store(0);
    g_count_allocs.store(true);
    const CplxWaveform& out = receiver.digitize(*capture, n0_small, again);
    g_count_allocs.store(false);
    EXPECT_EQ(g_allocs.load(), 0u) << "capture of " << capture->size() << " samples";
    EXPECT_FALSE(out.empty());
  }
}

}  // namespace
}  // namespace uwb::rf
