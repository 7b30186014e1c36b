// Tests for the data-converter models: uniform quantizer, flash,
// time-interleaved flash (gen-1), SAR (gen-2), sample-and-hold.

#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <cstring>
#include <iostream>
#include <string>
#include <vector>

#include "common/error.h"
#include "common/isa.h"
#include "adc/flash_adc.h"
#include "adc/quantizer.h"
#include "adc/sampling.h"
#include "adc/sar_adc.h"
#include "common/math_utils.h"
#include "common/rng.h"

namespace uwb::adc {
namespace {

// -------------------------------------------------------------- uniform ----

TEST(UniformQuantizer, CodesAndLevels) {
  UniformQuantizer q(2, 1.0);  // 4 codes over [-1, 1], LSB 0.5
  EXPECT_DOUBLE_EQ(q.lsb(), 0.5);
  EXPECT_EQ(q.convert(-2.0), 0);  // clipped low
  EXPECT_EQ(q.convert(-0.9), 0);
  EXPECT_EQ(q.convert(-0.3), 1);
  EXPECT_EQ(q.convert(0.3), 2);
  EXPECT_EQ(q.convert(0.9), 3);
  EXPECT_EQ(q.convert(2.0), 3);   // clipped high
  EXPECT_DOUBLE_EQ(q.level_of(0), -0.75);
  EXPECT_DOUBLE_EQ(q.level_of(3), 0.75);
}

TEST(UniformQuantizer, OneBitIsSignDetector) {
  UniformQuantizer q(1, 1.0);
  EXPECT_EQ(q.convert(-0.01), 0);
  EXPECT_EQ(q.convert(0.01), 1);
  EXPECT_DOUBLE_EQ(q.level_of(0), -0.5);
  EXPECT_DOUBLE_EQ(q.level_of(1), 0.5);
}

TEST(UniformQuantizer, SqnrTracksSixDbPerBit) {
  // Quantize a full-scale sine and check the 6.02 b + 1.76 dB law.
  Rng rng(1);
  for (int bits : {4, 6, 8}) {
    UniformQuantizer q(bits, 1.0);
    double sig = 0.0, err = 0.0;
    const std::size_t n = 100000;
    for (std::size_t i = 0; i < n; ++i) {
      const double x = std::sin(two_pi * static_cast<double>(i) * 0.013771);
      const double y = q.level_of(q.convert(x));
      sig += x * x;
      err += (y - x) * (y - x);
    }
    const double sqnr_db = to_db(sig / err);
    EXPECT_NEAR(sqnr_db, ideal_sqnr_db(bits), 1.0) << "bits=" << bits;
  }
}

TEST(UniformQuantizer, RejectsBadConfig) {
  EXPECT_THROW(UniformQuantizer(0, 1.0), InvalidArgument);
  EXPECT_THROW(UniformQuantizer(4, -1.0), InvalidArgument);
}

TEST(UniformQuantizer, DigitizeIq) {
  UniformQuantizer qi(8, 1.0), qq(8, 1.0);
  const CplxVec x = {{0.5, -0.25}};
  const CplxVec y = digitize_iq(x, qi, qq);
  EXPECT_NEAR(y[0].real(), 0.5, qi.lsb());
  EXPECT_NEAR(y[0].imag(), -0.25, qi.lsb());
}

// ---------------------------------------------------------------- flash ----

TEST(FlashAdc, IdealMatchesUniform) {
  Rng rng(2);
  FlashParams params;
  params.bits = 4;
  params.comparator_offset_sigma = 0.0;
  FlashAdc flash(params, rng);
  UniformQuantizer ref(4, 1.0);
  for (double x = -1.2; x <= 1.2; x += 0.01) {
    EXPECT_EQ(flash.convert(x), ref.convert(x)) << "x=" << x;
  }
}

TEST(FlashAdc, OffsetsPerturbThresholds) {
  Rng rng(3);
  FlashParams params;
  params.bits = 4;
  params.comparator_offset_sigma = 0.3;
  FlashAdc flash(params, rng);
  // Thresholds stay sorted (bubble-corrected) but differ from nominal.
  const RealVec& th = flash.thresholds();
  bool any_moved = false;
  const double lsb = 2.0 / 16.0;
  for (std::size_t k = 0; k < th.size(); ++k) {
    if (k > 0) EXPECT_GE(th[k], th[k - 1]);
    const double nominal = -1.0 + static_cast<double>(k + 1) * lsb;
    if (std::abs(th[k] - nominal) > 1e-6) any_moved = true;
  }
  EXPECT_TRUE(any_moved);
}

TEST(FlashAdc, TransferIsMonotone) {
  Rng rng(4);
  FlashParams params;
  params.bits = 5;
  params.comparator_offset_sigma = 0.5;
  FlashAdc flash(params, rng);
  int prev = flash.convert(-1.5);
  for (double x = -1.5; x <= 1.5; x += 0.003) {
    const int code = flash.convert(x);
    EXPECT_GE(code, prev);
    prev = code;
  }
}

// ------------------------------------------------------- time-interleaved ----

TEST(TimeInterleaved, RoundRobinLanes) {
  Rng rng(5);
  FlashParams lane;
  lane.bits = 4;
  InterleaveMismatch mm;
  mm.offset_sigma = 0.2;  // large, to tell lanes apart
  TimeInterleavedAdc adc(4, lane, mm, rng);
  EXPECT_EQ(adc.num_lanes(), 4);
  // Constant input: codes repeat with period 4 (per-lane offsets differ).
  std::vector<int> codes;
  for (int i = 0; i < 16; ++i) codes.push_back(adc.convert(0.0));
  for (int i = 0; i < 12; ++i) EXPECT_EQ(codes[i], codes[i + 4]);
}

TEST(TimeInterleaved, MismatchCreatesSpurs) {
  // A pure tone through a gain-mismatched interleaved ADC grows tones at
  // fs/M offsets; total error power exceeds the matched case.
  Rng rng(6);
  FlashParams lane;
  lane.bits = 8;
  InterleaveMismatch matched{0.0, 0.0, 0.0};
  InterleaveMismatch mismatched{0.05, 0.02, 0.0};
  TimeInterleavedAdc good(4, lane, matched, rng);
  TimeInterleavedAdc bad(4, lane, mismatched, rng);

  double err_good = 0.0, err_bad = 0.0;
  for (int i = 0; i < 20000; ++i) {
    const double x = 0.8 * std::sin(two_pi * 0.137 * i);
    err_good += std::pow(good.level_of(good.convert(x)) - x, 2);
    err_bad += std::pow(bad.level_of(bad.convert(x)) - x, 2);
  }
  EXPECT_GT(err_bad, 3.0 * err_good);
}

TEST(TimeInterleaved, ResetRestartsLaneZero) {
  Rng rng(7);
  FlashParams lane;
  lane.bits = 4;
  InterleaveMismatch mm;
  mm.offset_sigma = 0.2;
  TimeInterleavedAdc adc(4, lane, mm, rng);
  const int first = adc.convert(0.3);
  (void)adc.convert(0.3);
  adc.reset();
  EXPECT_EQ(adc.convert(0.3), first);
}

/// Level of one sample \p v converted on lane \p lane, through the
/// per-sample path (single-sample calls never form a block).
float level_on_lane(TimeInterleavedAdc& adc, std::size_t lane, float v) {
  float out = 0.0f;
  adc.reset();
  for (std::size_t k = 0; k <= lane; ++k) adc.convert_block(&v, 1, &out);
  return out;
}

/// Float inputs right at lane \p lane's comparator crossings: for every
/// level step in [-1.25, 1.25], the last float below it, the first at or
/// above it, and their outer neighbours. Here a*b + c rounded once (a fused
/// multiply-add) and rounded twice can fall on different sides of a
/// threshold, so a contracted clone shows up as a changed level.
std::vector<float> crossings_on_lane(TimeInterleavedAdc& adc, std::size_t lane) {
  std::vector<float> out;
  const int kGrid = 4096;
  float prev = -1.25f;
  for (int g = 1; g <= kGrid; ++g) {
    const auto next = static_cast<float>(-1.25 + 2.5 * g / kGrid);
    if (level_on_lane(adc, lane, prev) != level_on_lane(adc, lane, next)) {
      float lo = prev, hi = next;
      while (true) {
        const auto mid = static_cast<float>((static_cast<double>(lo) + hi) / 2.0);
        if (mid == lo || mid == hi) break;
        (level_on_lane(adc, lane, mid) == level_on_lane(adc, lane, lo) ? lo : hi) = mid;
      }
      out.insert(out.end(), {std::nextafter(lo, -2.0f), lo, hi, std::nextafter(hi, 2.0f)});
    }
    prev = next;
  }
  return out;
}

// ISA dispatch: every ladder clone of the float block converter writes the
// bytes of the per-sample loop, from any start lane and for any length.
TEST(TimeInterleaved, FloatBlockClonesMatchPerSampleLoop) {
  std::vector<Isa> isas;
  for (const Isa isa : kAllIsas) {
    if (isa_supported(isa)) {
      isas.push_back(isa);
    } else {
      std::cout << "[ SKIPPED ISA ] " << isa_name(isa) << ": not supported by this host\n";
      RecordProperty(std::string("skipped_isa_") + isa_name(isa), "unsupported");
    }
  }
  Rng rng(12);
  FlashParams lane;
  lane.bits = 4;
  lane.comparator_offset_sigma = 0.3;
  TimeInterleavedAdc adc(4, lane, InterleaveMismatch{0.02, 0.01, 0.0}, rng);

  // Sample i lands on lane i % 4 from start lane 0: feed each lane its own
  // crossings, then signed zeros, overloads and plain noise.
  std::vector<std::vector<float>> per_lane;
  std::size_t longest = 0;
  for (std::size_t l = 0; l < 4; ++l) {
    per_lane.push_back(crossings_on_lane(adc, l));
    longest = std::max(longest, per_lane.back().size());
  }
  std::vector<float> x;
  for (std::size_t k = 0; k < longest; ++k) {
    for (std::size_t l = 0; l < 4; ++l) {
      x.push_back(k < per_lane[l].size() ? per_lane[l][k] : 0.0f);
    }
  }
  ASSERT_GE(x.size(), 4u * 15u * 4u);  // every lane has its 15 steps
  for (const float v : {-0.0f, 0.0f, 2.5f, -2.5f}) x.push_back(v);
  while (x.size() % 16 != 7) x.push_back(static_cast<float>(rng.gaussian(0.0, 0.5)));

  for (const std::size_t start_lane : {0, 1, 3}) {
    for (const std::size_t n : {std::size_t{0}, std::size_t{1}, std::size_t{3}, std::size_t{4},
                                std::size_t{17}, x.size() - 4}) {
      std::vector<float> ref(n + 1), got(n + 1), lead(start_lane);
      adc.reset();
      adc.convert_block(x.data(), start_lane, lead.data());
      for (std::size_t i = 0; i <= n; ++i) adc.convert_block(x.data() + i, 1, ref.data() + i);
      for (const Isa isa : isas) {
        adc.reset();
        adc.convert_block(x.data(), start_lane, lead.data());
        detail::convert_block(adc, isa, x.data(), n, got.data());
        adc.convert_block(x.data() + n, 1, got.data() + n);  // lane state carried on
        EXPECT_EQ(std::memcmp(got.data(), ref.data(), (n + 1) * sizeof(float)), 0)
            << isa_name(isa) << ", start lane " << start_lane << ", n " << n;
      }
    }
  }
}

// ------------------------------------------------------------------ sar ----

TEST(SarAdc, IdealMatchesUniform) {
  Rng rng(8);
  SarParams params;
  params.bits = 5;
  params.cap_mismatch_sigma = 0.0;
  params.comparator_noise = 0.0;
  SarAdc sar(params, rng);
  UniformQuantizer ref(5, 1.0);
  for (double x = -1.1; x <= 1.1; x += 0.007) {
    EXPECT_EQ(sar.convert(x), ref.convert(x)) << "x=" << x;
  }
}

TEST(SarAdc, FiveBitPaperConfigResolves) {
  Rng rng(9);
  SarParams params;  // default: 5 bits, 1% mismatch
  SarAdc sar(params, rng);
  // Reconstruction error bounded by ~1 LSB even with mismatch.
  const double lsb = 2.0 / 32.0;
  for (double x = -0.95; x <= 0.95; x += 0.01) {
    const double y = sar.level_of(sar.convert(x));
    EXPECT_NEAR(y, x, 1.5 * lsb) << "x=" << x;
  }
}

TEST(SarAdc, MismatchDegradesLinearity) {
  Rng rng(10);
  SarParams good;
  good.bits = 8;
  good.cap_mismatch_sigma = 0.0;
  SarParams bad = good;
  bad.cap_mismatch_sigma = 0.05;
  SarAdc sar_good(good, rng), sar_bad(bad, rng);
  double err_good = 0.0, err_bad = 0.0;
  for (double x = -0.99; x <= 0.99; x += 0.001) {
    err_good += std::pow(sar_good.level_of(sar_good.convert(x)) - x, 2);
    err_bad += std::pow(sar_bad.level_of(sar_bad.convert(x)) - x, 2);
  }
  EXPECT_GT(err_bad, err_good);
}

TEST(SarAdc, ComparatorNoiseFlipsLsbs) {
  Rng rng(11);
  SarParams noisy;
  noisy.bits = 5;
  noisy.comparator_noise = 0.02;
  SarAdc sar(noisy, rng);
  // Converting the same mid-scale value repeatedly should not always give
  // the same code when the comparator is noisy near a threshold.
  const double x = 1.0 / 32.0;  // exactly on a threshold region
  int first = sar.convert(x);
  bool varied = false;
  for (int i = 0; i < 200; ++i) {
    if (sar.convert(x) != first) {
      varied = true;
      break;
    }
  }
  EXPECT_TRUE(varied);
}

// --------------------------------------------------------------- sampling ----

TEST(SampleAndHold, IntegerDecimation) {
  SamplingParams params;
  params.adc_rate_hz = 1e9;
  SampleAndHold sh(params);
  Rng rng(12);
  RealVec x(100);
  for (std::size_t i = 0; i < x.size(); ++i) x[i] = static_cast<double>(i);
  const RealWaveform y = sh.sample(RealWaveform(x, 4e9), rng);
  EXPECT_DOUBLE_EQ(y.sample_rate(), 1e9);
  ASSERT_GE(y.size(), 24u);
  EXPECT_DOUBLE_EQ(y[0], 0.0);
  EXPECT_DOUBLE_EQ(y[1], 4.0);
  EXPECT_DOUBLE_EQ(y[2], 8.0);
}

TEST(SampleAndHold, PhaseOffsetInterpolates) {
  SamplingParams params;
  params.adc_rate_hz = 1e9;
  params.phase_offset_s = 0.125e-9;  // half an input sample at 4 GHz
  SampleAndHold sh(params);
  Rng rng(13);
  RealVec x(100);
  for (std::size_t i = 0; i < x.size(); ++i) x[i] = static_cast<double>(i);
  const RealWaveform y = sh.sample(RealWaveform(x, 4e9), rng);
  EXPECT_NEAR(y[1], 4.5, 1e-9);
}

TEST(SampleAndHold, JitterAddsNoiseOnFastSignal) {
  SamplingParams clean;
  clean.adc_rate_hz = 1e9;
  SamplingParams jittery = clean;
  jittery.aperture_jitter_rms_s = 20e-12;
  Rng rng_a(14), rng_b(14);
  RealVec x(40000);
  for (std::size_t i = 0; i < x.size(); ++i) {
    x[i] = std::sin(two_pi * 400e6 * static_cast<double>(i) / 4e9);
  }
  const RealWaveform y0 = SampleAndHold(clean).sample(RealWaveform(x, 4e9), rng_a);
  const RealWaveform y1 = SampleAndHold(jittery).sample(RealWaveform(x, 4e9), rng_b);
  double err = 0.0;
  const std::size_t n = std::min(y0.size(), y1.size());
  for (std::size_t i = 0; i < n; ++i) err += std::pow(y0[i] - y1[i], 2);
  // Jitter * 2 pi f * A: sigma ~ 2pi*400e6*20e-12 = 0.05 -> var ~ 2.5e-3 ... 1e-2.
  EXPECT_GT(err / n, 5e-4);
  EXPECT_LT(err / n, 5e-2);
}

TEST(SampleAndHold, RejectsUpsampling) {
  SamplingParams params;
  params.adc_rate_hz = 4e9;
  SampleAndHold sh(params);
  Rng rng(15);
  EXPECT_THROW((void)sh.sample(RealWaveform(RealVec(10, 0.0), 1e9), rng), Error);
}

}  // namespace
}  // namespace uwb::adc
