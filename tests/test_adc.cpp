// Tests for the data-converter models: uniform quantizer, flash,
// time-interleaved flash (gen-1), SAR (gen-2), sample-and-hold.

#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <cstdint>
#include <cstring>
#include <limits>
#include <string>
#include <utility>
#include <vector>

#include "common/error.h"
#include "common/isa.h"
#include "adc/flash_adc.h"
#include "adc/quantizer.h"
#include "adc/sampling.h"
#include "adc/sar_adc.h"
#include "common/math_utils.h"
#include "common/rng.h"
#include "isa_clones.h"

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
    if (k > 0) {
      EXPECT_GE(th[k], th[k - 1]);
    }
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
  const std::vector<Isa> isas = test::supported_isas_or_report_skips();
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

// A range conversion writes the slice of a whole-stream conversion from
// lane 0, on every ladder clone, from any start sample and for any length,
// and leaves the lane counter where it was.
TEST(TimeInterleaved, FloatRangeMatchesWholeStreamSliceOnEveryClone) {
  const std::vector<Isa> isas = test::supported_isas_or_report_skips();
  Rng rng(21);
  FlashParams lane;
  lane.bits = 4;
  lane.comparator_offset_sigma = 0.3;
  TimeInterleavedAdc adc(4, lane, InterleaveMismatch{0.02, 0.01, 0.0}, rng);

  std::vector<float> x;
  for (std::size_t l = 0; l < 4; ++l) {
    for (const float v : crossings_on_lane(adc, l)) x.push_back(v);
  }
  while (x.size() < 1500) x.push_back(static_cast<float>(rng.gaussian(0.0, 0.6)));
  std::vector<float> whole(x.size());
  adc.reset();
  detail::convert_block(adc, Isa::kPortable, x.data(), x.size(), whole.data());

  std::vector<float> got(x.size());
  for (int trial = 0; trial < 300; ++trial) {
    const auto first = static_cast<std::size_t>(rng.uniform_int(0, static_cast<int>(x.size())));
    const auto count =
        static_cast<std::size_t>(rng.uniform_int(0, static_cast<int>(x.size() - first)));
    for (const Isa isa : isas) {
      std::fill(got.begin(), got.end(), -9.0f);
      detail::convert_block(std::as_const(adc), isa, x.data() + first, first, count,
                            got.data());
      ASSERT_EQ(test::first_byte_mismatch(got.data(), whole.data() + first, count), count)
          << isa_name(isa) << ", first " << first << ", count " << count;
      if (count < got.size()) {
        EXPECT_EQ(got[count], -9.0f) << "wrote past count";
      }
    }
    adc.convert_block(x.data() + first, first, count, got.data());
    ASSERT_EQ(test::first_byte_mismatch(got.data(), whole.data() + first, count), count)
        << "host clone, first " << first << ", count " << count;
  }
  // The counter still starts the stateful form on lane 0.
  float one = 0.0f;
  adc.reset();
  adc.convert_block(x.data() + 5, 5, 3, got.data());
  adc.convert_block(x.data() + 1, 1, &one);
  float lane0 = 0.0f;
  adc.reset();
  detail::convert_block(adc, Isa::kPortable, x.data() + 1, 1, &lane0);
  EXPECT_EQ(std::memcmp(&one, &lane0, sizeof one), 0);
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

/// The bit-serial SAR the table-driven SarAdc replaced, kept as the byte
/// reference: one data-dependent decision per bit, and a level that loops
/// over the code's bits again.
class BitSerialSar {
 public:
  BitSerialSar(const SarParams& params, Rng& rng, std::uint64_t noise_salt)
      : params_(params), noise_rng_(rng.fork(noise_salt)) {
    weights_.resize(static_cast<std::size_t>(params.bits));
    double nominal = params.full_scale;
    for (int k = 0; k < params.bits; ++k) {
      const double units = std::pow(2.0, params.bits - 1 - k);
      const double rel_sigma = params.cap_mismatch_sigma / std::sqrt(units);
      weights_[static_cast<std::size_t>(k)] = nominal * (1.0 + rng.gaussian(0.0, rel_sigma));
      nominal /= 2.0;
    }
  }

  int convert(double x) {
    double dac = -params_.full_scale;
    int code = 0;
    for (int k = 0; k < params_.bits; ++k) {
      const double trial = dac + weights_[static_cast<std::size_t>(k)];
      double decision_input = x;
      if (params_.comparator_noise > 0.0) {
        decision_input += noise_rng_.gaussian(0.0, params_.comparator_noise);
      }
      if (decision_input >= trial) {
        dac = trial;
        code |= 1 << (params_.bits - 1 - k);
      }
    }
    return code;
  }

  double level_of(int code) const {
    double v = -params_.full_scale;
    for (int k = 0; k < params_.bits; ++k) {
      if (code & (1 << (params_.bits - 1 - k))) v += weights_[static_cast<std::size_t>(k)];
    }
    return v + weights_.back() / 2.0;
  }

  /// Every comparator threshold the search can meet, summed in its order.
  RealVec thresholds() const {
    RealVec out;
    for (int k = 0; k < params_.bits; ++k) {
      for (int prefix = 0; prefix < (1 << k); ++prefix) {
        double dac = -params_.full_scale;
        for (int j = 0; j < k; ++j) {
          if (prefix & (1 << (k - 1 - j))) dac += weights_[static_cast<std::size_t>(j)];
        }
        out.push_back(dac + weights_[static_cast<std::size_t>(k)]);
      }
    }
    return out;
  }

  const RealVec& weights() const { return weights_; }

 private:
  SarParams params_;
  RealVec weights_;
  Rng noise_rng_;
};

/// Inputs on, and one ulp either side of, every threshold, plus the values
/// whose comparisons are special: signed zeros, infinities, NaN and
/// magnitudes far past full scale.
RealVec sar_probe_inputs(const RealVec& thresholds) {
  constexpr double kInf = std::numeric_limits<double>::infinity();
  RealVec x = {0.0, -0.0, kInf, -kInf, std::numeric_limits<double>::quiet_NaN(), 1e300, -1e300};
  for (const double t : thresholds) {
    x.push_back(t);
    x.push_back(std::nextafter(t, kInf));
    x.push_back(std::nextafter(t, -kInf));
  }
  return x;
}

TEST(SarAdc, TablesMatchBitSerialReferenceBytes) {
  const int bit_counts[] = {1, 2, 3, 4, 5, 6, 7, 8, 9, 10, 16};
  const double mismatches[] = {0.0, 0.01, 0.05};
  const double noises[] = {0.0, 0.02};
  std::uint64_t seed = 300;
  for (const int bits : bit_counts) {
    for (const double mismatch : mismatches) {
      for (const double noise : noises) {
        const SarParams params{bits, 1.0, mismatch, noise};
        Rng rng(++seed);
        Rng ref_rng = rng;
        SarAdc sar(params, rng);
        BitSerialSar ref(params, ref_rng, SarAdc::kNoiseSaltI);
        const std::string where = "bits " + std::to_string(bits) + ", mismatch " +
                                  std::to_string(mismatch) + ", noise " + std::to_string(noise);
        ASSERT_EQ(test::first_byte_mismatch(sar.weights().data(), ref.weights().data(),
                                            ref.weights().size()),
                  ref.weights().size())
            << where;

        // Same inputs in the same order: with comparator noise both draw one
        // sample per decision, so the codes must agree draw for draw.
        const RealVec inputs = sar_probe_inputs(ref.thresholds());
        for (const double x : inputs) {
          ASSERT_EQ(sar.convert(x), ref.convert(x)) << where << ", x " << x;
        }

        const int num_codes = 1 << bits;
        std::vector<int> codes = {-1, num_codes, -num_codes - 3, std::numeric_limits<int>::min(),
                                  std::numeric_limits<int>::max()};
        for (int c = 0; c < num_codes; ++c) codes.push_back(c);
        for (const int code : codes) {
          const double got = sar.level_of(code);
          const double want = ref.level_of(code);
          ASSERT_EQ(std::memcmp(&got, &want, sizeof(double)), 0)
              << where << ", code " << code << ": " << got << " vs " << want;
        }
      }
    }
  }
}

TEST(SarAdc, PairDigitizeMatchesGenericBytes) {
  // digitize_iq on a SarAdc pair runs the noiseless walks inlined; it must
  // write what the Adc& loop writes, noise on either rail included.
  Rng input_rng(14);
  CplxVec x(3000);
  for (auto& v : x) v = input_rng.cgaussian(0.5);
  x[5] = cplx(std::numeric_limits<double>::quiet_NaN(), -0.0);
  x[6] = cplx(std::numeric_limits<double>::infinity(), -1e300);
  for (const double noise_i : {0.0, 0.02}) {
    for (const double noise_q : {0.0, 0.03}) {
      const SarParams params_i{5, 1.0, 0.01, noise_i};
      const SarParams params_q{5, 1.0, 0.01, noise_q};
      Rng rng(15);
      Rng rng_generic = rng;
      SarAdc adc_i(params_i, rng, SarAdc::kNoiseSaltI);
      SarAdc adc_q(params_q, rng, SarAdc::kNoiseSaltQ);
      SarAdc generic_i(params_i, rng_generic, SarAdc::kNoiseSaltI);
      SarAdc generic_q(params_q, rng_generic, SarAdc::kNoiseSaltQ);
      for (int rep = 0; rep < 2; ++rep) {  // the noise streams carry on
        const CplxVec got = digitize_iq(x, adc_i, adc_q);
        const CplxVec want =
            digitize_iq(x, static_cast<Adc&>(generic_i), static_cast<Adc&>(generic_q));
        ASSERT_EQ(test::first_byte_mismatch(got.data(), want.data(), x.size()), x.size())
            << "noise " << noise_i << "/" << noise_q << ", rep " << rep;
      }
    }
  }
}

TEST(SarAdc, ConvertersOnOneRngDrawSeparateComparatorNoise) {
  // The gen-2 receiver builds its I and Q converters from one Rng, as here.
  SarParams params;
  params.cap_mismatch_sigma = 0.0;
  params.comparator_noise = 0.02;
  Rng rng(12);
  Rng ref_rng = rng;
  SarAdc adc_i(params, rng, SarAdc::kNoiseSaltI);
  SarAdc adc_q(params, rng, SarAdc::kNoiseSaltQ);
  // The I stream and both sets of mismatch draws are the ones a converter
  // built with the default salt makes.
  BitSerialSar ref_i(params, ref_rng, SarAdc::kNoiseSaltI);
  BitSerialSar ref_q(params, ref_rng, SarAdc::kNoiseSaltQ);
  EXPECT_EQ(adc_i.weights(), ref_i.weights());
  EXPECT_EQ(adc_q.weights(), ref_q.weights());

  Rng input_rng(13);
  int same = 0;
  const int n = 2000;
  for (int i = 0; i < n; ++i) {
    const double x = input_rng.uniform(-1.0, 1.0);
    const int code_i = adc_i.convert(x);
    const int code_q = adc_q.convert(x);
    EXPECT_EQ(code_i, ref_i.convert(x));
    EXPECT_EQ(code_q, ref_q.convert(x));
    same += code_i == code_q ? 1 : 0;
  }
  // Independent noise of 0.02 V rms against a 1/16 V LSB flips a fair share
  // of codes between the rails; a shared stream would flip none.
  EXPECT_LT(same, n - 100);
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

/// Samples outputs [first, first + count) from \p plan with a fresh Rng of
/// \p seed (what a whole-capture call with the same seed draws first),
/// handing over only the capture's input_range() of them, from its first
/// sample on, with every other sample poisoned.
std::vector<float> sample_range(const InterleavedPlan& plan, const std::vector<float>& x,
                                std::uint64_t seed, std::size_t first, std::size_t count) {
  const auto [lo, hi] = plan.input_range(first, count);
  EXPECT_LE(lo, hi);
  EXPECT_LE(hi, x.size());
  std::vector<float> window(x.size(), std::numeric_limits<float>::quiet_NaN());
  std::copy(x.begin() + static_cast<std::ptrdiff_t>(lo),
            x.begin() + static_cast<std::ptrdiff_t>(hi),
            window.begin() + static_cast<std::ptrdiff_t>(lo));
  Rng rng(seed);
  std::vector<float> out(count + 1, -9.0f);
  plan.sample(window.data() + lo, lo, rng, first, count, out.data());
  EXPECT_EQ(out[count], -9.0f) << "wrote past count";
  out.pop_back();
  return out;
}

// One plan per capture samples the slice of a whole-capture call for
// random ranges on every path -- the integer-ratio lane path, the general
// jitter-free path, no lanes, and aperture jitter (same seed) -- including
// the head and tail where an instant before the input or past its last
// sample leaves a zero, and reads nothing outside the range's
// input_range().
TEST(SampleAndHold, RangeMatchesWholeCaptureSlice) {
  Rng gen(31);
  std::vector<float> x(4001);
  for (float& v : x) v = static_cast<float>(gen.gaussian(0.0, 1.0));
  struct Case {
    const char* name;
    double fs;
    SamplingParams params;
    RealVec skews;
  };
  // Early instants leave zeros at the head, late ones at the tail. In the
  // fractional late case lane 1 runs past the input at output 1597 while
  // lane 2's output 1598 would still fit: the whole-capture loop has
  // stopped by then, and a range from 1598 must stop too.
  const Case cases[] = {
      {"integer ratio, early lanes", 4e9, {2e9, 0.0, -0.3e-9}, {0.0, 0.2e-9, -0.45e-9, 0.1e-9}},
      {"integer ratio, late lanes", 4e9, {2e9, 0.0, 1.0e-9}, {0.0, 0.1e-9, 0.3e-9, -0.2e-9}},
      {"fractional ratio, early lanes", 5e9, {2e9, 0.0, -0.2e-9}, {0.0, 0.3e-9, -0.3e-9, 0.1e-9}},
      {"fractional ratio, late lanes", 5e9, {2e9, 0.0, 1.4e-9}, {0.0, 0.3e-9, -0.6e-9, 0.1e-9}},
      {"fractional ratio, no lanes", 3e9, {2e9, 0.0, 0.7e-9}, {}},
      {"aperture jitter, lanes", 4e9, {2e9, 5e-12, -0.1e-9}, {0.0, 0.2e-9, -0.3e-9, 1e-12}},
  };
  for (const Case& c : cases) {
    const SampleAndHold sh(c.params);
    const std::size_t n_out = sh.output_size(x.size(), c.fs);
    std::vector<float> whole(n_out);
    Rng rng(77);
    ASSERT_EQ(sh.sample_interleaved_to(x.data(), x.size(), c.fs, c.skews, rng, whole.data()),
              n_out);
    ASSERT_TRUE(whole.front() == 0.0f || whole.back() == 0.0f)
        << c.name << ": neither a head nor a tail zero";
    const InterleavedPlan plan = sh.plan_interleaved(x.size(), c.fs, c.skews);
    ASSERT_EQ(plan.output_size(), n_out);
    std::vector<std::pair<std::size_t, std::size_t>> ranges = {
        {0, n_out}, {0, 3}, {n_out - 5, 5}, {n_out - 2, 2}, {n_out, 0}, {1, n_out - 1}};
    for (int t = 0; t < 60; ++t) {
      const auto first = static_cast<std::size_t>(gen.uniform_int(0, static_cast<int>(n_out)));
      const auto longest = static_cast<int>(std::min<std::size_t>(n_out - first, 40));
      ranges.emplace_back(first, static_cast<std::size_t>(gen.uniform_int(0, longest)));
    }
    for (const auto& [first, count] : ranges) {
      const std::vector<float> got = sample_range(plan, x, 77, first, count);
      EXPECT_EQ(test::first_byte_mismatch(got.data(), whole.data() + first, count), count)
          << c.name << ", first " << first << ", count " << count;
    }
  }
}

// input_range() is tight: within a few samples of the instants the range
// samples, and the whole capture only under aperture jitter.
TEST(SampleAndHold, InputRangeIsTight) {
  const RealVec skews = {0.0, 0.2e-9, -0.45e-9, 0.3e-9};
  for (const double fs : {4e9, 5e9}) {
    const SampleAndHold sh({2e9, 0.0, 0.1e-9});
    const InterleavedPlan plan = sh.plan_interleaved(3000, fs, skews);
    const double ratio = fs / 2e9;
    for (std::size_t first = 0; first + 16 <= plan.output_size(); first += 37) {
      const auto [lo, hi] = plan.input_range(first, 16);
      EXPECT_GE(static_cast<double>(lo), static_cast<double>(first) * ratio - 8.0);
      EXPECT_LE(static_cast<double>(hi), static_cast<double>(first + 15) * ratio + 8.0);
    }
  }
  const SampleAndHold jittery({2e9, 1e-12, 0.0});
  const InterleavedPlan plan = jittery.plan_interleaved(3000, 4e9, skews);
  EXPECT_EQ(plan.input_range(100, 10), (std::pair<std::size_t, std::size_t>{0, 3000}));
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
