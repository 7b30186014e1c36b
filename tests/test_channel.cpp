// Tests for the channel models: CIR container, Saleh-Valenzuela CM1-CM4,
// AWGN calibration, interferers, antenna model, path loss.

#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <cstdint>
#include <random>
#include <string>
#include <type_traits>
#include <vector>

#include "common/error.h"
#include "channel/antenna.h"
#include "channel/awgn.h"
#include "channel/cir.h"
#include "channel/interferer.h"
#include "channel/saleh_valenzuela.h"
#include "common/isa.h"
#include "common/math_utils.h"
#include "common/rng.h"
#include "dsp/power_spectrum.h"
#include "isa_clones.h"

namespace uwb::channel {
namespace {

// ------------------------------------------------------------------ cir ----

TEST(Cir, SortsAndMeasures) {
  Cir cir({{20e-9, {0.5, 0.0}}, {0.0, {1.0, 0.0}}});
  ASSERT_EQ(cir.num_taps(), 2u);
  EXPECT_DOUBLE_EQ(cir.taps()[0].delay_s, 0.0);  // sorted by delay
  EXPECT_DOUBLE_EQ(cir.total_energy(), 1.25);
  EXPECT_DOUBLE_EQ(cir.max_delay(), 20e-9);
  // Mean excess delay: (0*1 + 20ns*0.25)/1.25 = 4 ns.
  EXPECT_NEAR(cir.mean_excess_delay(), 4e-9, 1e-15);
}

TEST(Cir, RmsDelaySpreadTwoTap) {
  // Equal-power taps at 0 and 2 tau: rms spread = tau.
  Cir cir({{0.0, {1.0, 0.0}}, {20e-9, {1.0, 0.0}}});
  EXPECT_NEAR(cir.rms_delay_spread(), 10e-9, 1e-15);
}

TEST(Cir, NormalizeEnergy) {
  Cir cir({{0.0, {3.0, 0.0}}, {5e-9, {0.0, 4.0}}});
  cir.normalize_energy();
  EXPECT_NEAR(cir.total_energy(), 1.0, 1e-12);
}

TEST(Cir, StrongestAndCapture) {
  Cir cir({{0.0, {1.0, 0.0}}, {1e-9, {2.0, 0.0}}, {2e-9, {0.5, 0.0}}});
  const Cir top1 = cir.strongest(1);
  ASSERT_EQ(top1.num_taps(), 1u);
  EXPECT_DOUBLE_EQ(std::abs(top1.taps()[0].gain), 2.0);
  EXPECT_NEAR(cir.energy_capture(1), 4.0 / 5.25, 1e-12);
  EXPECT_NEAR(cir.energy_capture(3), 1.0, 1e-12);

  // S-V realizations: "the energy spread caused by the multipath can be
  // compensated using a RAKE receiver" -- more fingers never capture less,
  // and the sparse CM1 concentrates more energy in 8 fingers than CM4.
  const std::size_t fingers[] = {1, 2, 4, 8, 16};
  double capture_at_8[5] = {};
  for (int cm = 1; cm <= 4; ++cm) {
    const SalehValenzuela sv(cm_by_index(cm));
    Rng rng(0xE7 + static_cast<std::uint64_t>(cm));
    double mean[5] = {};
    for (int r = 0; r < 40; ++r) {
      const Cir realization = sv.realize(rng);
      for (int k = 0; k < 5; ++k) mean[k] += realization.energy_capture(fingers[k]) / 40.0;
    }
    for (int k = 1; k < 5; ++k) {
      EXPECT_GE(mean[k], mean[k - 1]) << "CM" << cm << " N=" << fingers[k];
    }
    capture_at_8[cm] = mean[3];
  }
  EXPECT_GE(capture_at_8[1], capture_at_8[4]);
}

TEST(Cir, TruncatedDropsWeakTaps) {
  Cir cir({{0.0, {1.0, 0.0}}, {1e-9, {0.005, 0.0}}});
  const Cir kept = cir.truncated(-40.0);
  EXPECT_EQ(kept.num_taps(), 1u);
}

TEST(Cir, SampledBinsTaps) {
  const double fs = 1e9;
  Cir cir({{0.0, {1.0, 0.0}}, {3e-9, {0.5, 0.0}}});
  const CplxVec h = cir.sampled(fs);
  ASSERT_EQ(h.size(), 4u);
  EXPECT_NEAR(std::abs(h[0]), 1.0, 1e-12);
  EXPECT_NEAR(std::abs(h[3]), 0.5, 1e-12);
}

TEST(Cir, ApplyConvolves) {
  const double fs = 1e9;
  Cir cir({{0.0, {1.0, 0.0}}, {2e-9, {-0.5, 0.0}}});
  CplxWaveform x(CplxVec{{1.0, 0.0}}, fs);
  const CplxWaveform y = cir.apply(x);
  ASSERT_EQ(y.size(), 3u);
  EXPECT_NEAR(y[0].real(), 1.0, 1e-12);
  EXPECT_NEAR(y[2].real(), -0.5, 1e-12);
}

TEST(Cir, RejectsNegativeDelay) {
  const std::vector<CirTap> taps = {{-1e-9, {1.0, 0.0}}};
  EXPECT_THROW(Cir{taps}, InvalidArgument);
}

// ---------------------------------------------------- saleh-valenzuela ----

class SvModelTest : public ::testing::TestWithParam<int> {};

TEST_P(SvModelTest, RealizationsAreNormalizedAndCausal) {
  const SalehValenzuela sv(cm_by_index(GetParam()));
  Rng rng(100 + GetParam());
  for (int i = 0; i < 20; ++i) {
    const Cir cir = sv.realize(rng);
    EXPECT_NEAR(cir.total_energy(), 1.0, 1e-9);
    EXPECT_GE(cir.taps().front().delay_s, 0.0);
    EXPECT_GT(cir.num_taps(), 3u);
  }
}

TEST_P(SvModelTest, DelaySpreadOrdering) {
  // CM1 < CM3 < CM4 in average rms delay spread; CM4 lands near the
  // paper's "order of 20 ns".
  Rng rng(42);
  const double cm_spread =
      SalehValenzuela(cm_by_index(GetParam())).average_rms_delay_spread(rng, 60);
  switch (GetParam()) {
    case 1: EXPECT_LT(cm_spread, 10e-9); break;
    case 2: EXPECT_LT(cm_spread, 14e-9); break;
    case 3: EXPECT_GT(cm_spread, 8e-9); break;
    case 4: EXPECT_GT(cm_spread, 14e-9); break;
    default: FAIL();
  }
}

INSTANTIATE_TEST_SUITE_P(AllCm, SvModelTest, ::testing::Values(1, 2, 3, 4));

TEST(SalehValenzuela, Cm4ReachesPaperDelaySpread) {
  Rng rng(7);
  const double spread = SalehValenzuela(cm4()).average_rms_delay_spread(rng, 100);
  EXPECT_GT(spread, 15e-9);
  EXPECT_LT(spread, 40e-9);
}

TEST(SalehValenzuela, DeterministicGivenSeed) {
  const SalehValenzuela sv(cm3());
  Rng a(9), b(9);
  const Cir ca = sv.realize(a);
  const Cir cb = sv.realize(b);
  ASSERT_EQ(ca.num_taps(), cb.num_taps());
  for (std::size_t i = 0; i < ca.num_taps(); ++i) {
    EXPECT_DOUBLE_EQ(ca.taps()[i].delay_s, cb.taps()[i].delay_s);
    EXPECT_EQ(ca.taps()[i].gain, cb.taps()[i].gain);
  }
}

TEST(SalehValenzuela, RealPolarityVariant) {
  SvParams params = cm1();
  params.complex_phases = false;
  const SalehValenzuela sv(params);
  Rng rng(11);
  const Cir cir = sv.realize(rng);
  for (const auto& tap : cir.taps()) {
    EXPECT_DOUBLE_EQ(tap.gain.imag(), 0.0);
  }
}

TEST(SalehValenzuela, ShadowingSpreadsEnergy) {
  const SalehValenzuela sv(cm2());
  Rng rng(13);
  RealVec energies;
  for (int i = 0; i < 200; ++i) {
    energies.push_back(sv.realize(rng, /*apply_shadowing=*/true).total_energy());
  }
  double mean = 0.0;
  for (double e : energies) mean += e;
  mean /= energies.size();
  double var = 0.0;
  for (double e : energies) var += (e - mean) * (e - mean);
  var /= energies.size();
  EXPECT_GT(var, 0.05);  // lognormal shadowing -> non-trivial spread
}

// ----------------------------------------------------------------- awgn ----

TEST(Awgn, VarianceCalibration) {
  Rng rng(14);
  CplxVec x(200000, cplx{});
  add_awgn(x, 0.36, rng);
  double acc = 0.0;
  for (const auto& v : x) acc += std::norm(v);
  EXPECT_NEAR(acc / x.size(), 0.36, 0.01);
}

TEST(Awgn, RealNoiseIsHalfPerRail) {
  Rng rng(15);
  RealVec x(200000, 0.0);
  add_awgn(x, 1.0, rng);
  EXPECT_NEAR(mean_power(x), 0.5, 0.01);
}

TEST(Awgn, MatchedFilterBerMatchesTheory) {
  // One-sample BPSK with Eb = 1: BER must track Q(sqrt(2 Eb/N0)).
  Rng rng(16);
  const double ebn0_db = 6.0;
  const double n0 = n0_for_ebn0(1.0, ebn0_db);
  std::size_t errors = 0;
  const std::size_t n = 200000;
  for (std::size_t i = 0; i < n; ++i) {
    const double tx = rng.bit() ? -1.0 : 1.0;
    RealVec s = {tx};
    add_awgn(s, n0, rng);
    if ((s[0] < 0.0) != (tx < 0.0)) ++errors;
  }
  const double measured = static_cast<double>(errors) / static_cast<double>(n);
  const double theory = bpsk_awgn_ber(from_db(ebn0_db));
  EXPECT_NEAR(measured, theory, 0.3 * theory + 1e-5);
}

TEST(Awgn, EnergyPerBit) {
  const CplxWaveform w(CplxVec(100, cplx{2.0, 0.0}), 1e9);
  EXPECT_NEAR(energy_per_bit(w, 10), 40.0, 1e-9);
  EXPECT_THROW(energy_per_bit(w, 0), InvalidArgument);
}

// ---------------------------------------------------- blocked ziggurat ----
// The double add_awgn overloads draw their hot path 8 words at a time from
// the engine's buffer. The reference below is the scalar loop they replace,
// run on std::mt19937_64: every clone must add the same bytes and leave the
// engine on the same word.

/// The scalar 256-layer ziggurat, with counters for its slow branches.
class ScalarZiggurat {
 public:
  ScalarZiggurat() {
    x_[0] = kArea * std::exp(0.5 * kR * kR);
    x_[1] = kR;
    for (int i = 1; i < 256; ++i) {
      const double fx = std::exp(-0.5 * x_[i] * x_[i]);
      x_[i + 1] = std::sqrt(-2.0 * std::log(kArea / x_[i] + fx));
    }
    x_[256] = 0.0;
    for (int i = 0; i <= 256; ++i) y_[i] = std::exp(-0.5 * x_[i] * x_[i]);
  }

  double operator()(std::mt19937_64& eng) {
    while (true) {
      const std::uint64_t u = eng();
      const int i = static_cast<int>(u & 255u);
      const double sign = (u & 256u) != 0 ? -1.0 : 1.0;
      const double ux = static_cast<double>(u >> 12) * 0x1.0p-52;
      const double cand = ux * x_[i];
      if (cand < x_[i + 1]) return sign * cand;
      if (i == 0) {
        ++tails;
        double xt;
        double yt;
        do {
          xt = -std::log(1.0 - uniform01(eng)) / kR;
          yt = -std::log(1.0 - uniform01(eng));
        } while (yt + yt < xt * xt);
        return sign * (kR + xt);
      }
      ++wedges;
      const double yr = y_[i] + uniform01(eng) * (y_[i + 1] - y_[i]);
      if (yr < std::exp(-0.5 * cand * cand)) return sign * cand;
    }
  }

  std::size_t wedges = 0;  ///< draws that reached the wedge test
  std::size_t tails = 0;   ///< draws that took the base-layer tail

  /// Layer edge i and its pdf value, i in [0, 256].
  [[nodiscard]] double x(int i) const { return x_[i]; }
  [[nodiscard]] double y(int i) const { return y_[i]; }

  static constexpr double kR = 3.6541528853610088;

 private:
  static double uniform01(std::mt19937_64& eng) {
    return static_cast<double>(eng() >> 11) * 0x1.0p-53;
  }

  static constexpr double kArea = 0.00492867323399;
  double x_[257];
  double y_[257];
};

/// Draw counts that are not multiples of 8, straddle 312-word refills, or
/// run long enough to hit the tail, and engine offsets to start from.
const std::size_t kZigLengths[] = {1, 7, 9, 303, 313, 625, 1001, 40802, 300001};
const std::size_t kZigOffsets[] = {0, 3, 305, 311};

/// Checks the engines of \p rng and \p ref agree on their next 1000 words.
void expect_same_next_words(Rng& rng, std::mt19937_64& ref, const std::string& where) {
  for (int i = 0; i < 1000; ++i) {
    ASSERT_EQ(rng.engine()(), ref()) << where << " word " << i;
  }
}

/// A Gaussian test input of \p n samples.
template <typename Vec>
Vec noisy_input(std::size_t n, std::uint64_t seed) {
  Rng rng(seed);
  Vec x(n);
  for (auto& v : x) {
    if constexpr (std::is_same_v<Vec, CplxVec>) {
      v = rng.cgaussian();
    } else {
      v = rng.gaussian();
    }
  }
  return x;
}

TEST(AwgnBlocked, EveryCloneMatchesScalarLoopBytes) {
  const double sigma = std::sqrt(0.7 / 2.0);
  std::size_t wedges = 0;
  std::size_t tails = 0;
  for (const Isa isa : test::supported_isas_or_report_skips()) {
    for (const std::size_t n : kZigLengths) {
      for (const std::size_t offset : kZigOffsets) {
        const std::uint64_t seed = 1000 * n + offset;
        const std::string where = std::string(isa_name(isa)) + " n " + std::to_string(n) +
                                  " offset " + std::to_string(offset);
        RealVec want = noisy_input<RealVec>(n, seed + 1);
        std::mt19937_64 ref(seed);
        ScalarZiggurat zig;
        for (std::size_t i = 0; i < offset; ++i) ref();
        for (auto& v : want) v += sigma * zig(ref);
        wedges += zig.wedges;
        tails += zig.tails;

        RealVec x = noisy_input<RealVec>(n, seed + 1);
        Rng rng(seed);
        for (std::size_t i = 0; i < offset; ++i) rng.engine()();
        detail::add_awgn(isa, x.data(), n, sigma, rng);
        ASSERT_EQ(test::first_byte_mismatch(x.data(), want.data(), n), n) << where;
        expect_same_next_words(rng, ref, where);
      }
    }
  }
  // Enough draws that both slow branches ran on every clone.
  EXPECT_GT(wedges, 1000u);
  EXPECT_GT(tails, 10u);
}

// ------------------------------------------------- float ziggurat stream ----
// FloatAwgn runs eight xoshiro256++ lanes a block at a time in every ISA
// clone. The reference below draws the stream one value at a time from its
// definition in awgn.h.

/// The FloatAwgn stream, serially: SplitMix64 seeds eight xoshiro256++
/// lanes and then the rejection stream; draw m is 32-bit half m % 2 of word
/// m / 2, which is lane (m / 2) % 8's output number m / 16; a draw that
/// misses the one-compare accept continues on rejection-stream words only.
class SerialFloatStream {
 public:
  explicit SerialFloatStream(std::uint64_t seed) {
    for (auto& lane : lanes_) {
      for (auto& word : lane) word = splitmix(seed);
    }
    for (auto& word : reject_) word = splitmix(seed);
    for (int i = 0; i <= 256; ++i) {
      x_[i] = static_cast<float>(zig_.x(i));
      y_[i] = static_cast<float>(zig_.y(i));
    }
  }

  /// The next N(0,1) draw.
  float operator()() {
    if (m_ % 2 == 0) word_ = xoshiro(lanes_[(m_ / 2) % 8]);
    auto u = static_cast<std::uint32_t>(m_ % 2 == 0 ? word_ : word_ >> 32);
    ++m_;
    for (bool fresh = false;; fresh = true) {
      const unsigned i = u & 255u;
      const float sign = (u & 256u) != 0 ? -1.0f : 1.0f;
      const float cand = static_cast<float>(u >> 9) * 0x1.0p-23f * x_[i];
      if (cand < x_[i + 1]) return sign * cand;
      if (fresh) ++fresh_misses;
      if (i == 0) {
        ++tails;
        double xt;
        double yt;
        do {
          xt = -std::log(1.0 - uniform53()) / ScalarZiggurat::kR;
          yt = -std::log(1.0 - uniform53());
        } while (yt + yt < xt * xt);
        return sign * static_cast<float>(ScalarZiggurat::kR + xt);
      }
      ++wedges;
      const std::uint64_t w = xoshiro(reject_);
      const float uy = static_cast<float>(static_cast<std::uint32_t>(w)) * 0x1.0p-32f;
      if (y_[i] + uy * (y_[i + 1] - y_[i]) < std::exp(-0.5f * cand * cand)) return sign * cand;
      u = static_cast<std::uint32_t>(w >> 32);  // a fresh draw replaces it
    }
  }

  std::size_t wedges = 0;        ///< wedge tests made
  std::size_t tails = 0;         ///< draws that took the base-layer tail
  std::size_t fresh_misses = 0;  ///< replacement draws that missed too

 private:
  static std::uint64_t splitmix(std::uint64_t& z) {
    z += 0x9e3779b97f4a7c15ULL;
    std::uint64_t t = z;
    t = (t ^ (t >> 30)) * 0xbf58476d1ce4e5b9ULL;
    t = (t ^ (t >> 27)) * 0x94d049bb133111ebULL;
    return t ^ (t >> 31);
  }
  static std::uint64_t rotl(std::uint64_t v, int k) { return (v << k) | (v >> (64 - k)); }
  static std::uint64_t xoshiro(std::uint64_t (&s)[4]) {
    const std::uint64_t result = rotl(s[0] + s[3], 23) + s[0];
    const std::uint64_t t = s[1] << 17;
    s[2] ^= s[0];
    s[3] ^= s[1];
    s[1] ^= s[2];
    s[0] ^= s[3];
    s[2] ^= t;
    s[3] = rotl(s[3], 45);
    return result;
  }
  double uniform53() { return static_cast<double>(xoshiro(reject_) >> 11) * 0x1.0p-53; }

  ScalarZiggurat zig_;
  std::uint64_t lanes_[8][4] = {};
  std::uint64_t reject_[4] = {};
  float x_[257] = {};
  float y_[257] = {};
  std::size_t m_ = 0;       ///< draws made
  std::uint64_t word_ = 0;  ///< the word of the last even draw
};

/// FNV-1a over a float buffer's bytes.
std::uint64_t fnv1a(const std::vector<float>& x) {
  std::uint64_t h = 0xcbf29ce484222325ULL;
  const auto* p = reinterpret_cast<const unsigned char*>(x.data());
  for (std::size_t i = 0; i < x.size() * sizeof(float); ++i) {
    h ^= p[i];
    h *= 0x100000001b3ULL;
  }
  return h;
}

/// A float test input of \p n samples.
std::vector<float> float_input(std::size_t n, std::uint64_t seed) {
  Rng rng(seed);
  std::vector<float> x(n);
  for (float& v : x) v = static_cast<float>(rng.uniform(-1.0, 1.0));
  return x;
}

TEST(FloatAwgn, EveryCloneWritesTheSerialStreamBytes) {
  // Calls of uneven lengths, so each clone starts mid-block, runs whole
  // blocks and leaves a partial one; 300,001 draws reach the tail.
  const std::size_t kCalls[] = {0, 1, 16, 5, 300'001, 33, 1000, 7};
  std::size_t n = 0;
  for (const std::size_t c : kCalls) n += c;
  const double n0 = 0.8;
  const float sigma = static_cast<float>(std::sqrt(n0 / 2.0));
  std::size_t wedges = 0;
  std::size_t tails = 0;
  std::size_t fresh_misses = 0;
  for (const Isa isa : test::supported_isas_or_report_skips()) {
    Rng rng(0xC10E5);
    channel::FloatAwgn noise(n0, rng);
    std::vector<float> x = float_input(n, 3);
    std::size_t at = 0;
    for (const std::size_t c : kCalls) {
      detail::add_awgn(isa, noise, x.data() + at, c);
      at += c;
    }

    Rng seed_rng(0xC10E5);
    SerialFloatStream ref(seed_rng.engine()());
    std::vector<float> want = float_input(n, 3);
    for (float& v : want) v += sigma * ref();
    ASSERT_EQ(test::first_byte_mismatch(x.data(), want.data(), n), n) << isa_name(isa);
    EXPECT_EQ(rng.engine()(), seed_rng.engine()()) << "one seed word per stream";
    wedges = ref.wedges;
    tails = ref.tails;
    fresh_misses = ref.fresh_misses;
  }
  // Enough draws that the wedge, a replacement that misses too and the
  // tail all ran.
  EXPECT_GT(wedges, 3000u);
  EXPECT_GT(fresh_misses, 5u);
  EXPECT_GT(tails, 20u);
}

TEST(FloatAwgn, AnySplitGivesTheOneCallBytes) {
  // Draws are numbered over the stream's life, so splitting a buffer into
  // add() calls -- odd lengths, empty calls, calls inside one block --
  // changes no byte.
  const std::size_t n = 20'000;
  const std::vector<float> input = float_input(n, 11);
  std::vector<float> whole = input;
  Rng rng_whole(0x5E6);
  channel::FloatAwgn(0.5, rng_whole).add(whole.data(), n);

  Rng split_rng(99);
  for (int trial = 0; trial < 20; ++trial) {
    std::vector<float> parts = input;
    Rng rng_parts(0x5E6);
    channel::FloatAwgn noise(0.5, rng_parts);
    std::size_t at = 0;
    while (at < n) {
      // Mostly short calls, sometimes several blocks long.
      const int max_len = split_rng.uniform_int(0, 3) == 0 ? 200 : 20;
      const auto len = std::min(n - at, static_cast<std::size_t>(split_rng.uniform_int(0, max_len)));
      noise.add(parts.data() + at, len);
      at += len;
    }
    ASSERT_EQ(test::first_byte_mismatch(parts.data(), whole.data(), n), n) << "split " << trial;
  }
}

TEST(FloatAwgn, DrawsFollowTheStandardNormalLaw) {
  // 10^7 draws at sigma = 1 (N0 = 2) from one fixed seed. Every bound is
  // five standard errors of its statistic under N(0,1); the tail mass
  // beyond r is what the base-layer tail alone produces.
  const std::size_t n = 10'000'000;
  std::vector<float> x(n, 0.0f);
  Rng rng(20250);
  channel::FloatAwgn noise(2.0, rng);
  ASSERT_EQ(noise.variance(), 1.0);
  noise.add(x.data(), n);
  double s1 = 0.0;
  double s2 = 0.0;
  double s4 = 0.0;
  std::size_t beyond_r = 0;
  for (const float v : x) {
    const double d = v;
    s1 += d;
    s2 += d * d;
    s4 += d * d * d * d;
    if (std::abs(d) > ScalarZiggurat::kR) ++beyond_r;
  }
  const auto dn = static_cast<double>(n);
  const double mean = s1 / dn;
  const double var = s2 / dn - mean * mean;
  EXPECT_LT(std::abs(mean), 5.0 / std::sqrt(dn));
  EXPECT_LT(std::abs(var - 1.0), 5.0 * std::sqrt(2.0 / dn));
  EXPECT_LT(std::abs(s4 / dn / (var * var) - 3.0), 5.0 * std::sqrt(24.0 / dn));
  const double p_tail = std::erfc(ScalarZiggurat::kR / std::sqrt(2.0));
  const double expected = dn * p_tail;
  EXPECT_LT(std::abs(static_cast<double>(beyond_r) - expected),
            5.0 * std::sqrt(expected * (1.0 - p_tail)))
      << beyond_r << " draws beyond r, " << expected << " expected";
}

TEST(FloatAwgn, PinnedDigestAndTheOneBufferOverload) {
  // The stream's bytes are pinned: a change to them is a change to every
  // gen-1 noise realization, licensed only by the oracle (docs/performance.md).
  // add_awgn(float*) is one FloatAwgn over the buffer.
  const std::size_t n = 20'001;
  std::vector<float> x(n, 0.25f);
  Rng rng(0xF10A7);
  channel::FloatAwgn noise(0.3, rng);
  noise.add(x.data(), n);
  EXPECT_EQ(fnv1a(x), 0xcc867bfda2df6289ULL);
  EXPECT_EQ(rng.engine()(), 7538448562871023294ULL);
  EXPECT_DOUBLE_EQ(noise.variance(), static_cast<double>(static_cast<float>(std::sqrt(0.15))) *
                                         static_cast<float>(std::sqrt(0.15)));

  std::vector<float> y(n, 0.25f);
  Rng same(0xF10A7);
  channel::add_awgn(y.data(), n, 0.3, same);
  EXPECT_EQ(test::first_byte_mismatch(y.data(), x.data(), n), n);
}


TEST(AwgnBlocked, PublicOverloadsMatchScalarLoopBytes) {
  const double n0 = 0.36;
  const double sigma = std::sqrt(n0 / 2.0);
  for (const std::size_t n : {std::size_t{1}, std::size_t{4}, std::size_t{5}, std::size_t{155},
                              std::size_t{157}, std::size_t{20401}}) {
    const std::uint64_t seed = 77 + n;
    const std::string where = "n " + std::to_string(n);

    CplxVec want_c = noisy_input<CplxVec>(n, seed + 1);
    std::mt19937_64 ref(seed);
    ScalarZiggurat zig;
    for (auto& v : want_c) {
      const double re = sigma * zig(ref);
      const double im = sigma * zig(ref);
      v += cplx{re, im};
    }
    CplxVec x_c = noisy_input<CplxVec>(n, seed + 1);
    Rng rng(seed);
    add_awgn(x_c, n0, rng);
    ASSERT_EQ(test::first_byte_mismatch(x_c.data(), want_c.data(), n), n) << where;
    expect_same_next_words(rng, ref, "complex " + where);

    RealVec want_r = noisy_input<RealVec>(n, seed + 2);
    for (auto& v : want_r) v += sigma * zig(ref);
    RealVec x_r = noisy_input<RealVec>(n, seed + 2);
    add_awgn(x_r, n0, rng);
    ASSERT_EQ(test::first_byte_mismatch(x_r.data(), want_r.data(), n), n) << where;
    expect_same_next_words(rng, ref, "real " + where);
  }
}

// ------------------------------------------------------------ interferer ----

TEST(Interferer, CwPowerAndFrequency) {
  InterfererSpec spec;
  spec.kind = InterfererKind::kCw;
  spec.freq_offset_hz = 100e6;
  spec.power = 2.0;
  const Interferer intf(spec);
  Rng rng(17);
  const CplxVec tone = intf.generate(8192, 1e9, rng);
  EXPECT_NEAR(mean_power(tone), 2.0, 1e-9);
  const dsp::Psd psd = dsp::welch_psd(CplxWaveform(tone, 1e9), 1024);
  EXPECT_NEAR(psd.freq_hz[psd.peak_bin()], 100e6, 1e9 / 1024.0);
}

TEST(Interferer, SirCalibration) {
  Rng rng(18);
  CplxWaveform signal(CplxVec(20000, cplx{1.0, 0.0}), 1e9);
  const double signal_power = signal.power();
  add_cw_interferer(signal, 50e6, signal_power, -10.0, rng);  // interferer 10 dB above
  // Total power ~ signal + 10x signal.
  EXPECT_NEAR(signal.power(), 11.0, 0.3);
}

TEST(Interferer, ModulatedIsWiderThanCw) {
  InterfererSpec cw;
  cw.kind = InterfererKind::kCw;
  cw.freq_offset_hz = 50e6;
  InterfererSpec mod = cw;
  mod.kind = InterfererKind::kModulated;
  mod.mod_rate_hz = 10e6;
  Rng rng(19);
  const CplxVec tone = Interferer(cw).generate(16384, 1e9, rng);
  const CplxVec bpsk = Interferer(mod).generate(16384, 1e9, rng);
  const auto bw_cw = dsp::occupied_bandwidth(dsp::welch_psd(CplxWaveform(tone, 1e9), 1024));
  const auto bw_mod = dsp::occupied_bandwidth(dsp::welch_psd(CplxWaveform(bpsk, 1e9), 1024));
  EXPECT_GT(bw_mod, 2.0 * bw_cw);
}

// -------------------------------------------------------------- antenna ----

TEST(Antenna, BandpassBehaviour) {
  AntennaParams params;
  const double fs = 25e9;
  const AntennaModel ant(params, fs);
  // In-band gain ~ 0 dB (within ripple), out-of-band heavily attenuated.
  EXPECT_NEAR(ant.gain_db_at(6.8e9), 0.0, 3.0);
  EXPECT_LT(ant.gain_db_at(0.8e9), -20.0);
  EXPECT_LT(ant.gain_db_at(12.1e9), -10.0);
}

TEST(Antenna, ImpulseResponseAddsToChannel) {
  // Applying the antenna twice (TX + RX) must equal convolving its response
  // twice -- linearity (the "impulse responses add" point of Section 1).
  AntennaParams params;
  const double fs = 25e9;
  const AntennaModel ant(params, fs);
  RealWaveform x(RealVec(512, 0.0), fs);
  x.samples()[100] = 1.0;
  const RealWaveform once = ant.apply(x);
  const RealWaveform twice = ant.apply(once);
  // Energy through the cascade stays finite and bounded.
  EXPECT_GT(twice.total_energy(), 0.0);
  EXPECT_LT(twice.total_energy(), 4.0 * once.total_energy() + 1.0);
}

TEST(Antenna, RejectsLowSampleRate) {
  EXPECT_THROW(AntennaModel(AntennaParams{}, 10e9), InvalidArgument);
}

}  // namespace
}  // namespace uwb::channel
