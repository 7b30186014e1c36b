// Tests for the foundation library: math utilities, RNG, Waveform.

#include <gtest/gtest.h>

#include <algorithm>
#include <bit>
#include <cmath>
#include <cstdint>
#include <random>
#include <vector>

#include "common/isa.h"
#include "common/math_utils.h"
#include "common/rng.h"
#include "common/waveform.h"
#include "isa_clones.h"

namespace uwb {
namespace {

// ---------------------------------------------------------------- math ----

TEST(MathUtils, DbRoundTrip) {
  EXPECT_NEAR(from_db(to_db(3.7)), 3.7, 1e-12);
  EXPECT_NEAR(to_db(10.0), 10.0, 1e-12);
  EXPECT_NEAR(to_db(100.0), 20.0, 1e-12);
  EXPECT_NEAR(db_to_amp(20.0), 10.0, 1e-12);
  EXPECT_NEAR(amp_to_db(db_to_amp(-7.3)), -7.3, 1e-12);
}

TEST(MathUtils, DbmConversions) {
  EXPECT_NEAR(watts_to_dbm(1e-3), 0.0, 1e-12);
  EXPECT_NEAR(watts_to_dbm(1.0), 30.0, 1e-12);
  EXPECT_NEAR(dbm_to_watts(-30.0), 1e-6, 1e-18);
}

TEST(MathUtils, QFunctionKnownValues) {
  EXPECT_NEAR(q_function(0.0), 0.5, 1e-12);
  EXPECT_NEAR(q_function(1.0), 0.158655, 1e-5);
  EXPECT_NEAR(q_function(3.0), 1.349898e-3, 1e-7);
  // Symmetry: Q(-x) = 1 - Q(x).
  EXPECT_NEAR(q_function(-1.5) + q_function(1.5), 1.0, 1e-12);
}

TEST(MathUtils, QFunctionInverseRoundTrip) {
  for (double p : {0.4, 0.1, 1e-2, 1e-4, 1e-6}) {
    EXPECT_NEAR(q_function(q_function_inv(p)), p, p * 1e-6) << "p=" << p;
  }
}

TEST(MathUtils, BpskTheoreticalBer) {
  // Eb/N0 = 9.6 dB gives BER ~ 1e-5 for BPSK (textbook anchor point).
  EXPECT_NEAR(bpsk_awgn_ber(from_db(9.6)), 1e-5, 3e-6);
  // PPM/orthogonal needs 3 dB more for the same BER.
  EXPECT_NEAR(ppm_awgn_ber(from_db(12.6)), 1e-5, 3e-6);
}

TEST(MathUtils, Sinc) {
  EXPECT_DOUBLE_EQ(sinc(0.0), 1.0);
  EXPECT_NEAR(sinc(1.0), 0.0, 1e-12);
  EXPECT_NEAR(sinc(0.5), 2.0 / pi, 1e-12);
}

TEST(MathUtils, PowerAndEnergy) {
  RealVec x = {3.0, -4.0};
  EXPECT_DOUBLE_EQ(energy(x), 25.0);
  EXPECT_DOUBLE_EQ(mean_power(x), 12.5);
  EXPECT_DOUBLE_EQ(peak_abs(x), 4.0);

  CplxVec z = {{3.0, 4.0}};
  EXPECT_DOUBLE_EQ(energy(z), 25.0);
  EXPECT_DOUBLE_EQ(peak_abs(z), 5.0);
}

TEST(MathUtils, NextPow2) {
  EXPECT_EQ(next_pow2(1), 1u);
  EXPECT_EQ(next_pow2(2), 2u);
  EXPECT_EQ(next_pow2(3), 4u);
  EXPECT_EQ(next_pow2(1023), 1024u);
  EXPECT_TRUE(is_pow2(4096));
  EXPECT_FALSE(is_pow2(4097));
}

TEST(MathUtils, WrapPhase) {
  EXPECT_NEAR(wrap_phase(3.0 * pi), pi, 1e-12);
  EXPECT_NEAR(wrap_phase(-3.0 * pi), pi, 1e-12);  // (-pi, pi] convention
  EXPECT_NEAR(wrap_phase(0.5), 0.5, 1e-12);
}

// ----------------------------------------------------------------- rng ----

TEST(Rng, Deterministic) {
  Rng a(42), b(42);
  for (int i = 0; i < 100; ++i) {
    EXPECT_DOUBLE_EQ(a.gaussian(), b.gaussian());
  }
}

TEST(Rng, ForkIndependentOfParentDraws) {
  Rng a(7);
  Rng b(7);
  (void)a.gaussian();  // parent advances...
  Rng child_a = a.fork(1);
  Rng child_b = b.fork(1);  // ...but children only depend on (seed, salt)
  for (int i = 0; i < 10; ++i) {
    EXPECT_DOUBLE_EQ(child_a.uniform(), child_b.uniform());
  }
}

TEST(Rng, ForkSaltsDiffer) {
  Rng a(7);
  EXPECT_NE(a.fork(1).gaussian(), a.fork(2).gaussian());
}

TEST(Rng, GaussianMoments) {
  Rng rng(123);
  double sum = 0.0, sum_sq = 0.0;
  const int n = 200000;
  for (int i = 0; i < n; ++i) {
    const double x = rng.gaussian();
    sum += x;
    sum_sq += x * x;
  }
  EXPECT_NEAR(sum / n, 0.0, 0.02);
  EXPECT_NEAR(sum_sq / n, 1.0, 0.02);
}

TEST(Rng, ComplexGaussianVariance) {
  Rng rng(5);
  double acc = 0.0;
  const int n = 100000;
  for (int i = 0; i < n; ++i) acc += std::norm(rng.cgaussian(2.0));
  EXPECT_NEAR(acc / n, 2.0, 0.05);
}

TEST(Rng, UniformIntBounds) {
  Rng rng(9);
  for (int i = 0; i < 1000; ++i) {
    const int v = rng.uniform_int(-3, 4);
    EXPECT_GE(v, -3);
    EXPECT_LE(v, 4);
  }
}

TEST(Rng, BitsAreBinaryAndBalanced) {
  Rng rng(11);
  const BitVec bits = rng.bits(10000);
  std::size_t ones = 0;
  for (auto b : bits) {
    ASSERT_LE(b, 1);
    ones += b;
  }
  EXPECT_NEAR(static_cast<double>(ones) / bits.size(), 0.5, 0.03);
}

// ------------------------------------------------------ block engine ----
// Mt64Block must emit std::mt19937_64's words on every refill clone. The
// golden digests are too coarse to show a wrong word in a rare branch.

/// Edge seeds plus the seeds of a few forked trial streams.
std::vector<std::uint64_t> identity_seeds() {
  std::vector<std::uint64_t> seeds = {0, 1, 5489, ~std::uint64_t{0}};
  const Rng root(7);
  for (const std::uint64_t salt : {0ULL, 1ULL, 999ULL, 123456789ULL}) {
    seeds.push_back(root.fork(salt).seed());
  }
  seeds.push_back(Rng().fork(3).seed());
  return seeds;
}

constexpr int kIdentityBlocks = 12;

TEST(Mt64Block, EveryCloneMatchesStdMt19937_64) {
  for (const Isa isa : test::supported_isas_or_report_skips()) {
    for (const std::uint64_t seed : identity_seeds()) {
      Mt64Block eng(seed);
      std::mt19937_64 ref(seed);
      for (int block = 0; block < kIdentityBlocks; ++block) {
        detail::refill(eng, isa);
        for (std::size_t i = 0; i < Mt64Block::kWords; ++i) {
          ASSERT_EQ(eng(), ref()) << isa_name(isa) << " seed " << seed << " block " << block
                                  << " word " << i;
        }
      }
    }
  }
}

TEST(Mt64Block, HostEngineMatchesStdThroughSkipAndBuffered) {
  static_assert(Mt64Block::min() == std::mt19937_64::min());
  static_assert(Mt64Block::max() == std::mt19937_64::max());
  for (const std::uint64_t seed : identity_seeds()) {
    Mt64Block eng(seed);
    std::mt19937_64 ref(seed);
    std::size_t drawn = 0;
    // Mixed single draws and skips of whole buffered runs, crossing refills.
    while (drawn < kIdentityBlocks * Mt64Block::kWords) {
      ASSERT_EQ(eng(), ref());
      const auto words = eng.buffered();
      ASSERT_FALSE(words.empty());
      const std::size_t k = std::min<std::size_t>(words.size(), 1 + drawn % 13);
      for (std::size_t i = 0; i < k; ++i) ASSERT_EQ(words[i], ref()) << "seed " << seed;
      eng.skip(k);
      drawn += 1 + k;
    }
  }
}

TEST(Mt64Block, CopyTakenMidBlockContinuesTheStream) {
  for (const std::size_t offset : {std::size_t{0}, std::size_t{1}, std::size_t{100},
                                   std::size_t{311}, std::size_t{312}, std::size_t{700}}) {
    Rng a(42);
    std::mt19937_64 ref(42);
    for (std::size_t i = 0; i < offset; ++i) ASSERT_EQ(a.engine()(), ref());
    Rng b = a;  // what a replay of a trial stage does
    for (int i = 0; i < 1000; ++i) {
      const std::uint64_t want = ref();
      ASSERT_EQ(a.engine()(), want) << "offset " << offset;
      ASSERT_EQ(b.engine()(), want) << "offset " << offset;
    }
  }
}

template <typename Dist>
void expect_same_values(Dist dist_a, Dist dist_b, std::uint64_t seed, const char* what) {
  Mt64Block eng(seed);
  std::mt19937_64 ref(seed);
  for (int i = 0; i < 2000; ++i) {
    const auto a = dist_a(eng);
    const auto b = dist_b(ref);
    ASSERT_EQ(std::bit_cast<std::uint64_t>(static_cast<double>(a)),
              std::bit_cast<std::uint64_t>(static_cast<double>(b)))
        << what << " seed " << seed << " draw " << i;
  }
}

TEST(Mt64Block, StdDistributionsReturnBitIdenticalValues) {
  for (const std::uint64_t seed : identity_seeds()) {
    expect_same_values(std::normal_distribution<double>(0.0, 1.0),
                       std::normal_distribution<double>(0.0, 1.0), seed, "normal");
    expect_same_values(std::exponential_distribution<double>(1.0 / 3.5),
                       std::exponential_distribution<double>(1.0 / 3.5), seed, "exponential");
    expect_same_values(std::uniform_int_distribution<int>(-3, 1000),
                       std::uniform_int_distribution<int>(-3, 1000), seed, "uniform_int");
    expect_same_values(std::uniform_real_distribution<double>(0.0, 1.0),
                       std::uniform_real_distribution<double>(0.0, 1.0), seed, "uniform_real");
    Mt64Block eng(seed);
    std::mt19937_64 ref(seed);
    for (int i = 0; i < 2000; ++i) {
      ASSERT_EQ(std::bit_cast<std::uint64_t>(std::generate_canonical<double, 53>(eng)),
                std::bit_cast<std::uint64_t>(std::generate_canonical<double, 53>(ref)))
          << "generate_canonical seed " << seed << " draw " << i;
    }
  }
}

// ------------------------------------------------------------- waveform ----

TEST(Waveform, ConstructionAndDuration) {
  RealWaveform w(1000, 2e9);
  EXPECT_EQ(w.size(), 1000u);
  EXPECT_DOUBLE_EQ(w.sample_rate(), 2e9);
  EXPECT_DOUBLE_EQ(w.duration(), 500e-9);
  EXPECT_DOUBLE_EQ(w.time_of(2), 1e-9);
}

TEST(Waveform, RejectsBadSampleRate) {
  EXPECT_THROW(RealWaveform(10, 0.0), InvalidArgument);
  EXPECT_THROW(RealWaveform(10, -1.0), InvalidArgument);
}

TEST(Waveform, NormalizePower) {
  RealWaveform w({1.0, 2.0, 3.0, 4.0}, 1.0);
  w.normalize_power(2.0);
  EXPECT_NEAR(w.power(), 2.0, 1e-12);
}

TEST(Waveform, AddWithOffsetGrows) {
  RealWaveform a({1.0, 1.0}, 1.0);
  const RealWaveform b({2.0, 2.0}, 1.0);
  a.add(b, 3);
  ASSERT_EQ(a.size(), 5u);
  EXPECT_DOUBLE_EQ(a[0], 1.0);
  EXPECT_DOUBLE_EQ(a[2], 0.0);
  EXPECT_DOUBLE_EQ(a[3], 2.0);
}

TEST(Waveform, AddRejectsRateMismatch) {
  RealWaveform a(4, 1.0);
  const RealWaveform b(4, 2.0);
  EXPECT_THROW(a.add(b), InvalidArgument);
}

TEST(Waveform, SliceAndDelay) {
  RealWaveform w({1, 2, 3, 4, 5}, 1.0);
  const RealWaveform s = w.slice(1, 3);
  ASSERT_EQ(s.size(), 3u);
  EXPECT_DOUBLE_EQ(s[0], 2.0);
  EXPECT_THROW(w.slice(3, 5), InvalidArgument);

  w.delay_samples(2);
  ASSERT_EQ(w.size(), 7u);
  EXPECT_DOUBLE_EQ(w[0], 0.0);
  EXPECT_DOUBLE_EQ(w[2], 1.0);
}

TEST(Waveform, IqRoundTrip) {
  CplxWaveform w({{1.0, -2.0}, {3.0, 4.0}}, 10.0);
  auto [i_rail, q_rail] = to_iq(w);
  const CplxWaveform back = from_iq(i_rail, q_rail);
  ASSERT_EQ(back.size(), w.size());
  for (std::size_t k = 0; k < w.size(); ++k) {
    EXPECT_DOUBLE_EQ(back[k].real(), w[k].real());
    EXPECT_DOUBLE_EQ(back[k].imag(), w[k].imag());
  }
}

TEST(Waveform, FromIqRejectsMismatch) {
  const RealWaveform i_rail(4, 1.0);
  const RealWaveform q_short(3, 1.0);
  EXPECT_THROW(from_iq(i_rail, q_short), InvalidArgument);
}

}  // namespace
}  // namespace uwb
