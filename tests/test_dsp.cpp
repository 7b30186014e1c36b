// Tests for the DSP substrate: FFT, windows, filter design, FIR/IIR,
// NCO, correlators, resampling, PSD, delays.

#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <cstring>
#include <limits>
#include <string>
#include <utility>
#include <vector>

#include "common/error.h"
#include "common/isa.h"
#include "common/math_utils.h"
#include "common/rng.h"
#include "dsp/biquad.h"
#include "dsp/correlator.h"
#include "dsp/delay_line.h"
#include "dsp/fast_convolve.h"
#include "dsp/fft.h"
#include "dsp/filter_design.h"
#include "dsp/fir_filter.h"
#include "dsp/nco.h"
#include "dsp/power_spectrum.h"
#include "dsp/resampler.h"
#include "dsp/window.h"
#include "isa_clones.h"

namespace uwb::dsp {
namespace {

// ----------------------------------------------------------------- fft ----

TEST(Fft, DeltaTransformsToFlat) {
  CplxVec x(8, cplx{});
  x[0] = 1.0;
  fft_inplace(x);
  for (const auto& v : x) {
    EXPECT_NEAR(v.real(), 1.0, 1e-12);
    EXPECT_NEAR(v.imag(), 0.0, 1e-12);
  }
}

TEST(Fft, SingleToneLandsInOneBin) {
  const std::size_t n = 64;
  CplxVec x(n);
  const std::size_t k0 = 5;
  for (std::size_t i = 0; i < n; ++i) {
    x[i] = std::polar(1.0, two_pi * static_cast<double>(k0 * i) / n);
  }
  fft_inplace(x);
  for (std::size_t k = 0; k < n; ++k) {
    if (k == k0) {
      EXPECT_NEAR(std::abs(x[k]), static_cast<double>(n), 1e-9);
    } else {
      EXPECT_NEAR(std::abs(x[k]), 0.0, 1e-9);
    }
  }
}

TEST(Fft, RoundTrip) {
  Rng rng(3);
  CplxVec x(128);
  for (auto& v : x) v = rng.cgaussian();
  const CplxVec y = ifft(fft(x));
  for (std::size_t i = 0; i < x.size(); ++i) {
    EXPECT_NEAR(std::abs(y[i] - x[i]), 0.0, 1e-10);
  }
}

TEST(Fft, ParsevalHolds) {
  Rng rng(4);
  CplxVec x(256);
  for (auto& v : x) v = rng.cgaussian();
  double time_energy = 0.0;
  for (const auto& v : x) time_energy += std::norm(v);
  CplxVec spec = x;
  fft_inplace(spec);
  double freq_energy = 0.0;
  for (const auto& v : spec) freq_energy += std::norm(v);
  EXPECT_NEAR(freq_energy / 256.0, time_energy, 1e-9 * time_energy);
}

TEST(Fft, RejectsNonPowerOfTwo) {
  CplxVec x(100);
  EXPECT_THROW(fft_inplace(x), InvalidArgument);
}

TEST(Fft, ConvolutionMatchesDirect) {
  Rng rng(5);
  RealVec a(37), b(12);
  for (auto& v : a) v = rng.gaussian();
  for (auto& v : b) v = rng.gaussian();
  const RealVec direct = convolve(a, b);
  RealVec viafft;
  FftWorkspace ws;
  ols_convolve(a, b, viafft, ws);
  ASSERT_EQ(direct.size(), viafft.size());
  for (std::size_t i = 0; i < direct.size(); ++i) {
    EXPECT_NEAR(direct[i], viafft[i], 1e-9);
  }
}

TEST(Fft, BinFrequencyMapsNegative) {
  EXPECT_DOUBLE_EQ(bin_frequency(0, 8, 800.0), 0.0);
  EXPECT_DOUBLE_EQ(bin_frequency(1, 8, 800.0), 100.0);
  EXPECT_DOUBLE_EQ(bin_frequency(7, 8, 800.0), -100.0);
  EXPECT_DOUBLE_EQ(bin_frequency(4, 8, 800.0), -400.0);
}

// ------------------------------------------------------------- fft plan ----

TEST(FftPlan, CacheReturnsOneSharedPlanPerSize) {
  const FftPlan& a = fft_plan(256);
  const FftPlan& b = fft_plan(256);
  const FftPlan& c = fft_plan(512);
  EXPECT_EQ(&a, &b);  // same immutable plan object
  EXPECT_NE(&a, &c);
  EXPECT_EQ(a.size(), 256u);
  EXPECT_EQ(c.size(), 512u);
}

TEST(FftPlan, ExecutesInPlaceIntoCallerBuffer) {
  Rng rng(13);
  CplxVec x(128);
  for (auto& v : x) v = rng.cgaussian();
  CplxVec y = x;
  const FftPlan& plan = fft_plan(128);
  plan.forward(y.data());
  plan.inverse(y.data());
  for (std::size_t i = 0; i < x.size(); ++i) {
    EXPECT_NEAR(std::abs(y[i] - x[i]), 0.0, 1e-10);
  }
}

TEST(FftPlan, MatchesLegacyFreeFunctions) {
  Rng rng(14);
  CplxVec x(64);
  for (auto& v : x) v = rng.cgaussian();
  CplxVec via_plan = x;
  fft_plan(64).forward(via_plan);
  CplxVec via_free = x;
  fft_inplace(via_free);
  for (std::size_t i = 0; i < x.size(); ++i) {
    EXPECT_EQ(via_plan[i], via_free[i]);  // same code path, bit-identical
  }
}

TEST(FftPlan, RejectsBadSizes) {
  EXPECT_THROW(FftPlan(96), InvalidArgument);
  EXPECT_THROW(fft_plan(100), InvalidArgument);
  CplxVec wrong(32);
  EXPECT_THROW(fft_plan(64).forward(wrong), InvalidArgument);
}

// ----------------------------------------------------------- real-input fft ----

RealVec random_real(Rng& rng, std::size_t n) {
  RealVec v(n);
  for (auto& x : v) x = rng.gaussian();
  return v;
}

TEST(Rfft, MatchesComplexFftHalfSpectrum) {
  // Power-of-two, odd, prime-factor and tiny sizes: the helpers zero-pad to
  // the next power of two exactly like the complex fft() free function, so
  // the half spectrum must match the complex transform bin for bin.
  Rng rng(50);
  for (std::size_t n : {2ul, 4ul, 8ul, 17ul, 96ul, 97ul, 255ul, 1024ul, 4096ul}) {
    const RealVec x = random_real(rng, n);
    const CplxVec full = fft(x);
    const CplxVec half = rfft(x);
    ASSERT_EQ(half.size(), full.size() / 2 + 1) << "n=" << n;
    for (std::size_t k = 0; k < half.size(); ++k) {
      ASSERT_NEAR(std::abs(half[k] - full[k]), 0.0, 1e-9) << "n=" << n << " k=" << k;
    }
  }
}

TEST(Rfft, EmptyInputGivesEmptySpectrum) {
  EXPECT_TRUE(rfft(RealVec{}).empty());
  EXPECT_TRUE(irfft(CplxVec{}).empty());
}

TEST(Rfft, RoundTripIsExactToRounding) {
  Rng rng(51);
  for (std::size_t n : {2ul, 8ul, 64ul, 1000ul, 2048ul}) {
    const RealVec x = random_real(rng, n);
    const RealVec back = irfft(rfft(x), n);
    ASSERT_EQ(back.size(), n);
    for (std::size_t i = 0; i < n; ++i) {
      ASSERT_NEAR(back[i], x[i], 1e-12) << "n=" << n << " i=" << i;
    }
  }
}

TEST(Rfft, ParsevalHoldsOnHalfSpectrum) {
  Rng rng(52);
  const std::size_t n = 512;
  const RealVec x = random_real(rng, n);
  const CplxVec half = rfft(x);
  // Energy of the implied full spectrum: interior bins count twice.
  double freq_energy = std::norm(half.front()) + std::norm(half.back());
  for (std::size_t k = 1; k + 1 < half.size(); ++k) freq_energy += 2.0 * std::norm(half[k]);
  double time_energy = 0.0;
  for (double v : x) time_energy += v * v;
  EXPECT_NEAR(freq_energy / static_cast<double>(n), time_energy, 1e-9 * time_energy);
}

TEST(Rfft, EnergyConservedThroughChannelConvolution) {
  // End-to-end energy bookkeeping on the path the receiver actually uses:
  // convolve a real waveform with a channel-like impulse response, then
  // check that the output's time-domain energy matches the Parseval sum
  // over its rfft half spectrum. Guards the real-input convolution path
  // against scaling bugs in either direction of the transform.
  Rng rng(53);
  const RealVec x = random_real(rng, 700);
  RealVec h(61);
  for (std::size_t i = 0; i < h.size(); ++i) {
    // Exponentially decaying multipath-style taps.
    h[i] = rng.gaussian() * std::exp(-0.08 * static_cast<double>(i));
  }
  RealVec y;
  FftWorkspace ws;
  ols_convolve(x, h, y, ws);
  ASSERT_EQ(y.size(), x.size() + h.size() - 1);

  double time_energy = 0.0;
  for (double v : y) time_energy += v * v;

  const CplxVec half = rfft(y);
  const std::size_t n_fft = next_pow2(y.size());
  double freq_energy = std::norm(half.front()) + std::norm(half.back());
  for (std::size_t k = 1; k + 1 < half.size(); ++k) freq_energy += 2.0 * std::norm(half[k]);
  EXPECT_NEAR(freq_energy / static_cast<double>(n_fft), time_energy, 1e-9 * time_energy);
}

TEST(Rfft, PlanCacheSharesPlans) {
  const RfftPlan& a = rfft_plan(256);
  const RfftPlan& b = rfft_plan(256);
  EXPECT_EQ(&a, &b);
  EXPECT_EQ(a.size(), 256u);
  EXPECT_EQ(a.bins(), 129u);
  EXPECT_THROW(rfft_plan(48), InvalidArgument);
  EXPECT_THROW(rfft_plan(1), InvalidArgument);
}

// -------------------------------------------------- fft convolve dispatch ----

CplxVec random_cplx(Rng& rng, std::size_t n) {
  CplxVec v(n);
  for (auto& x : v) x = rng.cgaussian();
  return v;
}

/// Size pairs straddling the dispatch thresholds: short kernels (direct on
/// both paths), crossover-sized, far above, odd lengths, and h longer
/// than x.
const std::pair<std::size_t, std::size_t> kConvSizes[] = {
    {100, 7}, {1000, 33}, {513, 129}, {4096, 129}, {4097, 255},
    {257, 513}, {129, 4096}, {2048, 2048}, {1, 1},
};

TEST(FastConvolve, RealConvolutionMatchesDirect) {
  Rng rng(40);
  for (const auto& [nx, nh] : kConvSizes) {
    const RealVec x = random_real(rng, nx);
    const RealVec h = random_real(rng, nh);
    RealVec direct;
    {
      const FastConvolveGuard guard(false);
      direct = convolve(x, h);
    }
    // Force the FFT kernel regardless of the threshold.
    RealVec viafft;
    FftWorkspace ws;
    ols_convolve(x, h, viafft, ws);
    ASSERT_EQ(direct.size(), viafft.size()) << nx << "x" << nh;
    for (std::size_t i = 0; i < direct.size(); ++i) {
      ASSERT_NEAR(direct[i], viafft[i], 1e-9) << nx << "x" << nh << " @" << i;
    }
  }
}

TEST(FastConvolve, CplxRealConvolutionMatchesDirect) {
  Rng rng(41);
  for (const auto& [nx, nh] : kConvSizes) {
    const CplxVec x = random_cplx(rng, nx);
    const RealVec h = random_real(rng, nh);
    CplxVec direct;
    {
      const FastConvolveGuard guard(false);
      direct = convolve(x, h);
    }
    CplxVec viafft;
    FftWorkspace ws;
    ols_convolve(x, h, viafft, ws);
    ASSERT_EQ(direct.size(), viafft.size());
    for (std::size_t i = 0; i < direct.size(); ++i) {
      ASSERT_NEAR(std::abs(direct[i] - viafft[i]), 0.0, 1e-9) << nx << "x" << nh;
    }
  }
}

TEST(FastConvolve, CplxConvolutionMatchesDirect) {
  Rng rng(42);
  for (const auto& [nx, nh] : kConvSizes) {
    const CplxVec x = random_cplx(rng, nx);
    const CplxVec h = random_cplx(rng, nh);
    CplxVec direct;
    {
      const FastConvolveGuard guard(false);
      direct = convolve(x, h);
    }
    CplxVec viafft;
    FftWorkspace ws;
    ols_convolve(x, h, viafft, ws);
    ASSERT_EQ(direct.size(), viafft.size());
    for (std::size_t i = 0; i < direct.size(); ++i) {
      ASSERT_NEAR(std::abs(direct[i] - viafft[i]), 0.0, 1e-9) << nx << "x" << nh;
    }
  }
}

TEST(FastConvolve, ConvolveSameAgreesAcrossPolicy) {
  // Above-threshold sizes so the enabled policy actually takes the FFT path.
  Rng rng(43);
  const CplxVec x = random_cplx(rng, 4096);
  const RealVec h = random_real(rng, 201);
  CplxVec direct, fast;
  {
    const FastConvolveGuard guard(false);
    direct = convolve_same(x, h);
  }
  {
    const FastConvolveGuard guard(true);
    fast = convolve_same(x, h);
  }
  ASSERT_EQ(direct.size(), x.size());
  ASSERT_EQ(fast.size(), x.size());
  for (std::size_t i = 0; i < x.size(); ++i) {
    ASSERT_NEAR(std::abs(direct[i] - fast[i]), 0.0, 1e-9);
  }
}

TEST(FastConvolve, CorrelationMatchesDirect) {
  Rng rng(44);
  const std::pair<std::size_t, std::size_t> sizes[] = {
      {500, 32}, {2048, 64}, {4096, 511}, {1023, 1000}, {64, 64},
  };
  for (const auto& [nx, nm] : sizes) {
    const CplxVec x = random_cplx(rng, nx);
    const CplxVec tmpl = random_cplx(rng, nm);
    CplxVec direct;
    {
      const FastConvolveGuard guard(false);
      direct = correlate(x, tmpl);
    }
    CplxVec viafft;
    FftWorkspace ws;
    ols_correlate(x, tmpl, viafft, ws);
    ASSERT_EQ(direct.size(), viafft.size());
    for (std::size_t i = 0; i < direct.size(); ++i) {
      ASSERT_NEAR(std::abs(direct[i] - viafft[i]), 0.0, 1e-9) << nx << "x" << nm;
    }

    const RealVec xr = random_real(rng, nx);
    const RealVec tr = random_real(rng, nm);
    RealVec direct_r;
    {
      const FastConvolveGuard guard(false);
      direct_r = correlate(xr, tr);
    }
    RealVec viafft_r;
    ols_correlate(xr, tr, viafft_r, ws);
    ASSERT_EQ(direct_r.size(), viafft_r.size());
    for (std::size_t i = 0; i < direct_r.size(); ++i) {
      ASSERT_NEAR(direct_r[i], viafft_r[i], 1e-9) << nx << "x" << nm;
    }
  }
}

TEST(FastConvolve, EdgeCasesMatchDirectSemantics) {
  FftWorkspace ws;
  RealVec out_r{1.0};
  ols_convolve(RealVec{}, RealVec{1.0}, out_r, ws);
  EXPECT_TRUE(out_r.empty());
  CplxVec out_c{cplx{1.0, 0.0}};
  ols_convolve(CplxVec{}, RealVec{1.0}, out_c, ws);
  EXPECT_TRUE(out_c.empty());
  // Template longer than the signal: correlate defines this as empty.
  CplxVec out_corr{cplx{1.0, 0.0}};
  ols_correlate(CplxVec(4, cplx{1.0, 0.0}), CplxVec(9, cplx{1.0, 0.0}), out_corr, ws);
  EXPECT_TRUE(out_corr.empty());
  EXPECT_TRUE(correlate(CplxVec(4, cplx{}), CplxVec(9, cplx{})).empty());
}

TEST(FastConvolve, PolicyTogglesAndRestores) {
  EXPECT_TRUE(fast_convolve_enabled());  // library default
  {
    const FastConvolveGuard guard(false);
    EXPECT_FALSE(fast_convolve_enabled());
    EXPECT_FALSE(use_fft_convolve(1u << 20, 1u << 10, ConvKind::kCplxCplx));
  }
  EXPECT_TRUE(fast_convolve_enabled());
  // Below either the kernel or the product floor stays direct.
  EXPECT_FALSE(use_fft_convolve(1u << 20, 8, ConvKind::kCplxCplx));
  EXPECT_FALSE(use_fft_convolve(64, 64, ConvKind::kCplxCplx));
  EXPECT_TRUE(use_fft_convolve(1u << 12, 1u << 10, ConvKind::kCplxCplx));
  // Real kernels need more taps before the FFT wins than complex ones.
  EXPECT_FALSE(use_fft_convolve(1u << 12, 64, ConvKind::kRealReal));
  EXPECT_TRUE(use_fft_convolve(1u << 12, 64, ConvKind::kCplxReal));
}

// -------------------------------------------------------------- windows ----

class WindowTypedTest : public ::testing::TestWithParam<WindowType> {};

TEST_P(WindowTypedTest, SymmetricAndBounded) {
  const RealVec w = make_window(GetParam(), 65);
  ASSERT_EQ(w.size(), 65u);
  for (std::size_t i = 0; i < w.size(); ++i) {
    EXPECT_GE(w[i], -1e-12);
    EXPECT_LE(w[i], 1.0 + 1e-12);
    EXPECT_NEAR(w[i], w[w.size() - 1 - i], 1e-12) << "asymmetric at " << i;
  }
}

INSTANTIATE_TEST_SUITE_P(AllWindows, WindowTypedTest,
                         ::testing::Values(WindowType::kRectangular, WindowType::kHann,
                                           WindowType::kHamming, WindowType::kBlackman));

TEST(Window, NoiseBandwidths) {
  EXPECT_NEAR(noise_bandwidth_bins(RealVec(64, 1.0)), 1.0, 1e-12);
  EXPECT_NEAR(noise_bandwidth_bins(hann(4096)), 1.5, 0.01);
}

// -------------------------------------------------------- filter design ----

TEST(FilterDesign, LowpassGains) {
  const double fs = 100e6;
  const RealVec taps = design_lowpass(10e6, fs, 101);
  EXPECT_NEAR(fir_gain_db_at(taps, 0.0, fs), 0.0, 0.01);       // DC
  EXPECT_NEAR(fir_gain_db_at(taps, 10e6, fs), -6.0, 1.0);      // edge
  EXPECT_LT(fir_gain_db_at(taps, 25e6, fs), -40.0);            // stopband
}

TEST(FilterDesign, HighpassGains) {
  const double fs = 100e6;
  const RealVec taps = design_highpass(10e6, fs, 101);
  EXPECT_LT(fir_gain_db_at(taps, 1e6, fs), -40.0);
  EXPECT_NEAR(fir_gain_db_at(taps, 40e6, fs), 0.0, 0.5);
}

TEST(FilterDesign, BandpassGains) {
  const double fs = 1e9;
  const RealVec taps = design_bandpass(100e6, 300e6, fs, 201);
  EXPECT_NEAR(fir_gain_db_at(taps, 200e6, fs), 0.0, 0.2);
  EXPECT_LT(fir_gain_db_at(taps, 20e6, fs), -40.0);
  EXPECT_LT(fir_gain_db_at(taps, 450e6, fs), -40.0);
}

TEST(FilterDesign, RaisedCosineNyquistProperty) {
  // RC pulse must be zero at nonzero multiples of the symbol period.
  const int sps = 8;
  const RealVec taps = design_raised_cosine(1e6, 0.35, 6, sps);
  const std::size_t center = (taps.size() - 1) / 2;
  EXPECT_NEAR(taps[center], 1.0, 1e-12);
  for (int k = 1; k <= 5; ++k) {
    EXPECT_NEAR(taps[center + static_cast<std::size_t>(k * sps)], 0.0, 1e-9) << "k=" << k;
  }
}

TEST(FilterDesign, RrcMatchedPairIsNyquist) {
  // RRC convolved with itself must satisfy the Nyquist criterion.
  const int sps = 8;
  const RealVec rrc = design_root_raised_cosine(1e6, 0.35, 6, sps);
  const RealVec rc = convolve(rrc, rrc);
  const std::size_t center = (rc.size() - 1) / 2;
  const double peak = rc[center];
  EXPECT_NEAR(peak, 1.0, 1e-6);  // unit-energy RRC -> unit peak
  for (int k = 1; k <= 4; ++k) {
    EXPECT_NEAR(rc[center + static_cast<std::size_t>(k * sps)] / peak, 0.0, 1e-3);
  }
}

TEST(FilterDesign, RejectsBadArguments) {
  EXPECT_THROW(design_lowpass(60e6, 100e6, 31), InvalidArgument);
  EXPECT_THROW(design_lowpass(10e6, 100e6, 1), InvalidArgument);
  EXPECT_THROW(design_highpass(10e6, 100e6, 30), InvalidArgument);  // even taps
  EXPECT_THROW(design_raised_cosine(1e6, 1.5, 4, 8), InvalidArgument);
}

// ------------------------------------------------------------------ fir ----

TEST(FirFilter, StreamingMatchesBlock) {
  Rng rng(6);
  RealVec taps(9);
  for (auto& t : taps) t = rng.gaussian();
  RealVec x(50);
  for (auto& v : x) v = rng.gaussian();

  FirFilter<double> streaming(taps);
  RealVec y_stream;
  for (double v : x) y_stream.push_back(streaming.step(v));

  const RealVec y_full = convolve(x, taps);
  for (std::size_t i = 0; i < x.size(); ++i) {
    EXPECT_NEAR(y_stream[i], y_full[i], 1e-12);
  }
}

TEST(FirFilter, StatePersistsAcrossBlocks) {
  RealVec taps = {0.5, 0.5};
  FirFilter<double> f(taps);
  (void)f.process({1.0});
  const auto y = f.process({0.0});
  EXPECT_NEAR(y[0], 0.5, 1e-12);  // remembers the previous sample
  f.reset();
  const auto z = f.process({0.0});
  EXPECT_NEAR(z[0], 0.0, 1e-12);
}

TEST(FirFilter, ConvolveSameCompensatesGroupDelay) {
  // Same-mode filtering of an impulse with a symmetric kernel returns the
  // kernel centered on the impulse position.
  RealVec x(11, 0.0);
  x[5] = 1.0;
  const RealVec kernel = {0.25, 0.5, 0.25};
  const RealVec y = convolve_same(x, kernel);
  ASSERT_EQ(y.size(), x.size());
  EXPECT_NEAR(y[5], 0.5, 1e-12);
  EXPECT_NEAR(y[4], 0.25, 1e-12);
  EXPECT_NEAR(y[6], 0.25, 1e-12);
}

TEST(FirFilter, ComplexSameToMatchesConvolveSameBytes) {
  // The caller-buffer form of convolve_same(CplxVec, RealVec) on both sides
  // of the FFT crossover (64 taps for complex x real), and with the FFT
  // policy off.
  Rng rng(17);
  for (const bool fft : {true, false}) {
    const FastConvolveGuard policy(fft);
    for (const std::size_t taps : {1, 3, 63, 64, 129}) {
      for (const std::size_t n : {1, 40, 1000, 5003}) {
        CplxVec x(n);
        for (cplx& v : x) v = rng.cgaussian();
        RealVec h(taps);
        for (double& t : h) t = rng.gaussian();
        const CplxVec want = convolve_same(x, h);
        CplxVec got(n);
        convolve_same_to(x.data(), n, h, got.data());
        ASSERT_EQ(want.size(), n);
        EXPECT_EQ(test::first_byte_mismatch(got.data(), want.data(), n), n)
            << "fft " << fft << " taps " << taps << " n " << n;
      }
    }
  }
}

TEST(FirFilter, FloatSameRangeMatchesWholeCallSlice) {
  // Any output range of the float "same" convolution -- head edge,
  // interior, tail edge, and kernels longer than the input -- writes the
  // bytes of the whole call, so filtering a capture piece by piece changes
  // nothing. So does filtering the range from a cut of the input that holds
  // only the samples its outputs read (a gen-1 capture segment), where the
  // cut's own edges fall inside the capture. 300 taps take the whole
  // call's tap-scratch heap branch.
  Rng rng(18);
  for (const std::size_t taps : {1, 2, 3, 8, 63, 300}) {
    for (const std::size_t n : {1, 5, 40, 1000, 5003}) {
      std::vector<float> x(n);
      for (float& v : x) v = static_cast<float>(rng.gaussian());
      RealVec h(taps);
      for (double& t : h) t = rng.gaussian();
      std::vector<float> reversed(h.rbegin(), h.rend());
      std::vector<float> whole(n);
      convolve_same_to(x.data(), n, h, whole.data());
      std::vector<std::pair<std::size_t, std::size_t>> ranges = {{0, n}, {0, 1}, {n - 1, 1}};
      for (int t = 0; t < 20; ++t) {
        const auto first = static_cast<std::size_t>(rng.uniform_int(0, static_cast<int>(n)));
        ranges.emplace_back(first, static_cast<std::size_t>(
                                       rng.uniform_int(0, static_cast<int>(n - first))));
      }
      const std::size_t center = (taps - 1) / 2;
      const std::size_t reach_back = taps - 1 - center;
      for (const auto& [first, count] : ranges) {
        const std::string where = "taps " + std::to_string(taps) + " n " + std::to_string(n) +
                                  " first " + std::to_string(first) + " count " +
                                  std::to_string(count);
        std::vector<float> got(count + 1, -9.0f);
        convolve_same_to(x.data(), n, reversed, got.data(), first, count);
        EXPECT_EQ(test::first_byte_mismatch(got.data(), whole.data() + first, count), count)
            << where;
        EXPECT_EQ(got[count], -9.0f) << "wrote past count";

        const std::size_t cut_begin = first - std::min(first, reach_back);
        const std::size_t cut_end = std::min(n, first + count + center);
        const std::vector<float> cut(x.begin() + static_cast<std::ptrdiff_t>(cut_begin),
                                     x.begin() + static_cast<std::ptrdiff_t>(cut_end));
        std::vector<float> from_cut(count);
        convolve_same_to(cut.data(), cut.size(), reversed, from_cut.data(), first - cut_begin,
                         count);
        EXPECT_EQ(test::first_byte_mismatch(from_cut.data(), whole.data() + first, count),
                  count)
            << "cut " << where;
      }
    }
  }
}

// --------------------------------------------------------------- biquad ----

TEST(Biquad, NotchKillsCenterKeepsFar) {
  const double fs = 1e9;
  const BiquadCoeffs c = design_notch(100e6, 10.0, fs);
  EXPECT_LT(amp_to_db(std::abs(biquad_response_at(c, 100e6, fs)) + 1e-30), -60.0);
  EXPECT_NEAR(amp_to_db(std::abs(biquad_response_at(c, 300e6, fs))), 0.0, 0.5);
  EXPECT_NEAR(amp_to_db(std::abs(biquad_response_at(c, 10e6, fs))), 0.0, 0.5);
}

TEST(Biquad, LowpassShape) {
  const double fs = 1e9;
  const BiquadCoeffs c = design_biquad_lowpass(50e6, 0.7071, fs);
  EXPECT_NEAR(amp_to_db(std::abs(biquad_response_at(c, 1e6, fs))), 0.0, 0.1);
  EXPECT_NEAR(amp_to_db(std::abs(biquad_response_at(c, 50e6, fs))), -3.0, 0.3);
  EXPECT_LT(amp_to_db(std::abs(biquad_response_at(c, 400e6, fs))), -30.0);
}

TEST(Biquad, StreamingNotchSuppressesTone) {
  const double fs = 1e9;
  Biquad<double> notch(design_notch(80e6, 5.0, fs));
  Nco tone(80e6, fs);
  double in_power = 0.0, out_power = 0.0;
  // Skip the transient, then measure.
  for (int i = 0; i < 2000; ++i) (void)notch.step(tone.step().real());
  for (int i = 0; i < 8000; ++i) {
    const double x = tone.step().real();
    const double y = notch.step(x);
    in_power += x * x;
    out_power += y * y;
  }
  EXPECT_LT(out_power / in_power, 1e-3);
}

TEST(Biquad, CascadeDeepensNotch) {
  const double fs = 1e9;
  const BiquadCoeffs c = design_notch(100e6, 5.0, fs);
  const cplx h1 = biquad_response_at(c, 95e6, fs);
  BiquadCascade<double> two({c, c});
  // Response of the cascade at f = product of sections.
  const double h2_db = 2.0 * amp_to_db(std::abs(h1));
  EXPECT_NEAR(h2_db, amp_to_db(std::abs(h1 * h1)), 1e-9);
  EXPECT_EQ(two.num_sections(), 2u);
}

// ------------------------------------------------------------------ nco ----

TEST(Nco, FrequencyAccuracy) {
  const double fs = 1e9;
  Nco nco(25e6, fs);
  // After fs/f samples the phase must return to the start (one full cycle).
  const std::size_t period = 40;  // 1e9 / 25e6
  const CplxVec cycle = nco.generate(period + 1);
  EXPECT_NEAR(std::abs(cycle[0] - cycle[period]), 0.0, 1e-9);
}

TEST(Nco, QuadratureRelation) {
  Nco nco(10e6, 1e9, 0.3);
  for (int i = 0; i < 100; ++i) {
    const cplx v = nco.step();
    EXPECT_NEAR(std::abs(v), 1.0, 1e-12);  // unit magnitude always
  }
}

TEST(Nco, NegativeFrequencyConjugates) {
  Nco pos(10e6, 1e9), neg(-10e6, 1e9);
  for (int i = 0; i < 50; ++i) {
    const cplx a = pos.step();
    const cplx b = neg.step();
    EXPECT_NEAR(std::abs(a - std::conj(b)), 0.0, 1e-12);
  }
}

TEST(Nco, RejectsAboveNyquist) {
  EXPECT_THROW(Nco(600e6, 1e9), InvalidArgument);
}

// ----------------------------------------------------------- correlator ----

TEST(Correlator, FindsEmbeddedTemplate) {
  Rng rng(8);
  CplxVec tmpl(32);
  for (auto& v : tmpl) v = rng.cgaussian();
  CplxVec x(256, cplx{});
  const std::size_t where = 77;
  for (std::size_t i = 0; i < tmpl.size(); ++i) x[where + i] = tmpl[i];

  const RealVec nc = normalized_correlation(x, tmpl);
  EXPECT_EQ(argmax_abs(nc), where);
  EXPECT_NEAR(nc[where], 1.0, 1e-9);
}

TEST(Correlator, NormalizedIsScaleInvariant) {
  Rng rng(9);
  CplxVec tmpl(16);
  for (auto& v : tmpl) v = rng.cgaussian();
  CplxVec x(64, cplx{});
  for (std::size_t i = 0; i < tmpl.size(); ++i) x[10 + i] = 3.7 * tmpl[i];
  const RealVec nc = normalized_correlation(x, tmpl);
  EXPECT_NEAR(nc[10], 1.0, 1e-9);
}

TEST(Correlator, RealCorrelationSign) {
  RealVec tmpl = {1.0, -1.0, 1.0};
  RealVec x = {-1.0, 1.0, -1.0, 0.0};
  const RealVec c = correlate(x, tmpl);
  EXPECT_NEAR(c[0], -3.0, 1e-12);  // anti-aligned
}

TEST(Correlator, RealTapsMatchPromotedTemplateBytes) {
  // correlate(x, real taps) must write the bytes of correlate(x, taps
  // promoted to complex) on both sides of the FFT crossover: 32+ taps
  // against 2000 samples take the overlap-save path.
  Rng rng(10);
  const std::size_t nx = 2000;
  CplxVec x = random_cplx(rng, nx);
  for (std::size_t i = 0; i < nx; i += 5) {
    x[i] = cplx(i % 2 == 0 ? -0.0 : 0.0, i % 3 == 0 ? -0.0 : x[i].imag());
  }
  for (std::size_t i = 2; i < nx; i += 11) x[i] = cplx(x[i].real(), -0.0);
  auto expect_same_bytes = [&](const CplxVec& xs, const RealVec& taps, const std::string& what) {
    const CplxVec want = correlate(xs, CplxVec(taps.begin(), taps.end()));
    const CplxVec got = correlate(xs, taps);
    ASSERT_EQ(got.size(), want.size()) << what;
    ASSERT_EQ(test::first_byte_mismatch(got.data(), want.data(), got.size()), got.size())
        << what;
  };
  for (const bool fast : {true, false}) {
    const FastConvolveGuard guard(fast);
    std::size_t fft_sizes = 0;
    for (std::size_t n = 1; n <= 40; ++n) {
      RealVec taps = random_real(rng, n);
      taps[n / 2] = -0.0;
      if (n > 2) taps[0] = 0.0;
      fft_sizes += use_fft_convolve(nx, n, ConvKind::kCplxCplx) ? 1 : 0;
      expect_same_bytes(x, taps, std::to_string(n) + " taps, fast " + std::to_string(fast));
    }
    EXPECT_EQ(fft_sizes, fast ? 9u : 0u);  // 32..40 taps
    expect_same_bytes(x, RealVec(25, 0.0), "zero taps");
    expect_same_bytes(x, RealVec(40, -0.0), "negative-zero taps");
    expect_same_bytes(CplxVec(64, cplx(-0.0, 0.0)), random_real(rng, 9), "signed-zero samples");
  }
  EXPECT_TRUE(correlate(CplxVec(8, cplx(1.0, 1.0)), RealVec(9, 1.0)).empty());
  EXPECT_TRUE(correlate(x, RealVec{}).empty());
}

TEST(Correlator, IntegrateAndDump) {
  IntegrateAndDump<double> iad(4);
  double out = 0.0;
  int dumps = 0;
  for (int i = 1; i <= 8; ++i) {
    if (iad.push(1.0, out)) {
      ++dumps;
      EXPECT_DOUBLE_EQ(out, 4.0);
    }
  }
  EXPECT_EQ(dumps, 2);
}

// --------------------------------------------------------- ISA dispatch ----
// Every dispatched clone must write the portable clone's bytes. Golden
// digests cannot show this: a few-trial BER digest does not see ulp drift.

/// The non-portable ISAs this host runs; prints and records the skipped ones.
std::vector<Isa> wide_isas_or_report_skips() {
  std::vector<Isa> run = test::supported_isas_or_report_skips();
  run.erase(run.begin());  // the portable clone is the reference
  return run;
}

/// Gaussian samples salted with signed zeros, so sign-of-zero handling
/// is part of the byte comparison.
RealVec salted_real(Rng& rng, std::size_t n) {
  RealVec v = random_real(rng, n);
  for (std::size_t i = 0; i < n; i += 7) v[i] = (i % 2 == 0) ? -0.0 : 0.0;
  return v;
}

const std::size_t kIsaLagCounts[] = {1, 7, 31, 33, 131, 1000, 4099};
const std::size_t kIsaTapCounts[] = {1, 63, 257};

TEST(IsaDispatch, DotBankClonesMatchPortableBytes) {
  const std::vector<Isa> wide = wide_isas_or_report_skips();
  Rng rng(90);
  for (const std::size_t h_len : kIsaTapCounts) {
    for (const std::size_t lags : kIsaLagCounts) {
      const RealVec x = salted_real(rng, lags + h_len - 1);
      RealVec h = salted_real(rng, h_len);
      h[h_len / 2] = -0.0;
      const std::vector<float> xf(x.begin(), x.end());
      const std::vector<float> hf(h.begin(), h.end());
      const CplxVec xc = random_cplx(rng, lags + h_len - 1);

      RealVec ref(lags);
      std::vector<float> ref_f(lags);
      CplxVec ref_c(lags);
      detail::dot_bank(Isa::kPortable, x.data(), lags, h.data(), h_len, ref.data());
      detail::dot_bank(Isa::kPortable, xf.data(), lags, hf.data(), h_len, ref_f.data());
      detail::dot_bank(Isa::kPortable, xc.data(), lags, h.data(), h_len, ref_c.data());
      const std::string where = std::to_string(lags) + " lags x " + std::to_string(h_len);

      // The portable clone itself is the per-lag ascending-tap scalar sum.
      for (std::size_t j = 0; j < lags; ++j) {
        float acc_f = 0.0f;
        cplx acc_c{};
        for (std::size_t m = 0; m < h_len; ++m) {
          acc_f += xf[j + m] * hf[m];
          acc_c += xc[j + m] * h[m];
        }
        const double acc = dot(x.data() + j, h.data(), h_len);
        ASSERT_EQ(std::memcmp(&ref[j], &acc, sizeof acc), 0) << where << " @" << j;
        ASSERT_EQ(std::memcmp(&ref_f[j], &acc_f, sizeof acc_f), 0) << where << " @" << j;
        ASSERT_EQ(std::memcmp(&ref_c[j], &acc_c, sizeof acc_c), 0) << where << " @" << j;
      }

      for (const Isa isa : wide) {
        RealVec out(lags);
        std::vector<float> out_f(lags);
        CplxVec out_c(lags);
        detail::dot_bank(isa, x.data(), lags, h.data(), h_len, out.data());
        detail::dot_bank(isa, xf.data(), lags, hf.data(), h_len, out_f.data());
        detail::dot_bank(isa, xc.data(), lags, h.data(), h_len, out_c.data());
        EXPECT_EQ(test::first_byte_mismatch(out.data(), ref.data(), lags), lags)
            << isa_name(isa) << " double, " << where;
        EXPECT_EQ(test::first_byte_mismatch(out_f.data(), ref_f.data(), lags), lags)
            << isa_name(isa) << " float, " << where;
        EXPECT_EQ(test::first_byte_mismatch(out_c.data(), ref_c.data(), lags), lags)
            << isa_name(isa) << " complex, " << where;
      }
    }
  }
}

/// The scatter "same"-mode convolution the complex direct path used to run
/// (full convolution, then the centred window): the byte reference.
CplxVec scatter_convolve_same(const CplxVec& x, const RealVec& h) {
  CplxVec full(x.size() + h.size() - 1, cplx{});
  for (std::size_t i = 0; i < x.size(); ++i) {
    for (std::size_t k = 0; k < h.size(); ++k) full[i + k] += x[i] * h[k];
  }
  const auto start = static_cast<std::ptrdiff_t>((h.size() - 1) / 2);
  return CplxVec(full.begin() + start, full.begin() + start + static_cast<std::ptrdiff_t>(x.size()));
}

TEST(IsaDispatch, ComplexConvolveSameMatchesScatterBytes) {
  const FastConvolveGuard direct_only(false);
  Rng rng(91);
  // Odd and even tap counts, h longer than x, and interiors that are not a
  // whole number of vector blocks.
  const std::pair<std::size_t, std::size_t> sizes[] = {
      {1, 1},    {1, 2},     {5, 63},    {62, 63},  {63, 63},  {64, 64},
      {100, 8},  {257, 63},  {1000, 63}, {1001, 64}, {4099, 257}, {30, 257},
  };
  for (const auto& [nx, nh] : sizes) {
    CplxVec x = random_cplx(rng, nx);
    RealVec h = salted_real(rng, nh);
    for (std::size_t i = 0; i < nx; i += 5) x[i] = cplx(-0.0, (i % 2 == 0) ? 0.0 : -0.0);
    const CplxVec ref = scatter_convolve_same(x, h);
    const CplxVec got = convolve_same(x, h);
    ASSERT_EQ(got.size(), ref.size());
    EXPECT_EQ(test::first_byte_mismatch(got.data(), ref.data(), ref.size()), ref.size())
        << nx << " x " << nh << " on " << isa_name(host_isa());
  }
}

// The scalar std::complex radix-2 code FftPlan, RfftPlan and overlap-save
// ran before their ISA clones, kept as the byte reference. The attribute
// keeps it out of the vectorizer: under -march=native GCC's SLP pass fuses
// the ac - bd, ad + bc of a complex product into vfmaddsub, which rounds
// once instead of twice.
#define UWB_SCALAR_REFERENCE gnu::optimize("fp-contract=off", "no-tree-vectorize")

[[UWB_SCALAR_REFERENCE]] void reference_fft(cplx* x, std::size_t n, bool inverse) {
  std::vector<std::uint32_t> rev(n);
  for (std::size_t i = 1, j = 0; i < n; ++i) {
    std::size_t bit = n >> 1;
    for (; j & bit; bit >>= 1) j ^= bit;
    j ^= bit;
    rev[i] = static_cast<std::uint32_t>(j);
  }
  CplxVec twiddle;
  for (std::size_t len = 2; len <= n; len <<= 1) {
    const double ang = -two_pi / static_cast<double>(len);
    for (std::size_t k = 0; k < len / 2; ++k) {
      const double a = ang * static_cast<double>(k);
      twiddle.emplace_back(std::cos(a), std::sin(a));
    }
  }
  for (std::size_t i = 1; i < n; ++i) {
    const std::size_t j = rev[i];
    if (i < j) std::swap(x[i], x[j]);
  }
  std::size_t tw = 0;
  for (std::size_t len = 2; len <= n; len <<= 1) {
    const cplx* w = twiddle.data() + tw;
    const std::size_t half = len / 2;
    for (std::size_t i = 0; i < n; i += len) {
      for (std::size_t k = 0; k < half; ++k) {
        const cplx wk = inverse ? std::conj(w[k]) : w[k];
        const cplx u = x[i + k];
        const cplx v = x[i + k + half] * wk;
        x[i + k] = u + v;
        x[i + k + half] = u - v;
      }
    }
    tw += half;
  }
  if (inverse) {
    const double inv_n = 1.0 / static_cast<double>(n);
    for (std::size_t i = 0; i < n; ++i) x[i] *= inv_n;
  }
}

CplxVec reference_rfft_twiddles(std::size_t n) {
  const std::size_t m = n / 2;
  CplxVec w(m / 2 + 1);
  for (std::size_t k = 0; k <= m / 2; ++k) {
    const double a = -two_pi * static_cast<double>(k) / static_cast<double>(n);
    w[k] = cplx(std::cos(a), std::sin(a));
  }
  return w;
}

[[UWB_SCALAR_REFERENCE]] void reference_rfft_forward(const double* x, std::size_t n,
                                                     cplx* spec) {
  const std::size_t m = n / 2;
  const CplxVec w = reference_rfft_twiddles(n);
  for (std::size_t j = 0; j < m; ++j) spec[j] = cplx(x[2 * j], x[2 * j + 1]);
  reference_fft(spec, m, false);
  const cplx z0 = spec[0];
  spec[0] = cplx(z0.real() + z0.imag(), 0.0);
  spec[m] = cplx(z0.real() - z0.imag(), 0.0);
  for (std::size_t k = 1; k < m - k; ++k) {
    const cplx a = spec[k];
    const cplx b = spec[m - k];
    const cplx e = 0.5 * (a + std::conj(b));
    const cplx o = cplx(0.0, -0.5) * (a - std::conj(b));
    const cplx t = w[k] * o;
    spec[k] = e + t;
    spec[m - k] = std::conj(e - t);
  }
  if (m >= 2) spec[m / 2] = std::conj(spec[m / 2]);
}

[[UWB_SCALAR_REFERENCE]] void reference_rfft_inverse(cplx* spec, std::size_t n, double* x) {
  const std::size_t m = n / 2;
  const CplxVec w = reference_rfft_twiddles(n);
  const double x0 = spec[0].real();
  const double xm = spec[m].real();
  spec[0] = cplx(0.5 * (x0 + xm), 0.5 * (x0 - xm));
  for (std::size_t k = 1; k < m - k; ++k) {
    const cplx a = spec[k];
    const cplx b = spec[m - k];
    const cplx e = 0.5 * (a + std::conj(b));
    const cplx o = std::conj(w[k]) * (0.5 * (a - std::conj(b)));
    spec[k] = e + cplx(-o.imag(), o.real());
    spec[m - k] = std::conj(e) + cplx(o.imag(), o.real());
  }
  if (m >= 2) spec[m / 2] = std::conj(spec[m / 2]);
  reference_fft(spec, m, true);
  for (std::size_t j = 0; j < m; ++j) {
    x[2 * j] = spec[j].real();
    x[2 * j + 1] = spec[j].imag();
  }
}

/// a[k] * b[k] by std::complex, Annex G step included.
[[UWB_SCALAR_REFERENCE]] CplxVec reference_mul(CplxVec a, const CplxVec& b) {
  for (std::size_t k = 0; k < a.size(); ++k) a[k] *= b[k];
  return a;
}

std::size_t reference_ols_size(std::size_t h_len, std::size_t out_len) {
  return std::min(next_pow2(out_len), std::max<std::size_t>(1024, next_pow2(4 * h_len)));
}

/// Full linear convolution by the old complex overlap-save loop.
[[UWB_SCALAR_REFERENCE]] CplxVec reference_ols(const CplxVec& x, const CplxVec& h) {
  const std::size_t out_len = x.size() + h.size() - 1;
  const std::size_t n = reference_ols_size(h.size(), out_len);
  const std::size_t hop = n - h.size() + 1;
  CplxVec kernel(n, cplx{});
  std::copy(h.begin(), h.end(), kernel.begin());
  reference_fft(kernel.data(), n, false);
  CplxVec out(out_len);
  CplxVec block(n);
  for (std::size_t s = 0; s < out_len; s += hop) {
    const auto i0 = static_cast<std::ptrdiff_t>(s) - static_cast<std::ptrdiff_t>(h.size() - 1);
    for (std::size_t j = 0; j < n; ++j) {
      const std::ptrdiff_t i = i0 + static_cast<std::ptrdiff_t>(j);
      block[j] = (i >= 0 && i < static_cast<std::ptrdiff_t>(x.size()))
                     ? x[static_cast<std::size_t>(i)]
                     : cplx{};
    }
    reference_fft(block.data(), n, false);
    for (std::size_t k = 0; k < n; ++k) block[k] *= kernel[k];
    reference_fft(block.data(), n, true);
    for (std::size_t t = 0; t < std::min(hop, out_len - s); ++t) {
      out[s + t] = block[h.size() - 1 + t];
    }
  }
  return out;
}

/// Full linear convolution by the old real x real overlap-save loop.
[[UWB_SCALAR_REFERENCE]] RealVec reference_ols(const RealVec& x, const RealVec& h) {
  const std::size_t out_len = x.size() + h.size() - 1;
  const std::size_t n = std::max<std::size_t>(2, reference_ols_size(h.size(), out_len));
  const std::size_t hop = n - h.size() + 1;
  RealVec block(n, 0.0);
  std::copy(h.begin(), h.end(), block.begin());
  CplxVec kernel(n / 2 + 1);
  reference_rfft_forward(block.data(), n, kernel.data());
  CplxVec spec(n / 2 + 1);
  RealVec out(out_len);
  for (std::size_t s = 0; s < out_len; s += hop) {
    const auto i0 = static_cast<std::ptrdiff_t>(s) - static_cast<std::ptrdiff_t>(h.size() - 1);
    for (std::size_t j = 0; j < n; ++j) {
      const std::ptrdiff_t i = i0 + static_cast<std::ptrdiff_t>(j);
      block[j] = (i >= 0 && i < static_cast<std::ptrdiff_t>(x.size()))
                     ? x[static_cast<std::size_t>(i)]
                     : 0.0;
    }
    reference_rfft_forward(block.data(), n, spec.data());
    for (std::size_t k = 0; k < spec.size(); ++k) spec[k] *= kernel[k];
    reference_rfft_inverse(spec.data(), n, block.data());
    for (std::size_t t = 0; t < std::min(hop, out_len - s); ++t) {
      out[s + t] = block[h.size() - 1 + t];
    }
  }
  return out;
}

/// Complex Gaussian samples salted with signed zeros in either part.
CplxVec salted_cplx(Rng& rng, std::size_t n) {
  CplxVec v = random_cplx(rng, n);
  for (std::size_t i = 0; i < n; i += 5) {
    const double zero = (i % 3 == 0) ? -0.0 : 0.0;
    v[i] = (i % 2 == 0) ? cplx(zero, v[i].imag()) : cplx(v[i].real(), -zero);
  }
  if (n > 3) v[3] = cplx(-0.0, -0.0);
  return v;
}

const detail::LaneCheck kLaneChecks[] = {detail::LaneCheck::kIfNeeded,
                                         detail::LaneCheck::kAlways};

/// Index of the first double whose bytes differ, NaN matching any NaN, or
/// n when all match. For the real transform's passes on infinite inputs:
/// which operand's NaN a NaN - NaN in the scalar reference passes on (and
/// so the sign a conj() then gives it) varies with how GCC compiles that
/// reference -- it differs between -O3 and -O2 with sanitizers -- while
/// the clones write the same bytes in both.
std::size_t first_mismatch_any_nan(const double* a, const double* b, std::size_t n) {
  for (std::size_t i = 0; i < n; ++i) {
    if (std::isnan(a[i]) && std::isnan(b[i])) continue;
    if (std::memcmp(a + i, b + i, sizeof(double)) != 0) return i;
  }
  return n;
}

TEST(IsaDispatch, FftClonesMatchScalarReferenceBytes) {
  const std::vector<Isa> isas = test::supported_isas_or_report_skips();
  Rng rng(92);
  // Finite inputs take the unchecked lanes under kIfNeeded; kAlways runs
  // the Annex G lane step on them too. Infinite and NaN inputs take it
  // under kIfNeeded, and a lone infinity makes NaN-NaN products whose
  // Annex G result is infinite again.
  const double inf = std::numeric_limits<double>::infinity();
  const double nan = std::numeric_limits<double>::quiet_NaN();
  for (std::size_t n = 1; n <= (std::size_t{1} << 16); n *= 2) {
    std::vector<CplxVec> inputs = {salted_cplx(rng, n)};
    if (n >= 4) {
      CplxVec wild = salted_cplx(rng, n);
      wild[n / 4] = cplx(inf, 0.0);
      inputs.push_back(wild);
      wild[n / 2 + 1] = cplx(-1.0, -inf);
      wild[1] = cplx(nan, 2.0);
      inputs.push_back(wild);
    }
    for (std::size_t c = 0; c < inputs.size(); ++c) {
      for (const bool inverse : {false, true}) {
        CplxVec ref = inputs[c];
        reference_fft(ref.data(), n, inverse);
        if (c == 1 && n >= 64) {
          // The Annex G step turned NaN-NaN products back into infinities.
          bool has_inf = false;
          for (const cplx& v : ref) {
            has_inf = has_inf || std::isinf(v.real()) || std::isinf(v.imag());
          }
          EXPECT_TRUE(has_inf) << n;
        }
        for (const Isa isa : isas) {
          for (const detail::LaneCheck check : kLaneChecks) {
            CplxVec got = inputs[c];
            detail::fft(isa, fft_plan(n), got.data(), inverse, check);
            EXPECT_EQ(test::first_byte_mismatch(got.data(), ref.data(), n), n)
                << isa_name(isa) << " n=" << n << " input " << c
                << (inverse ? " inverse" : " forward")
                << (check == detail::LaneCheck::kAlways ? " checked" : "");
          }
        }
      }
    }
  }
}

TEST(IsaDispatch, RfftAndOverlapSaveMatchReferenceBytes) {
  const std::vector<Isa> isas = test::supported_isas_or_report_skips();
  Rng rng(93);
  const double inf = std::numeric_limits<double>::infinity();
  for (std::size_t n = 2; n <= (std::size_t{1} << 15); n *= 2) {
    for (const bool wild : {false, true}) {
      RealVec x = salted_real(rng, n);
      CplxVec spec_in = salted_cplx(rng, n / 2 + 1);
      if (wild) {  // infinities reach the split and merge products
        x[n / 2] = -inf;
        spec_in[n / 8] = cplx(inf, 1.0);
      }
      CplxVec ref_spec(n / 2 + 1);
      reference_rfft_forward(x.data(), n, ref_spec.data());
      RealVec ref_x(n);
      CplxVec scratch = spec_in;
      reference_rfft_inverse(scratch.data(), n, ref_x.data());
      for (const Isa isa : isas) {
        for (const detail::LaneCheck check : kLaneChecks) {
          const std::string where = std::string(isa_name(isa)) + " n=" + std::to_string(n) +
                                    (check == detail::LaneCheck::kAlways ? " checked" : "") +
                                    (wild ? " wild" : "");
          CplxVec spec(n / 2 + 1);
          detail::rfft_forward(isa, rfft_plan(n), x.data(), spec.data(), check);
          const auto* got = reinterpret_cast<const double*>(spec.data());
          const auto* want = reinterpret_cast<const double*>(ref_spec.data());
          const std::size_t parts = 2 * spec.size();
          EXPECT_EQ(wild ? first_mismatch_any_nan(got, want, parts)
                         : test::first_byte_mismatch(got, want, parts),
                    parts)
              << "rfft forward " << where;
          RealVec back(n);
          scratch = spec_in;
          detail::rfft_inverse(isa, rfft_plan(n), scratch.data(), back.data(), check);
          EXPECT_EQ(wild ? first_mismatch_any_nan(back.data(), ref_x.data(), n)
                         : test::first_byte_mismatch(back.data(), ref_x.data(), n),
                    n)
              << "rfft inverse " << where;
        }
      }
    }
  }

  // The spectrum product alone, on every pair of parts from {finite, +-0,
  // +-inf, NaN}: the lanes the Annex G step redoes must see the operands.
  const double specials[] = {1.5, -0.0, 0.0, inf, -inf, std::numeric_limits<double>::quiet_NaN()};
  CplxVec lhs;
  CplxVec rhs;
  for (const double ar : specials) {
    for (const double ai : specials) {
      for (const double br : specials) {
        for (const double bi : specials) {
          lhs.emplace_back(ar, ai);
          rhs.emplace_back(br, bi);
        }
      }
    }
  }
  const CplxVec ref_product = reference_mul(lhs, rhs);
  for (const Isa isa : isas) {
    CplxVec product = lhs;
    detail::spectrum_mul(isa, product.data(), rhs.data(), product.size(),
                         detail::LaneCheck::kAlways);
    const std::size_t parts = 2 * product.size();
    EXPECT_EQ(first_mismatch_any_nan(reinterpret_cast<const double*>(product.data()),
                                     reinterpret_cast<const double*>(ref_product.data()), parts),
              parts)
        << "spectrum product of special values, " << isa_name(isa);
  }

  // Every overlap-save overload: one block, several blocks, kernels above
  // the 1024-point floor, and h longer than x.
  const std::pair<std::size_t, std::size_t> sizes[] = {
      {1, 1}, {37, 12}, {700, 61}, {5000, 100}, {3000, 300}, {6000, 1200}, {90, 700}, {2, 3000},
  };
  for (const auto& [nx, nh] : sizes) {
   for (const bool wild : {false, true}) {
    RealVec xr = salted_real(rng, nx);
    const RealVec hr = salted_real(rng, nh);
    CplxVec xc = salted_cplx(rng, nx);
    const CplxVec hc = salted_cplx(rng, nh);
    if (wild) {  // infinities reach the spectrum products' Annex G step
      xr[nx / 2] = inf;
      xc[nx / 2] = cplx(1.0, -inf);
    }
    CplxVec hr_c(hr.begin(), hr.end());
    CplxVec hc_conj_rev(nh);
    RealVec hr_rev(hr.rbegin(), hr.rend());
    for (std::size_t i = 0; i < nh; ++i) hc_conj_rev[i] = std::conj(hc[nh - 1 - i]);

    const RealVec ref_rr = reference_ols(xr, hr);
    const CplxVec ref_cr = reference_ols(xc, hr_c);
    const CplxVec ref_cc = reference_ols(xc, hc);
    const RealVec full_corr_r = reference_ols(xr, hr_rev);
    const CplxVec full_corr_c = reference_ols(xc, hc_conj_rev);
    RealVec ref_corr_r;
    CplxVec ref_corr_c;
    if (nx >= nh) {
      ref_corr_r.assign(full_corr_r.begin() + static_cast<std::ptrdiff_t>(nh - 1),
                        full_corr_r.begin() + static_cast<std::ptrdiff_t>(nx));
      ref_corr_c.assign(full_corr_c.begin() + static_cast<std::ptrdiff_t>(nh - 1),
                        full_corr_c.begin() + static_cast<std::ptrdiff_t>(nx));
    }
    for (const Isa isa : isas) {
      const std::string where = std::string(isa_name(isa)) + " " + std::to_string(nx) + " x " +
                                std::to_string(nh) + (wild ? " wild" : "");
      FftWorkspace ws;
      RealVec rr;
      CplxVec cr;
      CplxVec cc;
      RealVec corr_r;
      CplxVec corr_c;
      detail::ols_convolve(isa, xr, hr, rr, ws);
      detail::ols_convolve(isa, xc, hr, cr, ws);
      detail::ols_convolve(isa, xc, hc, cc, ws);
      detail::ols_correlate(isa, xr, hr, corr_r, ws);
      detail::ols_correlate(isa, xc, hc, corr_c, ws);
      ASSERT_EQ(rr.size(), ref_rr.size()) << where;
      ASSERT_EQ(cr.size(), ref_cr.size()) << where;
      ASSERT_EQ(cc.size(), ref_cc.size()) << where;
      ASSERT_EQ(corr_r.size(), ref_corr_r.size()) << where;
      ASSERT_EQ(corr_c.size(), ref_corr_c.size()) << where;
      const auto mismatch = [wild](const auto& got, const auto& want) {
        const auto* g = reinterpret_cast<const double*>(got.data());
        const auto* w = reinterpret_cast<const double*>(want.data());
        const std::size_t parts = got.size() * sizeof(got[0]) / sizeof(double);
        return (wild ? first_mismatch_any_nan(g, w, parts) : test::first_byte_mismatch(g, w, parts))
               == parts;
      };
      EXPECT_TRUE(mismatch(rr, ref_rr)) << "convolve real x real, " << where;
      EXPECT_TRUE(mismatch(cr, ref_cr)) << "convolve complex x real, " << where;
      EXPECT_TRUE(mismatch(cc, ref_cc)) << "convolve complex x complex, " << where;
      EXPECT_TRUE(mismatch(corr_r, ref_corr_r)) << "correlate real, " << where;
      EXPECT_TRUE(mismatch(corr_c, ref_corr_c)) << "correlate complex, " << where;
    }
   }
  }
}

// ------------------------------------------------------------ resampler ----

TEST(Resampler, UpsamplePreservesShape) {
  // A slow sine upsampled 4x must still be the same sine.
  const double fs = 1e6;
  const std::size_t n = 256;
  RealVec x(n);
  for (std::size_t i = 0; i < n; ++i) x[i] = std::sin(two_pi * 20e3 * i / fs);
  const RealWaveform up = upsample(RealWaveform(x, fs), 4);
  EXPECT_DOUBLE_EQ(up.sample_rate(), 4e6);
  ASSERT_EQ(up.size(), 4 * n);
  // Compare mid-buffer samples (edges carry filter transients).
  double max_err = 0.0;
  for (std::size_t i = 200; i < 800; ++i) {
    const double expected = std::sin(two_pi * 20e3 * i / (4.0 * fs));
    max_err = std::max(max_err, std::abs(up[i] - expected));
  }
  EXPECT_LT(max_err, 0.02);
}

TEST(Resampler, DecimateRemovesHighBand) {
  // Tone above the decimated Nyquist must vanish.
  const double fs = 8e6;
  const std::size_t n = 4096;
  RealVec x(n);
  for (std::size_t i = 0; i < n; ++i) x[i] = std::sin(two_pi * 3e6 * i / fs);
  const RealWaveform down = decimate(RealWaveform(x, fs), 4);
  EXPECT_DOUBLE_EQ(down.sample_rate(), 2e6);
  EXPECT_LT(down.power(), 0.01);  // 3 MHz tone is beyond 1 MHz Nyquist
}

// ------------------------------------------------------------------ psd ----

TEST(PowerSpectrum, WhiteNoiseLevel) {
  // PSD of white noise with variance s^2 at rate fs is s^2/fs (one-sided
  // doubles it but spreads over fs/2 -- total power must come back).
  Rng rng(10);
  const double fs = 1e9;
  RealVec x(65536);
  for (auto& v : x) v = rng.gaussian();
  const Psd psd = welch_psd(RealWaveform(x, fs), 1024);
  EXPECT_NEAR(psd.total_power(), 1.0, 0.05);
}

TEST(PowerSpectrum, TonePeakFrequency) {
  const double fs = 1e9;
  const double f0 = 123e6;
  RealVec x(32768);
  for (std::size_t i = 0; i < x.size(); ++i) x[i] = std::cos(two_pi * f0 * i / fs);
  const Psd psd = welch_psd(RealWaveform(x, fs), 2048);
  const std::size_t peak = psd.peak_bin();
  EXPECT_NEAR(psd.freq_hz[peak], f0, fs / 2048.0);
  // The tone power (0.5 for unit-amplitude cosine) integrates back.
  EXPECT_NEAR(psd.total_power(), 0.5, 0.05);
}

TEST(PowerSpectrum, ComplexPsdCoversNegativeFrequencies) {
  const double fs = 1e9;
  const double f0 = -200e6;
  CplxVec x(16384);
  for (std::size_t i = 0; i < x.size(); ++i) {
    x[i] = std::polar(1.0, two_pi * f0 * static_cast<double>(i) / fs);
  }
  const Psd psd = welch_psd(CplxWaveform(x, fs), 1024);
  const std::size_t peak = psd.peak_bin();
  EXPECT_NEAR(psd.freq_hz[peak], f0, fs / 1024.0);
}

TEST(PowerSpectrum, BandwidthMeasures) {
  // 500 MHz-wide flat band around DC (complex): occupied BW ~ 500 MHz.
  Rng rng(11);
  const double fs = 4e9;
  CplxVec x(65536);
  for (auto& v : x) v = rng.cgaussian();
  // Filter to +/-250 MHz.
  const RealVec lp = design_lowpass(250e6, fs, 255);
  x = convolve_same(x, lp);
  const Psd psd = welch_psd(CplxWaveform(x, fs), 2048);
  EXPECT_NEAR(occupied_bandwidth(psd, 0.99), 500e6, 100e6);
  EXPECT_NEAR(bandwidth_at_level(psd, -10.0), 500e6, 120e6);
}

// ---------------------------------------------------------------- delay ----

TEST(DelayLine, IntegerDelay) {
  DelayLine<double> dl(3);
  EXPECT_DOUBLE_EQ(dl.step(1.0), 0.0);
  EXPECT_DOUBLE_EQ(dl.step(2.0), 0.0);
  EXPECT_DOUBLE_EQ(dl.step(3.0), 0.0);
  EXPECT_DOUBLE_EQ(dl.step(4.0), 1.0);
  EXPECT_DOUBLE_EQ(dl.step(5.0), 2.0);
}

TEST(FractionalDelay, HalfSampleInterpolates) {
  RealVec x = {0.0, 1.0, 0.0, 0.0};
  const RealVec y = fractional_delay(x, 1.5);
  // Sample at index i picks (1-frac)*x[i-1] + frac*x[i-2].
  EXPECT_NEAR(y[2], 0.5, 1e-12);
  EXPECT_NEAR(y[3], 0.5, 1e-12);
}

TEST(FractionalDelay, ZeroDelayIdentity) {
  RealVec x = {1.0, 2.0, 3.0};
  const RealVec y = fractional_delay(x, 0.0);
  for (std::size_t i = 0; i < x.size(); ++i) EXPECT_DOUBLE_EQ(y[i], x[i]);
}

}  // namespace
}  // namespace uwb::dsp
