#pragma once
/// \file rng.h
/// \brief Deterministic random number generation for all stochastic models.
///
/// Every stochastic component in the library (noise sources, channel
/// realizations, data generators, jitter, mismatch) takes an explicit Rng or
/// a 64-bit seed. There is no global RNG state, so any experiment is exactly
/// reproducible from its printed seed.

#include <cstddef>
#include <cstdint>
#include <random>
#include <span>

#include "common/isa.h"
#include "common/types.h"

namespace uwb {

class Mt64Block;

namespace detail {

/// Mt64Block's refill with the clone for \p isa forced instead of the
/// host's choice, so tests can check every clone against std::mt19937_64.
/// \p isa must satisfy isa_supported().
void refill(Mt64Block& eng, Isa isa) noexcept;

}  // namespace detail

/// std::mt19937_64's exact output sequence, generated a block at a time.
///
/// Each refill runs the 312-word twist over the whole state and tempers every
/// new word into a buffer, so a draw is one buffered load. The refill is
/// integer-only and compiled once per ISA level (common/isa.h); every level
/// writes the same words. It meets the same UniformRandomBitGenerator
/// contract as std::mt19937_64 (result_type, min and max included), so every
/// std:: distribution returns the same values on either engine. A copy taken
/// mid-block continues the same stream.
class Mt64Block {
 public:
  using result_type = std::uint64_t;
  static constexpr std::size_t kWords = 312;  ///< state words = words per refill

  /// Seeds exactly as std::mt19937_64(seed) does.
  explicit Mt64Block(result_type seed) noexcept {
    state_[0] = seed;
    for (std::size_t i = 1; i < kWords; ++i) {
      const result_type prev = state_[i - 1];
      state_[i] = 6364136223846793005ULL * (prev ^ (prev >> 62)) + i;
    }
  }

  static constexpr result_type min() noexcept { return 0; }
  static constexpr result_type max() noexcept { return ~result_type{0}; }

  result_type operator()() noexcept {
    if (pos_ == kWords) refill();
    return out_[pos_++];
  }

  /// The buffered words not yet drawn, in draw order; refills first when the
  /// buffer is spent, so the span is never empty. Consume a prefix with skip().
  [[nodiscard]] std::span<const result_type> buffered() noexcept {
    if (pos_ == kWords) refill();
    return {out_ + pos_, kWords - pos_};
  }

  /// Consumes the next \p k words; \p k must not exceed buffered().size().
  void skip(std::size_t k) noexcept { pos_ += k; }

 private:
  void refill() noexcept;  // the host's clone

  result_type state_[kWords];  ///< untempered state, twisted in place
  /// Tempered words of the latest twist; zeroed so that copying an engine
  /// that has not drawn yet reads no indeterminate values.
  result_type out_[kWords] = {};
  std::size_t pos_ = kWords;  ///< next word of out_ to draw

  friend void detail::refill(Mt64Block& eng, Isa isa) noexcept;
};

/// Seeded pseudo-random generator with the distributions the library needs.
///
/// Draws from Mt64Block, which emits std::mt19937_64's exact sequence, through
/// the std:: distributions. Distinct subsystems should derive their own child
/// generators via fork() so that adding draws in one block never perturbs
/// another block's stream.
class Rng {
 public:
  /// Constructs from a 64-bit seed. Identical seeds yield identical streams.
  explicit Rng(uint64_t seed = 0x5eed'0000'cafe'f00dULL) : engine_(seed), seed_(seed) {}

  /// The seed this generator was constructed with (for logging).
  [[nodiscard]] uint64_t seed() const noexcept { return seed_; }

  /// Creates an independent child generator. The child's stream is a pure
  /// function of (parent seed, salt), not of how many draws the parent made.
  [[nodiscard]] Rng fork(uint64_t salt) const {
    // SplitMix64-style mix of seed and salt gives well-separated child seeds.
    uint64_t z = seed_ + 0x9e3779b97f4a7c15ULL * (salt + 1);
    z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ULL;
    z = (z ^ (z >> 27)) * 0x94d049bb133111ebULL;
    return Rng(z ^ (z >> 31));
  }

  /// Uniform double in [0, 1).
  double uniform() { return unif_(engine_); }

  /// Uniform double in [lo, hi).
  double uniform(double lo, double hi) { return lo + (hi - lo) * unif_(engine_); }

  /// Uniform integer in [lo, hi] inclusive.
  int uniform_int(int lo, int hi) {
    return std::uniform_int_distribution<int>(lo, hi)(engine_);
  }

  /// Standard normal draw (mean 0, variance 1).
  double gaussian() { return norm_(engine_); }

  /// Normal draw with the given mean and standard deviation.
  double gaussian(double mean, double stddev) { return mean + stddev * norm_(engine_); }

  /// Circularly-symmetric complex Gaussian with total variance \p variance
  /// (variance/2 per rail), the standard model for complex baseband noise.
  cplx cgaussian(double variance = 1.0) {
    const double sigma = std::sqrt(variance / 2.0);
    return {sigma * norm_(engine_), sigma * norm_(engine_)};
  }

  /// Exponential draw with the given mean (inter-arrival times in the
  /// Saleh-Valenzuela model).
  double exponential(double mean) {
    return std::exponential_distribution<double>(1.0 / mean)(engine_);
  }

  /// Fair coin: returns 0 or 1.
  uint8_t bit() { return static_cast<uint8_t>(engine_() & 1u); }

  /// Random equiprobable +/-1.
  double sign() { return (engine_() & 1u) ? 1.0 : -1.0; }

  /// Fills \p n random bits.
  BitVec bits(std::size_t n) {
    BitVec out(n);
    for (auto& b : out) b = bit();
    return out;
  }

  /// Access to the underlying engine for std:: distributions.
  Mt64Block& engine() noexcept { return engine_; }

 private:
  Mt64Block engine_;
  uint64_t seed_;
  std::uniform_real_distribution<double> unif_{0.0, 1.0};
  std::normal_distribution<double> norm_{0.0, 1.0};
};

}  // namespace uwb
