#include "adc/sar_adc.h"

#include <cmath>

#include "common/error.h"

namespace uwb::adc {

SarAdc::SarAdc(const SarParams& params, Rng& rng, std::uint64_t noise_salt)
    : params_(params), noise_rng_(rng.fork(noise_salt)) {
  detail::require(params.bits >= 1 && params.bits <= 16, "SarAdc: bits must be in [1,16]");
  detail::require(params.full_scale > 0.0, "SarAdc: full scale must be positive");

  // Binary-weighted cap DAC over the 2*FS input range: MSB weight FS,
  // halving down to the LSB. Bit k (0 = MSB) is built from 2^(bits-1-k)
  // unit capacitors, so its relative mismatch shrinks as 1/sqrt(units).
  weights_.resize(static_cast<std::size_t>(params.bits));
  double nominal = params.full_scale;
  for (int k = 0; k < params.bits; ++k) {
    const double units = std::pow(2.0, params.bits - 1 - k);
    const double rel_sigma = params.cap_mismatch_sigma / std::sqrt(units);
    weights_[static_cast<std::size_t>(k)] = nominal * (1.0 + rng.gaussian(0.0, rel_sigma));
    nominal /= 2.0;
  }

  // The successive approximation starts its DAC at the bottom of the range
  // and, on a 1 decision, keeps the trial value it compared against. So a
  // node's DAC value is its parent's (bit 0) or its parent's threshold
  // (bit 1), and its threshold adds the weight of its depth -- the same
  // additions, in the same order, as the bit-serial search makes.
  const std::size_t num_codes = std::size_t{1} << params.bits;
  code_mask_ = static_cast<unsigned>(num_codes - 1);
  RealVec dac(2 * num_codes);
  trial_.assign(num_codes, 0.0);  // node 0 is unused
  dac[1] = -params.full_scale;
  for (std::size_t k = 0; k < weights_.size(); ++k) {
    for (std::size_t node = std::size_t{1} << k; node < std::size_t{2} << k; ++node) {
      trial_[node] = dac[node] + weights_[k];
      dac[2 * node] = dac[node];
      dac[2 * node + 1] = trial_[node];
    }
  }
  // A leaf's DAC value is the sum over its code's set bits; the level is
  // the center of its LSB bin.
  levels_.resize(num_codes);
  for (std::size_t code = 0; code < num_codes; ++code) {
    levels_[code] = dac[num_codes + code] + weights_.back() / 2.0;
  }
}

int SarAdc::convert(double x) noexcept {
  if (params_.comparator_noise > 0.0) return convert_noisy(x);
  // Each decision picks a child: node = 2*node + (x >= threshold). A NaN
  // input compares false everywhere and lands on code 0, as before. Two
  // levels per step: x is compared against the node and both its children
  // at once, and the child's outcome is picked by the node's, so the loads
  // of a step do not wait on each other.
  const double* trial = trial_.data();
  std::size_t node = 1;
  int k = 0;
  for (; k + 2 <= params_.bits; k += 2) {
    const auto d0 = static_cast<std::size_t>(x >= trial[node]);
    const auto d1_low = static_cast<std::size_t>(x >= trial[2 * node]);
    const auto d1_high = static_cast<std::size_t>(x >= trial[2 * node + 1]);
    const std::size_t d1 = d1_low ^ ((d1_low ^ d1_high) & (0 - d0));
    node = 4 * node + 2 * d0 + d1;
  }
  if (k < params_.bits) node = 2 * node + static_cast<std::size_t>(x >= trial[node]);
  return static_cast<int>(node - (std::size_t{1} << params_.bits));
}

int SarAdc::convert_noisy(double x) noexcept {
  // The same walk with one noise draw per decision, MSB first.
  const double* trial = trial_.data();
  std::size_t node = 1;
  for (int k = 0; k < params_.bits; ++k) {
    const double decision_input = x + noise_rng_.gaussian(0.0, params_.comparator_noise);
    node = 2 * node + static_cast<std::size_t>(decision_input >= trial[node]);
  }
  return static_cast<int>(node - (std::size_t{1} << params_.bits));
}

double SarAdc::level_of(int code) const noexcept {
  return levels_[static_cast<unsigned>(code) & code_mask_];
}

[[gnu::flatten]] void digitize_iq_to(const cplx* x, std::size_t n, SarAdc& adc_i, SarAdc& adc_q,
                                     cplx* out) {
  // The generic loop with the calls bound statically (SarAdc is final) and
  // flattened: without comparator noise a sample's I and Q walks are then
  // independent chains in one loop body, which the core runs side by side.
  for (std::size_t i = 0; i < n; ++i) {
    out[i] = {adc_i.level_of(adc_i.convert(x[i].real())),
              adc_q.level_of(adc_q.convert(x[i].imag()))};
  }
}

CplxVec digitize_iq(const CplxVec& x, SarAdc& adc_i, SarAdc& adc_q) {
  CplxVec out(x.size());
  digitize_iq_to(x.data(), x.size(), adc_i, adc_q, out.data());
  return out;
}

}  // namespace uwb::adc
