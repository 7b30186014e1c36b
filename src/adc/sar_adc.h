#pragma once
/// \file sar_adc.h
/// \brief Successive-approximation-register ADC with capacitor-DAC
///        mismatch -- the paper's gen-2 converters ("two 5-bit successive
///        approximation register ADCs", Fig. 3).

#include <cstdint>

#include "adc/quantizer.h"
#include "common/rng.h"

namespace uwb::adc {

/// SAR parameters.
struct SarParams {
  int bits = 5;
  double full_scale = 1.0;
  double cap_mismatch_sigma = 0.0;  ///< per-cap relative mismatch stddev
  double comparator_noise = 0.0;    ///< rms comparator input noise [V]
};

/// Binary-search conversion against a binary-weighted capacitor DAC whose
/// weights carry static random mismatch (drawn once, like a real part).
///
/// The constructor tabulates the whole search: the comparator threshold of
/// every node of the decision tree and the reconstruction level of every
/// code, each summed from the mismatched weights in the order the bit-serial
/// search adds them. convert() then walks the tree without branches and
/// level_of() is one table read, with the bit-serial model's exact bytes.
class SarAdc final : public Adc {
 public:
  /// Comparator-noise stream salts: the stream is rng.fork(noise_salt), a
  /// function of (seed, salt) only, so two converters built from one Rng
  /// need different salts or their comparator noise is the same sequence.
  static constexpr std::uint64_t kNoiseSaltI = 0x5a7c0de;
  static constexpr std::uint64_t kNoiseSaltQ = 0x5a7c0df;

  /// Draws the capacitor mismatch from \p rng (one draw per bit, MSB first).
  SarAdc(const SarParams& params, Rng& rng, std::uint64_t noise_salt = kNoiseSaltI);

  [[nodiscard]] int bits() const noexcept override { return params_.bits; }
  [[nodiscard]] double full_scale() const noexcept override { return params_.full_scale; }

  /// Runs the \p bits-step successive approximation (with comparator noise
  /// drawn per decision, MSB first, when configured).
  [[nodiscard]] int convert(double x) noexcept override;

  /// Reconstruction using the *actual* (mismatched) weights -- a SAR's code
  /// maps back through the same DAC, so INL follows the mismatch. Only the
  /// low \p bits bits of \p code are read.
  [[nodiscard]] double level_of(int code) const noexcept override;

  /// The mismatched bit weights, MSB first [V].
  [[nodiscard]] const RealVec& weights() const noexcept { return weights_; }

 private:
  /// convert() with comparator noise; kept out of line so the noiseless
  /// walk compiles to a leaf function.
  [[gnu::noinline]] int convert_noisy(double x) noexcept;

  SarParams params_;
  RealVec weights_;        ///< weight of each bit decision, MSB first
  /// Comparator threshold of each decision-tree node, heap-ordered: node 1
  /// is the MSB decision, node n's children are 2n (bit 0) and 2n + 1
  /// (bit 1), and the 2^bits leaves below the last level are the codes.
  RealVec trial_;
  RealVec levels_;         ///< reconstruction level of each code
  unsigned code_mask_ = 0; ///< 2^bits - 1
  mutable Rng noise_rng_;  ///< comparator noise stream
};

/// digitize_iq() for a SAR pair: the same bytes and the same per-sample
/// I-then-Q order, with the converter calls bound statically.
CplxVec digitize_iq(const CplxVec& x, SarAdc& adc_i, SarAdc& adc_q);

/// The SAR-pair digitize_iq() of \p n samples into a caller-owned buffer.
void digitize_iq_to(const cplx* x, std::size_t n, SarAdc& adc_i, SarAdc& adc_q, cplx* out);

}  // namespace uwb::adc
