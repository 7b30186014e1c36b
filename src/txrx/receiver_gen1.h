#pragma once
/// \file receiver_gen1.h
/// \brief The generation-1 receiver of Fig. 1: no downconverter, 4-way
///        time-interleaved flash ADC at 2 GSps, and a fully-digital back end
///        whose parallel correlators perform coarse acquisition, fine
///        timing and despreading.
///
/// Two-stage coarse acquisition (the "< 70 us" machinery):
///   Stage 1 -- pulse phase: noncoherent combining of |matched filter| over
///     acq_integration_frames frames for each of the frame_samples_adc
///     candidate sample phases, acq_parallelism_stage1 at a time.
///   Stage 2 -- code phase: one PN period (127 frames = 41.1 us) of
///     per-frame samples correlated against all cyclic shifts of the PN,
///     acq_parallelism_stage2 shifts at a time.
/// Modeled sync time = dwells1 * K1 * Tf + dwells2 * 127 * Tf, the real-time
/// cost of a streaming architecture with that much correlator hardware.
///
/// Digitization on demand: once timing is known (genie timing), the
/// despreader reads one matched-filter output per PRF frame, so the model
/// samples, converts and matched-filters only the few ADC samples under
/// those outputs (about 2% of a capture). Each of those stages is a pure
/// per-sample function of (index, lane, AGC gain), so every output keeps
/// the bytes of a whole-capture pass. The anti-alias filter and the AGC
/// power still cover the whole capture, since the gain depends on all of
/// it; acquisition and the SFD search read the whole filter.

#include <span>

#include "adc/flash_adc.h"
#include "adc/sampling.h"
#include "common/rng.h"
#include "common/types.h"
#include "common/waveform.h"
#include "dsp/aligned.h"
#include "txrx/transceiver_config.h"
#include "txrx/transmitter.h"

namespace uwb::txrx {

/// Gen-1 acquisition diagnostics.
struct Gen1AcqResult {
  bool acquired = false;
  std::size_t pulse_phase = 0;    ///< sample phase within a frame (stage 1)
  std::size_t code_phase = 0;     ///< PN chip shift (stage 2)
  std::size_t timing_offset = 0;  ///< preamble start sample at the ADC rate
  double stage2_metric = 0.0;     ///< normalized code correlation
  double sync_time_s = 0.0;       ///< modeled elapsed acquisition time
};

/// Per-packet receive result.
struct Gen1RxResult {
  Gen1AcqResult acq;
  BitVec data_bits;             ///< decoded data-section bits
  std::vector<double> data_soft;  ///< each bit's despread sum (< 0 decodes a 1)
  std::size_t bit_errors = 0;
  std::size_t bits_compared = 0;
};

/// Receiver options per run.
struct Gen1RxOptions {
  bool genie_timing = false;    ///< skip acquisition, use genie_offset
  std::size_t genie_offset = 0; ///< known preamble start at the ADC rate
};

/// The gen-1 receiver.
class Gen1Receiver {
 public:
  /// \p rng draws the converter's static mismatch once (comparator offsets,
  /// lane gain/offset/skew).
  Gen1Receiver(const Gen1Config& config, Rng& rng);

  [[nodiscard]] const Gen1Config& config() const noexcept { return config_; }

  /// Full receive: sample, convert, matched-filter, acquire, despread.
  /// Converts into the float sample arena once, then runs the
  /// single-precision pipeline below. With genie timing only the ADC
  /// windows under the data section's one pulse phase per frame are
  /// sampled, converted and matched-filtered.
  [[nodiscard]] Gen1RxResult receive(const RealWaveform& rx, const Gen1Transmitter& tx,
                                     const TxFrame& tx_reference,
                                     const Gen1RxOptions& options, Rng& rng);

  /// Hot-path receive over the caller's float sample arena at rate \p fs
  /// (the sparse-channel link path lands here without ever building a
  /// double waveform).
  [[nodiscard]] Gen1RxResult receive(std::span<const float> rx, double fs,
                                     const Gen1Transmitter& tx,
                                     const TxFrame& tx_reference,
                                     const Gen1RxOptions& options, Rng& rng);

  /// Acquisition only (bench E2/E11): processes a capture containing at
  /// least one PN period past the search uncertainty.
  [[nodiscard]] Gen1AcqResult acquire(const RealWaveform& rx, const Gen1Transmitter& tx,
                                      Rng& rng);

  /// Float-arena acquisition (see the receive overload above).
  [[nodiscard]] Gen1AcqResult acquire(std::span<const float> rx, double fs,
                                      const Gen1Transmitter& tx, Rng& rng);

 private:
  /// The matched-filter outputs a caller will read: count of them, stride
  /// apart from first. The default asks for every output.
  struct MfDemand {
    std::size_t first = 0;
    std::size_t stride = 1;
    std::size_t count = static_cast<std::size_t>(-1);
  };

  /// The demanded outputs, packed: values[i] is output
  /// demand.first + i * demand.stride of the whole filter, for every
  /// demanded output inside the capture. Under the default demand, values
  /// is the whole filter.
  struct MfView {
    std::span<const float> values;
    MfDemand demand;

    /// Demanded output \p idx, or nullptr when it lies past the capture.
    [[nodiscard]] const float* find(std::size_t idx) const noexcept {
      const std::size_t i = (idx - demand.first) / demand.stride;
      return i < values.size() ? values.data() + i : nullptr;
    }
  };

  /// One stretch of digitization: ADC samples [a, b), packed at \p offset
  /// in ws_sampled_ and ws_levels_, feeding matched-filter outputs
  /// [j0, j1); sampling them reads filtered samples below \p input_end.
  struct Window {
    std::size_t a = 0, b = 0, j0 = 0, j1 = 0, offset = 0, input_end = 0;
    [[nodiscard]] std::size_t size() const noexcept { return b - a; }
  };

  /// Fills ws_windows_ with the windows \p demand needs, ascending and
  /// without overlap, and returns their total sample count; the default
  /// demand is one window over the whole capture of \p n samples at \p fs.
  /// Any other demand needs a stride of at least \p num_taps plus one
  /// ladder block.
  std::size_t plan_windows(const MfDemand& demand, std::size_t n, double fs,
                           std::size_t n_adc, std::size_t mf_len, std::size_t num_taps);

  /// Analog band-limiting + sampling + interleaved conversion + matched
  /// filtering, entirely in single precision. The anti-alias filter and the
  /// AGC power cover the whole capture (the gain depends on all of it);
  /// sampling, conversion and matched filtering run only on the ADC
  /// windows under the demanded outputs, each of which keeps the bytes a
  /// whole-capture pass gives it. The returned view reads ws_mf_, valid
  /// until the next call on this receiver.
  [[nodiscard]] MfView digitize_and_filter(const float* rx, std::size_t n, double fs,
                                           const Gen1Transmitter& tx, Rng& rng,
                                           MfDemand demand);

  [[nodiscard]] Gen1AcqResult acquire_on_mf(std::span<const float> mf,
                                            const Gen1Transmitter& tx) const;

  Gen1Config config_;
  adc::SampleAndHold sampler_;
  adc::TimeInterleavedAdc adc_;
  RealVec anti_alias_taps_;
  RealVec lane_skews_s_;  ///< static per-lane skews, built once at construction

  // Per-receiver sample arena: every stage of digitize_and_filter writes
  // into one of these 64-byte-aligned grow-only buffers, so steady-state
  // packet processing performs zero heap allocations. Single precision:
  // the modeled front end is a 4-bit converter behind an AGC, so float's
  // 24-bit mantissa is ~20 bits beyond the physics while doubling SIMD
  // width through the filter/sampler/converter/matched-filter chain.
  dsp::AlignedVec<float> ws_rx_;        ///< double->float staging for waveform callers
  dsp::AlignedVec<float> ws_filtered_;
  dsp::AlignedVec<float> ws_sampled_;  ///< the windows' samples, packed
  dsp::AlignedVec<float> ws_levels_;   ///< their converted levels, same packing
  dsp::AlignedVec<float> ws_mf_;       ///< demanded outputs, packed
  std::vector<Window> ws_windows_;     ///< this call's digitization windows
  mutable dsp::AlignedVec<float> ws_acq_;  ///< stage-1 phase accumulators
};

}  // namespace uwb::txrx
