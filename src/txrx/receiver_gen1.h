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
/// Captures synthesized and digitized on demand: once timing is known
/// (genie timing), the despreader reads one matched-filter output per PRF
/// frame, about 2,000 of a capture's ~1.4M ADC samples. plan_capture()
/// turns those outputs into the ADC windows under them and the analog
/// input segments the anti-alias filter reads for those windows (85
/// samples each at the default rates, 6% of the capture); the link
/// synthesizes signal and noise on those segments only, and the receiver
/// filters, samples, converts and matched-filters only them. Each stage is a pure function
/// of the segment's samples, (index, lane) and the AGC gain, so every
/// output keeps the bytes a whole-capture pass of the same input gives it.
/// Acquisition, the SFD search and aperture jitter need every output: that
/// demand is the single segment [0, n). The packed segments are the only
/// input the receiver takes; the dense double-precision capture survives
/// as a test reference (tests/gen1_reference.h), which packs the planned
/// segments of its capture the same way.
///
/// The AGC is modeled as a converged loop: its gain loads the flash at
/// 1/4 full scale rms of the *expected* filtered power, agc_setpoint(),
/// which the caller computes from the train, the channel kernel and the
/// noise level -- not from the power of the one capture, which would need
/// all of it. See docs/performance.md, "Gen-1 captures synthesized on
/// demand", for the derivation and its approximations.

#include <span>
#include <vector>

#include "adc/flash_adc.h"
#include "adc/sampling.h"
#include "common/rng.h"
#include "common/types.h"
#include "dsp/aligned.h"
#include "txrx/transceiver_config.h"
#include "txrx/transmitter.h"

namespace uwb::txrx {

/// One stretch of a gen-1 capture that a receive reads: analog samples
/// [begin, end).
struct CaptureSegment {
  std::size_t begin = 0;
  std::size_t end = 0;
  [[nodiscard]] std::size_t size() const noexcept { return end - begin; }
};

/// The part of a stretch of capture that lies in the planned segments,
/// packed as the segments' samples are. A stretch meets the segments in
/// one run of the packing.
struct PackedRun {
  std::size_t offset = 0;       ///< packed index of samples[0]
  std::vector<float> samples;   ///< empty when the stretch meets no segment
};

/// The samples of \p x, which spans capture samples [offset, offset +
/// x.size()), that lie in the ascending, disjoint \p segments.
[[nodiscard]] PackedRun pack_run(std::span<const float> x, std::size_t offset,
                                 std::span<const CaptureSegment> segments);

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

  /// The analog input that a receive() with \p options -- or, with
  /// default options, an acquire() -- reads of an \p n-sample capture at
  /// \p fs whose data section carries \p num_bits bits: ascending,
  /// disjoint segments, one per stretch of ADC windows the despreader
  /// reads with genie timing, or the single segment [0, n). The next
  /// receive() or acquire() takes the segments' samples packed back to back
  /// in this order. Valid until the next call.
  std::span<const CaptureSegment> plan_capture(std::size_t n, double fs,
                                               const Gen1Transmitter& tx, std::size_t num_bits,
                                               const Gen1RxOptions& options);

  /// The AGC setpoint for an \p n-sample capture holding the pulse train
  /// sum_s amplitudes[s] * kernel[i - d - s * frame_samples_analog()] (any
  /// delay d) plus white noise of variance \p noise_var: the expected
  /// power per sample of the anti-alias filter's output. With q = h * g
  /// the filtered kernel and R_q its autocorrelation, the signal energy is
  /// sum_m c_m R_q(m F), c_0 = sum a_s^2, c_m = 2 sum a_s a_{s+m}; the
  /// noise energy is noise_var * sum_k h_k^2 (n - |k - center|), the taps
  /// that land inside the capture. The signal term counts the filter
  /// output before the capture's first sample too (at most one pulse's
  /// share, 1/amplitudes.size(), when the train starts at sample 0).
  [[nodiscard]] double agc_setpoint(std::span<const double> amplitudes,
                                    std::span<const double> kernel, double noise_var,
                                    std::size_t n) const;

  /// Full receive of the planned segments (plan_capture() with the same
  /// \p options and tx_reference.frame_bits.size() bits), packed back to
  /// back in \p input: filter, sample, convert, matched-filter, then
  /// despread (acquiring first without genie timing).
  [[nodiscard]] Gen1RxResult receive(std::span<const float> input, const Gen1Transmitter& tx,
                                     const TxFrame& tx_reference,
                                     const Gen1RxOptions& options, double agc_setpoint,
                                     Rng& rng);

  /// Acquisition only (bench E2/E11) of the whole capture planned by
  /// plan_capture() with default options: the capture must hold at least
  /// one PN period past the search uncertainty.
  [[nodiscard]] Gen1AcqResult acquire(std::span<const float> input, const Gen1Transmitter& tx,
                                      double agc_setpoint, Rng& rng);

 private:
  /// The matched-filter outputs a caller will read: count of them, stride
  /// apart from first. The default asks for every output.
  struct MfDemand {
    std::size_t first = 0;
    std::size_t stride = 1;
    std::size_t count = static_cast<std::size_t>(-1);
    [[nodiscard]] bool operator==(const MfDemand&) const = default;
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

  /// One anti-alias filter run: filtered samples [f_begin, f_end), packed
  /// at f_offset in ws_filtered_, computed from the segment of the same
  /// index, whose samples sit at in_offset of the input.
  struct Run {
    std::size_t f_begin = 0, f_end = 0, f_offset = 0, in_offset = 0;
  };

  /// One stretch of digitization: ADC samples [a, b), packed at \p offset
  /// in ws_sampled_ and ws_levels_, feeding matched-filter outputs
  /// [j0, j1). Samples [a, read) are what those outputs read, sampled from
  /// the filtered samples of ws_runs_[run]; the rest of the block only
  /// fills the converter's ladder block and is held at zero.
  struct Window {
    std::size_t a = 0, b = 0, j0 = 0, j1 = 0, read = 0, offset = 0, run = 0;
    [[nodiscard]] std::size_t size() const noexcept { return b - a; }
  };

  /// The outputs a receive with \p options reads: one per frame of the
  /// data section with genie timing, else every output. Windows of outputs
  /// closer than a matched filter span plus a ladder block would overlap;
  /// those demands, like aperture jitter, take every output too.
  [[nodiscard]] MfDemand demand_for(const Gen1Transmitter& tx, std::size_t num_bits,
                                    const Gen1RxOptions& options) const;

  /// Filtering, sampling, conversion and matched filtering of the planned
  /// windows, entirely in single precision, with the AGC gain of
  /// \p agc_setpoint. The returned view reads ws_mf_, valid until the next
  /// call on this receiver.
  [[nodiscard]] MfView digitize_and_filter(std::span<const float> input,
                                           const Gen1Transmitter& tx, double agc_setpoint,
                                           Rng& rng);

  [[nodiscard]] Gen1AcqResult acquire_on_mf(std::span<const float> mf,
                                            const Gen1Transmitter& tx) const;

  Gen1Config config_;
  adc::SampleAndHold sampler_;
  adc::TimeInterleavedAdc adc_;
  RealVec anti_alias_taps_;
  std::vector<float> anti_alias_reversed_;  ///< the taps in float, last first
  RealVec lane_skews_s_;  ///< static per-lane skews, built once at construction

  // The last plan_capture(): its demand, sampler set-up, segments, filter
  // runs and windows, and the sizes of the packed arenas they fill.
  MfDemand plan_demand_;
  adc::InterleavedPlan sampler_plan_;
  std::vector<CaptureSegment> ws_segments_;
  std::vector<Run> ws_runs_;
  std::vector<Window> ws_windows_;
  std::size_t plan_input_ = 0;     ///< segment samples
  std::size_t plan_filtered_ = 0;  ///< filtered samples over all runs
  std::size_t plan_sampled_ = 0;   ///< ADC samples over all windows
  std::size_t plan_mf_len_ = 0;    ///< matched-filter outputs of the capture

  // Per-receiver sample arena: every stage of digitize_and_filter writes
  // into one of these 64-byte-aligned grow-only buffers, so steady-state
  // packet processing performs zero heap allocations. Single precision:
  // the modeled front end is a 4-bit converter behind an AGC, so float's
  // 24-bit mantissa is ~20 bits beyond the physics while doubling SIMD
  // width through the filter/sampler/converter/matched-filter chain.
  dsp::AlignedVec<float> ws_filtered_;  ///< the runs' filtered samples, packed
  dsp::AlignedVec<float> ws_sampled_;   ///< the windows' samples, packed
  dsp::AlignedVec<float> ws_levels_;    ///< their converted levels, same packing
  dsp::AlignedVec<float> ws_mf_;        ///< demanded outputs, packed
  mutable RealVec ws_q_;                ///< agc_setpoint's filtered kernel
  mutable dsp::AlignedVec<float> ws_acq_;  ///< stage-1 phase accumulators
};

}  // namespace uwb::txrx
