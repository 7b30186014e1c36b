#pragma once
/// \file gen1_reference.h
/// \brief The dense double-precision gen-1 trial: the reference that
///        txrx::Gen1Link's single-precision, planned-segment synthesis is
///        checked and timed against.
///
/// Gen1Link synthesizes a trial's capture in float and only on the
/// segments its receiver reads (Gen1Receiver::plan_capture). This reference
/// builds the same trial the direct way: the dense transmit waveform in
/// double, delayed, through the channel realization by convolution
/// (Cir::apply_real), padded, then double AWGN over the whole capture; the
/// receiver reads the planned segments of it, converted to float. It draws
/// from the trial Rng in the link's order -- payload bits, start delay, a
/// fresh channel realization, then noise -- so for the same link seed and
/// trial Rng the pre-noise signal is the link's up to float rounding. The
/// noise realizations differ: the link runs channel::FloatAwgn. It is the
/// in-process differential under the statistical oracle
/// (tests/test_oracle.cpp) and the baseline bench_hotpath times gen-1
/// against. It does not tilt: importance-sampled trials have no reference
/// here, the oracle's gen1_tilted table covers them.

#include <span>
#include <vector>

#include "channel/awgn.h"
#include "channel/saleh_valenzuela.h"
#include "common/rng.h"
#include "common/waveform.h"
#include "dsp/fir_filter.h"
#include "txrx/link.h"
#include "txrx/receiver_gen1.h"

namespace uwb::reference {

/// A dense gen-1 capture before noise, with the bookkeeping a receive needs.
struct Gen1DenseCapture {
  RealWaveform wave;               ///< delayed, through the channel, padded
  txrx::TxFrame frame;
  std::vector<double> amplitudes;  ///< the train's per-frame slot amplitudes
  RealVec kernel;                  ///< prototype through the channel (the AGC's g)
  std::size_t delay_frames = 0;
  double n0 = 0.0;
};

/// Transmits one packet on \p link's transmitter and lands it through the
/// trial's channel: \p context's ensemble realization when it carries one,
/// else a fresh draw from \p rng.
inline Gen1DenseCapture gen1_dense_capture(txrx::Gen1Link& link,
                                           const txrx::TrialOptions& options, Rng& rng,
                                           const txrx::TrialContext& context = {}) {
  const txrx::Gen1Config& config = link.config();
  const txrx::Gen1Transmitter& tx = link.transmitter();
  const BitVec payload = rng.bits(options.payload_bits);
  txrx::Gen1Train train = tx.transmit_train(payload);
  Gen1DenseCapture capture;
  capture.wave = tx.waveform(train.amplitudes);
  if (options.start_delay_max_frames > 0) {
    capture.delay_frames = static_cast<std::size_t>(
        rng.uniform_int(0, static_cast<int>(options.start_delay_max_frames)));
    capture.wave.delay_samples(capture.delay_frames * config.frame_samples_analog());
  }
  capture.n0 = channel::n0_for_ebn0(train.frame.energy_per_bit, options.ebn0_db);
  capture.kernel = tx.prototype().samples();
  if (options.cm >= 1) {
    channel::Cir cir;
    if (context.channel != nullptr) {
      cir = *context.channel;
    } else {
      channel::SvParams params = channel::cm_by_index(options.cm);
      params.complex_phases = false;  // real +/- polarity taps for passband
      cir = channel::SalehValenzuela(params).realize(rng);
    }
    capture.wave = cir.apply_real(capture.wave);
    const CplxVec hc = cir.sampled(config.analog_fs);
    RealVec hr(hc.size());
    for (std::size_t i = 0; i < hc.size(); ++i) hr[i] = hc[i].real();
    capture.kernel = dsp::convolve(tx.prototype().samples(), hr);
  }
  capture.wave.pad(static_cast<std::size_t>(64e-9 * config.analog_fs));
  capture.frame = std::move(train.frame);
  capture.amplitudes = std::move(train.amplitudes);
  return capture;
}

/// The \p segments of a dense capture, converted to float and packed back
/// to back: the input Gen1Receiver's span API takes.
inline std::vector<float> pack_segments(std::span<const txrx::CaptureSegment> segments,
                                        const RealWaveform& wave) {
  std::vector<float> packed;
  for (const txrx::CaptureSegment& seg : segments) {
    for (std::size_t i = seg.begin; i < seg.end; ++i) {
      packed.push_back(static_cast<float>(wave[i]));
    }
  }
  return packed;
}

/// Gen1Receiver::receive of a dense capture: plans it for \p options and
/// reads the planned segments.
inline txrx::Gen1RxResult receive_dense(txrx::Gen1Receiver& receiver, const RealWaveform& wave,
                                        const txrx::Gen1Transmitter& tx,
                                        const txrx::TxFrame& frame,
                                        const txrx::Gen1RxOptions& options, double agc_setpoint,
                                        Rng& rng) {
  const std::vector<float> input = pack_segments(
      receiver.plan_capture(wave.size(), wave.sample_rate(), tx, frame.frame_bits.size(),
                            options),
      wave);
  return receiver.receive(input, tx, frame, options, agc_setpoint, rng);
}

/// Gen1Receiver::acquire of a dense capture: plans the whole of it.
inline txrx::Gen1AcqResult acquire_dense(txrx::Gen1Receiver& receiver, const RealWaveform& wave,
                                         const txrx::Gen1Transmitter& tx, double agc_setpoint,
                                         Rng& rng) {
  const std::vector<float> input = pack_segments(
      receiver.plan_capture(wave.size(), wave.sample_rate(), tx, 0, txrx::Gen1RxOptions{}),
      wave);
  return receiver.acquire(input, tx, agc_setpoint, rng);
}

/// One untilted packet trial on \p link's transmitter and receiver, counted
/// as Gen1Link::run_packet_full counts it.
inline txrx::Gen1TrialResult gen1_reference_packet(txrx::Gen1Link& link,
                                                   const txrx::TrialOptions& options, Rng& rng,
                                                   const txrx::TrialContext& context = {}) {
  Gen1DenseCapture capture = gen1_dense_capture(link, options, rng, context);
  channel::add_awgn(capture.wave, capture.n0, rng);
  txrx::Gen1Receiver& receiver = link.receiver();
  const double setpoint = receiver.agc_setpoint(capture.amplitudes, capture.kernel,
                                                0.5 * capture.n0, capture.wave.size());
  txrx::Gen1TrialResult trial;
  trial.true_offset_adc = capture.delay_frames * link.config().frame_samples_adc;
  txrx::Gen1RxOptions rx_opts;
  rx_opts.genie_timing = options.genie_timing;
  rx_opts.genie_offset = trial.true_offset_adc;
  trial.rx = receive_dense(receiver, capture.wave, link.transmitter(), capture.frame, rx_opts,
                           setpoint, rng);
  trial.bits = trial.rx.bits_compared;
  trial.errors = trial.rx.bit_errors;
  if (!options.genie_timing && !trial.rx.acq.acquired) {
    trial.bits = capture.frame.frame_bits.size();
    trial.errors = capture.frame.frame_bits.size();
  }
  return trial;
}

}  // namespace uwb::reference
