#include "txrx/receiver_gen1.h"

#include <algorithm>
#include <cmath>

#include "common/error.h"
#include "common/math_utils.h"
#include "dsp/correlator.h"
#include "dsp/filter_design.h"
#include "dsp/fir_filter.h"
#include "obs/profile.h"

namespace uwb::txrx {

Gen1Receiver::Gen1Receiver(const Gen1Config& config, Rng& rng)
    : config_(config),
      sampler_(adc::SamplingParams{config.adc_rate, config.aperture_jitter_rms_s, 0.0}),
      adc_(config.adc_lanes,
           adc::FlashParams{config.adc_bits, 1.0, config.comparator_offset_sigma},
           config.interleave, rng) {
  detail::require(config.analog_fs >= config.adc_rate,
                  "Gen1Receiver: analog rate must be >= ADC rate");
  anti_alias_taps_ =
      dsp::design_lowpass(0.45 * config.adc_rate, config.analog_fs, 63);
  // Per-lane timing skew happens at the sample-and-hold; the skews are
  // static converter mismatch, so build the table once.
  lane_skews_s_.resize(static_cast<std::size_t>(adc_.num_lanes()));
  for (int k = 0; k < adc_.num_lanes(); ++k) {
    lane_skews_s_[static_cast<std::size_t>(k)] = adc_.lane_skew_s(k);
  }
}

namespace {

/// Anti-alias filter tile: small enough that the power sum and the window
/// sampler read it back from cache, and a multiple of 4 so each power
/// accumulator keeps its sample phase across tiles.
constexpr std::size_t kFilterTile = 4096;

/// AGC power: adds the squares of x[0 .. n) to four accumulators, sample i
/// into p[i % 4] while four remain and the rest into p[0], each in
/// ascending order. Four independent chains break the FP-add dependency
/// (the power is an AGC model input, not a bit-exact contract). Out of
/// line so the accumulators stay in registers across a tile.
[[gnu::noinline]] void accumulate_power(const float* x, std::size_t n, double (&p)[4]) noexcept {
  double p0 = p[0], p1 = p[1], p2 = p[2], p3 = p[3];
  std::size_t i = 0;
  for (; i + 4 <= n; i += 4) {
    const auto v0 = static_cast<double>(x[i]);
    const auto v1 = static_cast<double>(x[i + 1]);
    const auto v2 = static_cast<double>(x[i + 2]);
    const auto v3 = static_cast<double>(x[i + 3]);
    p0 += v0 * v0;
    p1 += v1 * v1;
    p2 += v2 * v2;
    p3 += v3 * v3;
  }
  for (; i < n; ++i) {
    const auto v = static_cast<double>(x[i]);
    p0 += v * v;
  }
  p[0] = p0;
  p[1] = p1;
  p[2] = p2;
  p[3] = p3;
}

}  // namespace

std::size_t Gen1Receiver::plan_windows(const MfDemand& demand, std::size_t n, double fs,
                                       std::size_t n_adc, std::size_t mf_len,
                                       std::size_t num_taps) {
  ws_windows_.clear();
  if (demand.stride == 1) {
    ws_windows_.push_back({0, n_adc, 0, mf_len, 0, n});
    return n_adc;
  }
  // One window per demanded output j: ADC samples from the lane-0 sample
  // at or before j (where the previous window has not covered them) to
  // j + num_taps, stretched to whole ladder blocks where the capture
  // allows, so the converter's pattern-blocked clones convert all of it.
  // A stride of at least num_taps + kBlock keeps each window's start at or
  // below its output.
  const auto lanes = static_cast<std::size_t>(adc_.num_lanes());
  constexpr std::size_t kBlock = adc::TimeInterleavedAdc::kLadderBlock;
  std::size_t done = 0;
  std::size_t packed = 0;
  for (std::size_t i = 0, j = demand.first; i < demand.count && j < mf_len;
       ++i, j += demand.stride) {
    const std::size_t a = std::max(done, j - j % lanes);
    const std::size_t b = std::min(n_adc, a + ceil_div(j + num_taps - a, kBlock) * kBlock);
    ws_windows_.push_back(
        {a, b, j, j + 1, packed, sampler_.input_end(n, fs, lane_skews_s_, b)});
    packed += b - a;
    done = b;
  }
  return packed;
}

Gen1Receiver::MfView Gen1Receiver::digitize_and_filter(const float* rx, std::size_t n,
                                                       double fs, const Gen1Transmitter& tx,
                                                       Rng& rng, MfDemand demand) {
  // Every stage after the anti-alias filter is a per-sample function of
  // (sample index, lane = index % lanes, gain), and each matched-filter
  // output sums its own window of converted samples, so only the ADC
  // windows under the demanded outputs are digitized, packed one after
  // another in the sampled and level arenas. Under aperture jitter each
  // sample draws its instant in order, and the whole capture is one window.
  obs::StageTimer fe_timer(obs::Stage::kRxFrontend, n);
  const std::size_t n_adc = sampler_.output_size(n, fs);
  const RealVec& taps = tx.pulse_taps_adc();
  const std::size_t mf_len =
      (taps.empty() || n_adc < taps.size()) ? 0 : n_adc - taps.size() + 1;
  // Windows of outputs closer than a filter span plus a ladder block would
  // overlap; those demands, like jitter, take the whole capture.
  if (config_.aperture_jitter_rms_s > 0.0 ||
      demand.stride < taps.size() + adc::TimeInterleavedAdc::kLadderBlock) {
    demand = MfDemand{};
  }
  const std::size_t packed = plan_windows(demand, n, fs, n_adc, mf_len, taps.size());
  ws_sampled_.resize(packed);
  std::size_t next = 0;  // first window not sampled yet
  const auto sample_windows_below = [&](std::size_t filtered) {
    for (; next < ws_windows_.size() && ws_windows_[next].input_end <= filtered; ++next) {
      const Window& w = ws_windows_[next];
      sampler_.sample_interleaved_to(ws_filtered_.data(), n, fs, lane_skews_s_, rng, w.a,
                                     w.size(), ws_sampled_.data() + w.offset);
    }
  };

  // Anti-alias lowpass at the converter's Nyquist edge: the analog front
  // end band-limits before the 2 GSps sampler. The AGC gain depends on the
  // power of the whole filtered capture, so the filter always runs over all
  // of it, tile by tile into the packet arena, summing the power and
  // sampling the windows whose input is complete while each tile is in
  // cache. A converged AGC loads the flash at ~1/4 full scale rms (see
  // rf::AgcParams); the scale commutes with linear-interpolation sampling,
  // so it is applied to the sampled windows afterwards.
  ws_filtered_.resize(n);
  double p[4] = {};
  for (std::size_t t0 = 0; t0 < n; t0 += kFilterTile) {
    const std::size_t t1 = std::min(n, t0 + kFilterTile);
    float* tile = ws_filtered_.data() + t0;
    dsp::convolve_same_to(rx, n, anti_alias_taps_, tile, t0, t1 - t0);
    accumulate_power(tile, t1 - t0, p);
    sample_windows_below(t1);
  }
  const double power_acc = (p[0] + p[1]) + (p[2] + p[3]);
  const double r = n > 0 ? std::sqrt(power_acc / static_cast<double>(n)) : 0.0;
  if (r > 0.0) {
    const auto gain = static_cast<float>(0.25 / r);
    for (std::size_t i = 0; i < packed; ++i) ws_sampled_[i] *= gain;
  }
  fe_timer.finish();

  obs::StageTimer adc_timer(obs::Stage::kAdcQuantize, packed);
  ws_levels_.resize(packed);
  for (const Window& w : ws_windows_) {
    adc_.convert_block(ws_sampled_.data() + w.offset, w.a, w.size(),
                       ws_levels_.data() + w.offset);
  }
  adc_timer.finish();

  // Matched filter with the monocycle; each window's outputs follow the
  // previous window's.
  obs::StageTimer mf_timer(obs::Stage::kCorrelateRake);
  const dsp::TapScratch<float> taps_f(taps.data(), taps.size(), /*reversed=*/false);
  ws_mf_.resize(mf_len);
  std::size_t outputs = 0;
  for (const Window& w : ws_windows_) {
    if (w.j0 == w.j1) continue;
    dsp::dot_bank(ws_levels_.data() + w.offset + (w.j0 - w.a), w.j1 - w.j0, taps_f.data(),
                  taps.size(), ws_mf_.data() + outputs);
    mf_timer.add_samples(w.j1 - w.j0 + taps.size() - 1);
    outputs += w.j1 - w.j0;
  }
  return {{ws_mf_.data(), outputs}, demand};
}

Gen1AcqResult Gen1Receiver::acquire_on_mf(std::span<const float> mf,
                                          const Gen1Transmitter& tx) const {
  const obs::StageTimer acq_timer(obs::Stage::kSyncAcquire, mf.size());
  Gen1AcqResult result;
  const std::size_t F = config_.frame_samples_adc;
  const std::vector<double>& chips = tx.preamble_chips();
  const std::size_t pn_len = chips.size();
  const double frame_time = static_cast<double>(F) / config_.adc_rate;

  const auto k1 = static_cast<std::size_t>(config_.acq_integration_frames);
  const std::size_t num_frames = mf.size() / F;
  if (num_frames < 2 * k1 + pn_len + 1) {
    return result;  // capture too short to search
  }

  // ---- Stage 1: packet arrival + pulse phase -------------------------------
  // Square-law noncoherent combining over k1-frame groups: for each
  // candidate sample phase, sum mf^2 across the group's frames. In hardware
  // the correlator bank streams and a CFAR comparison against the measured
  // noise floor trips when the preamble arrives; here the running minimum
  // of earlier group metrics plays the noise-floor reference.
  struct Group {
    std::size_t phase = 0;
    double metric = 0.0;
  };
  std::vector<Group> groups;
  const std::size_t last_group = num_frames - k1 - pn_len;
  // Frame-major accumulation: the textbook phase-outer loop strides by F
  // through mf on every read; sweeping each frame contiguously into a bank
  // of per-phase accumulators touches the same values in the same per-phase
  // order (k ascending), so the metrics are bit-identical while the inner
  // loop vectorizes.
  ws_acq_.resize(F);
  for (std::size_t j0 = 0; j0 <= last_group; j0 += k1) {
    float* acc = ws_acq_.data();
    std::fill(acc, acc + F, 0.0f);
    for (std::size_t k = 0; k < k1; ++k) {
      const float* frame = mf.data() + (j0 + k) * F;
      for (std::size_t p = 0; p < F; ++p) {
        acc[p] += frame[p] * frame[p];
      }
    }
    Group g;
    for (std::size_t p = 0; p < F; ++p) {
      if (acc[p] > g.metric) {
        g.metric = acc[p];
        g.phase = p;
      }
    }
    groups.push_back(g);
  }
  // CFAR trip: first group whose metric rises 1.6x above the noise floor
  // seen so far. If nothing trips (e.g. the packet starts at the very
  // beginning of the capture and every group holds signal), fall back to
  // group zero -- which is then the correct arrival.
  std::size_t hit_group = 0;
  double floor_metric = groups.front().metric;
  for (std::size_t i = 1; i < groups.size(); ++i) {
    if (groups[i].metric >= 1.6 * floor_metric) {
      hit_group = i;
      break;
    }
    floor_metric = std::min(floor_metric, groups[i].metric);
  }
  // Phase from the strongest group at/after the trip (best phase SNR).
  std::size_t peak_group = hit_group;
  for (std::size_t i = hit_group; i < groups.size(); ++i) {
    if (groups[i].metric > groups[peak_group].metric) peak_group = i;
  }
  const std::size_t j0 = hit_group * k1;
  const std::size_t best_phase = groups[peak_group].phase;
  result.pulse_phase = best_phase;
  const std::size_t dwells1 = ceil_div(F, config_.acq_parallelism_stage1);

  // ---- Stage 2: code phase (cyclic correlation over the PN) ---------------
  // Per-frame despread samples starting right after the stage-1 window --
  // inside the preamble when the hit group is at its start. Integrating
  // past one PN period (acq_stage2_window_frames) sharpens the metric.
  const std::size_t start_frame = j0 + k1;
  const std::size_t window = std::min<std::size_t>(
      static_cast<std::size_t>(config_.acq_stage2_window_frames),
      num_frames > start_frame ? num_frames - start_frame : 0);
  if (window < pn_len) {
    return result;  // not enough capture left for stage 2
  }
  RealVec v(window);
  double v_energy = 0.0;
  for (std::size_t j = 0; j < window; ++j) {
    v[j] = mf[best_phase + (start_frame + j) * F];
    v_energy += v[j] * v[j];
  }
  std::size_t best_shift = 0;
  double best_corr = -1.0;
  for (std::size_t s = 0; s < pn_len; ++s) {
    double c = 0.0;
    for (std::size_t j = 0; j < window; ++j) {
      c += v[j] * chips[(j + s) % pn_len];
    }
    if (std::abs(c) > best_corr) {
      best_corr = std::abs(c);
      best_shift = s;
    }
  }
  const double denom =
      std::sqrt(std::max(v_energy, 1e-300) * static_cast<double>(window));
  result.stage2_metric = best_corr / denom;
  result.code_phase = best_shift;
  const std::size_t dwells2 = ceil_div(pn_len, config_.acq_parallelism_stage2);

  // Timing: with the preamble starting at frame u_f, the stage-2 window
  // sample v[j] = chip[(start_frame + j - u_f) mod pn], so the cyclic
  // correlation peaks at s = (start_frame - u_f) mod pn, giving
  // u_f = start_frame - s (mod pn).
  const std::size_t u_f =
      (start_frame + pn_len - (best_shift % pn_len)) % pn_len;
  result.timing_offset = best_phase + u_f * F;

  result.acquired = result.stage2_metric >= config_.acq_threshold;
  // Modeled real-time cost from preamble arrival: the stage-1 bank needs
  // ceil(F/P1) dwells of k1 frames to sweep all sample phases, then the
  // stage-2 bank ceil(pn/P2) observations of the integration window each.
  result.sync_time_s =
      static_cast<double>(dwells1) * static_cast<double>(k1) * frame_time +
      static_cast<double>(dwells2) * static_cast<double>(window) * frame_time;
  return result;
}

namespace {

/// Double-waveform entry points stage through the receiver's float arena:
/// one converting pass, then the single-precision pipeline.
void to_float_arena(const RealWaveform& rx, dsp::AlignedVec<float>& arena) {
  arena.resize(rx.size());
  const RealVec& s = rx.samples();
  for (std::size_t i = 0; i < s.size(); ++i) arena[i] = static_cast<float>(s[i]);
}

}  // namespace

Gen1AcqResult Gen1Receiver::acquire(const RealWaveform& rx, const Gen1Transmitter& tx,
                                    Rng& rng) {
  to_float_arena(rx, ws_rx_);
  return acquire({ws_rx_.data(), ws_rx_.size()}, rx.sample_rate(), tx, rng);
}

Gen1AcqResult Gen1Receiver::acquire(std::span<const float> rx, double fs,
                                    const Gen1Transmitter& tx, Rng& rng) {
  return acquire_on_mf(digitize_and_filter(rx.data(), rx.size(), fs, tx, rng, MfDemand{}).values,
                       tx);
}

Gen1RxResult Gen1Receiver::receive(const RealWaveform& rx, const Gen1Transmitter& tx,
                                   const TxFrame& tx_reference, const Gen1RxOptions& options,
                                   Rng& rng) {
  to_float_arena(rx, ws_rx_);
  return receive({ws_rx_.data(), ws_rx_.size()}, rx.sample_rate(), tx, tx_reference,
                 options, rng);
}

Gen1RxResult Gen1Receiver::receive(std::span<const float> rx, double fs,
                                   const Gen1Transmitter& tx, const TxFrame& tx_reference,
                                   const Gen1RxOptions& options, Rng& rng) {
  Gen1RxResult result;
  const std::size_t F = config_.frame_samples_adc;
  const auto ppb = static_cast<std::size_t>(config_.pulses_per_bit);
  const std::size_t num_bits = tx_reference.frame_bits.size();

  // With genie timing the despreader below reads one matched-filter output
  // per frame of the data section and nothing else; acquisition and the
  // SFD search read the whole filter.
  MfDemand demand;
  if (options.genie_timing) {
    const std::size_t start = options.genie_offset;
    demand.first = start % F + (start / F + tx.preamble_frames()) * F;
    demand.stride = F;
    demand.count = num_bits * ppb;
  }
  const MfView mf = digitize_and_filter(rx.data(), rx.size(), fs, tx, rng, demand);

  std::size_t preamble_start = 0;
  if (options.genie_timing) {
    preamble_start = options.genie_offset;
    result.acq.acquired = true;
    result.acq.timing_offset = preamble_start;
  } else {
    result.acq = acquire_on_mf(mf.values, tx);
    if (!result.acq.acquired) return result;
    // The acquisition pins timing modulo one PN period; the packet's
    // preamble starts an integer number of periods earlier, which does not
    // matter for data timing because the data section begins a known number
    // of frames after *any* period boundary only if we also know which
    // period we latched. The SFD search below resolves that ambiguity.
    preamble_start = result.acq.timing_offset % (tx.preamble_chips().size() * F);
  }

  // Data section: locate via the known frame count (genie/period-resolved)
  // then despread each bit.
  const obs::StageTimer demod_timer(obs::Stage::kDemodDecide,
                                    tx_reference.frame_bits.size());
  const std::size_t data_start_frame_nominal =
      preamble_start / F + tx.preamble_frames();
  const std::vector<double>& spread = tx.spread_chips();
  const std::size_t pulse_phase = preamble_start % F;

  // SFD alignment: try candidate data-start frames offset by whole PN
  // periods (ambiguity left by acquisition) and pick the one whose SFD
  // correlation is strongest.
  const std::size_t period = tx.preamble_chips().size();
  std::size_t best_start = data_start_frame_nominal;
  if (!options.genie_timing) {
    const phy::PacketFramer framer(config_.packet);
    const BitVec& sfd = framer.sfd_bits();
    double best_sfd = -1.0;
    for (int shift = 0; shift <= config_.preamble_repetitions; ++shift) {
      const std::size_t cand =
          data_start_frame_nominal + static_cast<std::size_t>(shift) * period;
      double corr = 0.0;
      for (std::size_t b = 0; b < sfd.size(); ++b) {
        double soft = 0.0;
        for (std::size_t k = 0; k < ppb; ++k) {
          const std::size_t idx = pulse_phase + (cand + b * ppb + k) * F;
          if (const float* v = mf.find(idx)) soft += spread[k % spread.size()] * *v;
        }
        corr += (sfd[b] ? -1.0 : 1.0) * soft;
      }
      if (corr > best_sfd) {
        best_sfd = corr;
        best_start = cand;
      }
    }
  }

  // Despread and slice the data bits.
  result.data_bits.resize(num_bits);
  result.data_soft.resize(num_bits);
  std::size_t errors = 0;
  for (std::size_t b = 0; b < num_bits; ++b) {
    double soft = 0.0;
    for (std::size_t k = 0; k < ppb; ++k) {
      const std::size_t idx = pulse_phase + (best_start + b * ppb + k) * F;
      if (const float* v = mf.find(idx)) soft += spread[k % spread.size()] * *v;
    }
    result.data_soft[b] = soft;
    result.data_bits[b] = soft < 0.0 ? 1 : 0;
    if ((result.data_bits[b] != 0) != (tx_reference.frame_bits[b] != 0)) ++errors;
  }
  result.bit_errors = errors;
  result.bits_compared = num_bits;
  return result;
}

}  // namespace uwb::txrx
