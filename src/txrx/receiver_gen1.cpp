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

PackedRun pack_run(std::span<const float> x, std::size_t offset,
                   std::span<const CaptureSegment> segments) {
  PackedRun run;
  std::size_t packed = 0;  // packed index of the segment's first sample
  for (const CaptureSegment& seg : segments) {
    const std::size_t lo = std::max(seg.begin, offset);
    const std::size_t hi = std::min(seg.end, offset + x.size());
    if (lo < hi) {
      if (run.samples.empty()) run.offset = packed + (lo - seg.begin);
      run.samples.insert(run.samples.end(), x.begin() + static_cast<std::ptrdiff_t>(lo - offset),
                         x.begin() + static_cast<std::ptrdiff_t>(hi - offset));
    }
    packed += seg.size();
  }
  return run;
}

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
  anti_alias_reversed_.assign(anti_alias_taps_.rbegin(), anti_alias_taps_.rend());
  // Per-lane timing skew happens at the sample-and-hold; the skews are
  // static converter mismatch, so build the table once.
  lane_skews_s_.resize(static_cast<std::size_t>(adc_.num_lanes()));
  for (int k = 0; k < adc_.num_lanes(); ++k) {
    lane_skews_s_[static_cast<std::size_t>(k)] = adc_.lane_skew_s(k);
  }
}

Gen1Receiver::MfDemand Gen1Receiver::demand_for(const Gen1Transmitter& tx,
                                               std::size_t num_bits,
                                               const Gen1RxOptions& options) const {
  const std::size_t F = config_.frame_samples_adc;
  if (!options.genie_timing || config_.aperture_jitter_rms_s > 0.0 ||
      F < tx.pulse_taps_adc().size() + adc::TimeInterleavedAdc::kLadderBlock) {
    return MfDemand{};
  }
  // The despreader reads the data section's pulse phase in every frame.
  const std::size_t start = options.genie_offset;
  MfDemand demand;
  demand.first = start % F + (start / F + tx.preamble_frames()) * F;
  demand.stride = F;
  demand.count = num_bits * static_cast<std::size_t>(config_.pulses_per_bit);
  return demand;
}

std::span<const CaptureSegment> Gen1Receiver::plan_capture(std::size_t n, double fs,
                                                           const Gen1Transmitter& tx,
                                                           std::size_t num_bits,
                                                           const Gen1RxOptions& options) {
  plan_demand_ = demand_for(tx, num_bits, options);
  sampler_plan_ = sampler_.plan_interleaved(n, fs, lane_skews_s_);
  const std::size_t n_adc = sampler_plan_.output_size();
  const std::size_t num_taps = tx.pulse_taps_adc().size();
  plan_mf_len_ = (num_taps == 0 || n_adc < num_taps) ? 0 : n_adc - num_taps + 1;

  // ADC windows. The default demand is one window over the whole capture.
  // Otherwise there is one window per demanded output j: ADC samples from
  // the lane-0 sample at or before j (where the previous window has not
  // covered them) to j + num_taps, stretched to whole ladder blocks where
  // the capture allows, so the converter's pattern-blocked clones convert
  // all of it. A stride of at least num_taps + kBlock keeps each window's
  // start at or below its output.
  ws_windows_.clear();
  plan_sampled_ = 0;
  if (plan_demand_.stride == 1) {
    ws_windows_.push_back({0, n_adc, 0, plan_mf_len_, n_adc, 0, 0});
    plan_sampled_ = n_adc;
  } else {
    const auto lanes = static_cast<std::size_t>(adc_.num_lanes());
    constexpr std::size_t kBlock = adc::TimeInterleavedAdc::kLadderBlock;
    std::size_t done = 0;
    for (std::size_t i = 0, j = plan_demand_.first; i < plan_demand_.count && j < plan_mf_len_;
         ++i, j += plan_demand_.stride) {
      const std::size_t a = std::max(done, j - j % lanes);
      const std::size_t b = std::min(n_adc, a + ceil_div(j + num_taps - a, kBlock) * kBlock);
      ws_windows_.push_back({a, b, j, j + 1, std::min(b, j + num_taps), plan_sampled_, 0});
      plan_sampled_ += b - a;
      done = b;
    }
  }

  // Filter runs: the filtered samples each window's sampling reads, and
  // the analog segment under them -- output i of the "same"-mode filter
  // reads inputs i - (h_len - 1 - center) .. i + center. Windows whose
  // segments meet share one run, so segments never overlap and every
  // input sample is synthesized once.
  const std::size_t h_len = anti_alias_taps_.size();
  const std::size_t center = (h_len - 1) / 2;
  const std::size_t reach_back = h_len - 1 - center;
  ws_runs_.clear();
  ws_segments_.clear();
  for (Window& w : ws_windows_) {
    const auto [lo, hi] = sampler_plan_.input_range(w.a, w.read - w.a);
    const CaptureSegment seg{lo - std::min(lo, reach_back), std::min(n, hi + center)};
    if (!ws_segments_.empty() && seg.begin <= ws_segments_.back().end) {
      ws_runs_.back().f_end = std::max(ws_runs_.back().f_end, hi);
      ws_segments_.back().end = std::max(ws_segments_.back().end, seg.end);
    } else {
      ws_runs_.push_back({lo, hi, 0, 0});
      ws_segments_.push_back(seg);
    }
    w.run = ws_runs_.size() - 1;
  }
  plan_input_ = 0;
  plan_filtered_ = 0;
  for (std::size_t r = 0; r < ws_runs_.size(); ++r) {
    ws_runs_[r].in_offset = plan_input_;
    ws_runs_[r].f_offset = plan_filtered_;
    plan_input_ += ws_segments_[r].size();
    plan_filtered_ += ws_runs_[r].f_end - ws_runs_[r].f_begin;
  }
  return ws_segments_;
}

double Gen1Receiver::agc_setpoint(std::span<const double> amplitudes,
                                  std::span<const double> kernel, double noise_var,
                                  std::size_t n) const {
  if (n == 0) return 0.0;
  const RealVec& h = anti_alias_taps_;
  double signal = 0.0;
  if (!kernel.empty() && !h.empty()) {
    // q = h * g, then the train's filtered energy: slots m frames apart
    // overlap through R_q(m F) while m F is shorter than q.
    ws_q_.assign(h.size() + kernel.size() - 1, 0.0);
    for (std::size_t k = 0; k < h.size(); ++k) {
      for (std::size_t i = 0; i < kernel.size(); ++i) ws_q_[k + i] += h[k] * kernel[i];
    }
    const std::size_t F = config_.frame_samples_analog();
    for (std::size_t m = 0; m < amplitudes.size() && m * F < ws_q_.size(); ++m) {
      double r = 0.0;
      for (std::size_t k = 0; k + m * F < ws_q_.size(); ++k) r += ws_q_[k] * ws_q_[k + m * F];
      double c = 0.0;
      for (std::size_t s = 0; s + m < amplitudes.size(); ++s) {
        c += amplitudes[s] * amplitudes[s + m];
      }
      signal += (m == 0 ? c : 2.0 * c) * r;
    }
  }
  // Tap k of output i reads input i + center - k: inside the capture for
  // n - |k - center| of the n outputs.
  const std::size_t center = h.empty() ? 0 : (h.size() - 1) / 2;
  double noise = 0.0;
  for (std::size_t k = 0; k < h.size(); ++k) {
    const std::size_t dist = k > center ? k - center : center - k;
    if (dist < n) noise += h[k] * h[k] * static_cast<double>(n - dist);
  }
  return (signal + noise_var * noise) / static_cast<double>(n);
}

Gen1Receiver::MfView Gen1Receiver::digitize_and_filter(std::span<const float> input,
                                                       const Gen1Transmitter& tx,
                                                       double agc_setpoint, Rng& rng) {
  detail::require(input.size() == plan_input_,
                  "Gen1Receiver: the input does not hold the planned segments");
  // Every stage is a per-sample function of the segment's samples, (sample
  // index, lane = index % lanes) and the gain, and each matched-filter
  // output sums its own window of converted samples, so the planned
  // windows keep the bytes a whole-capture pass gives them.
  obs::StageTimer fe_timer(obs::Stage::kRxFrontend, plan_filtered_);
  ws_filtered_.resize(plan_filtered_);
  ws_sampled_.resize(plan_sampled_);
  // Anti-alias lowpass at the converter's Nyquist edge: the analog front
  // end band-limits before the 2 GSps sampler. Each run filters its
  // segment; its windows are sampled while the run is in cache.
  std::size_t next = 0;  // first window not sampled yet
  for (std::size_t r = 0; r < ws_runs_.size(); ++r) {
    const Run& run = ws_runs_[r];
    const CaptureSegment& seg = ws_segments_[r];
    float* filtered = ws_filtered_.data() + run.f_offset;
    dsp::convolve_same_to(input.data() + run.in_offset, seg.size(), anti_alias_reversed_,
                          filtered, run.f_begin - seg.begin, run.f_end - run.f_begin);
    for (; next < ws_windows_.size() && ws_windows_[next].run == r; ++next) {
      const Window& w = ws_windows_[next];
      float* sampled = ws_sampled_.data() + w.offset;
      sampler_plan_.sample(filtered, run.f_begin, rng, w.a, w.read - w.a, sampled);
      std::fill(sampled + (w.read - w.a), sampled + w.size(), 0.0f);
    }
  }
  // A converged AGC loads the flash at ~1/4 full scale rms of the expected
  // filtered power (see rf::AgcParams); the scale commutes with
  // linear-interpolation sampling, so it is applied to the sampled windows.
  const double r = std::sqrt(agc_setpoint);
  if (r > 0.0) {
    const auto gain = static_cast<float>(0.25 / r);
    for (std::size_t i = 0; i < plan_sampled_; ++i) ws_sampled_[i] *= gain;
  }
  fe_timer.finish();

  obs::StageTimer adc_timer(obs::Stage::kAdcQuantize, plan_sampled_);
  ws_levels_.resize(plan_sampled_);
  for (const Window& w : ws_windows_) {
    adc_.convert_block(ws_sampled_.data() + w.offset, w.a, w.size(),
                       ws_levels_.data() + w.offset);
  }
  adc_timer.finish();

  // Matched filter with the monocycle; each window's outputs follow the
  // previous window's.
  obs::StageTimer mf_timer(obs::Stage::kCorrelateRake);
  const RealVec& taps = tx.pulse_taps_adc();
  const dsp::TapScratch<float> taps_f(taps.data(), taps.size(), /*reversed=*/false);
  ws_mf_.resize(plan_mf_len_);
  std::size_t outputs = 0;
  for (const Window& w : ws_windows_) {
    if (w.j0 == w.j1) continue;
    dsp::dot_bank(ws_levels_.data() + w.offset + (w.j0 - w.a), w.j1 - w.j0, taps_f.data(),
                  taps.size(), ws_mf_.data() + outputs);
    mf_timer.add_samples(w.j1 - w.j0 + taps.size() - 1);
    outputs += w.j1 - w.j0;
  }
  return {{ws_mf_.data(), outputs}, plan_demand_};
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

Gen1AcqResult Gen1Receiver::acquire(std::span<const float> input, const Gen1Transmitter& tx,
                                    double agc_setpoint, Rng& rng) {
  detail::require(plan_demand_ == MfDemand{},
                  "Gen1Receiver::acquire: the plan does not cover the whole capture");
  return acquire_on_mf(digitize_and_filter(input, tx, agc_setpoint, rng).values, tx);
}

Gen1RxResult Gen1Receiver::receive(std::span<const float> input, const Gen1Transmitter& tx,
                                   const TxFrame& tx_reference, const Gen1RxOptions& options,
                                   double agc_setpoint, Rng& rng) {
  detail::require(demand_for(tx, tx_reference.frame_bits.size(), options) == plan_demand_,
                  "Gen1Receiver::receive: the plan was made for other options");
  Gen1RxResult result;
  const std::size_t F = config_.frame_samples_adc;
  const auto ppb = static_cast<std::size_t>(config_.pulses_per_bit);
  const std::size_t num_bits = tx_reference.frame_bits.size();
  const MfView mf = digitize_and_filter(input, tx, agc_setpoint, rng);

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
