#include "txrx/link.h"

#include <algorithm>
#include <cmath>

#include "channel/awgn.h"
#include "channel/interferer.h"
#include "common/error.h"
#include "common/math_utils.h"
#include "dsp/fir_filter.h"
#include "fec/viterbi_decoder.h"
#include "obs/profile.h"

namespace uwb::txrx {

std::string to_string(Generation gen) {
  return gen == Generation::kGen1 ? "gen1" : "gen2";
}

TrialOptions default_options(Generation gen) {
  TrialOptions options;
  if (gen == Generation::kGen1) {
    options.payload_bits = 32;
    options.genie_timing = true;  // BER runs use genie; acquisition runs don't
  }
  return options;
}

namespace {

/// Loud capability check shared by make_link and the gen-1 run paths: a
/// scenario asking gen-1 for gen-2-only machinery is a bug, not a no-op.
void require_supported(const LinkCaps& caps, const TrialOptions& options) {
  if (!caps.supports_interferer) {
    detail::require(!options.interferer, to_string(caps.generation) +
                                             " link does not support an interferer");
  }
  if (!caps.supports_auto_notch) {
    detail::require(!options.auto_notch,
                    to_string(caps.generation) + " link does not support auto_notch");
  }
  if (!caps.supports_fec) {
    detail::require(!options.fec.has_value(),
                    to_string(caps.generation) + " link does not support an outer FEC");
  }
  if (!caps.supports_acquisition_trials) {
    detail::require(options.kind != TrialKind::kAcquisition,
                    to_string(caps.generation) +
                        " link does not support acquisition trials");
  }
  if (options.channel_source.is_ensemble()) {
    detail::require(options.channel_source.ensemble_count >= 1,
                    "ensemble channel source needs ensemble_count >= 1");
  }
  if (options.sampling.active()) {
    stats::validate(options.sampling);
    detail::require(options.kind == TrialKind::kPacket,
                    "sampling policy applies to packet trials only");
    detail::require(!options.fec.has_value(),
                    "sampling policy is incompatible with an outer FEC "
                    "(the target-bit estimator needs uncoded payload bits)");
  }
  // A spec can only ask for metrics this trial kind actually emits --
  // recording a never-emitted metric would silently produce empty columns.
  for (const std::string& name : options.record_metrics) {
    detail::require(emits_metric(caps.generation, options.kind, name),
                    "unknown metric '" + name + "' in record_metrics: a " +
                        to_string(caps.generation) +
                        (options.kind == TrialKind::kAcquisition ? " acquisition"
                                                                 : " packet") +
                        " trial does not emit it");
  }
}

/// The realization an ensemble-mode multipath trial must use. Loud when the
/// harness forgot to resolve one: drawing fresh would silently run a
/// different experiment than the spec describes.
const channel::Cir* ensemble_channel_or_throw(const TrialOptions& options,
                                              const TrialContext& context) {
  if (context.channel != nullptr) {
    // The inverse mismatch is equally silent-experiment-shaped: a resolved
    // realization alongside fresh-mode options means the caller forgot one
    // side or the other.
    detail::require(options.channel_source.is_ensemble(),
                    "TrialContext carries a channel realization but "
                    "options.channel_source is fresh-mode");
    return context.channel;
  }
  detail::require(!options.channel_source.is_ensemble() || options.cm < 1,
                  "ensemble channel source needs a resolved realization in TrialContext "
                  "(run through engine::SweepEngine, or resolve one via "
                  "engine::ChannelCache and pass it explicitly)");
  return nullptr;
}

/// The per-trial bias an importance-sampled trial must use. Loud when the
/// harness forgot to resolve one: running unbiased trials while reporting
/// importance weights would silently corrupt the estimate (same shape as
/// ensemble_channel_or_throw above).
double sampling_scale_or_throw(const TrialOptions& options, const TrialContext& context) {
  (void)options;
  detail::require(context.sampling_resolved,
                  "options.sampling is active but TrialContext carries no resolved bias "
                  "(run through engine::SweepEngine, or set noise_scale / sampling_trial "
                  "/ sampling_resolved on the context explicitly)");
  detail::require(context.noise_scale >= 1.0, "TrialContext: noise_scale must be >= 1");
  return context.noise_scale;
}

double real_dot(float a, float b) { return static_cast<double>(a) * b; }
double real_dot(const cplx& a, const cplx& b) {
  return a.real() * b.real() + a.imag() * b.imag();  // Re(a * conj(b))
}

/// The one-dimensional subspace the noise tilt rides along: the target
/// bit's received-signal direction (unit energy) and where it lands in the
/// samples the receiver reads. usable is false on a zero-energy span (e.g.
/// the bit's whole contribution fell off the end of the capture): the trial
/// then runs at the nominal distribution with weight exactly 1.
template <typename T>
struct TiltDirection {
  std::vector<T> unit;
  std::size_t offset = 0;
  bool usable = false;
};

/// The direction of \p shape, which lands at wave[offset ...] of a
/// \p wave_size-sample wave, cut at the wave's end.
template <typename T>
TiltDirection<T> make_tilt_direction(std::span<const T> shape, std::size_t offset,
                                     std::size_t wave_size) {
  TiltDirection<T> dir;
  if (offset >= wave_size) return dir;
  shape = shape.first(std::min(shape.size(), wave_size - offset));
  double energy = 0.0;
  for (const T& s : shape) energy += real_dot(s, s);
  if (!(energy > 0.0)) return dir;
  const double inv = 1.0 / std::sqrt(energy);
  dir.unit.resize(shape.size());
  for (std::size_t i = 0; i < shape.size(); ++i) dir.unit[i] = static_cast<T>(shape[i] * inv);
  dir.offset = offset;
  dir.usable = true;
  return dir;
}

/// Adds the extra directional noise on top of the nominal AWGN draw and
/// returns the trial's log-likelihood ratio. \p clean is the pre-AWGN
/// snapshot of the direction's span, so wave - clean along the direction is
/// exactly the noise the weight must account for. The weight is the
/// balance heuristic over the policy's whole ladder (see
/// stats::mixture_log_weight): every rung -- including the untilted 1.0
/// rung -- reports the same weight function of z, which keeps weights
/// bounded by the rung count and keeps error mechanisms outside the tilt
/// direction measurable. Always consumes one Gaussian draw so the trial's
/// draw count does not depend on the scale or on channel luck.
template <typename T>
double apply_noise_tilt(std::span<T> wave, std::span<const T> clean, const TiltDirection<T>& dir,
                        double sigma2, const stats::SamplingPolicy& policy, double scale,
                        Rng& rng) {
  if (!dir.usable) {
    rng.gaussian(0.0, 0.0);
    return 0.0;
  }
  double z = 0.0;
  for (std::size_t i = 0; i < dir.unit.size(); ++i) {
    z += real_dot(wave[dir.offset + i] - clean[i], dir.unit[i]);
  }
  const double extra = rng.gaussian(0.0, stats::tilt_extra_stddev(sigma2, scale));
  if (extra != 0.0) {
    for (std::size_t i = 0; i < dir.unit.size(); ++i) {
      wave[dir.offset + i] += static_cast<T>(extra * dir.unit[i]);
    }
  }
  return stats::mixture_log_weight(z + extra, sigma2, stats::sampling_ladder(policy));
}

}  // namespace

channel::SvParams ensemble_sv_params(int cm, Generation gen) {
  channel::SvParams params = channel::cm_by_index(cm);
  params.complex_phases = gen == Generation::kGen2;
  return params;
}

// ------------------------------------------------------------- LinkSpec ----

LinkSpec LinkSpec::for_gen1(Gen1Config config) {
  return for_gen1(std::move(config), default_options(Generation::kGen1));
}

LinkSpec LinkSpec::for_gen1(Gen1Config config, TrialOptions options) {
  LinkSpec spec;
  spec.config = std::move(config);
  spec.options = std::move(options);
  return spec;
}

LinkSpec LinkSpec::for_gen2(Gen2Config config) {
  return for_gen2(std::move(config), default_options(Generation::kGen2));
}

LinkSpec LinkSpec::for_gen2(Gen2Config config, TrialOptions options) {
  LinkSpec spec;
  spec.config = std::move(config);
  spec.options = std::move(options);
  return spec;
}

LinkCaps generation_caps(Generation gen) {
  LinkCaps caps;
  caps.generation = gen;
  if (gen == Generation::kGen1) {
    caps.complex_baseband = false;
    caps.supports_interferer = false;
    caps.supports_auto_notch = false;
    caps.supports_fec = false;
    caps.supports_acquisition_trials = true;
  } else {
    caps.complex_baseband = true;
    caps.supports_interferer = true;
    caps.supports_auto_notch = true;
    caps.supports_fec = true;
    caps.supports_acquisition_trials = false;
  }
  // Derived, not hand-listed: the advertised vocabulary is the union of
  // what the supported trial kinds emit, so it cannot drift from
  // trial_metric_names.
  caps.metric_names = trial_metric_names(gen, TrialKind::kPacket);
  if (caps.supports_acquisition_trials) {
    for (std::string& name : trial_metric_names(gen, TrialKind::kAcquisition)) {
      if (!emits_metric(gen, TrialKind::kPacket, name)) {
        caps.metric_names.push_back(std::move(name));
      }
    }
  }
  return caps;
}

std::vector<std::string> trial_metric_names(Generation gen, TrialKind kind) {
  if (kind == TrialKind::kAcquisition) {
    detail::require(gen == Generation::kGen1,
                    to_string(gen) + " link does not support acquisition trials");
    return {metric_names::kAcquired, metric_names::kTimingCorrect,
            metric_names::kSyncTime};
  }
  if (gen == Generation::kGen1) return {metric_names::kAcquired, metric_names::kIsLlr};
  return {metric_names::kAcquired,          metric_names::kRakeEnergyCapture,
          metric_names::kSnrEstimate,       metric_names::kInterfererDetected,
          metric_names::kInterfererPom,     metric_names::kInterfererFreqErr,
          metric_names::kIsLlr};
}

bool emits_metric(Generation gen, TrialKind kind, const std::string& name) {
  for (const std::string& have : trial_metric_names(gen, kind)) {
    if (have == name) return true;
  }
  return false;
}

void validate_spec(const LinkSpec& spec) {
  require_supported(generation_caps(spec.generation()), spec.options);
}

std::unique_ptr<Link> make_link(const LinkSpec& spec, uint64_t seed) {
  validate_spec(spec);  // fail before paying for transmitter/receiver setup
  if (spec.generation() == Generation::kGen1) {
    return std::make_unique<Gen1Link>(spec.gen1(), seed);
  }
  return std::make_unique<Gen2Link>(spec.gen2(), seed);
}

// ---------------------------------------------------------------- Gen-2 ----

Gen2Link::Gen2Link(const Gen2Config& config, uint64_t seed)
    : Link(seed), config_(config), tx_(config), rx_(config, rng_) {
  caps_ = generation_caps(Generation::kGen2);
  caps_.bit_rate_hz = config_.bit_rate_hz();
}

TrialResult Gen2Link::run_packet(const TrialOptions& options, Rng& rng,
                                 const TrialContext& context) {
  require_supported(caps_, options);  // gen-2 rejects acquisition trials here
  const Gen2TrialResult trial = run_packet_full(options, rng, context);
  TrialResult out;
  out.bits = trial.bits;
  out.errors = trial.errors;
  out.set_metric(metric_names::kAcquired, trial.rx.acquired ? 1.0 : 0.0);
  out.set_metric(metric_names::kRakeEnergyCapture, trial.rx.rake_energy_capture);
  out.set_metric(metric_names::kSnrEstimate, trial.rx.snr_estimate_db);
  if (options.run_spectral_monitor) {
    out.set_metric(metric_names::kInterfererDetected,
                   trial.rx.interferer.detected ? 1.0 : 0.0);
    out.set_metric(metric_names::kInterfererPom,
                   trial.rx.interferer.peak_over_median_db);
    // A frequency error only means something when there was a tone to find
    // and the monitor claimed to find it (mean over the detected subset,
    // same convention as sync_time_s).
    if (options.interferer && trial.rx.interferer.detected) {
      out.set_metric(metric_names::kInterfererFreqErr,
                     std::abs(trial.rx.interferer.frequency_hz -
                              options.interferer_freq_hz));
    }
  }
  if (trial.weighted) out.set_metric(metric_names::kIsLlr, trial.is_llr);
  return out;
}

Gen2TrialResult Gen2Link::run_packet_full(const TrialOptions& options, Rng& rng,
                                          const TrialContext& context) {
  Gen2TrialResult trial;

  // Transmit. With an outer code the on-air payload is the codeword.
  const BitVec info = rng.bits(options.payload_bits);
  BitVec payload = info;
  if (options.fec.has_value()) {
    detail::require(config_.modulation == phy::Modulation::kBpsk,
                    "Gen2Link: coded mode requires BPSK");
    payload = fec::ConvEncoder(*options.fec).encode(info);
  }
  obs::StageTimer tx_timer(obs::Stage::kTxModulate);
  auto [wave, frame] = tx_.transmit(payload);
  tx_timer.add_samples(wave.size());
  tx_timer.finish();

  // Random start delay (what acquisition must find).
  std::size_t delay = 0;
  if (options.start_delay_max_samples > 0) {
    delay = static_cast<std::size_t>(
        rng.uniform_int(0, static_cast<int>(options.start_delay_max_samples)));
    wave.delay_samples(delay);
  }

  // Multipath: the context's resolved ensemble realization when one was
  // provided, a fresh per-trial draw otherwise. Drawing the channel counts
  // as channel_convolve time, as the convolution does.
  CplxWaveform rx_wave = std::move(wave);
  if (options.cm >= 1) {
    obs::StageTimer ch_timer(obs::Stage::kChannelConvolve);
    if (const channel::Cir* fixed = ensemble_channel_or_throw(options, context)) {
      trial.true_channel = *fixed;
    } else {
      const channel::SalehValenzuela sv(channel::cm_by_index(options.cm));
      trial.true_channel = sv.realize(rng);
    }
    rx_wave = trial.true_channel.apply(rx_wave);
    ch_timer.add_samples(rx_wave.size());
    ch_timer.finish();
  } else {
    trial.true_channel = channel::identity_cir();
  }
  // Tail pad so late fingers stay in range.
  rx_wave.pad(static_cast<std::size_t>(64e-9 * config_.analog_fs));

  // Importance sampling: isolate the target payload bit's received-signal
  // direction (the prototype pulse through the same channel realization,
  // landed where the bit's symbol starts) before any noise is drawn. The
  // target bit is stratified by the global trial index, so the choice is
  // independent of worker count and shard layout.
  const bool tilt_active = options.sampling.active();
  std::size_t target_bit = 0;
  TiltDirection<cplx> tilt;
  if (tilt_active) {
    detail::require(config_.modulation == phy::Modulation::kBpsk,
                    "Gen2Link: sampling policy requires BPSK payload modulation");
    detail::require(!options.fec.has_value(),
                    "Gen2Link: sampling policy is incompatible with an outer FEC");
    (void)sampling_scale_or_throw(options, context);
    target_bit = context.sampling_trial % frame.payload.size();
    const RealWaveform& proto = tx_.prototype();
    CplxVec shape(proto.size());
    for (std::size_t i = 0; i < proto.size(); ++i) shape[i] = cplx(proto[i], 0.0);
    if (options.cm >= 1) {
      const CplxWaveform filtered =
          trial.true_channel.apply(CplxWaveform(std::move(shape), config_.analog_fs));
      shape = filtered.samples();
    }
    const std::size_t bit_offset =
        delay + (frame.overhead_symbols + target_bit) * frame.samples_per_bit;
    tilt = make_tilt_direction<cplx>(shape, bit_offset, rx_wave.size());
  }

  // Interference.
  const double signal_power = rx_wave.power();
  if (options.interferer) {
    channel::add_cw_interferer(rx_wave, options.interferer_freq_hz, signal_power,
                               options.interferer_sir_db, rng);
  }

  // AWGN at the requested Eb/N0, tilted along the target bit's direction
  // when a sampling policy is active (variance n0/2 per rail -> the tilt's
  // sigma2; z in the weight is the realized noise along the direction).
  const double n0 = channel::n0_for_ebn0(frame.energy_per_bit, options.ebn0_db);
  double log_weight = 0.0;
  {
    CplxVec clean;
    if (tilt_active && tilt.usable) {
      const auto first = static_cast<std::ptrdiff_t>(tilt.offset);
      clean.assign(rx_wave.samples().begin() + first,
                   rx_wave.samples().begin() + first +
                       static_cast<std::ptrdiff_t>(tilt.unit.size()));
    }
    channel::add_awgn(rx_wave, n0, rng);
    if (tilt_active) {
      log_weight = apply_noise_tilt<cplx>(rx_wave.samples(), clean, tilt, 0.5 * n0,
                                          options.sampling, context.noise_scale, rng);
    }
  }

  // Receive. Coded trials bypass the MLSE hard path so the decoder gets
  // the RAKE's soft stream.
  Gen2RxOptions rx_opts;
  rx_opts.genie_timing = options.genie_timing;
  rx_opts.genie_offset = 0;  // estimator searches its window regardless
  rx_opts.run_spectral_monitor = options.run_spectral_monitor;
  rx_opts.auto_notch = options.auto_notch;
  rx_opts.noise_variance = n0;
  if (options.fec.has_value()) {
    const bool saved_mlse = config_.use_mlse;
    rx_.mutable_config().use_mlse = false;
    trial.rx = rx_.receive(rx_wave, tx_, frame, rx_opts, rng);
    rx_.mutable_config().use_mlse = saved_mlse;
  } else {
    trial.rx = rx_.receive(rx_wave, tx_, frame, rx_opts, rng);
  }

  trial.bits = trial.rx.bits_compared;
  trial.errors = trial.rx.bit_errors;

  if (options.fec.has_value() && trial.rx.acquired) {
    // Soft-decision Viterbi decoding of the codeword (payload section of
    // the soft stream; the CRC-32 tail bits are not part of the codeword).
    const std::size_t codeword_bits = payload.size();
    if (trial.rx.payload_soft.size() >= codeword_bits) {
      std::vector<double> llr(trial.rx.payload_soft.begin(),
                              trial.rx.payload_soft.begin() +
                                  static_cast<std::ptrdiff_t>(codeword_bits));
      const fec::ViterbiDecoder decoder(*options.fec);
      const BitVec decoded = decoder.decode_soft(llr);
      std::size_t errors = 0;
      const std::size_t n = std::min(decoded.size(), info.size());
      for (std::size_t i = 0; i < n; ++i) {
        if ((decoded[i] != 0) != (info[i] != 0)) ++errors;
      }
      trial.bits = info.size();
      trial.errors = errors + (info.size() - n);
    }
  }

  if (!trial.rx.acquired) {
    // A lost packet counts every bit as errored (PER-style accounting).
    trial.bits = options.fec.has_value() ? info.size() : frame.body_bits;
    trial.errors = trial.bits;
  }

  if (tilt_active) {
    // Weighted accounting: the trial measures its one target bit (the
    // others saw a biased-but-unweighted draw only through the tilt's
    // leakage into their matched filters, which the 1-D construction keeps
    // exactly zero-mean). A lost packet errors the target bit too.
    trial.weighted = true;
    trial.is_llr = log_weight;
    std::size_t err = 1;
    if (trial.rx.acquired && target_bit < trial.rx.payload.size()) {
      const std::size_t body_start = frame.frame_bits.size() - frame.body_bits;
      const bool tx_bit = frame.frame_bits[body_start + target_bit] != 0;
      err = ((trial.rx.payload[target_bit] != 0) != tx_bit) ? 1 : 0;
    }
    trial.bits = 1;
    trial.errors = err;
  }
  return trial;
}

// ---------------------------------------------------------------- Gen-1 ----

Gen1Link::Gen1Link(const Gen1Config& config, uint64_t seed)
    : Link(seed), config_(config), tx_(config), rx_(config, rng_) {
  caps_ = generation_caps(Generation::kGen1);
  caps_.bit_rate_hz = config_.bit_rate_hz();
}

const RealVec& Gen1Link::composite_kernel(const channel::Cir& cir) {
  if (!g_kernel_.empty() && cir.taps() == g_key_taps_) return g_kernel_;
  const CplxVec hc = cir.sampled(config_.analog_fs);
  RealVec hr(hc.size());
  for (std::size_t i = 0; i < hc.size(); ++i) hr[i] = hc[i].real();
  g_kernel_ = dsp::convolve(tx_.prototype().samples(), hr);
  g_key_taps_ = cir.taps();
  // The kernel itself stays double precision (computed once per
  // realization); the per-packet scatter reads the float mirror.
  g_kernel_f_.resize(g_kernel_.size());
  for (std::size_t i = 0; i < g_kernel_.size(); ++i) {
    g_kernel_f_[i] = static_cast<float>(g_kernel_[i]);
  }
  return g_kernel_;
}

const dsp::AlignedVec<float>& Gen1Link::prototype_f() {
  const RealVec& proto = tx_.prototype().samples();
  if (proto_f_.size() != proto.size()) {
    proto_f_.resize(proto.size());
    for (std::size_t i = 0; i < proto.size(); ++i) {
      proto_f_[i] = static_cast<float>(proto[i]);
    }
  }
  return proto_f_;
}

void Gen1Link::synthesize(std::span<const CaptureSegment> segments,
                          const std::vector<double>& amplitudes, std::size_t delay_samples,
                          const dsp::AlignedVec<float>& kernel) {
  std::size_t total = 0;
  for (const CaptureSegment& seg : segments) total += seg.size();
  // Slot s adds a_s * g over [delay + s F, delay + s F + |g|); each segment
  // sums the slots that meet it in ascending order, as a scatter over the
  // whole capture would.
  const obs::StageTimer timer(obs::Stage::kChannelConvolve, total);
  input_.assign_zero(total);
  const std::size_t F = config_.frame_samples_analog();
  const std::size_t g_len = kernel.size();
  float* out = input_.data();
  for (const CaptureSegment& seg : segments) {
    if (g_len > 0 && seg.end > delay_samples) {
      const std::size_t s_lo = seg.begin + 1 > delay_samples + g_len
                                   ? ceil_div(seg.begin + 1 - delay_samples - g_len, F)
                                   : 0;
      const std::size_t s_hi =
          std::min(amplitudes.size(), (seg.end - 1 - delay_samples) / F + 1);
      for (std::size_t s = s_lo; s < s_hi; ++s) {
        const auto a = static_cast<float>(amplitudes[s]);
        const std::size_t p = delay_samples + s * F;
        const std::size_t i0 = std::max(p, seg.begin);
        const std::size_t i1 = std::min(p + g_len, seg.end);
        float* dst = out + (i0 - seg.begin);
        const float* src = kernel.data() + (i0 - p);
        for (std::size_t i = 0; i < i1 - i0; ++i) dst[i] += a * src[i];
      }
    }
    out += seg.size();
  }
}

namespace {

/// The multipath realization a gen-1 trial must use (cm >= 1 only): the
/// context's resolved ensemble realization, or a fresh per-trial draw.
channel::Cir resolve_gen1_cir(const TrialOptions& options, const TrialContext& context,
                              Rng& rng) {
  if (const channel::Cir* fixed = ensemble_channel_or_throw(options, context)) {
    return *fixed;
  }
  channel::SvParams params = channel::cm_by_index(options.cm);
  params.complex_phases = false;  // real +/- polarity taps for passband
  return channel::SalehValenzuela(params).realize(rng);
}

/// The gen-1 tilt direction: a data bit's pulses_per_bit spread-scrambled
/// pulses through the composite kernel \p g, landed at capture sample
/// \p offset, restricted to the planned \p segments -- noise outside them
/// is never read, so tilting it would change nothing the weight accounts
/// for -- and renormalized there. Packed like the segments.
TiltDirection<float> gen1_tilt_direction(const Gen1Transmitter& tx, std::span<const float> g,
                                         std::size_t offset,
                                         std::span<const CaptureSegment> segments,
                                         std::size_t packed_size) {
  const std::vector<double>& spread = tx.spread_chips();
  const std::size_t F = tx.config().frame_samples_analog();
  const auto ppb = static_cast<std::size_t>(tx.config().pulses_per_bit);
  std::vector<float> shape((ppb - 1) * F + g.size(), 0.0f);
  for (std::size_t k = 0; k < ppb; ++k) {
    const auto chip = static_cast<float>(spread[k % spread.size()]);
    for (std::size_t i = 0; i < g.size(); ++i) shape[k * F + i] += chip * g[i];
  }
  const PackedRun run = pack_run(shape, offset, segments);
  return make_tilt_direction<float>(run.samples, run.offset, packed_size);
}

}  // namespace

TrialResult Gen1Link::run_packet(const TrialOptions& options, Rng& rng,
                                 const TrialContext& context) {
  if (options.kind == TrialKind::kAcquisition) {
    // Acquisition trials through the generic interface: one attempt per
    // trial, a timing failure is the trial's one "error". Stop rules and
    // the BER column therefore read as attempt count / timing-failure
    // rate, and the named metrics carry the acquisition statistics.
    const AcqTrial trial = run_acquisition(options, rng, options.acq_tol_samples, context);
    TrialResult out;
    out.bits = 1;
    out.errors = trial.timing_correct ? 0 : 1;
    out.set_metric(metric_names::kAcquired, trial.acq.acquired ? 1.0 : 0.0);
    out.set_metric(metric_names::kTimingCorrect, trial.timing_correct ? 1.0 : 0.0);
    // Only detected trials have a meaningful lock time: the metric's mean
    // is the mean over the detected subset, not diluted by misses.
    if (trial.acq.acquired) out.set_metric(metric_names::kSyncTime, trial.acq.sync_time_s);
    return out;
  }
  const Gen1TrialResult trial = run_packet_full(options, rng, context);
  TrialResult out;
  out.bits = trial.bits;
  out.errors = trial.errors;
  out.set_metric(metric_names::kAcquired,
                 (options.genie_timing || trial.rx.acq.acquired) ? 1.0 : 0.0);
  if (trial.weighted) out.set_metric(metric_names::kIsLlr, trial.is_llr);
  return out;
}

Gen1Link::Capture Gen1Link::transmit(const TrialOptions& options, Rng& rng) {
  const BitVec payload = rng.bits(options.payload_bits);
  Capture capture;
  {
    obs::StageTimer tx_timer(obs::Stage::kTxModulate);
    capture.train = tx_.transmit_train(payload);
    capture.frame = std::move(capture.train.frame);
    tx_timer.add_samples(capture.train.amplitudes.size());
  }
  if (options.start_delay_max_frames > 0) {
    capture.delay_frames = static_cast<std::size_t>(
        rng.uniform_int(0, static_cast<int>(options.start_delay_max_frames)));
  }
  capture.n0 = channel::n0_for_ebn0(capture.frame.energy_per_bit, options.ebn0_db);
  return capture;
}

Gen1Link::Planned Gen1Link::synthesize_planned(const Capture& capture,
                                               const TrialOptions& options,
                                               const TrialContext& context,
                                               const Gen1RxOptions& rx_opts,
                                               std::optional<std::size_t> tilt_bit, Rng& rng) {
  const dsp::AlignedVec<float>* g = &prototype_f();
  std::span<const double> g_exact = tx_.prototype().samples();
  if (options.cm >= 1) {
    const obs::StageTimer timer(obs::Stage::kChannelConvolve);
    const channel::Cir cir = resolve_gen1_cir(options, context, rng);
    g_exact = composite_kernel(cir);  // refreshes the float mirror on a new realization
    g = &g_kernel_f_;
  }
  channel::FloatAwgn noise(capture.n0, rng);
  // Tail pad so late fingers stay in range.
  const std::size_t F = config_.frame_samples_analog();
  const std::size_t delay_samples = capture.delay_frames * F;
  const std::size_t n = delay_samples + F * capture.train.amplitudes.size() + g->size() +
                        static_cast<std::size_t>(64e-9 * config_.analog_fs);
  obs::StageTimer plan_timer(obs::Stage::kRxFrontend);
  const std::span<const CaptureSegment> segments = rx_.plan_capture(
      n, config_.analog_fs, tx_, capture.frame.frame_bits.size(), rx_opts);
  plan_timer.finish();
  synthesize(segments, capture.train.amplitudes, delay_samples, *g);

  const std::span<float> input(input_.data(), input_.size());
  Planned planned;
  planned.input = input;
  obs::StageTimer noise_timer(obs::Stage::kChannelNoise, input.size());
  // Importance sampling: the direction and the clean span under it are
  // taken before any noise is drawn.
  TiltDirection<float> tilt;
  std::vector<float> clean;
  if (tilt_bit.has_value()) {
    const std::size_t bit_offset =
        (capture.delay_frames + tx_.preamble_frames() +
         *tilt_bit * static_cast<std::size_t>(config_.pulses_per_bit)) * F;
    tilt = gen1_tilt_direction(tx_, *g, bit_offset, segments, input.size());
    if (tilt.usable) {
      const std::span<const float> under = input.subspan(tilt.offset, tilt.unit.size());
      clean.assign(under.begin(), under.end());
    }
  }
  // One noise stream over the packed segments, in ascending sample order.
  noise.add(input.data(), input.size());
  if (tilt_bit.has_value()) {
    planned.log_weight = apply_noise_tilt<float>(input, clean, tilt, noise.variance(),
                                                  options.sampling, context.noise_scale, rng);
  }
  noise_timer.finish();

  // The setpoint leaves out the tilt's extra variance along one
  // unit-energy direction: a share of about (scale^2 - 1) / n of the
  // capture's noise power (docs/performance.md).
  const obs::StageTimer agc_timer(obs::Stage::kRxFrontend);
  planned.agc_setpoint =
      rx_.agc_setpoint(capture.train.amplitudes, g_exact, noise.variance(), n);
  return planned;
}

Gen1TrialResult Gen1Link::run_packet_full(const TrialOptions& options, Rng& rng,
                                          const TrialContext& context) {
  require_supported(caps_, options);
  Gen1TrialResult trial;

  // The dense ~98%-zeros waveform is never synthesized: the transmitter
  // emits per-frame amplitudes, and the link synthesizes only the capture
  // segments the receiver will read (with genie timing, ~7% of the capture
  // around the data section's pulse phase), landing the channel (identity
  // for AWGN-only trials) as shift-adds of the composite kernel plus
  // single-precision noise.
  const Capture capture = transmit(options, rng);
  const TxFrame& frame = capture.frame;
  trial.true_offset_adc = capture.delay_frames * config_.frame_samples_adc;

  Gen1RxOptions rx_opts;
  rx_opts.genie_timing = options.genie_timing;
  rx_opts.genie_offset = trial.true_offset_adc;

  // Importance sampling: the target data bit is stratified by the global
  // trial index, so the choice is independent of worker count and shards.
  std::optional<std::size_t> target_bit;
  if (options.sampling.active()) {
    (void)sampling_scale_or_throw(options, context);
    target_bit = context.sampling_trial % frame.frame_bits.size();
  }
  const Planned planned = synthesize_planned(capture, options, context, rx_opts, target_bit, rng);
  trial.rx = rx_.receive(planned.input, tx_, frame, rx_opts, planned.agc_setpoint, rng);
  trial.bits = trial.rx.bits_compared;
  trial.errors = trial.rx.bit_errors;
  if (!options.genie_timing && !trial.rx.acq.acquired) {
    trial.bits = frame.frame_bits.size();
    trial.errors = frame.frame_bits.size();
  }

  if (target_bit.has_value()) {
    trial.weighted = true;
    trial.is_llr = planned.log_weight;
    std::size_t err = 1;  // lost packet: the target bit errored with the rest
    if ((options.genie_timing || trial.rx.acq.acquired) &&
        *target_bit < trial.rx.data_bits.size()) {
      const bool tx_bit = frame.frame_bits[*target_bit] != 0;
      err = ((trial.rx.data_bits[*target_bit] != 0) != tx_bit) ? 1 : 0;
    }
    trial.bits = 1;
    trial.errors = err;
  }
  return trial;
}

Gen1Link::AcqTrial Gen1Link::run_acquisition(const TrialOptions& options,
                                             std::size_t tol_samples) {
  return run_acquisition(options, rng_, tol_samples, TrialContext{});
}

Gen1Link::AcqTrial Gen1Link::run_acquisition(const TrialOptions& options, Rng& rng,
                                             std::size_t tol_samples,
                                             const TrialContext& context) {
  require_supported(caps_, options);
  AcqTrial out;

  // The same synthesis as a packet trial (acquisition trials never tilt);
  // the receiver plans the whole capture.
  const Capture capture = transmit(options, rng);
  const std::size_t true_offset = capture.delay_frames * config_.frame_samples_adc;
  const Planned planned =
      synthesize_planned(capture, options, context, Gen1RxOptions{}, std::nullopt, rng);
  out.acq = rx_.acquire(planned.input, tx_, planned.agc_setpoint, rng);
  out.true_offset_adc = true_offset;

  // Compare timing modulo one PN period (the residual ambiguity the SFD
  // search resolves at frame level).
  const std::size_t period_samples =
      tx_.preamble_chips().size() * config_.frame_samples_adc;
  const auto diff = static_cast<std::ptrdiff_t>(out.acq.timing_offset % period_samples) -
                    static_cast<std::ptrdiff_t>(true_offset % period_samples);
  const std::size_t abs_diff =
      static_cast<std::size_t>(diff < 0 ? -diff : diff) % period_samples;
  const std::size_t wrapped = std::min(abs_diff, period_samples - abs_diff);
  out.timing_correct = out.acq.acquired && wrapped <= tol_samples;
  return out;
}

}  // namespace uwb::txrx
