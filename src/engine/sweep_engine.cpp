#include "engine/sweep_engine.h"

#include <algorithm>
#include <chrono>
#include <limits>
#include <memory>

#include "common/error.h"
#include "dsp/fft.h"
#include "obs/profile.h"
#include "obs/progress.h"
#include "obs/trace.h"
#include "stats/adaptive.h"
#include "stats/sampling.h"
#include "txrx/link.h"

namespace uwb::engine {

namespace {

// Salts separating the two per-point child streams (see sweep_engine.h).
constexpr uint64_t kTrialStreamSalt = 0;
constexpr uint64_t kLinkSeedSalt = 1;

/// One trial of a sweep point on a worker's private link. Everything the
/// trial needs beyond its own Rng is resolved from the index alone -- the
/// ensemble realization (`index % count`) and the sampling bias -- so any
/// worker produces the same outcome for the same trial.
sim::TrialOutcome run_trial(txrx::Link& link, const txrx::TrialOptions& options,
                            const ChannelEnsemble* ensemble, std::size_t index, Rng& rng) {
  txrx::TrialContext context;
  if (ensemble != nullptr) context.channel = &ensemble->realization_for_trial(index);
  const stats::SamplingPolicy& sampling = options.sampling;
  if (sampling.active()) {
    context.noise_scale = stats::trial_noise_scale(sampling, index);
    context.sampling_trial = index;
    context.sampling_resolved = true;
  }
  txrx::TrialResult trial = link.run_packet(options, rng, context);

  sim::TrialOutcome out;
  out.bits = trial.bits;
  out.errors = trial.errors;
  // The importance weight bypasses the record_metrics filter: it is
  // estimator state, not an optional observable.
  if (const std::optional<double> llr = trial.metric(txrx::metric_names::kIsLlr)) {
    out.log_weight = *llr;
    out.weighted = true;
  }
  // record_metrics filters AND orders the recorded reductions; empty means
  // record everything the trial emitted, in emission order.
  const std::vector<std::string>& wanted = options.record_metrics;
  if (wanted.empty()) {
    out.metrics = std::move(trial.metrics);
  } else {
    out.metrics.reserve(wanted.size());
    for (const std::string& name : wanted) {
      if (const std::optional<double> value = trial.metric(name)) {
        out.metrics.emplace_back(name, *value);
      }
    }
  }
  return out;
}

/// Every worker gets its own link (links are not safe for concurrent
/// trials), all built from the same seed so the simulated hardware is
/// identical.
TrialFactory make_trial_factory(const PointSpec& spec, uint64_t link_seed,
                                std::shared_ptr<const ChannelEnsemble> ensemble) {
  return [&spec, link_seed, ensemble]() -> TrialFn {
    std::shared_ptr<txrx::Link> link = txrx::make_link(spec.link, link_seed);
    return [link, &spec, ensemble](std::size_t index, Rng& rng) {
      return run_trial(*link, spec.link.options, ensemble.get(), index, rng);
    };
  };
}

/// The cache ensemble-mode points resolve from (see SweepConfig).
ChannelCache& channel_cache(const SweepConfig& config) {
  return config.channel_cache != nullptr ? *config.channel_cache : ChannelCache::global();
}

/// One point's measurement and how long its trials took (channel-ensemble
/// resolution excluded).
struct PointRun {
  sim::MeasuredPoint measured;
  double elapsed_s = 0.0;
};

/// Measures the plan's point \p index under \p stop: the per-point seeding
/// of the contract in sweep_engine.h, ensemble resolution, and the stage
/// profiler reset, shared by the base pass and the adaptive top-ups. The
/// index is always the point's global plan position.
PointRun run_point(const SweepConfig& config, const PointSpec& spec, std::size_t index,
                   const sim::BerStop& stop, ThreadPool& pool, const PointHooks& hooks) {
  const Rng point_root = Rng(config.seed).fork(index);
  const Rng trial_root = point_root.fork(kTrialStreamSalt);
  const uint64_t link_seed = point_root.fork(kLinkSeedSalt).seed();

  // Ensemble-mode multipath points share one realization set per
  // channel-axis group: the cache key is pure spec content (SvParams
  // fingerprint, ensemble seed, count), so every SNR/backend point of a
  // group -- in this process or any shard -- resolves the same ensemble.
  std::shared_ptr<const ChannelEnsemble> ensemble;
  const txrx::ChannelSource& source = spec.link.options.channel_source;
  if (source.is_ensemble() && spec.link.options.cm >= 1) {
    const channel::SvParams params =
        txrx::ensemble_sv_params(spec.link.options.cm, spec.link.generation());
    obs::Span cache_span(config.trace, "channel_cache", "resolve " + params.name);
    cache_span.arg("count", static_cast<std::uint64_t>(source.ensemble_count));
    cache_span.arg("seed", source.ensemble_seed);
    ensemble = channel_cache(config).get(params, source.ensemble_seed, source.ensemble_count);
  }

  // Per-point stage attribution: the workers' accumulators are zeroed
  // here and merged by the caller after the measure returns (all workers
  // quiesced), so each point's table holds this measurement alone.
  if (config.profile != nullptr) config.profile->reset();

  const auto start = std::chrono::steady_clock::now();
  PointRun run;
  run.measured = measure_point(make_trial_factory(spec, link_seed, std::move(ensemble)), stop,
                               trial_root, pool, hooks, config.ci_method);
  run.elapsed_s =
      std::chrono::duration<double>(std::chrono::steady_clock::now() - start).count();
  return run;
}

/// Loud up-front check that a metric-targeting stop rule can actually see
/// its metric on every point: the metric must be one the point's trial
/// kind emits AND survive the point's record_metrics filter -- otherwise
/// no trial would ever succeed and the rule would degenerate to the
/// trial/bit budgets without a word.
void validate_stop_metric(const ScenarioSpec& scenario, const std::string& metric) {
  for (std::size_t p = 0; p < scenario.points.size(); ++p) {
    const PointSpec& point = scenario.points[p];
    const std::vector<std::string>& recorded = point.link.options.record_metrics;
    const bool visible =
        txrx::emits_metric(point.link.generation(), point.link.options.kind, metric) &&
        (recorded.empty() ||
         std::find(recorded.begin(), recorded.end(), metric) != recorded.end());
    if (!visible) {
      throw InvalidArgument("scenario '" + scenario.name + "' point " +
                            std::to_string(p) + " ('" + point.label +
                            "') does not record stop metric '" + metric + "'");
    }
  }
}

}  // namespace

const PointRecord* SweepResult::find(
    const std::vector<std::pair<std::string, std::string>>& tags) const {
  for (const auto& record : records) {
    bool all = true;
    for (const auto& [key, value] : tags) {
      if (record.spec.tag(key) != value) {
        all = false;
        break;
      }
    }
    if (all) return &record;
  }
  return nullptr;
}

SweepEngine::SweepEngine(SweepConfig config) : config_(config) {
  detail::require(config_.shard_count >= 1, "SweepEngine: shard_count must be >= 1");
  detail::require(config_.shard_index < config_.shard_count,
                  "SweepEngine: shard_index must be < shard_count");
}

SweepResult SweepEngine::run(const ScenarioSpec& scenario,
                             const std::vector<ResultSink*>& sinks) {
  // Fail fast on a bad plan (e.g. a hand-written spec asking gen-1 for an
  // interferer): every point is validated before any trial runs, so an
  // invalid late point cannot discard hours of completed work mid-sweep.
  for (std::size_t p = 0; p < scenario.points.size(); ++p) {
    try {
      txrx::validate_spec(scenario.points[p].link);
    } catch (const Error& e) {
      throw InvalidArgument("scenario '" + scenario.name + "' point " +
                            std::to_string(p) + " ('" + scenario.points[p].label +
                            "'): " + e.what());
    }
  }
  if (!config_.stop.metric.empty()) validate_stop_metric(scenario, config_.stop.metric);

  SweepResult result;
  result.info.scenario = scenario.name;
  result.info.seed = config_.seed;
  result.info.stop = config_.stop;
  result.info.num_points = scenario.points.size();

  for (ResultSink* sink : sinks) sink->begin(result.info);

  // Telemetry baselines: caches are long-lived (possibly process-global),
  // so the run's counters are deltas over this run alone.
  ChannelCache& cache = channel_cache(config_);
  const ChannelCache::Stats cache_before = cache.stats();
  const dsp::FftPlanCacheStats fft_before = dsp::fft_plan_cache_stats();
  const auto run_start = std::chrono::steady_clock::now();

  if (config_.trace != nullptr) config_.trace->name_thread("engine");
  obs::Span run_span(config_.trace, "engine", "run " + scenario.name);
  run_span.arg("seed", config_.seed);

  ThreadPool pool(config_.workers, config_.trace);

  if (config_.progress != nullptr) {
    std::size_t shard_points = 0;
    for (std::size_t p = 0; p < scenario.points.size(); ++p) {
      if (p % config_.shard_count == config_.shard_index) ++shard_points;
    }
    config_.progress->begin_run(shard_points);
  }

  const PointHooks hooks{config_.trace, config_.progress, config_.profile, config_.cancel};
  std::uint64_t traced_trials = 0;
  std::uint64_t traced_errors = 0;
  obs::StageTable traced_stage_totals;  // cumulative, for the counter track

  // Points run one after another; the pool parallelizes the trials inside
  // each point. That keeps sink delivery in plan order and makes every
  // point's result an independent pure function of (seed, point_index) --
  // including under sharding, which only skips points and never re-indexes.
  for (std::size_t p = 0; p < scenario.points.size(); ++p) {
    if (p % config_.shard_count != config_.shard_index) continue;
    if (hooks.cancelled()) {
      result.interrupted = true;
      break;
    }
    const PointSpec& spec = scenario.points[p];
    if (config_.progress != nullptr) config_.progress->begin_point(p, spec.label);
    obs::Span point_span(config_.trace, "engine", "point " + spec.label);
    point_span.arg("index", static_cast<std::uint64_t>(p));

    PointRun point = run_point(config_, spec, p, config_.stop, pool, hooks);

    if (hooks.cancelled()) {
      // A cancelled measurement is truncated, not deterministic: discard
      // it (even if the cancel raced the point's natural completion -- the
      // cheap uniform policy keeps the flushed document an exact prefix of
      // completed points either way).
      if (config_.progress != nullptr) config_.progress->end_point();
      point_span.finish();
      result.interrupted = true;
      break;
    }

    point_span.arg("trials", static_cast<std::uint64_t>(point.measured.ber.trials));
    point_span.arg("bits", static_cast<std::uint64_t>(point.measured.ber.bits));
    point_span.arg("errors", static_cast<std::uint64_t>(point.measured.ber.errors));
    point_span.finish();
    if (config_.trace != nullptr) {
      // Cumulative committed totals as counter tracks across the sweep.
      traced_trials += point.measured.ber.trials;
      traced_errors += point.measured.ber.errors;
      config_.trace->counter("engine", "committed_trials",
                             static_cast<double>(traced_trials));
      config_.trace->counter("engine", "bit_errors", static_cast<double>(traced_errors));
      const ChannelCache::Stats cs = cache.stats();
      config_.trace->counter("channel_cache", "sv_draws",
                             static_cast<double>(cs.sv_draws - cache_before.sv_draws));
    }
    if (config_.progress != nullptr) config_.progress->end_point();

    PointRecord record;
    record.index = p;
    record.spec = spec;
    record.ber = point.measured.ber;
    record.metrics = std::move(point.measured.metrics);
    record.elapsed_s = point.elapsed_s;
    if (config_.profile != nullptr) {
      record.stages = config_.profile->merged();
      result.stages.merge(record.stages);
      if (config_.trace != nullptr) {
        // Cumulative per-stage totals as a Chrome counter track: the
        // profile's time budget drawn across the sweep's timeline.
        traced_stage_totals.merge(record.stages);
        for (std::size_t s = 0; s < obs::kStageCount; ++s) {
          const obs::StageStats& stage = traced_stage_totals.stages[s];
          if (stage.calls == 0) continue;
          config_.trace->counter("profile", obs::stage_name(static_cast<obs::Stage>(s)),
                                 static_cast<double>(stage.total_ns) / 1e6);
        }
      }
    }
    for (ResultSink* sink : sinks) sink->point(record);
    result.records.push_back(std::move(record));
  }

  // Counter totals: pool stats are quiesced (every task finished before
  // the last point's measure returned), cache counters are run deltas.
  result.counters.pool = pool.worker_stats();
  const ChannelCache::Stats cache_after = cache.stats();
  result.counters.cache_hits = cache_after.hits - cache_before.hits;
  result.counters.cache_disk_loads = cache_after.disk_loads - cache_before.disk_loads;
  result.counters.cache_generated = cache_after.generated - cache_before.generated;
  result.counters.cache_sv_draws = cache_after.sv_draws - cache_before.sv_draws;
  const dsp::FftPlanCacheStats fft_after = dsp::fft_plan_cache_stats();
  result.counters.fft_plan_hits = fft_after.hits - fft_before.hits;
  result.counters.fft_plan_misses = fft_after.misses - fft_before.misses;
  result.counters.wall_s =
      std::chrono::duration<double>(std::chrono::steady_clock::now() - run_start).count();
  run_span.finish();

  if (config_.progress != nullptr) config_.progress->end_run();
  for (ResultSink* sink : sinks) sink->end(result.info);
  return result;
}

SweepResult SweepEngine::run_named(const std::string& name,
                                   const std::vector<ResultSink*>& sinks) {
  return run(ScenarioRegistry::global().make(name), sinks);
}

SweepResult SweepEngine::run_adaptive(const ScenarioSpec& scenario,
                                      std::size_t extra_trials,
                                      const std::vector<ResultSink*>& sinks) {
  detail::require(config_.shard_count == 1,
                  "run_adaptive: adaptive allocation is incompatible with sharding "
                  "(the allocator must see every point's CI to pick the widest)");

  // Base pass without sinks: the document is written once, after the whole
  // budget is spent, so a reader never sees half-topped-up points.
  SweepResult result = run(scenario, {});

  if (!result.interrupted && extra_trials > 0 && !result.records.empty()) {
    ThreadPool pool(config_.workers, config_.trace);
    // Top-ups run without the progress meter (its point counts were sized
    // for the base pass); the trace recorder still sees them.
    const PointHooks hooks{config_.trace, nullptr, config_.profile, config_.cancel};

    std::vector<stats::AllocPoint> alloc;
    alloc.reserve(result.records.size());
    for (const PointRecord& rec : result.records) {
      alloc.push_back(stats::AllocPoint{rec.ber.ber, 0.5 * (rec.ber.ci_hi - rec.ber.ci_lo),
                                        rec.ber.trials, false});
    }

    std::size_t remaining = extra_trials;
    while (remaining > 0 && !hooks.cancelled()) {
      const int pick = stats::pick_widest(alloc);
      if (pick < 0) break;  // every point saturated
      stats::AllocPoint& ap = alloc[static_cast<std::size_t>(pick)];
      PointRecord& rec = result.records[static_cast<std::size_t>(pick)];

      // Trial-budgeted extension: the error/bit budgets already fired on
      // the base pass, so only the raised trial cap (and a CI target, when
      // one is set) bounds the top-up. Rerunning with a larger cap commits
      // a superset prefix of the same trial stream -- the base trials are
      // reproduced bit for bit, then extended.
      sim::BerStop stop = config_.stop;
      stop.min_errors = std::numeric_limits<std::size_t>::max();
      stop.max_bits = std::numeric_limits<std::size_t>::max();
      stop.max_trials = ap.trials + stats::next_chunk(ap.trials, remaining);

      obs::Span span(config_.trace, "engine", "topup " + rec.spec.label);
      PointRun point = run_point(config_, rec.spec, rec.index, stop, pool, hooks);
      span.finish();
      if (config_.profile != nullptr) {
        // A top-up replays the committed prefix then extends it; its stage
        // work is real work this run did, so it accumulates on top of the
        // base pass's table.
        const obs::StageTable topup = config_.profile->merged();
        rec.stages.merge(topup);
        result.stages.merge(topup);
      }
      if (hooks.cancelled()) {
        result.interrupted = true;
        break;
      }
      rec.elapsed_s += point.elapsed_s;

      const std::size_t grown =
          point.measured.ber.trials > ap.trials ? point.measured.ber.trials - ap.trials : 0;
      if (grown == 0) {
        // A CI target (or a degenerate plan) kept the point from growing:
        // never pick it again, the budget moves to the next-widest point.
        ap.saturated = true;
        continue;
      }
      remaining -= std::min(remaining, grown);
      rec.ber = point.measured.ber;
      rec.metrics = std::move(point.measured.metrics);
      ap.ber = rec.ber.ber;
      ap.ci_halfwidth = 0.5 * (rec.ber.ci_hi - rec.ber.ci_lo);
      ap.trials = rec.ber.trials;
    }
    result.counters.pool = pool.worker_stats();
  }

  for (ResultSink* sink : sinks) sink->begin(result.info);
  for (const PointRecord& rec : result.records) {
    for (ResultSink* sink : sinks) sink->point(rec);
  }
  for (ResultSink* sink : sinks) sink->end(result.info);
  return result;
}

}  // namespace uwb::engine
