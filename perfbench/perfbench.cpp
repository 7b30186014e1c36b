// perfbench: the sweep benchmark program. Runs one named workload through the
// production sweep path (engine::SweepEngine::run + engine::JsonSink, what
// uwb_sweep runs), checks every result document, and prints one JSON line of
// metrics.
//
//   perfbench --workload gen2_grid --seed 7 --seconds 20 --trace 0 --out-dir DIR
//
// --trace 0  end-to-end metrics, tracing off: the workload is set up 31
//            times (median setup_s), then swept for --seconds over a few
//            sweep seeds (trials_per_s, sweep_s), repeating at least one
//            seed, whose documents must be byte-identical.
// --trace 1  per-layer metrics: a cold set-up, an untraced sweep counting
//            allocations, a profiled sweep (stage table, run counters) and a
//            second untraced sweep, whose documents must be byte-identical, a
//            replay of the records through a fresh JSON sink,
//            single-threaded txrx timings at the workload's representative
//            point, and the kernel timings of layers.cpp for the workload's
//            link generation.
//
// Workloads are closed loops: one process, kWorkers pool workers, the sweep
// seed taken from --seed. Each is chosen to stress different layers:
//
//   gen2_grid      all 30 points of gen2_cm_grid, fresh channel draws: the
//                  paper's headline gen-2 sweep (front end, FFT convolution,
//                  acquisition) with many short points, so per-point link
//                  set-up and speculative trials show.
//   gen1_awgn      gen1_waterfall at 8 dB: one gen-1 point run to its bit cap
//                  on the float path, no FFT and no multipath, and almost no
//                  engine overhead -- the workload FFT and engine changes
//                  should leave unchanged.
//   gen2_ensemble  gen2_cm_grid on CM1-CM4 with a 16-realization channel
//                  ensemble resolved during set-up: channel synthesis moves
//                  out of the trials and into setup_s.

#include <sys/resource.h>

#include <algorithm>
#include <chrono>
#include <cstdio>
#include <cstdlib>
#include <filesystem>
#include <fstream>
#include <iterator>
#include <memory>
#include <sstream>
#include <stdexcept>
#include <string>
#include <vector>

#include "engine/channel_cache.h"
#include "engine/scenario_registry.h"
#include "engine/sinks.h"
#include "engine/sweep_engine.h"
#include "farm/verify.h"
#include "io/json.h"
#include "io/result_io.h"
#include "obs/manifest.h"
#include "obs/profile.h"
#include "perfbench.h"
#include "txrx/link.h"

namespace {

using namespace uwb;
using Clock = std::chrono::steady_clock;

/// Pool workers of every sweep: fixed, and below the 4 cores of the
/// baseline machine, which keeps runs steadier than one worker per core.
constexpr std::size_t kWorkers = 3;

double seconds_since(Clock::time_point start) {
  return std::chrono::duration<double>(Clock::now() - start).count();
}

// ------------------------------------------------------------- workloads --

struct Workload {
  const char* name;
  const char* scenario;
  std::vector<std::pair<std::string, std::string>> restrict;  ///< axis=value overrides
  std::size_t ensemble = 0;  ///< 0 = fresh channel draws
  /// Distinct sweep seeds one end-to-end run cycles through. Points that
  /// stop on the error budget make the work and trial mix of a sweep
  /// seed-dependent; averaging several seeds per run keeps that out of the
  /// run-to-run spread.
  std::size_t seeds_per_run = 1;
  /// Tags of the point the single-threaded txrx timings use (empty = the
  /// first point).
  std::vector<std::pair<std::string, std::string>> representative;
};

const std::vector<Workload>& workloads() {
  static const std::vector<Workload> list = {
      {"gen2_grid", "gen2_cm_grid", {}, 0, 3,
       {{"channel", "CM3"}, {"ebn0_db", "12"}, {"backend", "full"}}},
      {"gen1_awgn", "gen1_waterfall", {{"ebn0_db", "8"}}, 0, 1, {}},
      {"gen2_ensemble", "gen2_cm_grid", {{"channel", "CM1,CM2,CM3,CM4"}}, 16, 4,
       {{"channel", "CM3"}, {"ebn0_db", "12"}, {"backend", "full"}}},
  };
  return list;
}

/// Sweep seed of slot \p k (< 16) of a run whose workload seed is \p seed:
/// consecutive per slot and disjoint across workload seeds. Slot 0 is also
/// the seed of the per-layer run.
std::uint64_t sweep_seed(std::uint64_t seed, std::size_t k) { return seed * 16 + k; }

const Workload& find_workload(const std::string& name) {
  for (const Workload& w : workloads()) {
    if (name == w.name) return w;
  }
  throw std::invalid_argument("unknown workload '" + name + "'");
}

/// The scenario exactly as `uwb_sweep <scenario> axis=value...
/// [--channel-ensemble N]` expands it.
engine::ScenarioSpec expand(const Workload& w) {
  engine::ScenarioSpec scenario = engine::ScenarioRegistry::global().make(w.scenario);
  for (const auto& [axis, values] : w.restrict) engine::restrict_scenario(scenario, axis, values);
  if (w.ensemble > 0) {
    txrx::ChannelSource source;
    source.mode = txrx::ChannelSource::Mode::kEnsemble;
    source.ensemble_count = w.ensemble;
    for (engine::PointSpec& point : scenario.points) point.link.options.channel_source = source;
  }
  return scenario;
}

/// The uwb_sweep argument list producing the same result document.
std::vector<std::string> uwb_sweep_args(const Workload& w, const engine::SweepConfig& config) {
  std::vector<std::string> args = {w.scenario};
  for (const auto& [axis, values] : w.restrict) args.push_back(axis + "=" + values);
  if (w.ensemble > 0) {
    args.push_back("--channel-ensemble");
    args.push_back(std::to_string(w.ensemble));
  }
  args.insert(args.end(), {"--seed", std::to_string(config.seed), "--workers",
                           std::to_string(config.workers), "--quiet"});
  return args;
}

const engine::PointSpec& representative_point(const Workload& w,
                                              const engine::ScenarioSpec& scenario) {
  for (const engine::PointSpec& point : scenario.points) {
    bool all = true;
    for (const auto& [key, value] : w.representative) all = all && point.tag(key) == value;
    if (all) return point;
  }
  throw std::logic_error(std::string("workload ") + w.name + " has no representative point");
}

// ----------------------------------------------------------------- set-up --

/// A workload ready to sweep: the expanded plan and the channel cache its
/// ensembles were resolved into.
struct Prepared {
  engine::ScenarioSpec scenario;
  std::unique_ptr<engine::ChannelCache> cache;
  double resolve_s = 0.0;
  engine::ChannelCache::Stats resolved;  ///< cache stats right after resolution
};

/// Scenario expansion, ensemble resolution, and a warm-up sweep of one
/// trial per point (pool start, link construction, FFT plan caches).
Prepared prepare(const Workload& w, const engine::SweepConfig& config) {
  Prepared p;
  p.scenario = expand(w);
  p.cache = std::make_unique<engine::ChannelCache>();

  const auto resolve_start = Clock::now();
  for (const engine::PointSpec& point : p.scenario.points) {
    const txrx::ChannelSource& source = point.link.options.channel_source;
    if (!source.is_ensemble() || point.link.options.cm < 1) continue;
    (void)p.cache->get(txrx::ensemble_sv_params(point.link.options.cm, point.link.generation()),
                       source.ensemble_seed, source.ensemble_count);
  }
  p.resolve_s = seconds_since(resolve_start);
  p.resolved = p.cache->stats();

  engine::SweepConfig warm = config;
  warm.channel_cache = p.cache.get();
  warm.stop.max_trials = 1;
  (void)engine::SweepEngine(warm).run(p.scenario);
  return p;
}

// ------------------------------------------------------------ correctness --

/// Structural and statistical checks every result document must pass
/// (farm::verify_result): bookkeeping against the stop rule, an interval
/// that brackets each point's own estimate, and a BER in [0, 1].
const io::JsonValue& expectations() {
  static const io::JsonValue doc = io::parse_json(R"({"version": 1, "checks": [
      {"check": "accounting"},
      {"check": "ci_contains"},
      {"check": "range", "metric": "ber", "min": 0, "max": 1}]})");
  return doc;
}

std::string read_file(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  if (!in) throw std::runtime_error("cannot read '" + path + "'");
  return std::string(std::istreambuf_iterator<char>(in), std::istreambuf_iterator<char>());
}

/// Tally of checked points across one run.
struct Checks {
  std::size_t attempted = 0;
  std::size_t failed = 0;

  /// Checks the document at \p path: every point must pass the verify
  /// checks and, when \p reference is non-empty, equal its counterpart
  /// there byte for byte. Returns each point serialized on its own (same
  /// header), the form \p reference takes.
  std::vector<std::string> check(const std::string& path, std::size_t expected_points,
                                 const std::vector<std::string>& reference, const char* what) {
    attempted += expected_points;
    io::ResultDoc doc;
    try {
      doc = io::parse_result_json(read_file(path));
    } catch (const std::exception& e) {
      std::fprintf(stderr, "FAIL %s: unreadable result document: %s\n", what, e.what());
      failed += expected_points;
      return {};
    }
    std::vector<std::string> points;
    std::size_t bad =
        expected_points > doc.points.size() ? expected_points - doc.points.size() : 0;
    for (std::size_t i = 0; i < doc.points.size() && i < expected_points; ++i) {
      const io::ResultDoc one{doc.scenario, doc.seed, doc.stop, {doc.points[i]}};
      points.push_back(io::write_result_json(one));
      const farm::VerifyReport report = farm::verify_result(one, expectations());
      bool ok = report.ok();
      for (const std::string& line : report.failures) {
        std::fprintf(stderr, "FAIL %s point %zu: %s\n", what, i, line.c_str());
      }
      if (!reference.empty() && (i >= reference.size() || reference[i] != points[i])) {
        std::fprintf(stderr, "FAIL %s point %zu: result bytes differ from the reference run\n",
                     what, i);
        ok = false;
      }
      if (!ok) ++bad;
    }
    failed += bad;
    return points;
  }
};

// ------------------------------------------------------------------ sweeps --

struct SweepRun {
  engine::SweepResult result;
  double wall_s = 0.0;  ///< run() including the sink's document write
  std::uint64_t committed = 0;
};

SweepRun sweep(const Prepared& p, engine::SweepConfig config, const std::string& path,
               obs::StageProfiler* profile = nullptr) {
  config.channel_cache = p.cache.get();
  config.profile = profile;
  engine::JsonSink json(path);
  SweepRun run;
  const auto start = Clock::now();
  run.result = engine::SweepEngine(config).run(p.scenario, {&json});
  run.wall_s = seconds_since(start);
  for (const engine::PointRecord& record : run.result.records) run.committed += record.ber.trials;
  return run;
}

double peak_rss_mb() {
  rusage usage{};
  getrusage(RUSAGE_SELF, &usage);
  return static_cast<double>(usage.ru_maxrss) / 1024.0;  // ru_maxrss is in KiB
}

// ------------------------------------------------------------- end to end --

void run_end_to_end(const Workload& w, const engine::SweepConfig& config, double seconds,
                    const std::string& out_dir, perfbench::Metrics& metrics, Checks& checks) {
  // Only the first set-up builds the process-wide FFT plans, so the median
  // is set-up with the plan caches warm; setup.cold_ms (per layer) is the
  // cold one.
  constexpr int kSetups = 31;

  std::vector<double> setup_s;
  Prepared prepared;
  for (int i = 0; i < kSetups; ++i) {
    const auto start = Clock::now();
    prepared = prepare(w, config);
    setup_s.push_back(seconds_since(start));
  }

  // Sweeps cycle through the workload's sweep seeds until --seconds have
  // passed and at least one seed ran twice; a repeat must reproduce that
  // seed's first document byte for byte. Each seed weighs the same in the
  // metrics whether or not it was repeated.
  const std::size_t k = w.seeds_per_run;
  std::vector<std::vector<double>> wall_s(k);
  std::vector<std::uint64_t> committed(k);
  std::vector<std::vector<std::string>> reference(k);
  const auto measure_start = Clock::now();
  for (std::size_t n = 0; n <= k || seconds_since(measure_start) < seconds; ++n) {
    const std::size_t slot = n % k;
    engine::SweepConfig c = config;
    c.seed = config.seed + slot;  // config.seed is slot 0's sweep_seed()
    const std::string path = out_dir + "/" + w.name + ".e2e." + std::to_string(n) + ".json";
    const SweepRun run = sweep(prepared, c, path);
    wall_s[slot].push_back(run.wall_s);
    committed[slot] = run.committed;
    std::vector<std::string> points =
        checks.check(path, prepared.scenario.points.size(), reference[slot], "repeat");
    if (n < k) reference[slot] = std::move(points);
    std::fprintf(stderr, "  sweep %zu seed %llu: %.3f s, %llu trials\n", n,
                 static_cast<unsigned long long>(c.seed), run.wall_s,
                 static_cast<unsigned long long>(run.committed));
  }

  double total_wall_s = 0.0;
  double total_committed = 0.0;
  for (std::size_t slot = 0; slot < k; ++slot) {
    total_wall_s += perfbench::median(wall_s[slot]);
    total_committed += static_cast<double>(committed[slot]);
  }
  metrics.set("trials_per_s", total_committed / total_wall_s, "1/s");
  metrics.set("sweep_s", total_wall_s / static_cast<double>(k), "s");
  metrics.set("setup_s", perfbench::median(setup_s), "s");
}

// -------------------------------------------------------------- per layer --

/// Median wall time of \p reps calls to \p fn, in milliseconds.
template <typename Fn>
double median_ms(int reps, Fn&& fn) {
  std::vector<double> ms;
  for (int i = 0; i < reps; ++i) {
    const auto start = Clock::now();
    fn(i);
    ms.push_back(seconds_since(start) * 1e3);
  }
  return perfbench::median(ms);
}

/// Single-threaded link construction and packet time at the workload's
/// representative point, on the same per-trial streams the engine uses.
void measure_txrx(const Workload& w, const Prepared& p, std::uint64_t seed,
                  perfbench::Metrics& metrics) {
  const engine::PointSpec& point = representative_point(w, p.scenario);
  const bool gen1 = point.link.generation() == txrx::Generation::kGen1;
  const int packets = gen1 ? 8 : 40;

  metrics.set("txrx.make_link_ms", median_ms(gen1 ? 5 : 20, [&](int i) {
                (void)txrx::make_link(point.link, seed + static_cast<std::uint64_t>(i));
              }),
              "ms");

  std::shared_ptr<const engine::ChannelEnsemble> ensemble;
  const txrx::ChannelSource& source = point.link.options.channel_source;
  if (source.is_ensemble()) {
    ensemble = p.cache->get(
        txrx::ensemble_sv_params(point.link.options.cm, point.link.generation()),
        source.ensemble_seed, source.ensemble_count);
  }
  const std::unique_ptr<txrx::Link> link = txrx::make_link(point.link, seed);
  const Rng root(seed);
  auto packet = [&](int i) {
    Rng rng = root.fork(static_cast<std::uint64_t>(i));
    txrx::TrialContext context;
    if (ensemble != nullptr) {
      context.channel = &ensemble->realization_for_trial(static_cast<std::size_t>(i));
    }
    (void)link->run_packet(point.link.options, rng, context);
  };
  packet(packets);  // warm-up: first-use scratch and plan allocations
  metrics.set("txrx.packet_ms", median_ms(packets, packet), "ms");
}

void run_per_layer(const Workload& w, const engine::SweepConfig& config,
                   const std::string& out_dir, perfbench::Metrics& metrics, Checks& checks) {
  // The first set-up in the process, so it also builds the FFT plans.
  const auto setup_start = Clock::now();
  const Prepared prepared = prepare(w, config);
  const double cold_setup_s = seconds_since(setup_start);
  const std::size_t points = prepared.scenario.points.size();

  // Untraced reference sweep (allocation counting on), the profiled one,
  // and a second untraced one. The first sweep after set-up runs measurably
  // slower, so the tracing overhead compares the two warm sweeps, neither
  // of which counts allocations.
  const std::string plain_path = out_dir + "/" + w.name + ".plain.json";
  const perfbench::AllocCounts alloc_before = perfbench::alloc_counts();
  perfbench::set_alloc_counting(true);
  const SweepRun plain = sweep(prepared, config, plain_path);
  perfbench::set_alloc_counting(false);
  const perfbench::AllocCounts alloc_after = perfbench::alloc_counts();
  const std::vector<std::string> reference = checks.check(plain_path, points, {}, "untraced");

  const std::string traced_path = out_dir + "/" + w.name + ".traced.json";
  obs::StageProfiler profiler;
  const SweepRun traced = sweep(prepared, config, traced_path, &profiler);
  (void)checks.check(traced_path, points, reference, "traced vs untraced");

  const std::string warm_path = out_dir + "/" + w.name + ".warm.json";
  const SweepRun warm = sweep(prepared, config, warm_path);
  (void)checks.check(warm_path, points, reference, "untraced repeat");

  // The result sink on its own: replay the traced run's records.
  const std::string replay_path = out_dir + "/" + w.name + ".replay.json";
  const double write_ms = median_ms(5, [&](int) {
    engine::JsonSink json(replay_path);
    json.begin(traced.result.info);
    for (const engine::PointRecord& record : traced.result.records) json.point(record);
    json.end(traced.result.info);
  });
  (void)checks.check(replay_path, points, reference, "sink replay");

  const engine::SweepResult& r = traced.result;
  const double committed = static_cast<double>(traced.committed);
  const double workers = static_cast<double>(r.counters.pool.size());
  const double wall_s = r.counters.wall_s;
  const double idle_s = static_cast<double>(r.counters.pool_idle_us()) / 1e6;
  const double busy_ms = (workers * wall_s - idle_s) * 1e3;
  const double executed =
      static_cast<double>(r.stages[obs::Stage::kTxModulate].calls);

  metrics.set("engine.busy_frac", 1.0 - idle_s / (workers * wall_s), "frac");
  metrics.set("engine.spec_waste_frac", executed > 0 ? (executed - committed) / executed : 0.0,
              "frac");
  metrics.set("engine.committed_trials", committed, "count");
  metrics.set("engine.executed_trials", executed, "count");

  // Stage attribution per committed trial; fft_exec nests inside the other
  // stages, so it is reported but left out of the top-level sum.
  double top_level_ms = 0.0;
  for (std::size_t s = 0; s < obs::kStageCount; ++s) {
    const auto stage = static_cast<obs::Stage>(s);
    const double ms = static_cast<double>(r.stages[stage].total_ns) / 1e6;
    if (stage != obs::Stage::kFftExec) top_level_ms += ms;
    metrics.set(std::string("stage.") + obs::stage_name(stage) + ".ms_per_trial",
                ms / committed, "ms");
  }
  metrics.set("stage.unattributed.ms_per_trial", (busy_ms - top_level_ms) / committed, "ms");
  const bool double_count = top_level_ms > busy_ms;
  if (double_count) {
    std::fprintf(stderr,
                 "WARNING: top-level stage time %.1f ms exceeds worker busy time %.1f ms "
                 "(a stage is counted twice)\n",
                 top_level_ms, busy_ms);
  }
  metrics.set("reconcile.double_count", double_count ? 1.0 : 0.0, "count");
  metrics.set("reconcile.stage_frac", top_level_ms / busy_ms, "frac");
  double points_s = 0.0;
  for (const engine::PointRecord& record : r.records) points_s += record.elapsed_s;
  metrics.set("reconcile.point_time_frac", points_s / wall_s, "frac");

  const double untraced_tps = static_cast<double>(warm.committed) / warm.wall_s;
  const double traced_tps = committed / traced.wall_s;
  metrics.set("trace.overhead_frac", untraced_tps / traced_tps - 1.0, "frac");

  const double fft_lookups =
      static_cast<double>(r.counters.fft_plan_hits + r.counters.fft_plan_misses);
  metrics.set("dsp.fft_plan_hit_ratio",
              fft_lookups > 0 ? static_cast<double>(r.counters.fft_plan_hits) / fft_lookups
                              : 0.0,
              "frac");
  metrics.set("channel_cache.generated", static_cast<double>(prepared.resolved.generated),
              "count");
  metrics.set("channel_cache.hits", static_cast<double>(r.counters.cache_hits), "count");
  metrics.set("channel_cache.resolve_ms", prepared.resolve_s * 1e3, "ms");
  metrics.set("setup.cold_ms", cold_setup_s * 1e3, "ms");

  metrics.set("io.result_write_ms", write_ms, "ms");
  metrics.set("io.result_bytes", static_cast<double>(std::filesystem::file_size(replay_path)),
              "B");
  const double plain_committed = static_cast<double>(plain.committed);
  metrics.set("alloc.per_trial",
              static_cast<double>(alloc_after.calls - alloc_before.calls) / plain_committed,
              "count");
  metrics.set("alloc.bytes_per_trial",
              static_cast<double>(alloc_after.bytes - alloc_before.bytes) / plain_committed, "B");

  // Allocator arena reuse across the pool's threads makes this vary by up
  // to a third between identical gen-1 runs, too much for an end-to-end
  // bound.
  metrics.set("mem.peak_rss_mb", peak_rss_mb(), "MB");

  measure_txrx(w, prepared, config.seed, metrics);
  const engine::PointSpec& point = representative_point(w, prepared.scenario);
  perfbench::measure_kernels(metrics, point.link.generation() == txrx::Generation::kGen1);
}

// ---------------------------------------------------------------- output --

std::string json_string(const std::string& s) { return io::dump_json(io::JsonValue::string(s)); }

std::string json_number(double v) {
  char buf[64];
  std::snprintf(buf, sizeof(buf), "%.17g", v);
  return buf;
}

std::string build_json() {
  const obs::BuildInfo build = obs::current_build_info();
  std::ostringstream out;
  out << "{\"compiler\": " << json_string(PERFBENCH_COMPILER)
      << ", \"compiler_version\": " << json_string(build.compiler)
      << ", \"build_type\": " << json_string(PERFBENCH_BUILD_TYPE)
      << ", \"ndebug\": " << (build.build_type == "release" ? "true" : "false")
      << ", \"cxx_flags\": " << json_string(PERFBENCH_CXX_FLAGS)
      << ", \"uwb_native_arch\": " << (PERFBENCH_NATIVE_ARCH ? "true" : "false") << "}";
  return out.str();
}

struct Args {
  std::string workload;
  std::uint64_t seed = 0;
  double seconds = 0.0;
  int trace = -1;
  std::string out_dir;
};

Args parse_args(int argc, char** argv) {
  Args a;
  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    if (i + 1 >= argc) throw std::invalid_argument(arg + " needs a value");
    const std::string value = argv[++i];
    if (arg == "--workload") a.workload = value;
    else if (arg == "--seed") a.seed = std::stoull(value);
    else if (arg == "--seconds") a.seconds = std::stod(value);
    else if (arg == "--trace") a.trace = std::stoi(value);
    else if (arg == "--out-dir") a.out_dir = value;
    else throw std::invalid_argument("unknown option '" + arg + "'");
  }
  if (a.workload.empty() || a.out_dir.empty() || (a.trace != 0 && a.trace != 1) ||
      a.seconds <= 0.0) {
    throw std::invalid_argument(
        "usage: perfbench --workload NAME --seed N --seconds S --trace 0|1 --out-dir DIR");
  }
  return a;
}

}  // namespace

namespace perfbench {

double median(std::vector<double> values) {
  if (values.empty()) return 0.0;
  std::sort(values.begin(), values.end());
  const std::size_t n = values.size();
  return n % 2 == 1 ? values[n / 2] : 0.5 * (values[n / 2 - 1] + values[n / 2]);
}

}  // namespace perfbench

int main(int argc, char** argv) {
  Args args;
  try {
    args = parse_args(argc, argv);
  } catch (const std::exception& e) {
    std::fprintf(stderr, "perfbench: %s\n", e.what());
    return 2;
  }
  try {
    const Workload& w = find_workload(args.workload);
    std::filesystem::create_directories(args.out_dir);
    engine::SweepConfig config;
    config.seed = sweep_seed(args.seed, 0);
    config.workers = kWorkers;
    config.stop.min_errors = 40;
    config.stop.max_bits = 120000;
    config.stop.max_trials = 100000;

    perfbench::Metrics metrics;
    Checks checks;
    if (args.trace == 0) {
      run_end_to_end(w, config, args.seconds, args.out_dir, metrics, checks);
    } else {
      run_per_layer(w, config, args.out_dir, metrics, checks);
    }

    std::ostringstream out;
    out << "{\"correct\": " << (checks.failed == 0 ? "true" : "false")
        << ", \"attempted\": " << checks.attempted << ", \"failed\": " << checks.failed
        << ", \"metrics\": {";
    for (std::size_t i = 0; i < metrics.items.size(); ++i) {
      const auto& [name, value] = metrics.items[i];
      out << (i > 0 ? ", " : "") << json_string(name) << ": {\"value\": "
          << json_number(value.first) << ", \"unit\": " << json_string(value.second) << "}";
    }
    out << "}, \"build\": " << build_json() << ", \"workers\": " << config.workers
        << ", \"sweep_seed\": " << config.seed << ", \"uwb_sweep_args\": [";
    const std::vector<std::string> sweep_args = uwb_sweep_args(w, config);
    for (std::size_t i = 0; i < sweep_args.size(); ++i) {
      out << (i > 0 ? ", " : "") << json_string(sweep_args[i]);
    }
    out << "], \"reference_result\": "
        << json_string(args.out_dir + "/" + w.name + (args.trace == 0 ? ".e2e.0" : ".plain") +
                       ".json")
        << "}";
    std::printf("%s\n", out.str().c_str());
    return checks.failed == 0 ? 0 : 1;
  } catch (const std::exception& e) {
    std::fprintf(stderr, "perfbench: %s\n", e.what());
    return 1;
  }
}
