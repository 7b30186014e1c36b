#pragma once
/// \file parallel_ber.h
/// \brief Deterministic parallel Monte-Carlo point measurement: the one
///        trial loop in the tree.
///
/// Trial i draws every random number from `root.fork(i)`, workers execute
/// trials speculatively, and outcomes are committed strictly in trial-index
/// order under the stopping rule. The set of counted trials is therefore
/// exactly the prefix a sequential loop would have counted, so the
/// resulting MeasuredPoint -- BER counters and every named-metric
/// reduction -- is byte-identical for any worker count or scheduling order
/// (see engine/metric_accumulator.h). On a one-worker pool this IS the
/// sequential loop.

#include <atomic>
#include <functional>

#include "common/rng.h"
#include "engine/thread_pool.h"
#include "sim/ber_simulator.h"

namespace uwb::obs {
class TraceRecorder;
class ProgressMeter;
class StageProfiler;
}  // namespace uwb::obs

namespace uwb::engine {

/// One Monte-Carlo trial: a pure function of its trial index and per-trial
/// Rng (plus worker-local state captured by the closure, e.g. a txrx
/// link). The index carries no extra randomness -- rng is already
/// root.fork(index) -- but lets index-keyed shared state (an ensemble's
/// realization `index % count`, see engine/channel_cache.h) stay
/// deterministic for any worker count.
using TrialFn = std::function<sim::TrialOutcome(std::size_t index, Rng& rng)>;

/// Called once per worker to build worker-local state and return the trial
/// closure. The factory MUST produce closures whose outcome depends only on
/// the trial index and per-trial Rng -- never on which worker runs the
/// trial or in what order (that is what makes the parallel result
/// deterministic). A closure that owns its own randomness instead (e.g. a
/// link driven from its internal Rng) is deterministic on a one-worker
/// pool only.
using TrialFactory = std::function<TrialFn()>;

/// Optional telemetry hooks for one point measurement. Both observers may
/// be null; neither can change the measured result (they never touch Rng
/// streams or the commit order). With a recorder, each worker records one
/// "trials" span per executed chunk of trials plus an instant event at the
/// stop-rule decision; with a progress meter, executed trial/bit/error
/// counts stream into its atomics.
struct PointHooks {
  obs::TraceRecorder* trace = nullptr;
  obs::ProgressMeter* progress = nullptr;

  /// Stage profiler (see obs/profile.h). Each worker task activates it for
  /// the task's lifetime, so StageTimer scopes inside txrx/dsp accumulate
  /// into its per-thread tables. Observer-only, like the recorder.
  obs::StageProfiler* profile = nullptr;

  /// Cooperative cancellation (e.g. set from a SIGINT handler): workers
  /// check it at the top of their claim loop and wind the point down
  /// early. A cancelled measurement is truncated, NOT deterministic -- the
  /// caller must discard it (the sweep engine drops the in-flight point so
  /// a flushed partial document stays an exact prefix of completed
  /// points). Null = never cancelled.
  const std::atomic<bool>* cancel = nullptr;

  [[nodiscard]] bool cancelled() const noexcept {
    return cancel != nullptr && cancel->load(std::memory_order_relaxed);
  }
};

/// Measures one point: trial i runs with root.fork(i) and the point stops
/// once the error budget (bit errors, or failed trials of stop.metric when
/// set), max_bits bits, or max_trials trials are reached (max_trials is a
/// hard stop even when no errors accumulate). Workers claim trial indices,
/// run them within a bounded speculation window ahead of the commit
/// frontier, and commit in index order; outcomes past the stopping point
/// are discarded, exactly as if they had never run. \p ci_method selects
/// the two-sided interval the finished point reports (weighted points
/// always report the normal interval regardless).
sim::MeasuredPoint measure_point(
    const TrialFactory& factory, const sim::BerStop& stop, const Rng& root,
    ThreadPool& pool, const PointHooks& hooks = {},
    stats::CiMethod ci_method = stats::CiMethod::kClopperPearson);

}  // namespace uwb::engine
