// Statistical oracle for the gen-1 link: committed high-budget reference
// tables (tests/oracle/<scenario>.json, made by tools/make_oracle.py) and a
// rerun of every point at a small budget under another seed. Each point's
// counts -- bit errors over bits, or timing failures over acquisition
// attempts -- are compared with Fisher's exact two-proportion test. Where
// the table carries the modeled sync time (acquisition trials), the detected
// count over the trials is compared with Fisher's test too. Every p-value
// joins one family, tested with Holm's step-down at kFamilyAlpha. A change
// that keeps the experiment (same law, different rounding or noise
// realization) passes; one that moves Eb/N0 by half a dB fails (see
// docs/performance.md, "The statistical oracle", for the measured power).
// Runs are deterministic, so the test cannot flake; a re-pin that flips a
// marginal point is what the family alpha accounts for. The sync time's
// mean is not a test in the family: the model makes it the same on every
// detected trial of a point, so it is checked for equality.

#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <string>
#include <vector>

#include "engine/scenario_registry.h"
#include "engine/sweep_engine.h"
#include "farm/farm_state.h"
#include "io/json.h"
#include "io/spec_io.h"
#include "txrx/link.h"

namespace uwb {
namespace {

/// Family-wise error rate over every point of every table.
constexpr double kFamilyAlpha = 0.01;

/// Relative tolerance of the sync-time equality check: room for the
/// rounding of the two runs' sums, far below one frame (0.5% of a lock).
constexpr double kSyncTimeRelTol = 1e-9;

/// The rerun seed; each table's reference seed must differ from it.
constexpr std::uint64_t kTestSeed = 7;

constexpr std::size_t kUnbounded = 1'000'000'000;

/// One oracle table and the budget its rerun gets. Fixed budgets (no error
/// target) keep the rerun's sample size independent of its outcome.
struct OracleRun {
  const char* table;      ///< tests/oracle/<table>.json
  const char* spec_file;  ///< scenario spec under tests/oracle, or nullptr for the registry
  sim::BerStop stop;
};

const OracleRun kRuns[] = {
    {"gen1_waterfall", nullptr, {kUnbounded, 40'000, kUnbounded, {}, 0.0}},
    {"gen1_acquisition", nullptr, {kUnbounded, kUnbounded, 100, {}, 0.0}},
    {"gen1_sync", nullptr, {kUnbounded, kUnbounded, 50, {}, 0.0}},
    // 128 trials: every realization of the 64-realization ensemble twice,
    // as in the reference's 2,560 (see the spec's description).
    {"gen1_cm3_genie", "gen1_cm3_genie.spec.json", {kUnbounded, kUnbounded, 128, {}, 0.0}},
    // Importance-sampled trials score one target bit each, so the counts
    // are raw errors of the tilted law (not weighted estimates). 200 trials
    // a point keep the whole test under 30 s on 4 cores even on a build
    // where an importance-sampled trial costs 30 ms.
    {"gen1_tilted", "gen1_tilted.spec.json", {kUnbounded, kUnbounded, 200, {}, 0.0}},
};

double log_choose(double n, double k) {
  return std::lgamma(n + 1.0) - std::lgamma(k + 1.0) - std::lgamma(n - k + 1.0);
}

/// Two-sided p-value of Fisher's exact test on the 2x2 table
/// (e1 of n1) vs (e2 of n2): the probability, given both margins, of a
/// table at most as likely as the observed one.
double fisher_exact_p(std::size_t e1, std::size_t n1, std::size_t e2, std::size_t n2) {
  const auto n = static_cast<double>(n1 + n2);
  const auto k = static_cast<double>(e1 + e2);
  const auto m = static_cast<double>(n2);
  const auto log_p = [&](double x) {
    return log_choose(k, x) + log_choose(n - k, m - x) - log_choose(n, m);
  };
  const double observed = log_p(static_cast<double>(e2));
  const double lo = std::max(0.0, m - (n - k));
  const double hi = std::min(k, m);
  double p = 0.0;
  for (double x = lo; x <= hi; x += 1.0) {
    const double lp = log_p(x);
    if (lp <= observed + 1e-7) p += std::exp(lp);
  }
  return std::min(p, 1.0);
}

/// Holm's step-down: how many of \p p_values are rejected at family-wise
/// error rate \p alpha.
std::size_t holm_rejections(std::vector<double> p_values, double alpha) {
  std::sort(p_values.begin(), p_values.end());
  const std::size_t m = p_values.size();
  std::size_t rejected = 0;
  while (rejected < m && p_values[rejected] <= alpha / static_cast<double>(m - rejected)) {
    ++rejected;
  }
  return rejected;
}

TEST(Oracle, FisherExactMatchesKnownValues) {
  // Fisher's tea-tasting table: 3/4 vs 1/4 -> two-sided p = 34/70.
  EXPECT_NEAR(fisher_exact_p(3, 4, 1, 4), 34.0 / 70.0, 1e-12);
  EXPECT_NEAR(fisher_exact_p(2, 4, 2, 4), 1.0, 1e-12);
  EXPECT_NEAR(fisher_exact_p(0, 1000, 0, 10), 1.0, 1e-12);
  // 10/10 vs 0/10: only the two extreme tables, each 1 / C(20, 10).
  EXPECT_NEAR(fisher_exact_p(10, 10, 0, 10), 2.0 / 184756.0, 1e-15);
}

TEST(Oracle, HolmStepsDownFromTheSmallestP) {
  EXPECT_EQ(holm_rejections({0.2, 0.004, 0.03}, 0.05), 1u);  // 0.004 <= 0.05/3, 0.03 > 0.05/2
  EXPECT_EQ(holm_rejections({0.01, 0.02, 0.04}, 0.05), 3u);
  EXPECT_EQ(holm_rejections({0.02, 0.5}, 0.01), 0u);
}

TEST(Oracle, Gen1AgreesWithTheReferenceTables) {
  std::vector<double> p_values;
  double min_p = 1.0;
  std::string worst;
  for (const OracleRun& run : kRuns) {
    SCOPED_TRACE(run.table);
    const io::JsonValue table = io::parse_json(
        farm::read_file(std::string(UWB_ORACLE_DIR) + "/" + run.table + ".json"));
    ASSERT_NE(table.at("seed").as_uint64(), kTestSeed) << "the rerun must use another seed";
    const engine::ScenarioSpec scenario =
        run.spec_file != nullptr
            ? io::load_scenario_file(std::string(UWB_ORACLE_DIR) + "/" + run.spec_file)
            : engine::ScenarioRegistry::global().make(run.table);
    EXPECT_EQ(table.at("scenario").as_string(), scenario.name);

    engine::SweepConfig config;
    config.seed = kTestSeed;
    config.workers = 4;
    config.stop = run.stop;
    engine::SweepEngine engine(config);
    const engine::SweepResult result = engine.run(scenario);
    const io::JsonValue::Array& reference = table.at("points").items();
    ASSERT_EQ(reference.size(), result.records.size());
    for (std::size_t i = 0; i < reference.size(); ++i) {
      const engine::PointRecord& rec = result.records[i];
      ASSERT_EQ(reference[i].at("label").as_string(), rec.spec.label);
      const std::size_t ref_errors = reference[i].at("errors").as_uint64();
      const std::size_t ref_bits = reference[i].at("bits").as_uint64();
      const double p = fisher_exact_p(ref_errors, ref_bits, rec.ber.errors, rec.ber.bits);
      std::printf("  %-18s %-10s ref %8zu / %-9zu run %6zu / %-7zu p = %.3g\n", run.table,
                  rec.spec.label.c_str(), ref_errors, ref_bits, rec.ber.errors, rec.ber.bits, p);
      const auto add_p = [&](double p_value, const char* what) {
        p_values.push_back(p_value);
        if (p_value < min_p) {
          min_p = p_value;
          worst = std::string(run.table) + " point " + rec.spec.label + " " + what;
        }
      };
      add_p(p, "counts");
      if (const io::JsonValue* sync = reference[i].find("sync_time")) {
        const std::size_t ref_detected = sync->at("detected").as_uint64();
        const std::size_t ref_trials = reference[i].at("trials").as_uint64();
        const sim::MetricStats* stats = rec.metrics.find(txrx::metric_names::kSyncTime);
        const std::size_t detected = stats != nullptr ? stats->count : 0;
        const double p_detected =
            fisher_exact_p(ref_detected, ref_trials, detected, rec.ber.trials);
        add_p(p_detected, "detected");
        std::printf("  %-18s %-10s sync detected %6zu / %-9zu run %6zu / %-7zu p = %.3g\n",
                    run.table, rec.spec.label.c_str(), ref_detected, ref_trials, detected,
                    rec.ber.trials, p_detected);
        if (detected > 0) {
          const double ref_mean = sync->at("mean").as_double();
          std::printf("  %-18s %-10s sync mean %10.6g s     run %10.6g s\n", run.table,
                      rec.spec.label.c_str(), ref_mean, stats->mean());
          EXPECT_NEAR(stats->mean(), ref_mean, kSyncTimeRelTol * ref_mean)
              << "sync_time mean at point " << rec.spec.label;
        }
      }
    }
  }
  EXPECT_EQ(holm_rejections(p_values, kFamilyAlpha), 0u)
      << "smallest p " << min_p << " at " << worst << " (Holm at family alpha " << kFamilyAlpha
      << " over " << p_values.size() << " p-values)";
}

}  // namespace
}  // namespace uwb
