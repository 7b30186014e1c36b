#pragma once
/// \file verify.h
/// \brief Claim verification: checks a sweep result document against a
///        declared-expectations JSON file (`uwb_farm verify`).
///
/// Expectations capture what a result is *supposed* to look like -- the
/// physics-level claims (BER falls with SNR, BER in a plausible band) and
/// the bookkeeping claims (all points present, trial counts sane) -- so a
/// refactor that silently degrades results fails a committed expectations
/// file in CI instead of shipping. Schema (strict io::json, versioned):
///
///   {
///     "version": 1,
///     "scenario": "gen2_cm_grid",       // optional: doc header must match
///     "points": 6,                      // optional: exact point count
///     "min_total_trials": 10,           // optional: sum of trials >= this
///     "checks": [
///       {"check": "range", "metric": "ber",
///        "where": {"channel": "CM1"},   // optional tag filter
///        "min": 0, "max": 0.2},         // either bound optional, not both
///       {"check": "monotone", "metric": "ber", "axis": "ebn0_db",
///        "group_by": ["channel"],       // optional; default: one group
///        "direction": "nonincreasing",  // or "nondecreasing"
///        "order": ["mf_only", "rake"],  // optional: axis values in order,
///                                       // for a non-numeric axis (default:
///                                       // the tag parsed as a number); a
///                                       // value missing from it throws
///        "tolerance": 0},               // optional slack
///       {"check": "accounting"},        // errors <= bits, trials within
///                                       // the stop rule, on every point
///       {"check": "ci_contains",        // each selected point's two-sided
///        "where": {"channel": "AWGN"},  // [ci_lo, ci_hi] must contain
///        "value": 1e-3}                 // "value" -- or, with "value"
///                                       // absent, the point's own ber
///                                       // (interval brackets estimate)
///     ]
///   }
///
/// `metric` is "ber", "ci95", "errors", "bits", "trials", or the name of a
/// recorded metric (its mean). A filter or group that selects no points is
/// itself a failure -- an expectation that checks nothing is a stale
/// expectation, not a passing one.

#include <cstddef>
#include <string>
#include <vector>

#include "io/json.h"
#include "io/result_io.h"

namespace uwb::farm {

/// Expectations format version (independent of the checkpoint format).
inline constexpr int kExpectationsVersion = 1;

/// The outcome of one verification pass.
struct VerifyReport {
  std::size_t checks = 0;              ///< checks evaluated
  std::vector<std::string> failures;   ///< one line per violated claim

  [[nodiscard]] bool ok() const noexcept { return failures.empty(); }
};

/// Evaluates \p expectations (a parsed expectations document) against
/// \p doc. Violated claims land in the report; a malformed expectations
/// document throws InvalidArgument (a typo'd check must not count as a
/// pass).
[[nodiscard]] VerifyReport verify_result(const io::ResultDoc& doc,
                                         const io::JsonValue& expectations);

/// Convenience: loads both files and verifies.
[[nodiscard]] VerifyReport verify_result_files(const std::string& result_path,
                                               const std::string& expectations_path);

}  // namespace uwb::farm
