// Statistical regression gating over "yhccl-bench/1" reports.
//
// Two gate classes, matching the two kinds of measurement the harness
// records:
//  * timings are noisy → a series only counts as improved/regressed when
//    the two ~95% confidence intervals for the median do NOT overlap
//    (overlap ⇒ unchanged, the conservative verdict);
//  * the deterministic counters (DAV bytes, per-tier kernel dispatches,
//    barrier/flag sync ops) are exactly reproducible → any difference at
//    all is a counter_mismatch, which fails the gate regardless of timing.
//
// bench/bench_compare.cpp is the CLI over these routines; the CI
// perf-smoke leg uses its `check` mode against the model::impl:: formulas.
#pragma once

#include <string>
#include <vector>

#include "yhccl/bench/json.hpp"

namespace yhccl::bench {

enum class Verdict {
  unchanged,         ///< CIs overlap, counters identical
  improved,          ///< candidate CI entirely below baseline CI
  regressed,         ///< candidate CI entirely above baseline CI
  counter_mismatch,  ///< any deterministic counter differs (hard failure)
  added,             ///< series only in the candidate report
  removed,           ///< series only in the baseline report
};

const char* verdict_name(Verdict v) noexcept;

struct SeriesDiff {
  std::string key;  ///< Series::key() join key
  Verdict verdict = Verdict::unchanged;
  double base_median = 0;  ///< seconds (0 for added)
  double cand_median = 0;  ///< seconds (0 for removed)
  double ratio = 0;        ///< cand/base median (0 when base is 0)
  std::vector<std::string> counter_diffs;  ///< "name: base != cand" lines
};

struct CompareResult {
  std::vector<SeriesDiff> diffs;
  int unchanged = 0;
  int improved = 0;
  int regressed = 0;
  int counter_mismatches = 0;
  int added = 0;
  int removed = 0;

  /// The gate: no regressions and no counter drift.
  bool clean() const noexcept {
    return regressed == 0 && counter_mismatches == 0;
  }
  /// Human-readable verdict table + summary line.
  std::string report(bool verbose = false) const;
};

/// Structural validation against schema yhccl-bench/1.  Appends one
/// message per defect; returns errors.empty().
bool validate_report(const Json& report, std::vector<std::string>& errors);

/// Schema of BENCH_trajectory.json: the repository benchmark's committed,
/// append-only A/B record (docs/benchmarking.md).
inline constexpr const char* kTrajectorySchema = "yhccl-trajectory/1";

/// Structural validation of a trajectory document: declared workloads and
/// end-to-end metrics; entries keyed by (commit, side) — the 40-hex commit
/// an A/B ran against and "parent" or "change" — each unique, every
/// "change" preceded by its "parent"; every entry gives median and
/// quartiles (q1 <= median <= q3) for every workload × metric.  Appends one
/// message per defect; returns errors.empty().
bool validate_trajectory(const Json& doc, std::vector<std::string>& errors);

/// Join two reports on Series::key() and classify every series.
CompareResult compare_reports(const Json& baseline, const Json& candidate);

/// The auto-tuner gate (docs/tuning.md): within ONE report, pair every
/// `static_arm` series with the `tuned_arm` series of the same (bench,
/// collective, ranks, sockets, bytes) cell and classify the pair by CI
/// overlap alone — a tuned plan may legitimately dispatch a different
/// algorithm, so counters are not compared.  clean() ⇔ the tuned schedule
/// is never significantly slower than the static §5.1 rules.
CompareResult compare_tuned(const Json& report,
                            const std::string& static_arm = "switch-static",
                            const std::string& tuned_arm = "switch-tuned");

/// Concatenate the series of several reports into one named report
/// (machine/policy metadata from the first part).  Duplicate series keys
/// are recorded in `err` (first offender) and the duplicate is dropped.
Json merge_reports(const std::vector<Json>& parts, const std::string& name,
                   std::string* err = nullptr);

}  // namespace yhccl::bench
