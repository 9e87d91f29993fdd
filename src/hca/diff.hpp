#pragma once

#include <ostream>
#include <string>
#include <vector>

#include "support/history.hpp"
#include "support/json.hpp"

/// Differential run reports (`hcac --compare OLD.json NEW.json`).
///
/// Answers "did this change make the compiler faster or slower, and
/// where?" by diffing two run reports of the same workload/machine:
///
///  * *Deterministic counters* — the report's "stats" block minus the
///    counters HCA_COUNTER_TABLE marks non-deterministic
///    (`attemptsCancelled`), plus every deterministic counter of the
///    metrics registry — are compared *exactly*. The search is
///    deterministic, so any difference means the change altered search
///    behaviour; each mismatching series is named in the verdict.
///  * *Wall-clock* — inherently noisy — is compared against a
///    variance-aware threshold computed from the run history:
///    mean + k·stddev over the matching (workload, machine) records
///    (k = DiffOptions::wallSigma). Without history the wall delta is
///    reported but never gates.
///
/// The verdict is emitted both as an aligned human table and as machine
/// JSON; the CLI exits 0 (no regression) or 1 (regression), so CI can gate
/// a change on `hcac --compare old.json new.json --history FILE`.
///
/// Comparability is checked first: both reports must carry a meta block
/// (workload, machine, context) with matching schema version, workload and
/// machine; mismatches are InvalidArgumentError (CLI exit 2), not a
/// regression verdict.
namespace hca::core {

/// One compared series.
struct SeriesDiff {
  std::string series;  ///< e.g. "stats.outerAttempts", "metrics.see.expansions.L1"
  double oldValue = 0.0;
  double newValue = 0.0;
  bool regressed = false;
  std::string note;  ///< human-readable threshold / provenance annotation
};

struct ReportDiff {
  std::string workload;
  std::string machine;
  /// Non-gating observations (build-type mismatch, parallel-sweep reports,
  /// missing history, ...).
  std::vector<std::string> notes;
  /// Every deterministic series that differs between the two reports.
  std::vector<SeriesDiff> mismatches;
  /// Deterministic series compared (matched by name in both reports).
  int seriesCompared = 0;
  /// The wall-clock comparison; `regressed` only ever true when a history
  /// threshold was available.
  SeriesDiff wall;
  bool hasWallThreshold = false;
  double wallThresholdUs = 0.0;
  /// Matching history records behind the threshold.
  int historyRuns = 0;

  [[nodiscard]] bool regression() const {
    return !mismatches.empty() || wall.regressed;
  }
};

struct DiffOptions {
  /// k in the wall-clock gate `mean + k*stddev` over history.
  double wallSigma = 3.0;
  /// Minimum matching history records before the wall gate arms (a
  /// 2-sample stddev gates on noise).
  int minHistoryRuns = 3;
  /// Baseline history (loadHistory). Empty = wall-clock is informational.
  std::vector<HistoryRecord> history;
  /// Deterministic series to exclude from the exact compare (still listed
  /// in the verdict as informational when they differ). Lets a gate
  /// tolerate counters that legitimately diverge between the two runs,
  /// e.g. `stats.seeOracleRejects` when comparing oracle changes. A
  /// trailing '*' matches every series with that prefix
  /// (`metrics.see.oracle_rejects.*` covers all levels).
  std::vector<std::string> ignoreCounters;
};

/// Diffs two parsed run reports. Throws InvalidArgumentError when either
/// report lacks a meta block or the identities do not match.
[[nodiscard]] ReportDiff diffReports(const JsonValue& oldReport,
                                     const JsonValue& newReport,
                                     const DiffOptions& options = {});

/// Convenience: parse both documents (strict) and diff.
[[nodiscard]] ReportDiff diffReportTexts(const std::string& oldText,
                                         const std::string& newText,
                                         const DiffOptions& options = {});

/// Machine verdict JSON (single object, no trailing newline).
[[nodiscard]] std::string reportDiffJson(const ReportDiff& diff);

/// Aligned human table: one row per mismatch plus the wall-clock verdict.
void printReportDiff(std::ostream& os, const ReportDiff& diff);

}  // namespace hca::core
