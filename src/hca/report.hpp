#pragma once

#include <cstdint>
#include <map>
#include <ostream>
#include <string>

#include "hca/driver.hpp"
#include "support/context.hpp"
#include "support/history.hpp"

/// Structured per-run reporting for the HCA driver (observability layer).
///
/// `runReportJson` serializes one `HcaResult` — outcome, fallback rung,
/// aggregate `HcaStats`, a per-hierarchy-level breakdown derived from the
/// metrics registry's `.L<level>` series, and the full registry — as a
/// single JSON document. The benches embed it per kernel in their BENCH
/// JSONs; `hcac --report-out=FILE` writes it next to the solved run.
///
/// A report written with a `ReportMeta` additionally carries the identity
/// a cross-run comparison needs: the workload (kernel name / DDG path), the
/// machine configuration, the outer-sweep thread count and the provenance
/// `RunContext` (schema version, git SHA, build type, host, run id). Such
/// reports feed the run history (`hcac --history-out`) and the differ
/// (`hcac --compare`, hca/diff.hpp).
///
/// `printRunStats` is the human-facing twin (`hcac --stats`): the outcome
/// line (including which fallback rung produced the result), the `HcaStats`
/// summary and the aligned metrics table.
namespace hca::core {

/// Cross-run identity of one report (everything the differ matches on).
struct ReportMeta {
  /// Kernel name or DDG file path.
  std::string workload;
  /// DspFabricConfig::toString() of the run's machine.
  std::string machine;
  /// Effective outer-sweep thread count (reports from parallel sweeps may
  /// carry timing-dependent counters; the differ notes it).
  int threads = 1;
  RunContext context;
};

/// Serializes `result` as a JSON object (no trailing newline). `model` is
/// optional and only supplies human-readable level names; pass the model
/// the run used when available. `meta` (optional) embeds the cross-run
/// identity block.
[[nodiscard]] std::string runReportJson(
    const HcaResult& result, const machine::DspFabricModel* model = nullptr,
    const ReportMeta* meta = nullptr);

/// Emits the same report object as the next value of an in-flight
/// `JsonWriter` — the benches use this to embed one report per kernel row
/// in their BENCH JSONs.
void writeRunReport(JsonWriter& json, const HcaResult& result,
                    const machine::DspFabricModel* model = nullptr,
                    const ReportMeta* meta = nullptr);

/// Emits `stats` as a JSON object keyed by member name, in counter-table
/// order: the report's "stats" member and each checkpointed attempt's stats
/// (so the two formats stay cross-readable by the same tooling).
void writeStatsJson(JsonWriter& json, const HcaStats& stats);

/// Pretty-prints the run outcome and metrics registry to `os`.
void printRunStats(std::ostream& os, const HcaResult& result);

/// The deterministic counter set of a run: every `HcaStats` field that is
/// a pure function of (DDG, machine, options) — i.e. everything except
/// `attemptsCancelled`, which depends on wall-clock (deadlines, portfolio
/// soft-cancellation). This is the exact-compare set of `hcac --compare`
/// and the counter block of a history record; keys match the report's
/// "stats" member names.
[[nodiscard]] std::map<std::string, std::int64_t> deterministicCounters(
    const HcaStats& stats);

/// Total wall-clock over the run's outer attempts in microseconds (the sum
/// of the `attempt.wall_us` histogram; 0 when absent).
[[nodiscard]] double runWallUs(const HcaResult& result);

/// Builds the run-history record of a finished run (`hcac
/// --history-out` appends `historyLineJson` of this).
[[nodiscard]] HistoryRecord historyRecordFor(const HcaResult& result,
                                             const ReportMeta& meta);

}  // namespace hca::core
