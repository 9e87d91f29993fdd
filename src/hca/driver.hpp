#pragma once

#include <array>
#include <iterator>
#include <memory>
#include <string>
#include <vector>

#include "ddg/ddg.hpp"
#include "hca/records.hpp"
#include "hca/subproblem_cache.hpp"
#include "machine/dspfabric.hpp"
#include "machine/reconfig.hpp"
#include "see/engine.hpp"
#include "support/metrics.hpp"
#include "support/thread_pool.hpp"
#include "support/trace.hpp"

/// Hierarchical Cluster Assignment (paper Section 4).
///
/// The driver decomposes the ICA problem along the interconnect hierarchy:
/// at each level it runs the Space Exploration Engine on a 4-ish-node
/// Pattern Graph (completed with the boundary input/output nodes derived
/// from the parent's Inter-Level Interfaces), hands the resulting copy flow
/// to the Mapper — which distributes copies over the physical wires and
/// produces the children's ILIs — and recurses until the computation-node
/// level is reached. Pass-through values (created by route allocation at an
/// outer level) travel down as relay values and are parked on a concrete CN.
namespace hca::core {

class CheckpointManager;  // hca/checkpoint.hpp

/// What the driver does when a run cannot produce a legal mapping.
enum class FailurePolicy {
  /// Historical contract: invalid input throws, an unsolvable problem
  /// returns legal=false with only failureReason set.
  kStrict,
  /// Never throw: failures become a structured HcaFailureReport, and one
  /// extra fallback rung (the widened-beam retry) is tried before giving
  /// up.
  kDegrade,
};

enum class FailureCause {
  kInvalidInput,        ///< the DDG or options failed validation
  kDisconnectedFabric,  ///< the fault set leaves the fabric unusable
  kDeadlineExpired,     ///< the wall-clock budget ran out first
  kNoLegalMapping,      ///< every rung of the ladder was exhausted
  kInternalError,       ///< an invariant violation inside the driver
};

[[nodiscard]] const char* to_string(FailureCause cause);

/// The sub-problem that could not be solved: its interconnect level (-1
/// when the failure is not tied to one sub-problem) and path.
struct FailureSite {
  int level = -1;
  std::vector<int> path;
};

/// Structured description of a failed kDegrade run: what gave out, where
/// in the problem tree, and which fallback rungs were tried on the way.
struct HcaFailureReport {
  FailureCause cause = FailureCause::kNoLegalMapping;
  FailureSite site;
  std::string message;
  /// Human-readable labels of the escalation rungs that ran, in order.
  std::vector<std::string> escalationsTried;

  [[nodiscard]] std::string toString() const;
};

struct HcaOptions {
  HcaOptions() {
    // The hierarchical problems are small (4-node pattern graphs); a
    // wider-than-default beam is cheap and pays off in legality.
    see.beamWidth = 16;
    see.candidateKeep = 10;
  }

  /// Per-sub-problem search options; the outer sweep's profiles vary them
  /// (HcaDriver::profileOptions). `see.maxBeamSteps` caps every attempt's
  /// SEE frontier expansions, for reproducible budgeting.
  see::SeeOptions see;
  /// Outer search loop: like modulo scheduling's II search, the driver
  /// first maps at the loop's iniMII and, when no legal clusterization is
  /// found, re-runs with one more cycle of target slack (which lets the
  /// cost function pack clusters harder and relaxes the wiring), up to
  /// iniMII + targetIiSlack. 0 = single attempt at iniMII.
  int targetIiSlack = 6;
  /// Heuristic profiles tried per target II (chain grouping on/off, beam
  /// variants). 1 = only the configured SeeOptions.
  int searchProfiles = 5;
  /// Portfolio parallelism of the outer sweep: with more than one thread
  /// every (target II, profile) attempt runs as an independent task on a
  /// thread pool of this size; with one, the attempts run inline in sweep
  /// order and the sweep stops at the first legal one. 0 =
  /// hardware_concurrency. The returned result does not depend on the
  /// thread count (the lowest-(target, profile) legal attempt wins;
  /// attempts that can no longer win are soft-cancelled).
  int numThreads = 1;
  /// By default the effective pool size is clamped to
  /// hardware_concurrency: requesting 64 workers on a 4-core box makes the
  /// CPU-bound portfolio strictly slower. Set to true to honor an
  /// oversubscribed `numThreads` verbatim (scheduling experiments).
  bool allowOversubscribe = false;
  /// Memoize SEE sub-problem results within each outer attempt, across its
  /// backtracking alternatives (see subproblem_cache.hpp). Results are
  /// byte-identical with the cache on or off; the cache only saves
  /// wall-clock.
  bool enableSubproblemCache = true;
  /// See FailurePolicy. With zero faults, no deadline and a solvable
  /// problem, kDegrade produces byte-identical output to kStrict — the
  /// extra rungs only run after the primary sweep has already failed.
  FailurePolicy failurePolicy = FailurePolicy::kStrict;
  /// Wall-clock budget for the whole run in milliseconds; 0 = unlimited.
  /// On expiry every in-flight SEE search unwinds at its next cancellation
  /// poll and the run returns what it has (a legal result from an earlier
  /// rung, or — under kDegrade — a kDeadlineExpired report).
  int deadlineMs = 0;
  /// Span tracer for this run (see support/trace.hpp): one span per outer
  /// attempt / fallback rung / sub-problem / SEE invocation / mapper pass,
  /// nested like the problem tree. Not owned; must outlive the run.
  /// nullptr = tracing off — unless HCA_TRACE_FORCE is set in the
  /// environment, in which case the process-wide forced tracer is used.
  Tracer* tracer = nullptr;
  /// Run the registered invariant checks (verify/verify.hpp) between
  /// pipeline stages: the per-record checks after every successful mapper
  /// pass, the whole-result checks after every legal attempt. A violation
  /// is a driver bug and throws InternalError (which kDegrade folds into a
  /// kInternalError failure report). The flag propagates into the fallback
  /// rungs, so beam-backoff and degraded-bandwidth results are verified
  /// too.
  bool verifyEach = false;
  /// Restricts verifyEach to these check ids (empty = every registered
  /// check). Unknown ids throw InvalidArgumentError at the first use.
  std::vector<std::string> verifyChecks;
  /// Crash-safe checkpoint/resume (hca/checkpoint.hpp). When non-null, the
  /// sweeps record every completed failed outer attempt into this manager
  /// and skip attempts it restored from a previous run's file — the resumed run's result and HcaStats
  /// are byte-identical to an uninterrupted run. Not owned; must outlive
  /// the run.
  CheckpointManager* checkpoint = nullptr;
  /// External cancellation (SIGINT/SIGTERM, a batch driver's shutdown).
  /// Chained underneath the run's deadline token, so tripping it unwinds
  /// the search exactly like a deadline expiry: every in-flight SEE search
  /// stops at its next poll and the run returns best-so-far. Not owned;
  /// may be null. Deliberately excluded from the checkpoint fingerprint —
  /// it never changes results, only when the run stops.
  const CancellationToken* externalCancel = nullptr;
  /// Soft memory ceiling for the run in bytes; 0 = unlimited. Half the
  /// budget bounds each attempt's sub-problem cache (oldest entries are
  /// shed, trading hit rate for footprint), half becomes each SEE solve's
  /// SeeOptions::arenaBudgetBytes — an attempt that would blow it reports
  /// "memory budget exceeded" and the escalation ladder re-plans (the
  /// degraded-bandwidth rung shrinks per-problem state) instead of the
  /// process OOMing. Deterministic: the ceiling never depends on thread
  /// count or wall-clock, so serial/parallel parity is preserved.
  std::int64_t memoryBudgetBytes = 0;
};

struct RelayPlacement {
  ValueId value;
  CnId cn;
};

// HcaStats lives in records.hpp (it is part of the run's audit trail).

struct HcaResult {
  bool legal = false;
  std::string failureReason;

  /// Final placement: DDG node -> computation node (invalid for consts).
  std::vector<CnId> assignment;
  std::vector<RelayPlacement> relays;

  /// Complete reconfiguration stream (all levels).
  machine::ReconfigurationProgram reconfig;

  std::vector<std::unique_ptr<ProblemRecord>> records;
  /// On failure: the sub-problem that could not be solved.
  FailureSite failureSite;
  HcaStats stats;
  /// Named observability counters and histograms (per-level SEE pressure,
  /// cache traffic, mapper distributions, pool latencies, ladder activity);
  /// aggregated across every attempt of the run exactly like `stats`. See
  /// DESIGN.md section 4e for the name catalogue. Serialized by
  /// `runReportJson()` (hca/report.hpp) and printed by `hcac --stats`.
  MetricsRegistry metrics;

  /// Which ladder rung produced the result: empty (primary sweep),
  /// "beam-backoff" or "degraded-bandwidth".
  std::string fallbackUsed;
  /// kDegrade only: set iff !legal — the structured failure description.
  std::unique_ptr<HcaFailureReport> failure;
};

/// Pre-resolved handles into one attempt's `MetricsRegistry` for one
/// hierarchy level: `std::map` node addresses are stable, so resolving the
/// `.L<level>` names once per attempt keeps the per-sub-problem
/// instrumentation down to raw pointer bumps (no string building or map
/// lookups on the solve hot path).
struct LevelMetrics {
  /// Resolves (creating at 0) every `.L<level>` series of `m`.
  LevelMetrics(MetricsRegistry& m, int level);

  /// Adds one SEE search's counters to the level's SEE series.
  void addSee(const see::SeeStats& s) const;

  std::int64_t* cacheHits;
  std::int64_t* cacheMisses;
  std::int64_t* seeProblems;
  std::int64_t* hcaBacktracks;
  std::int64_t* mapperFailures;
  Histogram* mapperMaxValuesPerWire;
  Histogram* mapperWireUtilization;
  Histogram* mapperCopiesPerIli;
  /// One handle per `see::kSeeCounters` row; null where the row has no
  /// per-level metric.
  std::array<std::int64_t*, std::size(see::kSeeCounters)> seeSeries{};
};

class HcaDriver {
 public:
  HcaDriver(machine::DspFabricModel model, HcaOptions options = {});

  [[nodiscard]] HcaResult run(const ddg::Ddg& ddg) const;

  [[nodiscard]] const machine::DspFabricModel& model() const { return model_; }

 private:
  struct Boundary {
    std::vector<mapper::WireValues> inputs;
    std::vector<mapper::WireValues> outputs;
  };

  /// Per-attempt execution context threaded through the recursion: the
  /// attempt's SEE options, its sub-problem cache (may be null),
  /// the portfolio's soft-cancellation token (may be null), the run's
  /// span tracer (may be null = tracing off) and the attempt's per-level
  /// metric handles (indexed by hierarchy level).
  struct SolveContext {
    const see::SeeOptions& seeOptions;
    SubproblemCache* cache = nullptr;
    const CancellationToken* cancel = nullptr;
    Tracer* tracer = nullptr;
    const std::vector<LevelMetrics>* levels = nullptr;
    /// The DDG's scheduling heights under the machine latency model,
    /// computed once per outer attempt and shared by every SEE call.
    const std::vector<std::int64_t>* heights = nullptr;
  };

  /// SEE options of one (target II, heuristic profile) outer attempt.
  [[nodiscard]] see::SeeOptions profileOptions(int target, int profile) const;

  /// Folds `memoryBudgetBytes` (when set) into a profile's SEE options:
  /// half the run budget becomes the per-solve arena ceiling.
  void applyMemoryBudget(see::SeeOptions& see) const;

  /// Runs one complete outer attempt (a full hierarchical solve) with a
  /// sub-problem cache of its own, whose counters it adds to the result's
  /// metrics. On success the result is validated and its stats finalized.
  [[nodiscard]] HcaResult runAttempt(const ddg::Ddg& ddg,
                                     const std::vector<DdgNodeId>& rootWs,
                                     int target, int profile,
                                     const CancellationToken* cancel) const;

  /// The outer sweep: attempts in (target asc, profile asc) order, the
  /// lowest-index legal attempt wins and attempts above a known winner are
  /// soft-cancelled. With `numThreads` <= 1 the attempts run inline in
  /// index order, stopping at the first legal attempt, the first error or
  /// the deadline; otherwise every attempt is a task on a pool of
  /// `numThreads` workers. The result does not depend on the thread count.
  /// Per-attempt tokens chain to `deadline` (may be null). `phase` is this
  /// sweep's checkpoint label (ignored when no checkpoint manager is
  /// configured); attempts are recorded in completion order.
  [[nodiscard]] HcaResult runSweep(const ddg::Ddg& ddg,
                                   const std::vector<DdgNodeId>& rootWs,
                                   int iniMii, int numThreads,
                                   const CancellationToken* deadline,
                                   const std::string& phase) const;

  /// run() minus the input validation / report wrapping: computes iniMii,
  /// arms the deadline and walks the ladder.
  [[nodiscard]] HcaResult runChecked(const ddg::Ddg& ddg) const;

  /// The escalation ladder: primary sweep, then (kDegrade) a widened-beam
  /// retry, then the degraded-bandwidth re-run. Returns the first legal
  /// result, or the primary failure annotated with a report under
  /// kDegrade. `scope` prefixes the ladder's checkpoint phases: "" for the
  /// root ladder, "degraded-bandwidth/" for the nested one the
  /// degraded-bandwidth rung runs, so the two never collide in the file.
  [[nodiscard]] HcaResult runLadder(const ddg::Ddg& ddg,
                                    const std::vector<DdgNodeId>& rootWs,
                                    int iniMii,
                                    const CancellationToken* deadline,
                                    const std::string& scope) const;

  /// Solves the sub-problem at `path`; returns false (and fills
  /// result.failureReason) on the first illegality.
  bool solve(const ddg::Ddg& ddg, const std::vector<int>& path,
             std::vector<DdgNodeId> workingSet,
             std::vector<ValueId> relayValues, const Boundary& boundary,
             const SolveContext& ctx, HcaResult& result) const;

  machine::DspFabricModel model_;
  HcaOptions options_;
  /// Resolved at construction: options_.tracer, or the HCA_TRACE_FORCE
  /// process tracer, or nullptr (tracing off).
  Tracer* tracer_ = nullptr;
};

}  // namespace hca::core
