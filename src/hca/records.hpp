#pragma once

#include <cstdint>

#include "mapper/problem_record.hpp"
#include "see/problem.hpp"

/// Per-sub-problem records kept by the HCA driver. They are the audit trail
/// of the decomposition: the coherency checker re-derives value routability
/// from them, and the MII computation reads the per-cluster summaries and
/// wire pressures. The record structs themselves live in
/// mapper/problem_record.hpp, below the verifier that reads them; this
/// header re-exports the core aliases and owns the driver-wide search
/// statistics.
namespace hca::core {

using mapper::ClusterSummary;
using mapper::ProblemRecord;

/// The HcaStats view of one RUN or SEE_RUN row of HCA_COUNTER_TABLE.
struct RunCounter {
  /// Run-report and checkpoint key: the member name.
  const char* key;
  see::CounterMerge merge;
  see::CounterField field;
  bool deterministic;
};

/// Calls `f(row, stats.member...)` for every HcaStats counter, in table
/// order; the members are `int` or `std::int64_t`.
template <class F, class... Stats>
void forEachRunCounter(F&& f, Stats&... stats) {
#define HCA_RUN_COUNTER(member, merge, field, deterministic)               \
  f(RunCounter{#member, see::CounterMerge::merge, see::CounterField::field, \
               deterministic},                                             \
    stats.member...);
#define HCA_SEE_RUN_COUNTER(seeMember, key, merge, field, metric, levelsKey, \
                            slot, member)                                    \
  HCA_RUN_COUNTER(member, merge, field, true)
  HCA_COUNTER_TABLE(HCA_RUN_COUNTER, HCA_COUNTER_SKIP, HCA_SEE_RUN_COUNTER)
#undef HCA_SEE_RUN_COUNTER
#undef HCA_RUN_COUNTER
}

/// Search-effort statistics of one full `HcaDriver::run` — the *aggregate*
/// over every (target II, heuristic profile) attempt of the outer sweep,
/// including the degraded-bandwidth fallback's own sweep when it runs. The
/// driver solves each attempt with a private HcaStats and merges it into the
/// returned result when the attempt completes, so the aggregation semantics
/// do not depend on the sweep's thread count.
struct HcaStats {
  /// SEE sub-problems solved across all attempts. Cache hits count too:
  /// a hit replays the recorded result of an identical solve.
  int problemsSolved = 0;
  /// Runner-up assignments tried after a child sub-problem failed, summed
  /// over all attempts (each attempt has its own backtrack budget,
  /// `kBacktrackBudget` in driver.cpp).
  int backtrackAttempts = 0;
  /// (target II, profile) attempts *started* across the whole run. An
  /// attempt soft-cancelled before it started is counted in
  /// `attemptsCancelled` only. On a legal one-thread sweep this is the
  /// 1-based index of the winning attempt, matching the historical meaning;
  /// a pooled sweep may start attempts past the winner.
  int outerAttempts = 0;
  /// Target II of the successful attempt; 0 when no legal clusterization
  /// was found (historically this reported the *last* attempt's target even
  /// on failure).
  int achievedTargetIi = 0;
  /// Attempts aborted before producing a genuine verdict: attempts skipped
  /// because their token was already cancelled or a lower-index attempt
  /// was already legal, and attempts that returned illegal with their
  /// token cancelled (a lower-index winner or the run's deadline,
  /// HcaOptions::deadlineMs). Attempts a one-thread sweep never reaches
  /// count nowhere.
  int attemptsCancelled = 0;
  std::int64_t statesExplored = 0;     ///< SEE frontier states expanded
  std::int64_t candidatesEvaluated = 0;
  std::int64_t routeInvocations = 0;   ///< SEE no-candidates actions
  /// Sub-problem cache traffic. On a hit the cached SEE statistics are
  /// still added to the counters above, so the aggregate counters are
  /// byte-identical with the cache on or off — the cache only changes
  /// wall-clock.
  std::int64_t cacheHits = 0;
  std::int64_t cacheMisses = 0;
  /// Max values time-sharing one wire at any level — recomputed from the
  /// *surviving* records of the winning attempt (not merged across failed
  /// attempts, whose rolled-back pressure is meaningless).
  int maxWirePressure = 0;
  /// SEE candidates expanded as copy-on-write deltas instead of full
  /// deep copies of a search state (see SeeStats::copiesAvoided).
  std::int64_t seeCopiesAvoided = 0;
  /// Flat snapshots written to the SEE search arenas.
  std::int64_t seeSnapshotsMaterialized = 0;
  /// Largest per-attempt snapshot-arena high-water mark seen by any SEE
  /// solve of the run.
  std::int64_t seeArenaBytesPeak = 0;
  /// SEE candidates rejected by the feasibility oracle before any solution
  /// state was materialized (see SeeStats::oracleRejects).
  std::int64_t seeOracleRejects = 0;
  /// Always 0: the retired SEE counters (see SeeStats::routeMemoHits),
  /// kept so reports, checkpoints and history keep their schema.
  std::int64_t seeRouteMemoHits = 0;
  std::int64_t seeDominancePruned = 0;

  /// Folds another attempt's counters into this one. `achievedTargetIi`
  /// and `maxWirePressure` are properties of the winning attempt and are
  /// deliberately left alone.
  void merge(const HcaStats& other) {
    forEachRunCounter(
        [](const RunCounter& c, auto& mine, const auto& theirs) {
          see::mergeCounter(c.merge, mine, theirs);
        },
        *this, other);
  }

  /// Folds one SEE search's counters into their HcaStats counterparts (the
  /// SEE_RUN rows of HCA_COUNTER_TABLE).
  void addSee(const see::SeeStats& s) {
#define HCA_FOLD_SEE(seeMember, key, merge, field, metric, levelsKey, slot, \
                     member)                                                 \
  see::mergeCounter(see::CounterMerge::merge, member, s.seeMember);
    HCA_COUNTER_TABLE(HCA_COUNTER_SKIP, HCA_COUNTER_SKIP, HCA_FOLD_SEE)
#undef HCA_FOLD_SEE
  }
};

}  // namespace hca::core
