#pragma once

#include <algorithm>
#include <cstdint>
#include <iterator>
#include <string>
#include <unordered_map>
#include <utility>
#include <vector>

#include "ddg/ddg.hpp"
#include "machine/pattern_graph.hpp"
#include "support/ids.hpp"

/// Inputs and outputs of one single-level Instruction Cluster Assignment
/// instance solved by the Space Exploration Engine (paper Section 3).
///
/// HCA (Section 4) decomposes the hierarchical problem into a sequence of
/// these: each instance sees only a Working Set of DDG nodes, a Pattern
/// Graph whose boundary (input/output) nodes encode the Inter-Level
/// Interface decided at the parent level, and the reconfiguration
/// constraints of the current interconnect level.
namespace hca::see {

struct SeeProblem {
  const ddg::Ddg* ddg = nullptr;
  /// The Working Set: DDG nodes to assign at this level.
  std::vector<DdgNodeId> workingSet;
  /// Pass-through values: pumped in by the parent and leaving again without
  /// a producer or consumer in the WS (created by route allocation at the
  /// parent level). Each must be parked on a cluster, costing one receive
  /// slot there.
  std::vector<ValueId> relayValues;

  const machine::PatternGraph* pg = nullptr;
  machine::PgConstraints constraints;
  ddg::LatencyModel latency;
  /// Optional precomputed `ddg->heights(latency)` (one entry per DDG node).
  /// A caller solving many sub-problems of one DDG computes them once and
  /// shares them; null makes the engine compute them per call. Not part of
  /// the sub-problem cache key: heights follow from the DDG (fixed per
  /// cache) and `latency` (in the key).
  const std::vector<std::int64_t>* heights = nullptr;

  /// Interconnect figures used by the copy-pressure cost terms.
  int inWiresPerCluster = 1;
  int outWiresPerCluster = 1;

  /// Where each out-of-WS operand value is available (its input node).
  /// Point lookups only; the one whole-map walk (prepared.cpp validation)
  /// is order-insensitive and annotated ordered-ok.
  std::unordered_map<ValueId, ClusterId> valueSources;
  /// Values that must reach a given output node (one entry per outgoing
  /// wire; all values of one wire must be fed by a single cluster —
  /// the paper's outNode_MaxIn constraint, Fig. 10).
  std::vector<std::pair<ClusterId, std::vector<ValueId>>> outputRequirements;
};

/// Objective weights (Section 4.2: the main cost factor is the estimated
/// MII; the others break ties towards fewer copies and better balance).
struct CostWeights {
  double iiEstimate = 100.0;
  double copyCount = 4.0;
  double loadBalance = 0.5;
  double criticalPath = 4.0;
  double wiringSlack = 8.0;
  /// The loop's iniMII (Section 4.2): the final MII is
  /// max(iniMII, maxClsMII), so pushing a cluster below this gains nothing
  /// — the II criterion only penalizes clusters *above* the target, which
  /// lets the search trade slack for locality (fewer wires, fewer copies).
  int targetIi = 1;
};

struct SeeOptions {
  /// Beam width of the node filter (frontier size).
  int beamWidth = 4;
  /// Candidate filter: candidates kept per (state, item).
  int candidateKeep = 4;
  /// Enables the route allocator as the `no candidates action`.
  bool enableRouteAllocator = true;
  /// Eager routing: also offer route-allocated assignments for clusters a
  /// node cannot reach directly, scored alongside the direct candidates.
  /// Off by default: routed candidates spread load (which the II and
  /// balance terms like) while silently consuming wire budget, which
  /// empirically poisons the beam; the paper's design — routing as the
  /// `no candidates action` only — is the default.
  bool eagerRouting = false;
  /// Maximum relay hops the route allocator may insert per operand; the
  /// engine's `deeper` retry rung allows two more.
  int maxRouteHops = 3;
  /// Hard budget on frontier-state expansions per search attempt (each
  /// retry-ladder rung counts separately); when exhausted the engine stops
  /// and reports the best-so-far partial solution as illegal instead of
  /// searching on. <= 0 = unlimited. This is the adversarial-DDG guard:
  /// combined with a deadline token it bounds SEE wall-clock.
  int maxBeamSteps = 0;
  /// Soft ceiling on the combined high-water mark of the two search arenas
  /// (snapshot double-buffer) per SEE solve, in bytes; <= 0 = unlimited.
  /// When exceeded the engine stops expanding and reports the search
  /// illegal with a "memory budget exceeded" reason — the driver's
  /// escalation ladder then re-plans (degraded bandwidth shrinks the
  /// per-problem state) instead of the process OOMing. Part of the
  /// sub-problem cache key: a result computed under one budget must never
  /// be replayed under another.
  std::int64_t arenaBudgetBytes = 0;
  /// Chain grouping: merge single-consumer dependence chains into one
  /// priority-list entry so they are placed together (the paper's SEE
  /// "picks a new DDG node (or a set of nodes) at each step"). Groups are
  /// capped at roughly targetIi * issue-width / 2 ops.
  bool chainGrouping = true;
  CostWeights weights;
};

struct SeeStats {
  std::int64_t statesExplored = 0;     // frontier states expanded
  std::int64_t candidatesEvaluated = 0;
  std::int64_t statesPruned = 0;       // dropped by the node filter
  std::int64_t routeInvocations = 0;   // no-candidates actions taken
  std::int64_t routedOperands = 0;     // operands placed via relays
  /// Scored candidates dropped by the candidate filter (kept only the best
  /// `candidateKeep` expansions per state).
  std::int64_t candidateRejections = 0;
  /// Route-allocator attempts that found no relay path to the target
  /// cluster (routeAssignGroupT returned false).
  std::int64_t routeFailures = 0;
  /// Candidates expanded as pooled copy-on-write deltas instead of full
  /// deep copies of a search state (one per delta rebase).
  std::int64_t copiesAvoided = 0;
  /// Flat snapshots written to the search arenas (initial state plus one
  /// per beam survivor per step).
  std::int64_t snapshotsMaterialized = 0;
  /// High-water mark of bytes live in one search attempt's snapshot arenas.
  std::int64_t arenaBytesPeak = 0;
  /// Candidate clusters rejected by the feasibility oracle before any
  /// solution state was materialized: direct-loop mask rejections plus
  /// findPathT calls refused by the static hop-distance table. Each of
  /// these is work the pre-oracle engine spent on a provably-doomed
  /// candidate.
  std::int64_t oracleRejects = 0;
  /// Always 0. The negative route memo and dominance pruning that fed
  /// these two counters never fired on any bench and were removed; the
  /// fields and their counter-table rows stay so the report, checkpoint and
  /// history schemas (and the readers of those files) are unchanged.
  std::int64_t routeMemoHits = 0;
  std::int64_t dominancePruned = 0;

  /// Folds another search's counters into this one (retry-ladder rungs,
  /// per-level aggregation in the driver's metrics registry).
  void merge(const SeeStats& other);
};

/// How a counter combines when two searches or attempts are folded.
enum class CounterMerge {
  kSum,     ///< effort counters add up
  kMax,     ///< high-water marks keep the larger value
  kWinner,  ///< a property of the winning attempt: merging leaves it alone
};

/// Whether a serialized record (a checkpointed attempt; a SEE result in the
/// tests' reference JSON) must carry a counter. Counters added after the first checkpoint schema are
/// optional: a missing key reads as 0, so older files still load.
enum class CounterField { kRequired, kOptional };

template <class T>
constexpr void mergeCounter(CounterMerge op, T& into, T from) {
  if (op == CounterMerge::kSum) into += from;
  if (op == CounterMerge::kMax) into = std::max(into, from);
}

// The counter table (DESIGN.md section 4l): one row per search counter, in
// declaration order, which is also the key order of every JSON object the
// rows feed. Both merges, the serializers, the SeeStats -> HcaStats fold,
// the per-level metrics and the run report's counters are generated from
// it, so adding a counter means declaring its field and appending a row.
//
//   RUN(member, merge, field, deterministic)
//     An HcaStats-only counter; its report/checkpoint key is its name.
//   SEE(member, key, merge, field, metric, levelsKey, levelsSlot)
//     A SeeStats counter: short SEE-result key, per-level metric base name
//     (`<metric>.L<n>`), key and position among the SEE keys of the
//     report's levels[] rows (nullptr / -1 = none).
//   SEE_RUN(member, key, merge, field, metric, levelsKey, levelsSlot, run)
//     A SEE row that also accumulates into HcaStats::run.
// clang-format off
#define HCA_COUNTER_TABLE(RUN, SEE, SEE_RUN)                                                                                             \
  RUN(    problemsSolved,    kSum,    kRequired, true)                                                                                   \
  RUN(    backtrackAttempts, kSum,    kRequired, true)                                                                                   \
  RUN(    outerAttempts,     kSum,    kRequired, true)                                                                                   \
  RUN(    achievedTargetIi,  kWinner, kRequired, true)                                                                                   \
  RUN(    attemptsCancelled, kSum,    kRequired, false)                                                                                  \
  SEE_RUN(statesExplored,        "se", kSum, kRequired, "see.expansions",           "expansions",          0,  statesExplored)           \
  SEE_RUN(candidatesEvaluated,   "ce", kSum, kRequired, "see.candidates",           "candidates",          2,  candidatesEvaluated)      \
  SEE(    statesPruned,          "sp", kSum, kRequired, "see.pruned",               "pruned",              1)                            \
  SEE_RUN(routeInvocations,      "ri", kSum, kRequired, "see.route_invocations",    "routeInvocations",    4,  routeInvocations)         \
  SEE(    routedOperands,        "ro", kSum, kRequired, "see.routed_operands",      nullptr,               -1)                           \
  SEE(    candidateRejections,   "cr", kSum, kRequired, "see.candidate_rejections", "candidateRejections", 3)                            \
  SEE(    routeFailures,         "rf", kSum, kRequired, "see.route_failures",       "routeFailures",       5)                            \
  RUN(    cacheHits,         kSum,    kRequired, true)                                                                                   \
  RUN(    cacheMisses,       kSum,    kRequired, true)                                                                                   \
  RUN(    maxWirePressure,   kWinner, kRequired, true)                                                                                   \
  SEE_RUN(copiesAvoided,         "ca", kSum, kRequired, "see.copies_avoided",       nullptr,               -1, seeCopiesAvoided)         \
  SEE_RUN(snapshotsMaterialized, "sm", kSum, kRequired, "see.snapshots",            nullptr,               -1, seeSnapshotsMaterialized) \
  SEE_RUN(arenaBytesPeak,        "ap", kMax, kRequired, nullptr,                    nullptr,               -1, seeArenaBytesPeak)        \
  SEE_RUN(oracleRejects,         "or", kSum, kOptional, "see.oracle_rejects",       "oracleRejects",       6,  seeOracleRejects)         \
  SEE_RUN(routeMemoHits,         "mh", kSum, kOptional, "see.route_memo_hits",      "routeMemoHits",       7,  seeRouteMemoHits)         \
  SEE_RUN(dominancePruned,       "dp", kSum, kOptional, "see.dominance_pruned",     "dominancePruned",     8,  seeDominancePruned)
// clang-format on

/// Row kind an expansion site ignores.
#define HCA_COUNTER_SKIP(...)

/// The SeeStats view of one SEE or SEE_RUN row.
struct SeeCounter {
  std::int64_t SeeStats::*member;
  const char* key;
  CounterMerge merge;
  CounterField field;
  const char* metric;
  const char* levelsKey;
  int levelsSlot;
};

#define HCA_SEE_COUNTER(member, key, merge, field, metric, levelsKey, slot, \
                        ...)                                                 \
  SeeCounter{&SeeStats::member, key,      CounterMerge::merge,              \
             CounterField::field, metric, levelsKey, slot},
inline constexpr SeeCounter kSeeCounters[] = {HCA_COUNTER_TABLE(
    HCA_COUNTER_SKIP, HCA_SEE_COUNTER, HCA_SEE_COUNTER)};
#undef HCA_SEE_COUNTER

static_assert(sizeof(SeeStats) ==
                  std::size(kSeeCounters) * sizeof(std::int64_t),
              "every SeeStats field needs a row in HCA_COUNTER_TABLE");

inline void SeeStats::merge(const SeeStats& other) {
  for (const SeeCounter& c : kSeeCounters) {
    mergeCounter(c.merge, this->*c.member, other.*c.member);
  }
}

}  // namespace hca::see
