#pragma once

#include <string>

#include "see/problem.hpp"
#include "see/snapshot.hpp"
#include "support/thread_pool.hpp"

/// The Space Exploration Engine (paper Section 3, Figures 4 and 5).
///
/// A local-scope beam search: items (working-set nodes, relay values) are
/// taken from a priority list; for every frontier state and every cluster
/// the `isAssignable` check runs, surviving candidates are scored by the
/// objective, the *candidate filter* keeps the best few per state, and the
/// *node filter* prunes the merged frontier back to the beam width. When a
/// state has no candidate at all, the *no candidates action* invokes the
/// Route Allocator.
///
/// This is the library's one search: copy-on-write candidates against
/// arena-backed snapshots (snapshot.hpp). The tests hold it to an
/// independent deep-copy implementation of the same search, which lives in
/// tests/support/reference_search.hpp and is linked by no program.
namespace hca::see {

struct SearchScratch;

struct SeeResult {
  bool legal = false;
  /// The final frontier, best first, as compact snapshots: callers that
  /// discover deeper infeasibilities (the hierarchical driver) can fall
  /// back to the runner-up assignments. An illegal result holds its one
  /// best partial state.
  std::vector<FrontierSnapshot> frontier;
  /// What maps a snapshot back to DDG node ids: working-set position i is
  /// node workingSet[i] of a `ddgNodes`-node DDG.
  std::vector<DdgNodeId> workingSet;
  std::int32_t ddgNodes = 0;
  SeeStats stats;
  /// On failure: the item no frontier state could place.
  Item failedItem;
  std::string failureReason;

  /// Bytes the result owns: the object, its snapshots and their blocks,
  /// the working set and the failure reason.
  [[nodiscard]] std::int64_t bytes() const;
};

class SpaceExplorationEngine {
 public:
  explicit SpaceExplorationEngine(SeeOptions options = {});

  /// Runs the beam search; an illegal result is retried by the `deeper`
  /// and then the `eager` rung (see engine.cpp), stopping at the first
  /// legal one, with every rung's counters summed. When `cancel` is
  /// non-null the loop polls it at every priority-list step and, once it
  /// flips, unwinds immediately with an illegal result (failureReason =
  /// "cancelled"). A result with legal == true is always a complete,
  /// cancellation-free computation.
  [[nodiscard]] SeeResult run(const SeeProblem& problem,
                              const CancellationToken* cancel = nullptr) const;

  [[nodiscard]] const SeeOptions& options() const { return options_; }

 private:
  /// One beam search over the shared `prepared` problem: pooled
  /// DeltaSolution candidates against arena-backed FlatSolution snapshots,
  /// with zero steady-state heap allocation. `options` is
  /// prepared.options() or one of the two retry-ladder rungs (`deeper`,
  /// `eager`; see run()): its beam width, candidate keep, eager routing and
  /// maxRouteHops drive this search; every other field equals
  /// prepared.options().
  [[nodiscard]] SeeResult runOnce(const PreparedProblem& prepared,
                                  SearchScratch& scratch,
                                  const SeeOptions& options,
                                  const CancellationToken* cancel) const;

  SeeOptions options_;
};

}  // namespace hca::see
