#include "see/engine.hpp"

#include <algorithm>
#include <memory>

#include "see/cost.hpp"
#include "see/feasibility.hpp"
#include "see/route_allocator.hpp"
#include "see/snapshot.hpp"
#include "support/arena.hpp"
#include "support/check.hpp"
#include "support/log.hpp"
#include "support/str.hpp"

namespace hca::see {

SpaceExplorationEngine::SpaceExplorationEngine(SeeOptions options)
    : options_(options) {
  HCA_REQUIRE(options_.beamWidth >= 1, "beam width must be >= 1");
  HCA_REQUIRE(options_.candidateKeep >= 1, "candidate keep must be >= 1");
  HCA_REQUIRE(options_.maxRouteHops >= 1, "route hops must be >= 1");
}

namespace {
std::string describeItem(const Item& item) {
  return item.kind == Item::Kind::kNode
             ? strCat("node ", to_string(item.node))
             : strCat("relay of value ", to_string(item.value));
}

std::string describeGroup(const ItemGroup& group) {
  if (group.members.size() == 1) return describeItem(group.members.front());
  std::string out = "co-location group {";
  for (std::size_t i = 0; i < group.members.size(); ++i) {
    if (i > 0) out += ", ";
    out += describeItem(group.members[i]);
  }
  return out + "}";
}

}  // namespace

std::int64_t SeeResult::bytes() const {
  std::size_t total = sizeof(*this) +
                      workingSet.capacity() * sizeof(DdgNodeId) +
                      (frontier.capacity() - frontier.size()) *
                          sizeof(FrontierSnapshot) +
                      failureReason.size();
  for (const FrontierSnapshot& state : frontier) total += state.bytes();
  return static_cast<std::int64_t>(total);
}

/// Recycling pool of DeltaSolution overlays: after the first beam step
/// every acquire rebases an existing object (two memcpys of dense state,
/// list clears) — no allocation, and one avoided deep copy of a whole
/// state, which is what `SeeStats::copiesAvoided` counts.
class DeltaPool {
 public:
  explicit DeltaPool(const PreparedProblem& prepared) : prepared_(prepared) {}

  DeltaSolution* acquire(const FlatSolution* parent,
                         const ParentScores* parentScores) {
    DeltaSolution* d = nullptr;
    if (!free_.empty()) {
      d = free_.back();
      free_.pop_back();
    } else {
      all_.push_back(std::make_unique<DeltaSolution>());
      all_.back()->init(prepared_);
      d = all_.back().get();
    }
    d->reset(parent, parentScores);
    return d;
  }

  void release(DeltaSolution* d) { free_.push_back(d); }

 private:
  const PreparedProblem& prepared_;
  std::vector<std::unique_ptr<DeltaSolution>> all_;
  std::vector<DeltaSolution*> free_;
};

/// Delta-path storage of one SEE call, shared by its retry-ladder rungs so
/// a rung after the first allocates nothing: the delta pool and the two
/// snapshot arenas. Each rung restart()s the arenas, so `arenaBytesPeak`
/// and the arena budget still measure one rung at a time.
struct SearchScratch {
  explicit SearchScratch(const PreparedProblem& prepared) : pool(prepared) {}
  DeltaPool pool;
  MonotonicArena arenaA;
  MonotonicArena arenaB;
};

SeeResult SpaceExplorationEngine::run(const SeeProblem& problem,
                                      const CancellationToken* cancel) const {
  // One preparation (and one search scratch) for the whole call: the
  // ladder rungs below differ from options_ only in the search knobs
  // runOnce takes explicitly (beam width, candidate keep, eager routing,
  // route hops), none of which shapes the prepared problem.
  const PreparedProblem prepared(problem, options_);
  SearchScratch scratch(prepared);
  SeeResult result = runOnce(prepared, scratch, options_, cancel);
  if (result.legal) return result;
  // Retry ladder, on top of the paper's one recovery (the route allocator
  // as the no candidates action). `deeper` (beam 2, keep 2, no eager
  // routing, two more route hops) reaches relay chains the primary hop
  // budget cannot: it alone rescues SEE calls on one-port RCP rings.
  // `eager` flips eager routing: it alone rescues flat-ICA h264. Statistics
  // accumulate across attempts.
  SeeOptions deeper = options_;
  deeper.beamWidth = 2;
  deeper.candidateKeep = 2;
  deeper.eagerRouting = false;
  deeper.maxRouteHops = options_.maxRouteHops + 2;
  SeeOptions eager = options_;
  eager.eagerRouting = !options_.eagerRouting;
  for (const SeeOptions* attempt : {&deeper, &eager}) {
    if (cancel != nullptr && cancel->cancelled()) return result;
    SeeResult retry = runOnce(prepared, scratch, *attempt, cancel);
    retry.stats.merge(result.stats);
    result = std::move(retry);
    if (result.legal) return result;
  }
  return result;
}

SeeResult SpaceExplorationEngine::runOnce(
    const PreparedProblem& prepared, SearchScratch& scratch,
    const SeeOptions& options, const CancellationToken* cancel) const {
  SeeResult result;  // its snapshots map back through the working set
  result.workingSet = prepared.problem().workingSet;
  result.ddgNodes = prepared.problem().ddg->numNodes();
  // Double-buffered snapshot arenas: the live frontier's snapshots sit in
  // `cur`; survivors of a step are flattened into `nxt` (reading their
  // parents from `cur`), then `cur` is reset — its chunks are retained, so
  // steady-state steps allocate nothing — and the buffers swap.
  MonotonicArena& arenaA = scratch.arenaA;
  MonotonicArena& arenaB = scratch.arenaB;
  arenaA.restart();
  arenaB.restart();
  DeltaPool& pool = scratch.pool;
  MonotonicArena* cur = &arenaA;
  MonotonicArena* nxt = &arenaB;
  const FeasibilityOracle& oracle = prepared.oracle();
  RouteScratch routeScratch;

  const auto finishStats = [&] {
    result.stats.arenaBytesPeak =
        std::max(static_cast<std::int64_t>(arenaA.peakBytesUsed()),
                 static_cast<std::int64_t>(arenaB.peakBytesUsed()));
    result.stats.oracleRejects += routeScratch.hopRejects();
  };

  const std::size_t numClusters = prepared.clusters().size();
  std::vector<const FlatSolution*> frontier;
  // Per frontier state, its clusterTermsT per cluster position (row i of
  // frontier state i), carried forward from the survivor's scoring: a
  // survivor's row is its parent's with the clusters it touched
  // recomputed. Engine scratch, not arena bytes.
  std::vector<ClusterTerms> frontierTerms;
  std::vector<ClusterTerms> survivorTerms;
  {
    // Scored through a delta over the snapshot: the objectiveT
    // instantiation every candidate is scored with.
    FlatSolution* initial = FlatSolution::initial(prepared, *cur);
    DeltaSolution* scorer = pool.acquire(initial, nullptr);
    initial->setObjective(objectiveT(prepared, options.weights, *scorer));
    pool.release(scorer);
    frontier.push_back(initial);
    ++result.stats.snapshotsMaterialized;
    for (const ClusterId c : prepared.clusters()) {
      frontierTerms.push_back(clusterTermsT(prepared, *initial, c));
    }
  }
  // An illegal result keeps the best state of the frontier it stopped at.
  const auto fail = [&](const ItemGroup& group, std::string reason) {
    result.legal = false;
    result.failedItem = group.members.front();
    result.failureReason = std::move(reason);
    result.frontier.emplace_back(*frontier.front());
    finishStats();
    return std::move(result);
  };

  // Per-step work vectors, hoisted out of the loop so their capacity is
  // reused across steps (zero steady-state allocation).
  std::vector<DeltaSolution*> scored;
  std::vector<DeltaSolution*> next;
  std::vector<int> parentOf;  // parallel to next: index into frontier
  std::vector<std::size_t> order;
  std::vector<char> isParentBest;
  std::vector<char> selected;
  std::vector<std::size_t> chosen;
  std::vector<std::uint64_t> seenSigs;
  std::vector<const FlatSolution*> survivors;
  // The expanded parent's scoring tables: its candidates recompute only
  // the clusters they touch and start every sum from the parent's running
  // sums (cost.hpp).
  ParentScores parentScores;
  // Membership-only signature set (frontiers are small; a linear scan
  // beats hashing and allocates nothing).
  const auto insertSig = [&seenSigs](std::uint64_t sig) {
    if (std::find(seenSigs.begin(), seenSigs.end(), sig) != seenSigs.end()) {
      return false;
    }
    seenSigs.push_back(sig);
    return true;
  };

  for (std::size_t gi = 0; gi < prepared.items().size(); ++gi) {
    const ItemGroup& group = prepared.items()[gi];
    if (cancel != nullptr && cancel->cancelled()) {
      return fail(group, "cancelled");
    }
    if (options.maxBeamSteps > 0 &&
        result.stats.statesExplored >= options.maxBeamSteps) {
      return fail(group, strCat("beam step budget exhausted (",
                                options.maxBeamSteps, ")"));
    }
    if (options.arenaBudgetBytes > 0 &&
        static_cast<std::int64_t>(arenaA.peakBytesUsed() +
                                  arenaB.peakBytesUsed()) >
            options.arenaBudgetBytes) {
      return fail(group, strCat("memory budget exceeded (",
                                options.arenaBudgetBytes, " arena bytes)"));
    }
    next.clear();
    parentOf.clear();
    int parentIndex = -1;
    for (const FlatSolution* state : frontier) {
      ++parentIndex;
      ++result.stats.statesExplored;
      buildParentScores(
          prepared, *state,
          frontierTerms.data() +
              static_cast<std::size_t>(parentIndex) * numClusters,
          parentScores);
      // Enumerate candidates via isAssignable, score survivors. With eager
      // routing, clusters that are only reachable through relays are
      // offered too (at their true copy cost).
      scored.clear();
      // Feasibility oracle: with eager routing a direct-infeasible cluster
      // may still be routable, so only provably-hopeless clusters (dead or
      // not a cluster node — the route allocator rejects those with zero
      // side effects) are skipped; otherwise the full direct mask applies.
      // Skips mirror the counter increments of the code path they replace.
      const bool eagerRoutes =
          options.eagerRouting && options.enableRouteAllocator;
      const std::uint64_t feasible =
          eagerRoutes ? prepared.aliveClusterMask()
                      : oracle.directFeasibleMask(*state, gi);
      for (const ClusterId c : prepared.clusters()) {
        if ((feasible & detail::pgBit(c)) == 0) {
          ++result.stats.copiesAvoided;
          ++result.stats.oracleRejects;
          if (eagerRoutes) ++result.stats.routeFailures;
          continue;
        }
        DeltaSolution* candidate = pool.acquire(state, &parentScores);
        ++result.stats.copiesAvoided;
        bool direct = true;
        for (const Item& item : group.members) {
          if (!canAssignT(prepared, *candidate, item, c)) {
            direct = false;
            break;
          }
          assignT(prepared, *candidate, item, c);
        }
        if (direct) {
          ++result.stats.candidatesEvaluated;
          candidate->setObjective(
              objectiveT(prepared, options.weights, *candidate));
          scored.push_back(candidate);
        } else if (eagerRoutes) {
          // Discard the partial direct attempt.
          candidate->reset(state, &parentScores);
          int routed = 0;
          if (!routeAssignGroupT(prepared, *candidate, group, c,
                                 options.maxRouteHops, &routed,
                                 routeScratch)) {
            ++result.stats.routeFailures;
            pool.release(candidate);
            continue;
          }
          ++result.stats.candidatesEvaluated;
          result.stats.routedOperands += routed;
          candidate->setObjective(
              objectiveT(prepared, options.weights, *candidate));
          scored.push_back(candidate);
        } else {
          pool.release(candidate);
        }
      }
      if (scored.empty() && options.enableRouteAllocator &&
          !options.eagerRouting) {
        // No candidates action: try routing onto each cluster. Dead and
        // non-cluster nodes fail routeAssignGroupT with zero side effects,
        // so the oracle skips them before the acquire (mirroring the
        // failure-path counters).
        ++result.stats.routeInvocations;
        int routed = 0;
        for (const ClusterId c : prepared.clusters()) {
          if ((prepared.aliveClusterMask() & detail::pgBit(c)) == 0) {
            ++result.stats.copiesAvoided;
            ++result.stats.routeFailures;
            ++result.stats.oracleRejects;
            continue;
          }
          DeltaSolution* candidate = pool.acquire(state, &parentScores);
          ++result.stats.copiesAvoided;
          if (!routeAssignGroupT(prepared, *candidate, group, c,
                                 options.maxRouteHops, &routed,
                                 routeScratch)) {
            ++result.stats.routeFailures;
            pool.release(candidate);
            continue;
          }
          ++result.stats.candidatesEvaluated;
          candidate->setObjective(
              objectiveT(prepared, options.weights, *candidate));
          scored.push_back(candidate);
        }
        result.stats.routedOperands += routed;
      }
      // Candidate filter: keep the best few expansions of this state.
      std::sort(scored.begin(), scored.end(),
                [](const DeltaSolution* a, const DeltaSolution* b) {
                  return a->objective() < b->objective();
                });
      const auto keep = std::min<std::size_t>(
          scored.size(), static_cast<std::size_t>(options.candidateKeep));
      result.stats.candidateRejections +=
          static_cast<std::int64_t>(scored.size() - keep);
      for (std::size_t i = 0; i < scored.size(); ++i) {
        if (i < keep) {
          next.push_back(scored[i]);
          parentOf.push_back(parentIndex);
        } else {
          pool.release(scored[i]);
        }
      }
    }

    if (next.empty()) {
      std::string reason =
          strCat("no candidates for ", describeGroup(group),
                 " in any frontier state (communication patterns exhausted)");
      HCA_DEBUG("SEE failed: " << reason);
      return fail(group, std::move(reason));
    }

    // Node filter: keep the beam, deduped, but parent-diverse — the best
    // child of every surviving parent is retained first so a feasible
    // lineage is never pruned purely on score, then the remaining slots go
    // to the globally best states.
    order.resize(next.size());
    for (std::size_t i = 0; i < order.size(); ++i) order[i] = i;
    std::sort(order.begin(), order.end(), [&](std::size_t a, std::size_t b) {
      return next[a]->objective() < next[b]->objective();
    });
    isParentBest.assign(frontier.size(), 0);
    selected.assign(next.size(), 0);
    chosen.clear();
    seenSigs.clear();
    for (const std::size_t i : order) {  // best child per parent
      const int parent = parentOf[i];
      if (isParentBest[static_cast<std::size_t>(parent)] != 0) continue;
      isParentBest[static_cast<std::size_t>(parent)] = 1;
      if (!insertSig(next[i]->signature())) continue;
      selected[i] = 1;
      chosen.push_back(i);
    }
    for (const std::size_t i : order) {  // fill up with global best
      if (static_cast<int>(chosen.size()) >= options.beamWidth) break;
      if (selected[i] != 0) continue;
      if (!insertSig(next[i]->signature())) continue;
      selected[i] = 1;
      chosen.push_back(i);
    }
    std::sort(chosen.begin(), chosen.end(), [&](std::size_t a, std::size_t b) {
      return next[a]->objective() < next[b]->objective();
    });
    if (static_cast<int>(chosen.size()) > options.beamWidth) {
      chosen.resize(static_cast<std::size_t>(options.beamWidth));
    }
    // Materialize the survivors into the spare arena (their parents stay
    // readable in `cur` until after the flatten), then retire `cur`.
    survivors.clear();
    survivorTerms.clear();
    for (const std::size_t i : chosen) {
      const FlatSolution* survivor = FlatSolution::fromDelta(*next[i], *nxt);
      survivors.push_back(survivor);
      ++result.stats.snapshotsMaterialized;
      const ClusterTerms* row =
          frontierTerms.data() +
          static_cast<std::size_t>(parentOf[i]) * numClusters;
      const std::size_t base = survivorTerms.size();
      survivorTerms.insert(survivorTerms.end(), row, row + numClusters);
      for (std::uint64_t touched =
               next[i]->touchedNodes() & prepared.clusterMask();
           touched != 0; touched &= touched - 1) {
        const ClusterId c(__builtin_ctzll(touched));
        survivorTerms[base + prepared.clusterPosition(c)] =
            clusterTermsT(prepared, *survivor, c);
      }
    }
    frontierTerms.swap(survivorTerms);
    result.stats.statesPruned +=
        static_cast<std::int64_t>(next.size() - survivors.size());
    for (DeltaSolution* d : next) pool.release(d);
    frontier.assign(survivors.begin(), survivors.end());
    cur->reset();
    std::swap(cur, nxt);
  }

  result.legal = true;
  result.frontier.reserve(frontier.size());
  for (const FlatSolution* state : frontier) {
    result.frontier.emplace_back(*state);
  }
  finishStats();
  return result;
}

}  // namespace hca::see
