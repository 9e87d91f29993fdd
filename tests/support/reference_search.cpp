#include "tests/support/reference_search.hpp"

#include <algorithm>
#include <optional>
#include <string>
#include <unordered_set>
#include <vector>

#include "see/cost.hpp"
#include "see/feasibility.hpp"
#include "see/route_allocator.hpp"
#include "support/check.hpp"
#include "support/str.hpp"

namespace hca::see {

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

/// Assigns every member of `group` to `cluster` on a clone of `state`;
/// nullopt when some member is not directly assignable there.
std::optional<PartialSolution> assignGroupDirect(
    const PreparedProblem& prepared, const PartialSolution& state,
    const ItemGroup& group, ClusterId cluster) {
  PartialSolution candidate = state;
  for (const Item& item : group.members) {
    if (!candidate.canAssign(prepared, item, cluster)) return std::nullopt;
    candidate.assign(prepared, item, cluster);
  }
  return candidate;
}

/// Places every member of `group` on `cluster` on a clone of `state`,
/// routing as needed; nullopt when some copy cannot be routed within
/// `maxHops` relays.
std::optional<PartialSolution> tryAssignGroup(
    const PreparedProblem& prepared, const PartialSolution& state,
    const ItemGroup& group, ClusterId cluster, int maxHops,
    int* routedOperands, RouteScratch& scratch) {
  PartialSolution candidate = state;
  if (!routeAssignGroupT(prepared, candidate, group, cluster, maxHops,
                         routedOperands, scratch)) {
    return std::nullopt;
  }
  return candidate;
}

/// One beam search over `prepared` under `options` (a rung of the ladder).
SeeResult searchOnce(const PreparedProblem& prepared,
                     const SeeOptions& options) {
  const FeasibilityOracle& oracle = prepared.oracle();
  RouteScratch routeScratch;

  SeeResult result;
  result.workingSet = prepared.problem().workingSet;
  result.ddgNodes = prepared.problem().ddg->numNodes();
  const auto finishStats = [&] {
    result.stats.oracleRejects += routeScratch.hopRejects();
  };
  std::vector<PartialSolution> frontier;
  frontier.push_back(PartialSolution::initial(prepared));
  frontier.back().setObjective(
      objectiveT(prepared, options.weights, frontier.back()));
  const auto fail = [&](const ItemGroup& group, std::string reason) {
    result.legal = false;
    result.failedItem = group.members.front();
    result.failureReason = std::move(reason);
    result.frontier.push_back(frontier.front().snapshot(result.workingSet));
    finishStats();
    return std::move(result);
  };

  for (std::size_t gi = 0; gi < prepared.items().size(); ++gi) {
    const ItemGroup& group = prepared.items()[gi];
    if (options.maxBeamSteps > 0 &&
        result.stats.statesExplored >= options.maxBeamSteps) {
      return fail(group, strCat("beam step budget exhausted (",
                                options.maxBeamSteps, ")"));
    }
    std::vector<PartialSolution> next;
    std::vector<int> parentOf;  // parallel to next: index into frontier
    int parentIndex = -1;
    for (const PartialSolution& state : frontier) {
      ++parentIndex;
      ++result.stats.statesExplored;
      // Enumerate candidates via isAssignable, score survivors. With eager
      // routing, clusters that are only reachable through relays are
      // offered too (at their true copy cost).
      std::vector<PartialSolution> scored;
      // The engine's oracle pre-filter; here a skip also avoids the deep
      // copy assignGroupDirect would clone.
      const bool eagerRoutes =
          options.eagerRouting && options.enableRouteAllocator;
      const std::uint64_t feasible =
          eagerRoutes ? prepared.aliveClusterMask()
                      : oracle.directFeasibleMask(state, gi);
      for (const ClusterId c : prepared.clusters()) {
        if ((feasible & detail::pgBit(c)) == 0) {
          ++result.stats.oracleRejects;
          if (eagerRoutes) ++result.stats.routeFailures;
          continue;
        }
        if (auto candidate = assignGroupDirect(prepared, state, group, c)) {
          ++result.stats.candidatesEvaluated;
          candidate->setObjective(
              objectiveT(prepared, options.weights, *candidate));
          scored.push_back(std::move(*candidate));
        } else if (eagerRoutes) {
          int routed = 0;
          auto sol = tryAssignGroup(prepared, state, group, c,
                                    options.maxRouteHops, &routed,
                                    routeScratch);
          if (!sol.has_value()) {
            ++result.stats.routeFailures;
            continue;
          }
          ++result.stats.candidatesEvaluated;
          result.stats.routedOperands += routed;
          sol->setObjective(objectiveT(prepared, options.weights, *sol));
          scored.push_back(std::move(*sol));
        }
      }
      if (scored.empty() && options.enableRouteAllocator &&
          !options.eagerRouting) {
        // No candidates action: try routing onto each cluster (dead and
        // non-cluster nodes skipped up front, mirroring the failure path).
        ++result.stats.routeInvocations;
        int routed = 0;
        for (const ClusterId c : prepared.clusters()) {
          if ((prepared.aliveClusterMask() & detail::pgBit(c)) == 0) {
            ++result.stats.routeFailures;
            ++result.stats.oracleRejects;
            continue;
          }
          auto sol = tryAssignGroup(prepared, state, group, c,
                                    options.maxRouteHops, &routed,
                                    routeScratch);
          if (!sol.has_value()) {
            ++result.stats.routeFailures;
            continue;
          }
          ++result.stats.candidatesEvaluated;
          sol->setObjective(objectiveT(prepared, options.weights, *sol));
          scored.push_back(std::move(*sol));
        }
        result.stats.routedOperands += routed;
      }
      // Candidate filter: keep the best few expansions of this state.
      std::sort(scored.begin(), scored.end(),
                [](const PartialSolution& a, const PartialSolution& b) {
                  return a.objective() < b.objective();
                });
      const auto keep = std::min<std::size_t>(
          scored.size(), static_cast<std::size_t>(options.candidateKeep));
      result.stats.candidateRejections +=
          static_cast<std::int64_t>(scored.size() - keep);
      for (std::size_t i = 0; i < keep; ++i) {
        next.push_back(std::move(scored[i]));
        parentOf.push_back(parentIndex);
      }
    }

    if (next.empty()) {
      return fail(group, strCat("no candidates for ", describeGroup(group),
                                " in any frontier state (communication "
                                "patterns exhausted)"));
    }

    // Node filter: keep the beam, deduped, but parent-diverse — the best
    // child of every surviving parent is retained first, then the
    // remaining slots go to the globally best states.
    std::vector<std::size_t> order(next.size());
    for (std::size_t i = 0; i < order.size(); ++i) order[i] = i;
    std::sort(order.begin(), order.end(), [&](std::size_t a, std::size_t b) {
      return next[a].objective() < next[b].objective();
    });
    std::vector<char> isParentBest(frontier.size(), 0);
    std::vector<char> selected(next.size(), 0);
    std::vector<std::size_t> chosen;
    // Insert-only membership test (dedup by signature); never iterated,
    // so hash order cannot reach the result.
    std::unordered_set<std::uint64_t> seen;
    for (const std::size_t i : order) {  // best child per parent
      const int parent = parentOf[i];
      if (isParentBest[static_cast<std::size_t>(parent)] != 0) continue;
      isParentBest[static_cast<std::size_t>(parent)] = 1;
      if (!seen.insert(next[i].signature()).second) continue;
      selected[i] = 1;
      chosen.push_back(i);
    }
    for (const std::size_t i : order) {  // fill up with global best
      if (static_cast<int>(chosen.size()) >= options.beamWidth) break;
      if (selected[i] != 0) continue;
      if (!seen.insert(next[i].signature()).second) continue;
      selected[i] = 1;
      chosen.push_back(i);
    }
    std::sort(chosen.begin(), chosen.end(), [&](std::size_t a, std::size_t b) {
      return next[a].objective() < next[b].objective();
    });
    if (static_cast<int>(chosen.size()) > options.beamWidth) {
      chosen.resize(static_cast<std::size_t>(options.beamWidth));
    }
    std::vector<PartialSolution> pruned;
    pruned.reserve(chosen.size());
    for (const std::size_t i : chosen) pruned.push_back(std::move(next[i]));
    result.stats.statesPruned +=
        static_cast<std::int64_t>(next.size() - pruned.size());
    frontier = std::move(pruned);
  }

  result.legal = true;
  result.frontier.reserve(frontier.size());
  for (const PartialSolution& state : frontier) {
    result.frontier.push_back(state.snapshot(result.workingSet));
  }
  finishStats();
  return result;
}

}  // namespace

SeeResult referenceSearch(const SeeProblem& problem,
                          const SeeOptions& options) {
  const PreparedProblem prepared(problem, options);
  SeeResult result = searchOnce(prepared, options);
  if (result.legal) return result;
  // The engine's retry ladder: `deeper`, then `eager`, counters summed.
  SeeOptions deeper = options;
  deeper.beamWidth = 2;
  deeper.candidateKeep = 2;
  deeper.eagerRouting = false;
  deeper.maxRouteHops = options.maxRouteHops + 2;
  SeeOptions eager = options;
  eager.eagerRouting = !options.eagerRouting;
  for (const SeeOptions* attempt : {&deeper, &eager}) {
    SeeResult retry = searchOnce(prepared, *attempt);
    retry.stats.merge(result.stats);
    result = std::move(retry);
    if (result.legal) return result;
  }
  return result;
}

PartialSolution materialize(const SeeResult& result, std::size_t i) {
  HCA_CHECK(i < result.frontier.size(), "no frontier state " << i);
  return PartialSolution::fromSnapshot(result.frontier[i].state(),
                                       result.workingSet, result.ddgNodes);
}

void writeReferenceSeeResult(JsonWriter& json, const SeeResult& result) {
  json.beginObject();
  json.key("legal").value(result.legal);
  json.key("solution");
  (result.frontier.empty() ? PartialSolution{} : materialize(result))
      .writeJson(json);
  json.key("alternatives").beginArray();
  if (result.legal) {
    for (std::size_t i = 0; i < result.frontier.size(); ++i) {
      materialize(result, i).writeJson(json);
    }
  }
  json.endArray();
  json.key("stats").beginObject();
  for (const SeeCounter& c : kSeeCounters) {
    json.key(c.key).value(result.stats.*c.member);
  }
  json.endObject();
  json.key("failedItem").beginObject();
  json.key("k").value(result.failedItem.kind == Item::Kind::kRelay ? 1 : 0);
  json.key("n").value(result.failedItem.node.value());
  json.key("v").value(result.failedItem.value.value());
  json.endObject();
  json.key("failureReason").value(result.failureReason);
  json.endObject();
}

}  // namespace hca::see
