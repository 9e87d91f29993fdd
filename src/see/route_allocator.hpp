#pragma once

#include <algorithm>
#include <vector>

#include "see/feasibility.hpp"
#include "see/prepared.hpp"
#include "see/solution_ops.hpp"
#include "support/check.hpp"

/// The paper's configurable `no candidates action` (Section 3, Fig. 6):
/// when no cluster can take the current item directly — every candidate is
/// blocked by exhausted communication patterns — the Route Allocator tries
/// to assign the item anyway by routing the unreachable copies through
/// intermediate clusters. A relay cluster receives the value (one receive
/// slot of pressure) and re-sends it, consuming arc budget on both hops.
///
/// Like the assignment semantics (solution_ops.hpp), the routing logic is
/// templated over the solution representation: the search's DeltaSolution
/// candidates and the deep-copy states of the reference search in
/// tests/support run the same code.
namespace hca::see {

/// Reusable route-allocator state for one search attempt: the BFS
/// buffers and the last path found, reused so steady-state findPathT calls
/// allocate nothing, and the count of searches the hop matrix rejected.
class RouteScratch {
 public:
  RouteScratch() = default;

  /// Sizes the buffers for the problem; cheap to call repeatedly.
  void init(const PreparedProblem& prepared) {
    const auto n = static_cast<std::size_t>(prepared.numPg());
    if (parent_.size() != n) {
      parent_.assign(n, ClusterId::invalid());
      depth_.assign(n, 0);
      feeds_.assign(n, 0);
    }
  }

  /// Searches the oracle's hop matrix rejected, folded into
  /// SeeStats::oracleRejects.
  [[nodiscard]] std::int64_t hopRejects() const { return hopRejects_; }
  void noteHopReject() { ++hopRejects_; }

  /// The inclusive node path of the last findPathT call that found one.
  [[nodiscard]] const std::vector<ClusterId>& path() const { return path_; }

  // --- BFS scratch (used by findPathT; read only for visited nodes) ------
  [[nodiscard]] int depthOf(ClusterId c) const { return depth_[c.index()]; }
  void visit(ClusterId c, int depth, ClusterId from) {
    depth_[c.index()] = depth;
    parent_[c.index()] = from;
  }
  std::vector<ClusterId>& queue() { return queue_; }
  /// Per node: the nodes whose in-neighbor masks already list it.
  std::vector<std::uint64_t>& feeds() { return feeds_; }
  /// Writes path() as the parent chain from `src` to the visited `dst`.
  void tracePath(ClusterId src, ClusterId dst) {
    path_.clear();
    for (ClusterId v = dst; v != src; v = parent_[v.index()]) {
      HCA_CHECK(v.valid(), "broken BFS parent chain");
      path_.push_back(v);
    }
    path_.push_back(src);
    std::reverse(path_.begin(), path_.end());
  }

 private:
  std::vector<ClusterId> parent_;
  std::vector<int> depth_;
  std::vector<std::uint64_t> feeds_;
  std::vector<ClusterId> queue_;
  std::vector<ClusterId> path_;
  std::int64_t hopRejects_ = 0;
};

/// BFS over cluster nodes: shortest relay path src -> dst for `value`,
/// where every hop respects the in-neighbor budgets in `solution`.
/// Returns false when dst is unreachable; otherwise `scratch.path()` holds
/// the inclusive node path.
///
/// The result is that of a walk over PatternGraph::outArcs with
/// canAddCopyT deciding every hop (DESIGN.md §4k). A dequeued node's open
/// heads — not yet seen, and able to take the hop — are walked in arc
/// order through the node's head-rank table, so visit order and parents
/// are the per-arc walk's on any graph. Masks decide most hops before the
/// walk: only alive clusters relay (the destination may be any live
/// node), and a hop into an alive cluster is open exactly when the sender
/// already feeds it or it has in-neighbor room — canAddCopyT's answer
/// there. The one head the masks leave open, a destination outside the
/// alive clusters (an output or input node), still calls canAddCopyT. The
/// search stops when dst is discovered: a BFS parent is fixed at
/// discovery, so the path cannot change after it.
template <typename Sol>
bool findPathT(const PreparedProblem& prepared, const Sol& solution,
               ClusterId src, ClusterId dst, ValueId value, int maxHops,
               RouteScratch& scratch) {
  const int maxPathNodes = maxHops + 2;  // src + relays + dst

  // Static fast-reject: the oracle's hop distance ignores every budget, so
  // a pair unreachable (or too deep) there cannot be routed by the BFS
  // below at any budget state.
  {
    const std::uint8_t d = prepared.oracle().hopDistance(src, dst);
    if (d == FeasibilityOracle::kUnreachable || d > maxPathNodes - 1) {
      scratch.noteHopReject();
      return false;
    }
  }
  if (src == dst) {
    scratch.tracePath(src, dst);
    return true;
  }

  scratch.init(prepared);
  const std::uint64_t relays = prepared.aliveClusterMask();
  const std::uint64_t enterable =
      relays | (prepared.isDead(dst) ? 0 : detail::pgBit(dst));
  // The budget state of the alive clusters, whose hops the masks decide:
  // those with in-neighbor room, and per node the ones it already feeds.
  std::uint64_t room = 0;
  std::vector<std::uint64_t>& feeds = scratch.feeds();
  std::fill(feeds.begin(), feeds.end(), 0);
  for (std::uint64_t rest = relays; rest != 0; rest &= rest - 1) {
    const ClusterId w(__builtin_ctzll(rest));
    const std::uint64_t wBit = detail::pgBit(w);
    const std::uint64_t senders = solution.inNbrMask(w);
    const int cap = prepared.inCap(w);
    if (cap < 0 || __builtin_popcountll(senders) < cap) room |= wBit;
    for (std::uint64_t s = senders; s != 0; s &= s - 1) {
      feeds[static_cast<std::size_t>(__builtin_ctzll(s))] |= wBit;
    }
  }

  std::uint64_t seen = detail::pgBit(src);
  auto& queue = scratch.queue();
  queue.clear();
  scratch.visit(src, 0, ClusterId::invalid());
  queue.push_back(src);
  for (std::size_t head = 0; head < queue.size(); ++head) {
    const ClusterId u = queue[head];
    const int depth = scratch.depthOf(u);
    if (depth + 1 >= maxPathNodes) continue;
    if (!prepared.canSend(u)) continue;  // canAddCopyT refuses every hop
    // Heads are distinct, so masks taken before the walk stay exact.
    const std::uint64_t open = prepared.outHeadMask(u) & enterable & ~seen;
    const std::uint64_t pass = open & relays & (room | feeds[u.index()]);
    const std::uint8_t* rank = prepared.headRanks(u);
    std::uint64_t byRank = 0;
    for (std::uint64_t t = pass | (open & ~relays); t != 0; t &= t - 1) {
      byRank |= 1ULL << rank[__builtin_ctzll(t)];
    }
    const ClusterId* heads = prepared.outHeads(u).data();
    for (; byRank != 0; byRank &= byRank - 1) {
      const ClusterId w = heads[__builtin_ctzll(byRank)];
      const std::uint64_t wBit = detail::pgBit(w);
      if ((pass & wBit) == 0 &&
          !canAddCopyT(prepared, solution, u, w, value)) {
        continue;
      }
      seen |= wBit;
      scratch.visit(w, depth + 1, u);
      if (w == dst) {
        scratch.tracePath(src, dst);
        return true;
      }
      queue.push_back(w);
    }
  }
  return false;
}

/// Routes the copies `item` needs at `cluster` into `sol` (at most
/// `maxHops` relays per copy), then assigns. Returns false (leaving `sol`
/// partially modified — callers work on a clone or a discardable delta)
/// when some copy cannot be routed.
template <typename Sol>
bool routeAndAssignT(const PreparedProblem& prepared, Sol& sol,
                     const Item& item, ClusterId cluster, int maxHops,
                     int* routedOperands, RouteScratch& scratch) {
  // Routes one copy of `v` from `src` to `dst` unless it is already there
  // or directly addable; false when no relay path exists.
  const auto route = [&](ValueId v, ClusterId src, ClusterId dst) {
    if (sol.valueDelivered(dst, v)) return true;
    if (canAddCopyT(prepared, sol, src, dst, v)) return true;  // direct ok
    if (!findPathT(prepared, sol, src, dst, v, maxHops, scratch)) {
      return false;
    }
    applyRouteT(prepared, sol, v, scratch.path());
    if (routedOperands != nullptr) ++*routedOperands;
    return true;
  };

  // Values that must reach `cluster` (operands of a node item; the source
  // value of a relay item), then values produced here that must reach
  // already-assigned consumers or a (possibly already-fed) output wire.
  // Routing only adds copies, never placements, so the consumer clusters
  // read between routes are those of the state the item started from.
  if (item.kind == Item::Kind::kNode) {
    for (const ValueId v : prepared.operandValues(item.node)) {
      const ClusterId loc = valueLocationT(prepared, sol, v);
      if (!loc.valid() || loc == cluster) continue;
      if (!route(v, loc, cluster)) return false;
    }
    const ValueId produced(item.node.value());
    for (const DdgNodeId consumer : prepared.wsConsumers(item.node)) {
      const ClusterId d = sol.clusterOf(consumer);
      if (!d.valid() || d == cluster) continue;
      if (!route(produced, cluster, d)) return false;
    }
    const ClusterId out = prepared.outputNodeOf(produced);
    if (out.valid() && !route(produced, cluster, out)) return false;
  } else {
    const ClusterId loc = valueLocationT(prepared, sol, item.value);
    if (loc.valid() && loc != cluster && !route(item.value, loc, cluster)) {
      return false;
    }
    if (!route(item.value, cluster, prepared.outputNodeOf(item.value))) {
      return false;
    }
  }

  if (!canAssignT(prepared, sol, item, cluster)) return false;
  assignT(prepared, sol, item, cluster);
  return true;
}

/// Group variant over any Sol: places every member of the co-location group
/// on `cluster`, routing as needed. All-or-nothing from the caller's
/// perspective: on false, `sol` is partially modified and must be
/// discarded (clone) or rebased (delta).
template <typename Sol>
bool routeAssignGroupT(const PreparedProblem& prepared, Sol& sol,
                       const ItemGroup& group, ClusterId cluster, int maxHops,
                       int* routedOperands, RouteScratch& scratch) {
  if (!prepared.isCluster(cluster)) return false;
  for (const Item& item : group.members) {
    if (canAssignT(prepared, sol, item, cluster)) {
      assignT(prepared, sol, item, cluster);
      continue;
    }
    if (!routeAndAssignT(prepared, sol, item, cluster, maxHops,
                         routedOperands, scratch)) {
      return false;
    }
  }
  return true;
}

}  // namespace hca::see
