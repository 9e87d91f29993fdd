#pragma once

#include <algorithm>
#include <cstring>
#include <optional>
#include <unordered_map>
#include <utility>
#include <vector>

#include "see/feasibility.hpp"
#include "see/partial_solution.hpp"
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
/// templated over the solution representation so the legacy PartialSolution
/// entry points and the delta-based hot path run the same code.
namespace hca::see {

/// Reusable route-allocator state for one search attempt: the BFS scratch
/// buffers (stamp-validated, so steady-state findPathT calls allocate
/// nothing) and the negative route memo.
///
/// The memo caches *failed* BFS searches keyed on (value, src, dst, hop
/// budget). A failed search's outcome is a pure function of that key plus
/// the budget state of the region it visited: the flow content / real-flow
/// bits of every out-arc of each node the BFS expanded, and the in-neighbor
/// mask of every head of those arcs. An entry therefore stores the visited
/// region (a node bitset) and the exact byte slice of that budget state; a
/// later query with the same key replays the failure iff its freshly
/// rebuilt slice is byte-equal — which is precisely "no edit has touched a
/// wire budget on any node the failed search saw". Comparing exact slices
/// (rather than hashes) is what lets the engine keep its byte-identity
/// guarantee: a memo hit can never diverge from what the BFS would do.
///
/// To keep never-repeated failures cheap, the first failure of a key only
/// arms it; the slice is extracted and stored from the second failure on.
class RouteScratch {
 public:
  RouteScratch() = default;

  /// Sizes the buffers for the problem; cheap to call repeatedly.
  void init(const PreparedProblem& prepared) {
    const auto n =
        static_cast<std::size_t>(prepared.problem().pg->numNodes());
    if (parent_.size() != n) {
      parent_.assign(n, ClusterId::invalid());
      depth_.assign(n, 0);
      stamp_.assign(n, 0);
      curStamp_ = 0;
    }
  }

  /// Counters the engine folds into SeeStats.
  [[nodiscard]] std::int64_t memoHits() const { return memoHits_; }
  [[nodiscard]] std::int64_t hopRejects() const { return hopRejects_; }
  void noteHopReject() { ++hopRejects_; }

  // --- BFS scratch (used by findPathT) ----------------------------------
  void beginSearch() {
    if (++curStamp_ == 0) {
      std::fill(stamp_.begin(), stamp_.end(), 0U);
      curStamp_ = 1;
    }
    queue_.clear();
    touched_.clear();
  }
  [[nodiscard]] bool seen(ClusterId c) const {
    return stamp_[c.index()] == curStamp_;
  }
  [[nodiscard]] int depthOf(ClusterId c) const { return depth_[c.index()]; }
  [[nodiscard]] ClusterId parentOf(ClusterId c) const {
    return parent_[c.index()];
  }
  void visit(ClusterId c, int depth, ClusterId from) {
    stamp_[c.index()] = curStamp_;
    depth_[c.index()] = depth;
    parent_[c.index()] = from;
    touched_.push_back(c);
  }
  std::vector<ClusterId>& queue() { return queue_; }
  /// Nodes visited by the current search, in visit order.
  [[nodiscard]] const std::vector<ClusterId>& touched() const {
    return touched_;
  }

  // --- negative memo ----------------------------------------------------
  /// True when an armed entry for this key matches the current budget
  /// state of its recorded region — the BFS would fail identically.
  template <typename Sol>
  [[nodiscard]] bool hasKnownFailure(const PreparedProblem& prepared,
                                     const Sol& sol, ClusterId src,
                                     ClusterId dst, ValueId value,
                                     int maxPathNodes) {
    // On fabrics where every failure is below kMinFailureNodesForMemo the
    // map never gains a key, so the whole memo collapses to this branch.
    if (memo_.empty()) return false;
    const auto it = memo_.find(key(src, dst, value, maxPathNodes));
    if (it == memo_.end() || it->second.entries.empty()) return false;
    KeyMemo& km = it->second;
    // A key that keeps missing is comparing against a budget state the
    // search has long since moved past: rebuilding its slice on every
    // query costs as much as the BFS it is meant to skip. Retire it.
    if (km.strikes >= kMaxMissStrikes) return false;
    std::uint64_t builtRegion = 0;
    for (const std::uint32_t e : km.entries) {
      const MemoEntry& entry = entries_[e];
      if (entry.region != builtRegion) {
        buildSlice(prepared, sol, value, entry.region, sliceScratch_);
        builtRegion = entry.region;
      }
      if (sliceScratch_.size() == entry.sliceLen &&
          std::memcmp(sliceScratch_.data(), slicePool_.data() + entry.sliceOff,
                      entry.sliceLen) == 0) {
        ++memoHits_;
        km.strikes = 0;
        return true;
      }
    }
    ++km.strikes;
    return false;
  }

  /// Records a failed search whose expanded nodes are `region`. Failures
  /// cheaper to re-run than to memoize (see kMinFailureNodesForMemo) are
  /// dropped. The first qualifying failure of a key only arms it; slices
  /// are stored from the second on (and not at all once the pool cap is
  /// hit — the memo is an accelerator, never a correctness requirement).
  template <typename Sol>
  void recordFailure(const PreparedProblem& prepared, const Sol& sol,
                     ClusterId src, ClusterId dst, ValueId value,
                     int maxPathNodes, std::uint64_t region) {
    if (static_cast<std::size_t>(__builtin_popcountll(region)) <
        kMinFailureNodesForMemo) {
      return;
    }
    KeyMemo& km = memo_[key(src, dst, value, maxPathNodes)];
    if (!km.armed) {
      km.armed = true;
      return;
    }
    if (km.entries.size() >= kMaxEntriesPerKey) return;
    if (slicePool_.size() > kMaxSliceBytes) return;
    buildSlice(prepared, sol, value, region, sliceScratch_);
    MemoEntry entry;
    entry.region = region;
    entry.sliceOff = static_cast<std::uint32_t>(slicePool_.size());
    entry.sliceLen = static_cast<std::uint32_t>(sliceScratch_.size());
    slicePool_.insert(slicePool_.end(), sliceScratch_.begin(),
                      sliceScratch_.end());
    km.entries.push_back(static_cast<std::uint32_t>(entries_.size()));
    entries_.push_back(entry);
  }

 private:
  struct MemoEntry {
    std::uint64_t region = 0;
    std::uint32_t sliceOff = 0;
    std::uint32_t sliceLen = 0;
  };
  struct KeyMemo {
    bool armed = false;
    std::uint8_t strikes = 0;
    std::vector<std::uint32_t> entries;
  };
  static constexpr std::size_t kMaxSliceBytes = std::size_t{4} << 20;
  /// A failed BFS is only worth memoizing when re-running it costs more
  /// than a lookup (hash find + slice rebuild + memcmp). The search only
  /// expands cluster nodes, so on Table-1-scale fabrics (8 clusters) a
  /// failure visits at most ~9 nodes and re-running it is the cheaper
  /// side — measured as a 5-7% end-to-end loss when memoized anyway. Only
  /// failures that explored at least this many nodes are recorded; small
  /// fabrics then keep the map empty and lookups cost one empty() test.
  static constexpr std::size_t kMinFailureNodesForMemo = 24;
  /// At most this many distinct failure slices are stored per key; beyond
  /// that, repeated failures are state churn the memo cannot amortize.
  static constexpr std::size_t kMaxEntriesPerKey = 2;
  /// Consecutive lookup misses before a key is retired (a hit resets it).
  static constexpr std::uint8_t kMaxMissStrikes = 16;

  static std::uint64_t key(ClusterId src, ClusterId dst, ValueId value,
                           int maxPathNodes) {
    return (static_cast<std::uint64_t>(static_cast<std::uint32_t>(
                value.value()))
            << 32) |
           (static_cast<std::uint64_t>(static_cast<std::uint8_t>(
                src.value()))
            << 24) |
           (static_cast<std::uint64_t>(static_cast<std::uint8_t>(
                dst.value()))
            << 16) |
           static_cast<std::uint16_t>(maxPathNodes);
  }

  /// Serializes the budget state a failed BFS over `region` depended on,
  /// in a fixed (node-index, out-arc) order: per out-arc one byte of
  /// (flowContains(value), flowIsReal) plus the head's in-neighbor mask.
  template <typename Sol>
  static void buildSlice(const PreparedProblem& prepared, const Sol& sol,
                         ValueId value, std::uint64_t region,
                         std::vector<std::uint8_t>& out) {
    const auto& pg = *prepared.problem().pg;
    out.clear();
    std::uint64_t rest = region;
    while (rest != 0) {
      const std::uint64_t bit = rest & (~rest + 1);
      rest ^= bit;
      const ClusterId u(__builtin_ctzll(bit));
      for (const PgArcId a : pg.outArcs(u)) {
        const ClusterId w = pg.arc(a).dst;
        out.push_back(static_cast<std::uint8_t>(
            (sol.flowContains(a, value) ? 1 : 0) |
            (sol.flowIsReal(a) ? 2 : 0)));
        const std::uint64_t mask = sol.inNbrMask(w);
        for (int b = 0; b < 8; ++b) {
          out.push_back(static_cast<std::uint8_t>(mask >> (8 * b)));
        }
      }
    }
  }

  std::vector<ClusterId> parent_;
  std::vector<int> depth_;
  std::vector<std::uint32_t> stamp_;
  std::uint32_t curStamp_ = 0;
  std::vector<ClusterId> queue_;
  std::vector<ClusterId> touched_;

  /// Point lookups only — never iterated, so hash order cannot reach the
  /// result.
  std::unordered_map<std::uint64_t, KeyMemo> memo_;
  std::vector<MemoEntry> entries_;
  std::vector<std::uint8_t> slicePool_;
  std::vector<std::uint8_t> sliceScratch_;
  std::int64_t memoHits_ = 0;
  std::int64_t hopRejects_ = 0;
};

/// BFS over cluster nodes: shortest relay path src -> dst for `value`,
/// where every hop respects the in-neighbor budgets in `solution`.
/// Returns the inclusive node path, empty when unreachable. With a
/// `scratch`, reuses its BFS buffers and consults/feeds the negative route
/// memo; the returned path is byte-identical either way.
template <typename Sol>
std::vector<ClusterId> findPathT(const PreparedProblem& prepared,
                                 const Sol& solution, ClusterId src,
                                 ClusterId dst, ValueId value, int maxHops,
                                 RouteScratch* scratch = nullptr) {
  const auto& pg = *prepared.problem().pg;
  const int maxPathNodes = maxHops + 2;  // src + relays + dst

  // Static fast-reject: the oracle's hop distance ignores every budget, so
  // a pair unreachable (or too deep) there cannot be routed by the BFS
  // below at any budget state.
  {
    const std::uint8_t d = prepared.oracle().hopDistance(src, dst);
    if (d == FeasibilityOracle::kUnreachable || d > maxPathNodes - 1) {
      if (scratch != nullptr) scratch->noteHopReject();
      return {};
    }
  }
  if (scratch != nullptr &&
      scratch->hasKnownFailure(prepared, solution, src, dst, value,
                               maxPathNodes)) {
    return {};
  }

  // The caller-less path materializes its scratch lazily; with a caller
  // scratch this costs nothing.
  std::optional<RouteScratch> local;
  RouteScratch& rs = scratch != nullptr ? *scratch : local.emplace();
  rs.init(prepared);
  rs.beginSearch();
  rs.visit(src, 0, ClusterId::invalid());
  rs.queue().push_back(src);
  for (std::size_t head = 0; head < rs.queue().size(); ++head) {
    const ClusterId u = rs.queue()[head];
    if (u == dst) break;
    if (rs.depthOf(u) + 1 >= maxPathNodes) continue;
    for (const PgArcId a : pg.outArcs(u)) {
      const ClusterId w = pg.arc(a).dst;
      if (rs.seen(w)) continue;
      // Only relay through (alive) cluster nodes; the destination may be
      // anything — canAddCopy refuses dead destinations itself.
      if (w != dst && (pg.node(w).kind != machine::PgNodeKind::kCluster ||
                       pg.node(w).dead)) {
        continue;
      }
      if (!canAddCopyT(prepared, solution, u, w, value)) continue;
      rs.visit(w, rs.depthOf(u) + 1, u);
      rs.queue().push_back(w);
    }
  }
  if (!rs.seen(dst)) {
    if (scratch != nullptr) {
      // Region the failure depended on: every node whose out-arcs the BFS
      // examined (visited and within the depth budget).
      std::uint64_t region = 0;
      for (const ClusterId u : rs.touched()) {
        if (rs.depthOf(u) + 1 < maxPathNodes) region |= detail::pgBit(u);
      }
      scratch->recordFailure(prepared, solution, src, dst, value,
                             maxPathNodes, region);
    }
    return {};
  }
  std::vector<ClusterId> path;
  for (ClusterId v = dst; v.valid(); v = rs.parentOf(v)) {
    path.push_back(v);
    if (v == src) break;
  }
  std::reverse(path.begin(), path.end());
  HCA_CHECK(path.front() == src, "broken BFS parent chain");
  return path;
}

/// Routes the copies `item` needs at `cluster` into `sol` (at most
/// `maxHops` relays per copy), then assigns. Returns false (leaving `sol`
/// partially modified — callers work on a clone or a discardable delta)
/// when some copy cannot be routed.
template <typename Sol>
bool routeAndAssignT(const PreparedProblem& prepared, Sol& sol,
                     const Item& item, ClusterId cluster, int maxHops,
                     int* routedOperands, RouteScratch* scratch = nullptr) {
  // Routes one copy of `v` from `src` to `dst` unless it is already there
  // or directly addable; false when no relay path exists.
  const auto route = [&](ValueId v, ClusterId src, ClusterId dst) {
    if (sol.valueDelivered(dst, v)) return true;
    if (canAddCopyT(prepared, sol, src, dst, v)) return true;  // direct ok
    const auto path = findPathT(prepared, sol, src, dst, v, maxHops, scratch);
    if (path.empty()) return false;
    applyRouteT(prepared, sol, v, path);
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
                       int* routedOperands, RouteScratch* scratch = nullptr) {
  const auto& pg = *prepared.problem().pg;
  if (pg.node(cluster).kind != machine::PgNodeKind::kCluster) {
    return false;
  }
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

class RouteAllocator {
 public:
  /// Attempts to place `item` on `cluster`, inserting relays for every
  /// operand source that cannot reach `cluster` directly (and, for values
  /// bound to an occupied output wire, routing the value to the wire's
  /// single feeder). Returns the extended solution, or nullopt when no
  /// routing exists within `maxHops` relays per operand.
  [[nodiscard]] static std::optional<PartialSolution> tryAssign(
      const PreparedProblem& prepared, const PartialSolution& base,
      const Item& item, ClusterId cluster, int maxHops, int* routedOperands,
      RouteScratch* scratch = nullptr);

  /// Group variant: places every member of the co-location group on
  /// `cluster`, routing as needed; all-or-nothing.
  [[nodiscard]] static std::optional<PartialSolution> tryAssignGroup(
      const PreparedProblem& prepared, const PartialSolution& base,
      const ItemGroup& group, ClusterId cluster, int maxHops,
      int* routedOperands, RouteScratch* scratch = nullptr);

  /// BFS over cluster nodes: shortest relay path src -> dst for `value`,
  /// where every hop respects the in-neighbor budgets in `solution`.
  /// Returns the inclusive node path, empty when unreachable.
  static std::vector<ClusterId> findPath(const PreparedProblem& prepared,
                                         const PartialSolution& solution,
                                         ClusterId src, ClusterId dst,
                                         ValueId value, int maxHops,
                                         RouteScratch* scratch = nullptr);
};

}  // namespace hca::see
