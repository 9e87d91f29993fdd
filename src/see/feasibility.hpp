#pragma once

#include <cstdint>

#include "see/prepared.hpp"
#include "see/solution_ops.hpp"

/// Feasibility oracle of the SEE beam loop: answers "can this candidate
/// cluster possibly survive the direct-assignment check?" with one AND+test
/// before the engine pays for a DeltaSolution acquire (dense-state memcpy)
/// and a member-by-member canAssignT walk.
///
/// The contract that keeps the search byte-identical: a cluster the oracle
/// rejects must *provably* fail the direct-assignment loop — some member's
/// canAssignT must return false — so skipping it changes no candidate set,
/// no ordering, and (with the engine mirroring the counter increments of
/// the skipped code path) no statistics. The oracle therefore only encodes
/// rejection reasons that are sound against the *parent* frontier snapshot:
///
///  * static facts (dead clusters, missing resource classes, missing arcs,
///    senders with no surviving output wire) — valid in any state;
///  * monotone parent-state facts: in-neighbor masks only gain bits while
///    a group's members are placed, and a value can only become delivered
///    to a cluster through an arc from its (fixed) location — so "budget already exhausted and the source is not an
///    in-neighbor yet" or "the single output-wire feeder is already chosen"
///    remain rejections mid-group (see DESIGN.md §4k for the case analysis).
///
/// Anything whose mid-group evolution could *help* a later member (shared
/// flows) is deliberately left to canAssignT.
///
/// The oracle also precomputes the static relay-hop distance matrix over
/// the alive pattern graph (budgets ignored — a strict over-approximation
/// of dynamic routability), which lets findPathT refuse provably
/// unreachable (src, dst) pairs without running a BFS.
namespace hca::see {

class FeasibilityOracle {
 public:
  /// Static hop distance marking an unreachable pair.
  static constexpr std::uint8_t kUnreachable = 0xff;

  explicit FeasibilityOracle(const PreparedProblem& prepared);

  /// State-independent feasible-cluster mask of one priority-list group:
  /// alive, resource-class-capable for every node member, and able to feed
  /// every output wire a node member's value must leave on.
  [[nodiscard]] std::uint64_t groupMask(std::size_t groupIndex) const {
    return groupMask_[groupIndex];
  }

  /// Shortest relay path length (in arcs) from `src` to `dst` where every
  /// intermediate node is an alive cluster with a surviving output wire —
  /// the static over-approximation of findPathT's search graph.
  /// kUnreachable when no such path exists at any length.
  ///
  /// The matrix is built lazily on first call: most prepared problems never
  /// invoke the route allocator (route_invocations.L0 is typically zero),
  /// and the numPg² BFS sweep is the most expensive part of oracle
  /// construction. Lazy `mutable` state is safe because a PreparedProblem
  /// and its oracle are private to one solve attempt (one thread).
  [[nodiscard]] std::uint8_t hopDistance(ClusterId src, ClusterId dst) const {
    if (!hopsBuilt_) buildHopMatrix();
    return hop_[src.index() * static_cast<std::size_t>(prepared_->numPg()) +
                dst.index()];
  }

  /// Mask of clusters on which the *direct* (unrouted) assignment of the
  /// whole group might succeed when expanding `state`; every cluster
  /// outside the mask provably fails canAssignT for some member. Sound
  /// only for the direct-candidate loop: a rejected cluster may still be
  /// reachable through the route allocator.
  template <typename Sol>
  [[nodiscard]] std::uint64_t directFeasibleMask(const Sol& state,
                                                 std::size_t groupIndex) const;

 private:
  void buildHopMatrix() const;

  // Only the tables the PreparedProblem does not hold; alive clusters,
  // senders and out-heads are read from it (DESIGN.md §4k).
  const PreparedProblem* prepared_;
  /// Per PG node w: tails of w's in-arcs that can send (alive, with a
  /// surviving output wire); empty when w is dead.
  std::vector<std::uint64_t> arcInMask_;
  /// Per group: the static mask documented at groupMask().
  std::vector<std::uint64_t> groupMask_;
  /// Row-major static hop-distance matrix (kUnreachable = no path), built
  /// on first hopDistance() call — see the accessor comment.
  mutable std::vector<std::uint8_t> hop_;
  mutable bool hopsBuilt_ = false;
};

template <typename Sol>
std::uint64_t FeasibilityOracle::directFeasibleMask(
    const Sol& state, std::size_t groupIndex) const {
  const PreparedProblem& prep = *prepared_;
  const ItemGroup& group = prep.items()[groupIndex];
  std::uint64_t m = groupMask_[groupIndex];
  if (m == 0) return 0;

  // Clusters with a free in-neighbor slot (or no MUX cap) in the parent
  // state. Masks only gain bits mid-group, so "no room and the source is
  // not an in-neighbor yet" stays a rejection for every member. Built
  // lazily: groups with no placed producers/consumers (the early beam
  // steps) never need it.
  std::uint64_t room = 0;
  bool roomBuilt = false;
  const auto ensureRoom = [&] {
    if (roomBuilt) return;
    roomBuilt = true;
    for (const ClusterId c : prep.clusters()) {
      const int cap = prep.inCap(c);
      if (cap < 0 ||
          __builtin_popcountll(state.inNbrMask(c)) < cap) {
        room |= detail::pgBit(c);
      }
    }
  };

  // Candidate clusters where the copy loc -> candidate required for value
  // `v` could still be added: the location itself, arc-connected receivers
  // with budget room or with loc already among their in-neighbors, and
  // clusters already holding v. `m` holds alive clusters only, so loc's
  // out-head mask needs no dead-receiver filter.
  const auto restrictByCopyFrom = [&](ClusterId loc, ValueId v) {
    ensureRoom();
    const std::uint64_t viaArc =
        prep.canSend(loc) ? prep.outHeadMask(loc) : 0;
    std::uint64_t keep = detail::pgBit(loc);
    std::uint64_t rest = m & ~keep;
    while (rest != 0) {
      const std::uint64_t bit = rest & (~rest + 1);
      rest ^= bit;
      const ClusterId c(__builtin_ctzll(bit));
      if ((viaArc & bit) != 0 &&
          ((room & bit) != 0 ||
           (state.inNbrMask(c) & detail::pgBit(loc)) != 0)) {
        keep |= bit;
      } else if (state.valueDelivered(c, v)) {
        keep |= bit;
      }
    }
    m &= keep;
  };

  // Candidate clusters that could still send a (not-yet-existing) value to
  // the fixed cluster `d`: d itself, or arc-connected senders while d has
  // budget room / already lists the sender as an in-neighbor.
  const auto restrictByCopyTo = [&](ClusterId d) {
    ensureRoom();
    std::uint64_t allowed = detail::pgBit(d);
    const std::uint64_t senders = arcInMask_[d.index()];
    if ((room & detail::pgBit(d)) != 0) {
      allowed |= senders;
    } else {
      allowed |= senders & state.inNbrMask(d);
    }
    m &= allowed;
  };

  // A claimed output wire pins the group to its single feeder (the paper's
  // outNode_MaxIn): once some cluster feeds `out`, only that cluster can
  // add further values to the wire.
  const auto restrictByOutputWire = [&](ClusterId out) {
    const std::uint64_t s = state.inNbrMask(out);
    if (s == 0) return;
    m &= (__builtin_popcountll(s) == 1) ? s : 0;
  };

  for (const Item& item : group.members) {
    if (m == 0) return 0;
    if (item.kind == Item::Kind::kRelay) {
      // Source -> candidate (delivered values short-circuit inside), then
      // candidate -> output wire unless the value already reached it.
      restrictByCopyFrom(prep.valueSource(item.value), item.value);
      const ClusterId out = prep.outputNodeOf(item.value);
      if (!state.valueDelivered(out, item.value)) {
        m &= arcInMask_[out.index()];
        restrictByOutputWire(out);
      }
      continue;
    }
    const DdgNodeId n = item.node;
    for (const ValueId v : prep.operandValues(n)) {
      const ClusterId loc = valueLocationT(prep, state, v);
      if (!loc.valid()) continue;  // producer unplaced: no constraint yet
      restrictByCopyFrom(loc, v);
      if (m == 0) return 0;
    }
    const ValueId produced(n.value());
    for (const DdgNodeId consumer : prep.wsConsumers(n)) {
      const ClusterId d = state.clusterOf(consumer);
      if (d.valid()) restrictByCopyTo(d);
    }
    const ClusterId out = prep.outputNodeOf(produced);
    if (out.valid()) restrictByOutputWire(out);
  }

  return m;
}

}  // namespace hca::see
