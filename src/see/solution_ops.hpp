#pragma once

#include <algorithm>
#include <cstdint>
#include <vector>

#include "see/prepared.hpp"
#include "support/check.hpp"

/// The single implementation of the SEE assignment semantics —
/// isAssignable, assign, copy-budget checks, route application — shared by
/// every search-state representation through a small accessor/mutator
/// interface (`Sol`):
///
///   reads:  clusterOf, relayCluster, inNbrMask, valueDelivered,
///           flowContains
///   writes: setNodeCluster, setRelayCluster, addOp, addFlowCopy,
///           noteAssigned, addCritTerm
///
/// `DeltaSolution` (the copy-on-write candidate overlay of the search),
/// `FlatSolution` (its immutable snapshots, read-only) and the deep-copy
/// state of the reference search in tests/support implement this
/// interface; instantiating all of them from one template is what makes
/// the search byte-identical to the reference by construction rather than
/// by parallel maintenance. Topology is read through the
/// prepared problem's dense pattern-graph view, never the PatternGraph.
namespace hca::see {

/// Cluster currently holding `value` (producer's cluster, or the input
/// node it arrives on); invalid if not available yet.
template <typename Sol>
ClusterId valueLocationT(const PreparedProblem& prepared, const Sol& sol,
                         ValueId value) {
  const DdgNodeId producer(value.value());
  if (prepared.inWorkingSet(producer)) return sol.clusterOf(producer);
  return prepared.valueSource(value);
}

/// True when the arc src->dst exists and adding a copy of `value` on it
/// respects the in-neighbor budget (and, for output nodes, the paper's
/// outNode_MaxIn: unary fan-in). Out-neighbors are unbounded: a value can
/// be broadcast.
template <typename Sol>
bool canAddCopyT(const PreparedProblem& prepared, const Sol& sol,
                 ClusterId src, ClusterId dst, ValueId value) {
  // A dead node, or one whose output wires are all dead, sends nothing
  // new; a dead node receives nothing.
  if (!prepared.canSend(src) || prepared.isDead(dst)) return false;
  const PgArcId arc = prepared.arcId(src, dst);
  if (!arc.valid()) return false;
  if (sol.flowContains(arc, value)) {
    return true;  // already flowing: no budget change
  }
  const std::uint64_t dstMask = sol.inNbrMask(dst);
  if (prepared.isOutput(dst)) {
    return dstMask == 0 || dstMask == detail::pgBit(src);
  }
  if ((dstMask & detail::pgBit(src)) == 0) {
    const int inCap = prepared.inCap(dst);
    if (inCap >= 0 && __builtin_popcountll(dstMask) >= inCap) {
      return false;
    }
  }
  return true;
}

/// The paper's isAssignable interface: cluster kind, resource availability,
/// and availability of communication patterns under the current
/// reconfiguration budget.
template <typename Sol>
bool canAssignT(const PreparedProblem& prepared, const Sol& sol,
                const Item& item, ClusterId cluster) {
  if (!prepared.isCluster(cluster) || prepared.isDead(cluster)) return false;
  const auto& rt = prepared.resources(cluster);

  if (item.kind == Item::Kind::kRelay) {
    // A relay needs in/out communication patterns.
    const ClusterId source = prepared.valueSource(item.value);
    const ClusterId out = prepared.outputNodeOf(item.value);
    if (!sol.valueDelivered(cluster, item.value) &&
        !canAddCopyT(prepared, sol, source, cluster, item.value)) {
      return false;
    }
    return sol.valueDelivered(out, item.value) ||
           canAddCopyT(prepared, sol, cluster, out, item.value);
  }

  const DdgNodeId n = item.node;
  const ddg::Op op = prepared.problem().ddg->node(n).op;
  const ddg::ResourceClass rc = ddg::opResource(op);
  if (rc != ddg::ResourceClass::kNone && rt.count(rc) == 0) return false;

  // Incoming copies: every located operand source must reach `cluster`,
  // cumulatively within the in-neighbor budget.
  const int inCap = prepared.inCap(cluster);
  std::uint64_t mask = sol.inNbrMask(cluster);
  for (const ValueId v : prepared.operandValues(n)) {
    const ClusterId loc = valueLocationT(prepared, sol, v);
    if (!loc.valid() || loc == cluster) continue;
    if (sol.valueDelivered(cluster, v)) continue;  // already routed here
    if (!prepared.canSend(loc)) return false;
    const PgArcId arc = prepared.arcId(loc, cluster);
    if (!arc.valid()) return false;
    if (sol.flowContains(arc, v)) continue;
    if ((mask & detail::pgBit(loc)) == 0) {
      if (inCap >= 0 && __builtin_popcountll(mask) >= inCap) {
        return false;
      }
      mask |= detail::pgBit(loc);
    }
  }

  // Outgoing copies to already-assigned WS consumers.
  const ValueId produced(n.value());
  for (const DdgNodeId consumer : prepared.wsConsumers(n)) {
    const ClusterId d = sol.clusterOf(consumer);
    if (!d.valid() || d == cluster) continue;
    if (sol.valueDelivered(d, produced)) continue;  // already routed there
    if (!canAddCopyT(prepared, sol, cluster, d, produced)) return false;
  }

  // Output-wire requirement (outNode_MaxIn, Fig. 10).
  const ClusterId out = prepared.outputNodeOf(produced);
  if (out.valid() && !sol.valueDelivered(out, produced) &&
      !canAddCopyT(prepared, sol, cluster, out, produced)) {
    return false;
  }
  return true;
}

/// Adds a copy of `value` on the (required) arc src->dst; the Sol's
/// addFlowCopy handles idempotence, the in-neighbor mask, and the distinct
/// in/out value lists.
template <typename Sol>
void addCopyT(const PreparedProblem& prepared, Sol& sol, ClusterId src,
              ClusterId dst, ValueId value) {
  const PgArcId arc = prepared.arcId(src, dst);
  HCA_CHECK(arc.valid(), "addCopyT without arc " << to_string(src) << "->"
                                                 << to_string(dst));
  sol.addFlowCopy(arc, src, dst, value);
}

/// Applies the assignment (must be canAssignT). Adds the implied copies:
/// operand sources -> cluster, cluster -> already-assigned consumers,
/// cluster -> output wire if the produced value leaves the sub-problem.
/// Also records the critical-path terms this assignment completes: a
/// cross-cluster WS dependence charges double(height(consumer)+1) /
/// maxWsHeight exactly once, when its second endpoint lands.
template <typename Sol>
void assignT(const PreparedProblem& prepared, Sol& sol, const Item& item,
             ClusterId cluster) {
  if (item.kind == Item::Kind::kRelay) {
    const auto& relays = prepared.problem().relayValues;
    const auto idx = static_cast<std::size_t>(
        std::find(relays.begin(), relays.end(), item.value) - relays.begin());
    HCA_CHECK(idx < relays.size(), "relay value not in problem");
    sol.setRelayCluster(idx, cluster);
    sol.addOp(cluster, ddg::Op::kRecv);
    if (!sol.valueDelivered(cluster, item.value)) {
      addCopyT(prepared, sol, prepared.valueSource(item.value), cluster,
               item.value);
    }
    const ClusterId relayOut = prepared.outputNodeOf(item.value);
    if (!sol.valueDelivered(relayOut, item.value)) {
      addCopyT(prepared, sol, cluster, relayOut, item.value);
    }
    sol.noteAssigned();
    return;
  }

  const DdgNodeId n = item.node;
  sol.setNodeCluster(n, cluster);
  sol.addOp(cluster, prepared.problem().ddg->node(n).op);
  sol.noteAssigned();
  for (const CritOperand& co : prepared.critOperands(n)) {
    const ClusterId cp = sol.clusterOf(co.src);
    if (cp.valid() && cp != cluster) {
      sol.addCritTerm(
          PreparedProblem::critKey(prepared.wsIndex(n), co.operandIndex),
          prepared.height(n) + 1);
    }
  }
  for (const CritUse& cu : prepared.critUses(n)) {
    const ClusterId cc = sol.clusterOf(cu.consumer);
    if (cc.valid() && cc != cluster) {
      sol.addCritTerm(PreparedProblem::critKey(prepared.wsIndex(cu.consumer),
                                               cu.operandIndex),
                      prepared.height(cu.consumer) + 1);
    }
  }

  for (const ValueId v : prepared.operandValues(n)) {
    if (sol.valueDelivered(cluster, v)) continue;
    const ClusterId loc = valueLocationT(prepared, sol, v);
    if (loc.valid() && loc != cluster) {
      addCopyT(prepared, sol, loc, cluster, v);
    }
  }
  const ValueId produced(n.value());
  for (const DdgNodeId consumer : prepared.wsConsumers(n)) {
    const ClusterId d = sol.clusterOf(consumer);
    if (d.valid() && d != cluster && !sol.valueDelivered(d, produced)) {
      addCopyT(prepared, sol, cluster, d, produced);
    }
  }
  const ClusterId out = prepared.outputNodeOf(produced);
  if (out.valid() && !sol.valueDelivered(out, produced)) {
    addCopyT(prepared, sol, cluster, out, produced);
  }
}

/// Routes `value` from `path.front()` to `path.back()` through intermediate
/// clusters. Every hop must be addable; the route allocator validates hops
/// beforehand.
template <typename Sol>
void applyRouteT(const PreparedProblem& prepared, Sol& sol, ValueId value,
                 const std::vector<ClusterId>& path) {
  HCA_REQUIRE(path.size() >= 2, "route needs at least two nodes");
  for (std::size_t i = 0; i + 1 < path.size(); ++i) {
    addCopyT(prepared, sol, path[i], path[i + 1], value);
  }
}

}  // namespace hca::see
