#pragma once

#include <cstdint>
#include <vector>

#include "machine/pattern_graph.hpp"
#include "see/prepared.hpp"
#include "see/snapshot.hpp"
#include "support/json.hpp"

/// One node of the space-exploration tree (paper Fig. 5): a partial
/// assignment of the working set, with everything needed to check
/// assignability and evaluate cost incrementally — per-cluster resource
/// usage, the copy flow on the PG arcs, the real in-neighbor masks (the
/// reconfiguration budget), and the distinct values entering/leaving each
/// cluster (the copy pressure the Mapper will have to distribute over
/// wires).
///
/// This is the reference search's representation (reference_search.hpp):
/// plain value semantics, indexed by DDG node, one full deep copy per
/// candidate. The library's search works on `DeltaSolution` overlays and
/// `FlatSolution` snapshots (see/snapshot.hpp) instead; both run the
/// assignment semantics of see/solution_ops.hpp and the objective of
/// see/cost.hpp, so the two searches agree by construction and the tests
/// compare them field for field.
namespace hca::see {

class PartialSolution {
 public:
  /// Empty assignment; input nodes pre-count their boundary values as sent
  /// values so wire pressure is measured from the start.
  static PartialSolution initial(const PreparedProblem& prepared);
  /// The DDG-indexed state of a snapshot: working-set position i is DDG
  /// node `workingSet[i]`, every other of the `ddgNodes` nodes is left
  /// unassigned. List contents and order are the snapshot's rows.
  static PartialSolution fromSnapshot(const FlatSolution& state,
                                      const std::vector<DdgNodeId>& workingSet,
                                      std::int32_t ddgNodes);

  /// This state over `workingSet` as a frontier snapshot, built from its
  /// rows by FlatSolution::fromRows.
  [[nodiscard]] FrontierSnapshot snapshot(
      const std::vector<DdgNodeId>& workingSet) const;
  /// The state as the checkpoint once stored it: the "solution" and
  /// "alternatives" entries of writeReferenceSeeResult.
  void writeJson(JsonWriter& json) const;

  /// The paper's isAssignable interface: cluster kind, resource
  /// availability, and availability of communication patterns under the
  /// current reconfiguration budget.
  [[nodiscard]] bool canAssign(const PreparedProblem& prepared,
                               const Item& item, ClusterId cluster) const;

  /// Applies the assignment (must be canAssign). Adds the implied copies:
  /// operand sources -> cluster, cluster -> already-assigned consumers,
  /// cluster -> output wire if the produced value leaves the sub-problem.
  void assign(const PreparedProblem& prepared, const Item& item,
              ClusterId cluster);

  /// True when `value` already flows into `dst` on some arc (e.g. via a
  /// relay route), so no further copy is needed to make it available there.
  [[nodiscard]] bool valueDelivered(ClusterId dst, ValueId value) const;

  // --- accessors -------------------------------------------------------
  [[nodiscard]] ClusterId clusterOf(DdgNodeId node) const {
    return nodeCluster_[node.index()];
  }
  [[nodiscard]] ClusterId relayCluster(int relayIndex) const {
    return relayCluster_[static_cast<std::size_t>(relayIndex)];
  }
  [[nodiscard]] const machine::CopyFlow& flow() const { return flow_; }
  [[nodiscard]] const machine::ResourceUsage& usage(ClusterId c) const {
    return usage_[c.index()];
  }
  [[nodiscard]] int distinctValuesIn(ClusterId c) const {
    return static_cast<int>(inValues_[c.index()].size());
  }
  [[nodiscard]] int distinctValuesOut(ClusterId c) const {
    return static_cast<int>(outValues_[c.index()].size());
  }
  [[nodiscard]] int realInNeighborCount(ClusterId c) const {
    return __builtin_popcountll(inNbrMask_[c.index()]);
  }
  [[nodiscard]] int totalCopies() const { return flow_.totalCopies(); }
  [[nodiscard]] int assignedCount() const { return assigned_; }

  /// Critical-path criterion of the objective (cost.hpp): every copy on an
  /// intra-iteration dependence inside the working set, weighted by how
  /// tall its consumer still is — cutting near the top of the critical
  /// path is worse. A full scan, in (working-set position, operand
  /// position) order.
  [[nodiscard]] double criticalPathScore(const PreparedProblem& prepared) const;

  [[nodiscard]] double objective() const { return objective_; }
  void setObjective(double value) { objective_ = value; }

  /// Stable hash of the assignment vector (frontier deduplication).
  [[nodiscard]] std::uint64_t signature() const;

  // --- Sol interface (solution_ops.hpp) --------------------------------
  [[nodiscard]] std::uint64_t inNbrMask(ClusterId c) const {
    return inNbrMask_[c.index()];
  }
  [[nodiscard]] bool flowContains(PgArcId arc, ValueId value) const;
  void setNodeCluster(DdgNodeId node, ClusterId cluster) {
    nodeCluster_[node.index()] = cluster;
  }
  void setRelayCluster(std::size_t relayIndex, ClusterId cluster) {
    relayCluster_[relayIndex] = cluster;
  }
  void addOp(ClusterId cluster, ddg::Op op) {
    usage_[cluster.index()].addOp(op);
  }
  /// Registers a copy (idempotent per arc/value); maintains the
  /// in-neighbor mask and the distinct in/out value lists.
  bool addFlowCopy(PgArcId arc, ClusterId src, ClusterId dst, ValueId value);
  void noteAssigned() { ++assigned_; }
  /// Materialized states don't track critical-path terms —
  /// criticalPathScore rescans; only DeltaSolution accumulates them.
  void addCritTerm(std::uint64_t /*key*/, std::int64_t /*num*/) {}

 private:
  std::vector<ClusterId> nodeCluster_;   // per DDG node
  std::vector<ClusterId> relayCluster_;  // per relay value (problem order)
  std::vector<machine::ResourceUsage> usage_;       // per PG node
  machine::CopyFlow flow_;
  std::vector<std::uint64_t> inNbrMask_;            // per PG node
  std::vector<std::vector<ValueId>> inValues_;      // distinct, per PG node
  std::vector<std::vector<ValueId>> outValues_;     // distinct, per PG node
  int assigned_ = 0;
  double objective_ = 0.0;
};

}  // namespace hca::see
