#pragma once

#include <cstddef>
#include <cstdint>
#include <memory>
#include <span>
#include <vector>

#include "machine/pattern_graph.hpp"
#include "see/cost.hpp"
#include "see/prepared.hpp"
#include "support/arena.hpp"

/// Copy-on-write search states for the SEE beam loop.
///
/// Deep-copying a whole search state (per-arc copy lists, per-PG-node value
/// lists — ~2·P + A heap allocations) for *every* candidate at every beam
/// step, including candidates rejected by the first isAssignable check,
/// would dominate the search. A beam step works on two representations
/// instead:
///
///  * `FlatSolution` — an immutable snapshot of a surviving frontier state,
///    placement-allocated in a per-attempt `MonotonicArena` with every
///    variable-length list flattened into CSR arrays. Snapshots are written
///    once (for beam survivors only) and never mutated; the engine
///    double-buffers two arenas and resets the retired one each step, so
///    steady-state steps allocate nothing.
///  * `DeltaSolution` — a pooled, mutable candidate overlay: dense
///    fixed-size state (assignment vectors, per-PG-node usage/masks/counts)
///    is memcpy'd from the parent snapshot, while the heap-heavy lists stay
///    shared with the parent and only *additions* (new copies, newly
///    delivered values, completed critical-path terms) are recorded.
///
/// Both store node assignments by working-set position
/// (`PreparedProblem::wsIndex`), not by DDG node id: a sub-problem's WS is
/// a small slice of the DDG (about 13 of h264deblocking's 225 nodes at a
/// leaf), so rebasing, snapshotting and hashing a state cost O(|WS|).
/// Readers outside the search (the driver, flat ICA) read a snapshot by
/// working-set position.
///
/// Exactness (the contract the identity tests hold against the deep-copy
/// reference search in tests/support): both representations run the
/// assignment semantics of solution_ops.hpp and are scored by the one
/// objective template of cost.hpp, whose per-cluster loops run over
/// `prepared.clusters()` in a fixed order. The critical-path criterion —
/// the one term whose floating-point sum order depends on *which*
/// dependences cross clusters — is summed in (working-set position, operand
/// position) order: penalty terms are kept sorted by that key and the
/// parent/delta merge is summed in key order, the order of a full scan.
/// Integer aggregates (copy totals, usage, counts) are exact by
/// construction. When deltas flatten, list contents are parent-order
/// followed by append-order — the chronological order of the mutations.
namespace hca::see {

class DeltaSolution;

/// One search state as plain rows, turned into a snapshot by
/// `FlatSolution::fromRows`.
struct SnapshotRows {
  std::vector<ClusterId> nodeCluster;   ///< per working-set position
  std::vector<ClusterId> relayCluster;  ///< per relay value
  std::vector<machine::ResourceUsage> usage;      ///< per PG node
  std::vector<std::uint64_t> inNbrMask;           ///< per PG node
  std::vector<std::vector<ValueId>> inValues;     ///< distinct, per PG node
  std::vector<std::vector<ValueId>> outValues;    ///< distinct, per PG node
  std::vector<std::vector<ValueId>> flow;         ///< per PG arc
  int assigned = 0;
  double objective = 0.0;
};

/// Immutable snapshot of one frontier state: arena-backed during the
/// search, or held in a `FrontierSnapshot`'s own block once the search
/// returns it.
class FlatSolution {
 public:
  /// The search's initial state in `arena`: nothing assigned (so no
  /// critical-path terms), input nodes already sending their boundary
  /// values so wire pressure is measured from the start. Its objective is
  /// 0 until the engine scores it (setObjective).
  static FlatSolution* initial(const PreparedProblem& prepared,
                               MonotonicArena& arena);
  /// The state `rows` describe in `arena`, without critical-path terms or
  /// a working-set index table (read it by position). Every per-PG-node row
  /// must have one entry per PG node.
  static FlatSolution* fromRows(const SnapshotRows& rows,
                                MonotonicArena& arena);
  /// Flattens parent + delta into a new snapshot in `arena` (which must
  /// not be the arena holding the delta's parent mid-reset). Sorts the
  /// delta's critical-path additions in place; the objective has usually
  /// sorted them already.
  static const FlatSolution* fromDelta(DeltaSolution& delta,
                                       MonotonicArena& arena);
  /// Needs the working-set index table, which only search-time snapshots
  /// carry; a FrontierSnapshot's state is read by position (clusterAt).
  [[nodiscard]] ClusterId clusterOf(DdgNodeId node) const {
    const std::int32_t slot = wsIndexOf_[node.index()];
    return slot < 0 ? ClusterId::invalid() : nodeCluster_[slot];
  }
  /// Cluster of the node at working-set position `wsPos`.
  [[nodiscard]] ClusterId clusterAt(std::size_t wsPos) const {
    return nodeCluster_[wsPos];
  }
  [[nodiscard]] ClusterId relayCluster(std::size_t relayIndex) const {
    return relayCluster_[relayIndex];
  }
  [[nodiscard]] std::int32_t numRelays() const { return numRelays_; }
  [[nodiscard]] std::int32_t numPgNodes() const { return numPg_; }
  [[nodiscard]] const machine::ResourceUsage& usage(ClusterId c) const {
    return usage_[c.index()];
  }
  [[nodiscard]] int distinctValuesIn(ClusterId c) const {
    return inCount_[c.index()];
  }
  [[nodiscard]] int distinctValuesOut(ClusterId c) const {
    return outCount_[c.index()];
  }
  /// The distinct values entering (leaving) `c`, in list order.
  [[nodiscard]] std::span<const ValueId> valuesIn(ClusterId c) const {
    return {inVals_ + inOff_[c.index()], inVals_ + inOff_[c.index() + 1]};
  }
  [[nodiscard]] std::span<const ValueId> valuesOut(ClusterId c) const {
    return {outVals_ + outOff_[c.index()], outVals_ + outOff_[c.index() + 1]};
  }
  [[nodiscard]] std::uint64_t inNbrMask(ClusterId c) const {
    return inNbrMask_[c.index()];
  }
  [[nodiscard]] int realInNeighborCount(ClusterId c) const {
    return __builtin_popcountll(inNbrMask_[c.index()]);
  }
  /// True when `value` already flows into `dst` (the Sol interface of
  /// solution_ops.hpp: snapshots are the parent states the feasibility
  /// oracle reads through those templates).
  [[nodiscard]] bool valueDelivered(ClusterId dst, ValueId value) const;
  /// True when `value` already leaves `src` on some arc.
  [[nodiscard]] bool valueSent(ClusterId src, ValueId value) const;
  [[nodiscard]] bool flowContains(PgArcId arc, ValueId v) const;
  /// The copies per PG arc, in list order.
  [[nodiscard]] machine::CopyFlow copyFlow() const;
  [[nodiscard]] int totalCopies() const { return totalCopies_; }
  [[nodiscard]] int assignedCount() const { return assigned_; }
  [[nodiscard]] double objective() const { return objective_; }
  void setObjective(double value) { objective_ = value; }

 private:
  friend class DeltaSolution;
  friend class FrontierSnapshot;
  friend void buildParentScores(const PreparedProblem& prepared,
                                const FlatSolution& parent,
                                const ClusterTerms* terms,
                                ParentScores& scores);

  /// Array lengths of one snapshot.
  struct Shape {
    std::int32_t numWs = 0;
    std::int32_t numRelays = 0;
    std::int32_t numPg = 0;
    std::int32_t numArcs = 0;
    std::int32_t inTotal = 0;
    std::int32_t outTotal = 0;
    std::int32_t flowTotal = 0;
    std::int32_t critTotal = 0;
  };
  [[nodiscard]] Shape shape() const;

  /// An uninitialized snapshot of the given shape in `arena`.
  static FlatSolution* create(const Shape& shape, MonotonicArena& arena);
  /// Points every array at fresh uninitialized storage from `alloc`, in
  /// one fixed order (the arena's byte accounting depends on it).
  template <typename Alloc>
  void allocateArrays(const Shape& shape, Alloc& alloc);

  std::int32_t numWs_ = 0;
  std::int32_t numRelays_ = 0;
  std::int32_t numPg_ = 0;
  std::int32_t numArcs_ = 0;
  const std::int32_t* wsIndexOf_ = nullptr;  // PreparedProblem::wsIndexTable
  ClusterId* nodeCluster_ = nullptr;          // per working-set position
  ClusterId* relayCluster_ = nullptr;
  machine::ResourceUsage* usage_ = nullptr;
  std::uint64_t* inNbrMask_ = nullptr;
  std::int32_t* inCount_ = nullptr;   // == inOff_[p+1] - inOff_[p]
  std::int32_t* outCount_ = nullptr;
  std::int32_t* inOff_ = nullptr;     // CSR per PG node
  ValueId* inVals_ = nullptr;
  std::int32_t* outOff_ = nullptr;
  ValueId* outVals_ = nullptr;
  std::int32_t* flowOff_ = nullptr;   // CSR per PG arc
  ValueId* flowVals_ = nullptr;
  CritTerm* critTerms_ = nullptr;     // sorted by key
  std::int32_t numCritTerms_ = 0;
  int totalCopies_ = 0;
  int assigned_ = 0;
  double objective_ = 0.0;
};

/// Builds the scoring tables of `parent` (cost.hpp ParentScores) over
/// `terms`, its clusterTermsT per position of `prepared.clusters()`, which
/// must outlive every candidate scored against the tables.
void buildParentScores(const PreparedProblem& prepared,
                       const FlatSolution& parent, const ClusterTerms* terms,
                       ParentScores& scores);

/// A frontier state the search hands back (SeeResult::frontier): the
/// FlatSolution layout in one exact-size heap block the snapshot owns, so
/// it outlives the search arenas and the PreparedProblem. It keeps no
/// working-set index table — nodes are read by working-set position — and
/// no critical-path terms, which only a search parent needs.
class FrontierSnapshot {
 public:
  explicit FrontierSnapshot(const FlatSolution& state);
  FrontierSnapshot(const FrontierSnapshot& other)
      : FrontierSnapshot(other.state_) {}
  FrontierSnapshot& operator=(const FrontierSnapshot& other) {
    return *this = FrontierSnapshot(other);
  }
  FrontierSnapshot(FrontierSnapshot&&) noexcept = default;
  FrontierSnapshot& operator=(FrontierSnapshot&&) noexcept = default;

  [[nodiscard]] const FlatSolution& state() const { return state_; }
  /// Bytes this snapshot occupies: the object plus its block.
  [[nodiscard]] std::size_t bytes() const {
    return sizeof(*this) + blockBytes_;
  }

 private:
  /// Sizes and allocates the block for `shape` and points the state's
  /// arrays into it.
  void allocate(const FlatSolution::Shape& shape);

  FlatSolution state_;
  std::unique_ptr<std::byte[]> block_;
  std::size_t blockBytes_ = 0;
};

/// Pooled copy-on-write candidate: dense overlay + edit lists against an
/// immutable parent snapshot. Implements the Sol interface of
/// solution_ops.hpp and the score interface of the cost.hpp templates.
class DeltaSolution {
 public:
  /// Sizes the dense arrays for the problem; called once per pooled
  /// instance per SEE call (the retry-ladder rungs share the pool).
  void init(const PreparedProblem& prepared);
  /// Rebases onto `parent`: memcpys the dense state, clears the edit
  /// lists. O(|WS| + PG nodes), zero allocations in steady state.
  /// `parentScores` (may be null) are the parent's scoring tables
  /// (buildParentScores); they must outlive the scoring of this delta,
  /// which then starts each score from the parent's running sums.
  void reset(const FlatSolution* parent,
             const ParentScores* parentScores = nullptr);

  // --- reads -----------------------------------------------------------
  [[nodiscard]] ClusterId clusterOf(DdgNodeId node) const {
    const std::int32_t slot = wsIndexOf_[node.index()];
    return slot < 0 ? ClusterId::invalid()
                    : nodeCluster_[static_cast<std::size_t>(slot)];
  }
  [[nodiscard]] const machine::ResourceUsage& usage(ClusterId c) const {
    return usage_[c.index()];
  }
  [[nodiscard]] std::uint64_t inNbrMask(ClusterId c) const {
    return inNbrMask_[c.index()];
  }
  [[nodiscard]] int distinctValuesIn(ClusterId c) const {
    return inCount_[c.index()];
  }
  [[nodiscard]] int distinctValuesOut(ClusterId c) const {
    return outCount_[c.index()];
  }
  [[nodiscard]] int realInNeighborCount(ClusterId c) const {
    return __builtin_popcountll(inNbrMask_[c.index()]);
  }
  [[nodiscard]] bool valueDelivered(ClusterId dst, ValueId value) const;
  [[nodiscard]] bool flowContains(PgArcId arc, ValueId value) const;
  /// The parent's scoring tables (null when the rebase supplied none), and
  /// the PG nodes whose usage, value counts or in-neighbor mask this delta
  /// changed: the clusters whose terms must be recomputed (cost.hpp).
  [[nodiscard]] const ParentScores* parentScores() const {
    return parentScores_;
  }
  [[nodiscard]] std::uint64_t touchedNodes() const { return touched_; }
  [[nodiscard]] int totalCopies() const { return totalCopies_; }
  [[nodiscard]] int assignedCount() const { return assigned_; }
  [[nodiscard]] double objective() const { return objective_; }
  void setObjective(double value) { objective_ = value; }
  /// FNV-1a hash of the working-set-indexed assignment and the relay
  /// placements (frontier deduplication): equal states hash equal within
  /// one search, which is all the node filter needs.
  [[nodiscard]] std::uint64_t signature() const;

  // --- writes (Sol interface) ------------------------------------------
  /// `node` must be in the working set (assignT only places WS nodes).
  void setNodeCluster(DdgNodeId node, ClusterId cluster) {
    nodeCluster_[static_cast<std::size_t>(wsIndexOf_[node.index()])] =
        cluster;
  }
  void setRelayCluster(std::size_t relayIndex, ClusterId cluster) {
    relayCluster_[relayIndex] = cluster;
  }
  void addOp(ClusterId cluster, ddg::Op op) {
    usage_[cluster.index()].addOp(op);
    touched_ |= detail::pgBit(cluster);
  }
  bool addFlowCopy(PgArcId arc, ClusterId src, ClusterId dst, ValueId value);
  void noteAssigned() { ++assigned_; }
  void addCritTerm(std::uint64_t key, std::int64_t num) {
    critAdds_.push_back(CritTerm{key, num});
  }

  /// Critical-path penalty: the parent's sorted terms merged with this
  /// delta's additions, summed in ascending key order (the full-scan
  /// order). Sorts the additions in place first. With the parent's scoring
  /// tables the sum starts from the parent's running penalty before the
  /// first addition's key.
  [[nodiscard]] double criticalPathScore(const PreparedProblem& prepared);

 private:
  friend class FlatSolution;

  /// True when `value` already leaves `src` on some arc.
  [[nodiscard]] bool valueSentFrom(ClusterId src, ValueId value) const;

  const FlatSolution* parent_ = nullptr;
  const ParentScores* parentScores_ = nullptr;
  std::uint64_t touched_ = 0;  // see touchedNodes()
  const std::int32_t* wsIndexOf_ = nullptr;  // PreparedProblem::wsIndexTable
  // Dense overlay, memcpy'd from the parent on reset.
  std::vector<ClusterId> nodeCluster_;  // per working-set position
  std::vector<ClusterId> relayCluster_;
  std::vector<machine::ResourceUsage> usage_;
  std::vector<std::uint64_t> inNbrMask_;
  std::vector<std::int32_t> inCount_;
  std::vector<std::int32_t> outCount_;
  // Edit lists: additions relative to the parent, in application order.
  std::vector<std::pair<ClusterId, ValueId>> inAdds_;   // (dst, value)
  std::vector<std::pair<ClusterId, ValueId>> outAdds_;  // (src, value)
  std::vector<std::pair<PgArcId, ValueId>> flowAdds_;
  std::vector<CritTerm> critAdds_;
  // Materialization scratch: the rows an edit list touches.
  std::vector<std::int32_t> touchedRows_;
  int totalCopies_ = 0;
  int assigned_ = 0;
  double objective_ = 0.0;
};

}  // namespace hca::see
