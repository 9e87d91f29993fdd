#pragma once

#include <cstdint>
#include <memory>
#include <span>
#include <vector>

#include "see/problem.hpp"

/// Immutable, preprocessed view of a SeeProblem shared by every search
/// state: working-set membership, operand/consumer adjacency restricted to
/// the WS, the priority list, per-node scheduling heights, and a dense view
/// of the pattern graph (node flags, in-neighbor caps, arc ids, out-heads)
/// that the assignment semantics read instead of the PatternGraph. Built
/// once per SpaceExplorationEngine::run and shared by every retry-ladder
/// rung.
namespace hca::see {

namespace detail {
constexpr std::uint64_t pgBit(ClusterId c) { return 1ULL << c.index(); }
}  // namespace detail

/// One entry of the priority list: either a WS node or a relay value.
struct Item {
  enum class Kind { kNode, kRelay };
  Kind kind = Kind::kNode;
  DdgNodeId node;   // kNode
  ValueId value;    // kRelay
};

/// A co-location group: items that must land on the same cluster because
/// their values leave on a single output wire (outNode_MaxIn, Fig. 10).
/// Groups are assigned first — they are the most constrained decisions.
/// Singleton groups are ordinary priority-list entries.
struct ItemGroup {
  std::vector<Item> members;
};

/// One cross-cluster critical-path penalty term, keyed so that summing all
/// terms in ascending key order reproduces the exact floating-point
/// accumulation order of a full scan over the working set (working-set
/// position, then operand position). `num / maxWsHeight` is
/// the term value.
struct CritTerm {
  std::uint64_t key = 0;   // wsIndex(consumer) << 32 | operandIndex
  std::int64_t num = 0;    // height(consumer) + 1
};

/// A potentially-critical operand of a WS node `n`: the j-th operand is an
/// intra-iteration dependence on another WS node. Once both endpoints are
/// assigned to *different* clusters the term (key(n, j), height(n)+1)
/// becomes part of the critical-path penalty — and never leaves, because
/// assignments are immutable.
struct CritOperand {
  std::int32_t operandIndex = 0;
  DdgNodeId src;
};

/// The reverse adjacency: `consumer`'s j-th operand depends on this node.
struct CritUse {
  DdgNodeId consumer;
  std::int32_t operandIndex = 0;
};

class FeasibilityOracle;

class PreparedProblem {
 public:
  PreparedProblem(const SeeProblem& problem, const SeeOptions& options);
  ~PreparedProblem();
  // The oracle keeps a back-reference; prepared problems live in place.
  PreparedProblem(PreparedProblem&&) = delete;
  PreparedProblem& operator=(PreparedProblem&&) = delete;

  [[nodiscard]] const SeeProblem& problem() const { return *problem_; }
  /// The options the problem was prepared under. Only the fields that shape
  /// the prepared problem or its scoring (chain grouping, weights) are read
  /// from here: the search knobs the two
  /// retry-ladder rungs vary — beam width, candidate keep and maxRouteHops
  /// (`deeper`), eager routing (both) — reach the search as explicit
  /// arguments instead.
  [[nodiscard]] const SeeOptions& options() const { return options_; }
  /// Static feasibility/reachability tables (see/feasibility.hpp), built
  /// once per prepared problem.
  [[nodiscard]] const FeasibilityOracle& oracle() const { return *oracle_; }

  [[nodiscard]] const std::vector<ItemGroup>& items() const { return items_; }
  [[nodiscard]] const std::vector<ClusterId>& clusters() const {
    return clusters_;
  }
  [[nodiscard]] bool inWorkingSet(DdgNodeId node) const {
    return node.valid() && node.index() < inWs_.size() &&
           inWs_[node.index()] != 0;
  }
  /// Distinct non-const operand values of a WS node (self-references from
  /// carried recurrences excluded).
  [[nodiscard]] const std::vector<ValueId>& operandValues(
      DdgNodeId node) const {
    return operandValues_[node.index()];
  }
  /// Consumers of a node's value inside the WS (distinct).
  [[nodiscard]] const std::vector<DdgNodeId>& wsConsumers(
      DdgNodeId node) const {
    return wsConsumers_[node.index()];
  }
  /// Output node a value must reach, or invalid if none.
  [[nodiscard]] ClusterId outputNodeOf(ValueId value) const {
    return value.index() < valueOutput_.size() ? valueOutput_[value.index()]
                                               : ClusterId::invalid();
  }
  /// Input node (or assigned producer lookup key) for out-of-WS sources;
  /// invalid if the value has no registered source.
  [[nodiscard]] ClusterId valueSource(ValueId value) const {
    return value.index() < valueSource_.size() ? valueSource_[value.index()]
                                               : ClusterId::invalid();
  }

  // --- Dense pattern-graph view ------------------------------------------
  // Every PG read of the assignment semantics, tabulated once: node ids
  // are validated here, so the search's per-candidate reads are plain
  // array and mask lookups. Masks are indexed by PG node (at most 64).

  [[nodiscard]] std::int32_t numPg() const { return numPg_; }
  /// kCluster nodes, dead ones included.
  [[nodiscard]] std::uint64_t clusterMask() const { return clusterMask_; }
  /// Alive kCluster nodes: the only relays a route may pass through.
  [[nodiscard]] std::uint64_t aliveClusterMask() const {
    return clusterMask_ & ~deadMask_;
  }
  [[nodiscard]] bool isCluster(ClusterId c) const {
    return (clusterMask_ & detail::pgBit(c)) != 0;
  }
  /// Position of cluster node `c` in clusters(), which ascends by PG id.
  [[nodiscard]] std::size_t clusterPosition(ClusterId c) const {
    return static_cast<std::size_t>(
        __builtin_popcountll(clusterMask_ & (detail::pgBit(c) - 1)));
  }
  /// Dead nodes of every kind.
  [[nodiscard]] std::uint64_t deadMask() const { return deadMask_; }
  [[nodiscard]] bool isDead(ClusterId c) const {
    return (deadMask_ & detail::pgBit(c)) != 0;
  }
  [[nodiscard]] bool isOutput(ClusterId c) const {
    return (outputMask_ & detail::pgBit(c)) != 0;
  }
  /// Alive with at least one surviving output wire: may originate a copy.
  [[nodiscard]] bool canSend(ClusterId c) const {
    return (sendMask_ & detail::pgBit(c)) != 0;
  }
  /// Every node that canSend, as a mask.
  [[nodiscard]] std::uint64_t sendMask() const { return sendMask_; }
  /// In-neighbor budget of a node: the level's MUX capacity tightened by
  /// the node's surviving-wire override. -1 = unlimited.
  [[nodiscard]] int inCap(ClusterId c) const { return inCap_[c.index()]; }
  [[nodiscard]] const machine::ResourceTable& resources(ClusterId c) const {
    return resources_[c.index()];
  }
  /// The arc src -> dst, invalid when there is none.
  [[nodiscard]] PgArcId arcId(ClusterId src, ClusterId dst) const {
    return arcId_[src.index() * static_cast<std::size_t>(numPg_) +
                  dst.index()];
  }
  /// Heads of `c`'s out-arcs, in arc order (PatternGraph::outArcs order).
  [[nodiscard]] std::span<const ClusterId> outHeads(ClusterId c) const {
    return {outHeads_.data() + outHeadOff_[c.index()],
            outHeads_.data() + outHeadOff_[c.index() + 1]};
  }
  /// The same heads as a mask.
  [[nodiscard]] std::uint64_t outHeadMask(ClusterId c) const {
    return outHeadMask_[c.index()];
  }
  /// Per PG node w, the position of w in `outHeads(c)` (meaningful for the
  /// heads only): a walk over a subset of c's heads in arc order maps the
  /// subset's node bits to position bits and reads positions ascending.
  [[nodiscard]] const std::uint8_t* headRanks(ClusterId c) const {
    return headRank_.data() + c.index() * static_cast<std::size_t>(numPg_);
  }

  [[nodiscard]] std::int64_t height(DdgNodeId node) const {
    return (*heights_)[node.index()];
  }

  /// Position of a WS node in `problem().workingSet` (-1 outside the WS):
  /// the major component of critical-path term keys, and the slot of the
  /// node in the working-set-indexed search states (snapshot.hpp).
  [[nodiscard]] std::int32_t wsIndex(DdgNodeId node) const {
    return wsIndexOf_[node.index()];
  }
  /// The whole DDG-indexed wsIndex table, for search states that resolve
  /// node slots without holding the prepared problem.
  [[nodiscard]] const std::int32_t* wsIndexTable() const {
    return wsIndexOf_.data();
  }
  /// Tallest WS height, min 1 — the critical-path normalizer.
  [[nodiscard]] std::int64_t maxWsHeight() const { return maxWsHeight_; }
  /// Intra-iteration WS operands of `node` (see CritOperand).
  [[nodiscard]] const std::vector<CritOperand>& critOperands(
      DdgNodeId node) const {
    return critOperands_[node.index()];
  }
  /// WS consumers whose listed operand depends on `node` (see CritUse).
  [[nodiscard]] const std::vector<CritUse>& critUses(DdgNodeId node) const {
    return critUses_[node.index()];
  }
  [[nodiscard]] static std::uint64_t critKey(std::int32_t wsIndex,
                                             std::int32_t operandIndex) {
    return (static_cast<std::uint64_t>(static_cast<std::uint32_t>(wsIndex))
            << 32) |
           static_cast<std::uint32_t>(operandIndex);
  }

 private:
  const SeeProblem* problem_;
  SeeOptions options_;
  std::vector<ItemGroup> items_;
  std::vector<ClusterId> clusters_;
  std::vector<char> inWs_;
  std::vector<std::vector<ValueId>> operandValues_;
  std::vector<std::vector<DdgNodeId>> wsConsumers_;
  /// Per DDG value: its output node / registered source (invalid = none).
  std::vector<ClusterId> valueOutput_;
  std::vector<ClusterId> valueSource_;
  std::int32_t numPg_ = 0;
  std::uint64_t clusterMask_ = 0;
  std::uint64_t deadMask_ = 0;
  std::uint64_t outputMask_ = 0;
  std::uint64_t sendMask_ = 0;
  std::vector<int> inCap_;
  std::vector<machine::ResourceTable> resources_;
  std::vector<PgArcId> arcId_;  // numPg x numPg, row-major by source
  std::vector<std::int32_t> outHeadOff_;  // CSR per PG node
  std::vector<ClusterId> outHeads_;
  std::vector<std::uint64_t> outHeadMask_;
  std::vector<std::uint8_t> headRank_;  // numPg x numPg, row-major by tail
  /// problem().heights when supplied, else &ownHeights_.
  const std::vector<std::int64_t>* heights_ = nullptr;
  std::vector<std::int64_t> ownHeights_;
  std::vector<std::int32_t> wsIndexOf_;
  std::int64_t maxWsHeight_ = 1;
  std::vector<std::vector<CritOperand>> critOperands_;
  std::vector<std::vector<CritUse>> critUses_;
  std::unique_ptr<FeasibilityOracle> oracle_;
};

}  // namespace hca::see
