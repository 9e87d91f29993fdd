#pragma once

#include <iosfwd>
#include <optional>
#include <string>
#include <vector>

#include "machine/resources.hpp"
#include "support/check.hpp"
#include "support/ids.hpp"

/// Pattern Graph (paper Section 3): the abstract, per-level view of the
/// machine topology the Space Exploration Engine works on.
///
/// Nodes are clusters described by a ResourceTable, plus the *special* input
/// and output nodes added by the hierarchical decomposition (Section 4.1):
/// an input node per wire entering the sub-problem from the parent level, an
/// output node per wire leaving towards it. Arcs are *potential*
/// communication patterns; an arc becomes *real* when the assignment routes
/// at least one inter-cluster copy over it (copy flows are kept separately
/// in `CopyFlow` so search states can share one immutable PatternGraph).
namespace hca::machine {

enum class PgNodeKind { kCluster, kInput, kOutput };

struct PgNode {
  PgNodeKind kind = PgNodeKind::kCluster;
  ResourceTable resources;
  std::string name;
  /// For input nodes: the values the parent level pumps in on this wire.
  /// For output nodes: the values that must leave on this wire.
  std::vector<ValueId> boundaryValues;
  /// Fault model: a dead cluster keeps its PG slot (so child indices stay
  /// meaningful across the hierarchy) but must never receive an assignment,
  /// a copy, or a relay hop.
  bool dead = false;
  /// Surviving-wire overrides for faulty fabrics; -1 = use the level-wide
  /// PgConstraints caps.
  int inWireCap = -1;
  int outWireCap = -1;
};

struct PgArc {
  ClusterId src;
  ClusterId dst;
};

/// Reconfiguration constraints of Section 4.1 that vary with the level.
/// The others are fixed by the architecture and enforced by the SEE and
/// the mapper without a setting: out-neighbors are unbounded (a value can
/// be broadcast), and at most one real arc may enter each output node (the
/// paper's outNode_MaxIn, unary fan-in of the outgoing MUX wire).
struct PgConstraints {
  /// Maximum number of distinct *in*-neighbors per cluster node (the MUX
  /// capacity at this level); -1 = unlimited.
  int maxInNeighbors = -1;
};

class PatternGraph {
 public:
  ClusterId addCluster(ResourceTable resources, std::string name = {});
  ClusterId addInputNode(std::vector<ValueId> values, std::string name = {});
  ClusterId addOutputNode(std::string name = {},
                          std::vector<ValueId> values = {});

  /// Adds a potential communication pattern src -> dst. Duplicate arcs are
  /// rejected.
  PgArcId addArc(ClusterId src, ClusterId dst);

  /// Adds arcs so every pair of *cluster* nodes is bidirectionally
  /// connected (the complete-graph abstraction of a MUX switch, Fig. 7).
  void connectClustersCompletely();
  /// Connects every input node to every cluster (ingoing values can be
  /// broadcast anywhere) and every cluster to every output node.
  void connectBoundaryNodes();

  /// Fault-model mutators (see PgNode). Arcs touching a dead node are kept
  /// so arc ids stay aligned with the fault-free graph; the search layers
  /// refuse to use them.
  void markDead(ClusterId id);
  void setWireCaps(ClusterId id, int inCap, int outCap);

  [[nodiscard]] std::int32_t numNodes() const {
    return static_cast<std::int32_t>(nodes_.size());
  }
  [[nodiscard]] std::int32_t numArcs() const {
    return static_cast<std::int32_t>(arcs_.size());
  }
  // The five topology accessors below are defined inline; arcBetween
  // answers from a dense adjacency index instead of scanning the out-arc
  // list. The SEE search does not call them per candidate: it reads the
  // dense view its PreparedProblem builds from them (see/prepared.hpp).
  [[nodiscard]] const PgNode& node(ClusterId id) const {
    HCA_REQUIRE(id.valid() && id.value() < numNodes(),
                "PG node id out of range: " << id.value());
    return nodes_[id.index()];
  }
  [[nodiscard]] const PgArc& arc(PgArcId id) const {
    HCA_REQUIRE(id.valid() && id.value() < numArcs(),
                "PG arc id out of range: " << id.value());
    return arcs_[id.index()];
  }
  [[nodiscard]] const std::vector<PgArcId>& outArcs(ClusterId id) const {
    HCA_REQUIRE(id.valid() && id.value() < numNodes(),
                "PG node out of range");
    return out_[id.index()];
  }
  [[nodiscard]] const std::vector<PgArcId>& inArcs(ClusterId id) const {
    HCA_REQUIRE(id.valid() && id.value() < numNodes(),
                "PG node out of range");
    return in_[id.index()];
  }
  [[nodiscard]] std::optional<PgArcId> arcBetween(ClusterId src,
                                                  ClusterId dst) const {
    ensureArcIndex();
    const PgArcId a =
        arcIndex_[src.index() * static_cast<std::size_t>(numNodes()) +
                  dst.index()];
    if (!a.valid()) return std::nullopt;
    return a;
  }

  [[nodiscard]] std::vector<ClusterId> clusterNodes() const;
  [[nodiscard]] std::vector<ClusterId> inputNodes() const;
  [[nodiscard]] std::vector<ClusterId> outputNodes() const;

  void toDot(std::ostream& os, const std::string& title = "pg") const;

 private:
  ClusterId addNode(PgNode node);
  /// (Re)builds the dense index when the node count changed since the last
  /// build. Arc insertion keeps it current, so after construction this is
  /// a size check.
  void ensureArcIndex() const;

  std::vector<PgNode> nodes_;
  std::vector<PgArc> arcs_;
  std::vector<std::vector<PgArcId>> out_;
  std::vector<std::vector<PgArcId>> in_;
  /// Dense numNodes x numNodes arc index (invalid = no arc), row-major by
  /// source; lazily re-laid after node insertion, point-updated on arc
  /// insertion (mutable: a cache of nodes_/arcs_, fully built by the first
  /// addArc, so post-construction readers never trigger a rebuild).
  mutable std::vector<PgArcId> arcIndex_;
};

/// The copy traffic of an assignment over a PatternGraph: for every arc, the
/// list of values (identified by their producing DDG node) flowing on it.
/// An arc with a non-empty list is a *real* communication pattern.
class CopyFlow {
 public:
  CopyFlow() = default;
  explicit CopyFlow(const PatternGraph& pg)
      : values_(static_cast<std::size_t>(pg.numArcs())) {}

  /// Registers that `value` flows src->dst on `arc`. Idempotent per
  /// (arc, value); returns true when the copy is new.
  bool addCopy(PgArcId arc, ValueId value);

  [[nodiscard]] const std::vector<ValueId>& copiesOn(PgArcId arc) const;
  [[nodiscard]] bool isReal(PgArcId arc) const {
    return !copiesOn(arc).empty();
  }
  [[nodiscard]] int totalCopies() const;

  /// Number of per-arc value lists (== numArcs of the PG this flow was
  /// built for).
  [[nodiscard]] std::size_t numArcLists() const { return values_.size(); }
  /// Reshapes to `n` empty per-arc lists; a flow rebuilt from a snapshot
  /// (see/snapshot.hpp) re-adds its copies with `addCopy`, so the
  /// idempotence invariant is re-established.
  void resetArcs(std::size_t n) { values_.assign(n, {}); }

  /// Distinct real in-neighbors of `node` (excluding itself).
  [[nodiscard]] std::vector<ClusterId> realInNeighbors(
      const PatternGraph& pg, ClusterId node) const;

 private:
  std::vector<std::vector<ValueId>> values_;
};

}  // namespace hca::machine
