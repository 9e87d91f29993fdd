#pragma once

#include <cstdint>
#include <map>
#include <string>
#include <vector>

#include "ddg/opcode.hpp"
#include "machine/fault.hpp"
#include "machine/pattern_graph.hpp"
#include "machine/resources.hpp"
#include "support/ids.hpp"

/// The DSPFabric machine model (paper Section 2.2, Figure 2).
///
/// The co-processor is a tree of interconnect levels. In the paper's
/// 64-cluster instance: level 0 is an array of four cluster *sets*
/// communicating through MUXes of capacity N (each set: N input wires, each
/// selecting one source; N output wires, broadcastable); level 1 replicates
/// the structure inside each set with four sub-clusters and MUX capacity M;
/// the last level holds four computation nodes behind a reconfigurable
/// crossbar fed by the internal CN outputs plus K of the wires incoming from
/// level 1. Each CN is a single-issue machine (1 ALU + 1 AG) with two
/// incoming wires and one outgoing wire. Memory traffic goes to a
/// programmable DMA able to serve `dmaSlots` simultaneous requests without
/// consuming inter-cluster communication patterns.
namespace hca::machine {

/// Per-level interconnect figures, derived from the config.
struct LevelSpec {
  int children = 0;   // PG nodes of a sub-problem at this level
  int inWires = 0;    // input wires per child (MUX capacity)
  int outWires = 0;   // output wires per child
  /// Cap on wires entering a *child* sub-problem from this level (the K
  /// crossbar inputs at the leaves; the child's own inWires elsewhere).
  int maxWiresIntoChild = 0;
};

struct DspFabricConfig {
  /// Fan-out of each hierarchy level (outermost first). {4,4,4} is the
  /// paper's 64-cluster instance.
  std::vector<int> branching = {4, 4, 4};
  int n = 8;  ///< level-0 MUX capacity (input/output wires per cluster set)
  int m = 8;  ///< level-1 MUX capacity
  int k = 8;  ///< level-1 wires accepted by each leaf crossbar
  int cnInWires = 2;   ///< incoming wires per computation node
  int cnOutWires = 1;  ///< outgoing wires per computation node
  int dmaSlots = 8;    ///< simultaneous DMA requests
  ddg::LatencyModel latency;

  [[nodiscard]] std::string toString() const;
};

/// Fault-aware interconnect figures of one concrete sub-problem (identified
/// by its path in the problem tree, unlike the per-level `LevelSpec`).
struct ProblemSpec {
  int level = 0;
  LevelSpec base;  ///< fault-free figures of this level
  /// Surviving wires per child (base minus dead wires, floored at 0).
  std::vector<int> inWiresOfChild;
  std::vector<int> outWiresOfChild;
  /// Surviving ILI budget into each child sub-problem (crossbar lanes for
  /// leaf children). All zeros at the leaf level (nothing below a CN).
  std::vector<int> maxWiresIntoChildOf;
  /// True when no computation node survives below the child.
  std::vector<bool> childDead;
  /// True when any figure deviates from the fault-free fabric (used to keep
  /// the zero-fault path byte-identical to the unfaulted model).
  bool touched = false;
};

class DspFabricModel {
 public:
  explicit DspFabricModel(DspFabricConfig config, FaultSet faults = {});

  [[nodiscard]] const DspFabricConfig& config() const { return config_; }
  [[nodiscard]] const FaultSet& faults() const { return faults_; }
  [[nodiscard]] bool hasFaults() const { return !faults_.empty(); }

  /// Number of interconnect levels (= depth of the problem tree).
  [[nodiscard]] int numLevels() const {
    return static_cast<int>(config_.branching.size());
  }
  [[nodiscard]] int totalCns() const { return totalCns_; }

  /// Interconnect figures of the problems at `level` (0 = root).
  [[nodiscard]] LevelSpec levelSpec(int level) const;

  /// Human-readable name of `level` for traces / reports / metric tables:
  /// "cluster-sets" at the root, "leaf-crossbars" at the last level,
  /// "sub-clusters[.d]" in between (d = depth for fabrics deeper than 3).
  [[nodiscard]] std::string levelName(int level) const;

  /// Aggregate resources of one PG node at `level` (all the CNs below it).
  [[nodiscard]] ResourceTable clusterResources(int level) const;

  /// SEE constraints at `level`: maxInNeighbors = MUX capacity
  /// (Section 4.1).
  [[nodiscard]] PgConstraints constraints(int level) const;

  /// Pattern graph of a sub-problem at `level`: `branching[level]` fully
  /// connected cluster nodes with the aggregated resource tables. Boundary
  /// (input/output) nodes are added by the HCA decomposition, not here.
  [[nodiscard]] PatternGraph patternGraph(int level) const;

  /// --- Fault-aware views --------------------------------------------------
  /// Liveness of one CN / count of surviving CNs / survivors below the
  /// problem-tree node at `path` (empty path = whole fabric, length
  /// numLevels() = a single CN).
  [[nodiscard]] bool cnAlive(CnId cn) const;
  [[nodiscard]] int aliveCns() const { return aliveCns_; }
  [[nodiscard]] int aliveCnsBelow(const std::vector<int>& path) const;

  /// Fault-aware interconnect figures of the sub-problem at `path`
  /// (path.size() = its level; must be < numLevels()).
  [[nodiscard]] ProblemSpec problemSpec(const std::vector<int>& path) const;

  /// Fault-aware variant of patternGraph() for the concrete sub-problem at
  /// `path`: dead children are kept as zero-resource nodes flagged `dead`,
  /// children with dead MUX wires carry reduced per-node wire caps. With no
  /// faults affecting the problem this returns exactly patternGraph().
  [[nodiscard]] PatternGraph patternGraphAt(const std::vector<int>& path) const;

  /// Validates that the surviving fabric is still connected: at least one
  /// CN is alive and every alive child of every sub-problem keeps >= 1
  /// input wire, >= 1 output wire, and (for leaf children) >= 1 crossbar
  /// lane. Returns an empty string when viable, else a description of the
  /// first disconnection found.
  [[nodiscard]] std::string faultViabilityError() const;

  /// --- CN addressing ------------------------------------------------------
  /// A CN is identified by its path (one child index per level) or by a
  /// linear id in row-major order.
  [[nodiscard]] CnId cnIdOf(const std::vector<int>& path) const;
  [[nodiscard]] std::vector<int> pathOfCn(CnId cn) const;
  /// Deepest level at which the two CNs still share a container: 0 if they
  /// are in different level-0 sets, numLevels()-1 if they share a leaf
  /// crossbar; numLevels() if identical.
  [[nodiscard]] int commonLevel(CnId a, CnId b) const;

  /// Latency of a copy between two CNs: one wire hop per level crossed,
  /// in each direction, times the per-hop copy latency. Same-CN = 0.
  [[nodiscard]] int copyLatency(CnId a, CnId b) const;

 private:
  struct WireFaultCount {
    int in = 0;
    int out = 0;
  };

  [[nodiscard]] std::string viabilityWalk(std::vector<int>& path) const;

  DspFabricConfig config_;
  FaultSet faults_;
  int totalCns_ = 1;
  int aliveCns_ = 1;
  /// alivePrefix_[i] = number of alive CNs with id < i (size totalCns_+1).
  std::vector<int> alivePrefix_;
  /// Dead-wire counts per sub-problem path, one entry per child.
  std::map<std::vector<int>, std::vector<WireFaultCount>> wireFaults_;
  /// Dead crossbar lanes per leaf-problem path.
  std::map<std::vector<int>, int> laneFaults_;
};

}  // namespace hca::machine
