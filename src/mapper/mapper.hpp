#pragma once

#include <string>
#include <vector>

#include "machine/pattern_graph.hpp"
#include "machine/reconfig.hpp"
#include "support/ids.hpp"

/// The Mapper (paper Section 3, Figures 9 and 11).
///
/// Takes the assigned Pattern Graph of one hierarchy level (the copy flow on
/// its arcs) and distributes the copies over the physical wires of the MUX
/// interconnect:
///  * a value broadcast to several destinations uses a single output wire of
///    its producer (Fig. 9b);
///  * the remaining copies are spread over the available wires to minimize
///    the per-wire serialization pressure;
///  * every value bound to a boundary output node rides the one wire that
///    drives that outgoing MUX line (unary fan-in);
///  * wires carrying boundary values are pre-allocated by the parent level
///    and cannot be re-purposed (Fig. 11).
///
/// The result is one Inter-Level Interface per child — the input/output
/// wires (with their value lists) of the child's own sub-problem — plus the
/// MUX settings of this level and the wire-pressure statistics.
namespace hca::machine {
class DspFabricModel;
}  // namespace hca::machine

namespace hca::mapper {

struct WireValues {
  int wire = 0;  // wire index local to its owner (child or boundary)
  std::vector<ValueId> values;
};

/// Inter-Level Interface of one child (Fig. 9c).
struct Ili {
  int child = 0;
  /// Wires entering the child, each carrying the listed values.
  std::vector<WireValues> inputs;
  /// The child's used output wires with the values that must leave on them.
  std::vector<WireValues> outputs;
};

struct MapperInput {
  const machine::PatternGraph* pg = nullptr;
  const machine::CopyFlow* flow = nullptr;
  /// Interconnect figures at this level (machine::LevelSpec).
  int inWiresPerChild = 1;
  int outWiresPerChild = 1;
  /// Additional cap on wires entering one child's sub-problem (the K
  /// crossbar inputs at the leaves); <= 0 means "no extra cap".
  int maxWiresIntoChild = 0;
  /// Per-child overrides of the uniform figures above, used when the fabric
  /// carries faults (dead MUX wires / dead ILI lanes shrink individual
  /// children's budgets). Empty = every child uses the uniform figures;
  /// otherwise one entry per cluster node, 0 entries are legal (a fully
  /// dead child has no surviving wires — and must carry no traffic).
  std::vector<int> inWiresOfChild;
  std::vector<int> outWiresOfChild;
  std::vector<int> maxWiresIntoChildOf;
  /// Identifies this problem in emitted MUX settings.
  std::vector<int> problemPath;
};

/// The Mapper's input for the sub-problem at `path` of `model` with copy
/// flow `flow` on `pg`: the level's uniform wire figures (the cap on wires
/// into a child's sub-problem applies above the leaf level only), plus the
/// per-child surviving-wire budgets when the model's faults touch this
/// sub-problem. The driver and the
/// post-hoc hierarchy check both map through it; the verifier re-derives
/// the budgets on its own.
[[nodiscard]] MapperInput faultAwareMapperInput(
    const machine::DspFabricModel& model, const std::vector<int>& path,
    const machine::PatternGraph& pg, const machine::CopyFlow& flow);

struct MapResult {
  bool legal = false;
  std::string failureReason;
  std::vector<Ili> ilis;  // one per child, in cluster order
  machine::ReconfigurationProgram reconfig;
  /// Serialization pressure: the largest number of values time-sharing one
  /// wire (a lower bound on the II contribution of this level's wiring).
  int maxValuesPerWire = 0;
  int wiresUsed = 0;
  /// Output-wire slots the children could have driven (surviving budgets
  /// summed); `wiresUsed / wiresAvailable` is the level's wire-budget
  /// utilization reported by the observability layer.
  int wiresAvailable = 0;
};

/// In emitted MuxSettings, connections feeding boundary *output* wires use
/// dstChild = numChildren + outputNodeIndex (dstWire 0).
class Mapper {
 public:
  [[nodiscard]] MapResult map(const MapperInput& input) const;
};

}  // namespace hca::mapper
