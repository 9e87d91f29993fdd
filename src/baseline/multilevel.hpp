#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "baseline/hierarchy_check.hpp"
#include "ddg/ddg.hpp"
#include "machine/dspfabric.hpp"

/// Multilevel-partitioning baseline in the style of Chu, Fan and Mahlke
/// ("Region-based hierarchical operation partitioning", PLDI'03, paper
/// reference [4]): the DDG is recursively split into balanced parts with a
/// BFS-grown min-cut seed and Fiduccia–Mattheyses-style refinement, and the
/// parts are mapped onto the machine tree. The paper contrasts HCA with
/// this approach because it is *machine-hierarchy-agnostic*: the
/// partitioner never consults the MUX capacities, so its assignments may be
/// unrealizable — which the post-hoc hierarchy check exposes.
namespace hca::baseline {

struct MultilevelOptions {
  int refinementPasses = 4;
  /// A part may exceed the perfectly balanced size by this fraction.
  double balanceTolerance = 0.30;
  std::uint64_t seed = 1;
};

struct MultilevelResult {
  bool hierarchyLegal = false;
  std::string failureReason;
  std::vector<CnId> assignment;  // per DDG node
  HierarchyCheckResult hierarchy;
  /// Dependence edges cut across CNs (the partitioner's own objective).
  int cutEdges = 0;
  /// FM moves applied across all levels.
  int refinementMoves = 0;
  /// Max instructions per CN (the partitioner's load metric).
  int maxCnLoad = 0;
};

MultilevelResult runMultilevel(const ddg::Ddg& ddg,
                               const machine::DspFabricModel& model,
                               const MultilevelOptions& options = {});

}  // namespace hca::baseline
