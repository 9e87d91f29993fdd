#pragma once

#include <string>
#include <vector>

#include "baseline/hierarchy_check.hpp"
#include "ddg/ddg.hpp"
#include "machine/dspfabric.hpp"
#include "see/problem.hpp"

/// Flat (non-hierarchical) Instruction Cluster Assignment baseline.
///
/// This is what HCA replaces (paper Section 4, first paragraphs): treat the
/// whole machine as one complete graph of computation nodes — the "K64"
/// abstraction — and run the single-level engine on it. The abstraction
/// cannot track the internal logic of the MUX hierarchy, so the resulting
/// assignment is only *candidate*-legal: the post-hoc hierarchy check
/// re-derives every level's copy flow and verifies the wires can carry it.
/// The paper's claim is that this approach both explodes the search space
/// and produces assignments the reconfigurable network cannot realize.
namespace hca::baseline {

struct FlatIcaResult {
  /// The flat engine found an assignment under the CN-level constraints.
  bool assignmentLegal = false;
  /// The assignment also survived the per-level Mapper (hierarchy check).
  bool hierarchyLegal = false;
  std::string failureReason;
  std::vector<CnId> assignment;  // per DDG node
  see::SeeStats seeStats;
  HierarchyCheckResult hierarchy;
  /// Max instructions + receives on one CN (the flat MII estimate).
  int maxCnPressure = 0;
};

/// Runs the engine with default options on the flat view of `model`. On a
/// faulty model the dead CNs are excluded from the flat pattern graph, so
/// the assignment only uses surviving resources.
FlatIcaResult runFlatIca(const ddg::Ddg& ddg,
                         const machine::DspFabricModel& model);

}  // namespace hca::baseline
