#pragma once

#include <string>
#include <vector>

#include "ddg/ddg.hpp"
#include "machine/dspfabric.hpp"
#include "support/ids.hpp"

/// Post-hoc hierarchy feasibility check for *flat* assignments.
///
/// The baselines (flat ICA, multilevel partitioning) produce a plain
/// DDG-node -> CN map without reasoning about the MUX hierarchy. This
/// checker derives, for every sub-problem of the interconnect tree, the
/// copy flow its assignment implies, and runs the Mapper on it level by
/// level (propagating the inter-level interfaces exactly like the HCA
/// driver). The assignment is hierarchy-legal iff every Mapper call
/// succeeds — i.e. the reconfigurable wires can actually carry the copies.
namespace hca::baseline {

struct HierarchyCheckResult {
  bool legal = false;
  std::string failureReason;
  /// Largest number of values time-sharing one wire across all levels.
  int maxWirePressure = 0;
  /// Total inter-cluster copies over all levels (arc/value pairs).
  int totalCopies = 0;
  int problemsChecked = 0;
};

/// `assignment` maps every instruction node to a CN (consts ignored).
/// The check is fault-aware: on a faulty model the per-level Mapper runs
/// against the surviving wire budgets, so an assignment using dead
/// resources is reported illegal.
HierarchyCheckResult checkHierarchyFeasibility(
    const ddg::Ddg& ddg, const machine::DspFabricModel& model,
    const std::vector<CnId>& assignment);

}  // namespace hca::baseline
