#pragma once

#include <vector>

#include "machine/pattern_graph.hpp"
#include "mapper/mapper.hpp"
#include "see/problem.hpp"
#include "support/ids.hpp"

/// The audit-trail record of one solved sub-problem: the pattern graph and
/// copy flow (machine), the working-set assignment (SEE) and the wire
/// mapping (mapper) of one node of the decomposition tree. The HCA driver
/// keeps one per sub-problem. The struct lives here — with the mapper, the
/// last stage that fills it — because the verifier, which sits below hca/
/// in the module DAG, consumes it too.
namespace hca::mapper {

/// Occupancy snapshot of one PG cluster after single-level assignment.
struct ClusterSummary {
  ClusterId cluster;
  int instructions = 0;  // WS ops + parked relays
  int aluOps = 0;
  int agOps = 0;
  int distinctValuesIn = 0;
  int distinctValuesOut = 0;
};

struct ProblemRecord {
  std::vector<int> path;  // problem path: one child index per solved level
  int level = 0;
  bool leaf = false;

  machine::PatternGraph pg;  // including boundary nodes
  machine::CopyFlow flow;    // copy flow after assignment
  std::vector<DdgNodeId> workingSet;
  std::vector<ValueId> relayValues;
  /// Cluster (child index) of each WS node, parallel to workingSet.
  std::vector<int> wsChild;
  /// Child index parking each relay value, parallel to relayValues.
  std::vector<int> relayChild;

  std::vector<ClusterSummary> clusterSummaries;
  MapResult mapResult;
  see::SeeStats seeStats;
};

}  // namespace hca::mapper
