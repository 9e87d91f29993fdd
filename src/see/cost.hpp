#pragma once

#include <algorithm>

#include "see/prepared.hpp"

/// The SEE objective (paper Section 3: "the assignment n -> c is evaluated
/// by an objective function based on a collection of cost criteria"): five
/// weighted criteria (`CostWeights`), lower is better.
///
/// Every formula is a template over the solution representation, so the
/// search scoring a `DeltaSolution` overlay and the legacy reference
/// scoring a materialized `PartialSolution` run the *same code*: per-cluster
/// loops iterate `prepared.clusters()` in order, so the floating-point
/// accumulation sequence, and therefore the resulting bits, are identical
/// for equal inputs. A `Sol` must provide usage(c), distinctValuesIn/Out(c),
/// realInNeighborCount(c), totalCopies() and criticalPathScore(prepared) —
/// the one term each representation implements itself.
namespace hca::see {

/// Per-cluster MII estimate (paper Section 4.2), without a floor: the
/// largest of the issue pressure (every instruction plus one receive per
/// incoming value, spread over the CNs the cluster embraces), the
/// functional-unit pressures and the wire serialization of the distinct
/// values crossing the cluster boundary over the wires the Mapper can
/// balance them on. Shared by the search's estimate and the final MII
/// report.
inline int clusterMiiBound(const machine::ResourceTable& rt,
                           const machine::ResourceUsage& usage, int valuesIn,
                           int valuesOut, int inWires, int outWires) {
  const auto ceilDiv = [](int a, int b) {
    return b <= 0 ? 0 : (a + b - 1) / b;
  };
  const int issue = ceilDiv(usage.instructions + valuesIn, rt.issueSlots());
  const int alu = ceilDiv(usage.alu, std::max(rt.alu(), 1));
  const int ag = rt.ag() > 0 ? ceilDiv(usage.ag, rt.ag()) : 0;
  const int inPressure = ceilDiv(valuesIn, inWires);
  const int outPressure = ceilDiv(valuesOut, outWires);
  return std::max({issue, alu, ag, inPressure, outPressure});
}

template <typename Sol>
int clusterMiiT(const PreparedProblem& prepared, const Sol& solution,
                ClusterId cluster) {
  const SeeProblem& problem = prepared.problem();
  return std::max(
      clusterMiiBound(problem.pg->node(cluster).resources,
                      solution.usage(cluster),
                      solution.distinctValuesIn(cluster),
                      solution.distinctValuesOut(cluster),
                      problem.inWiresPerCluster, problem.outWiresPerCluster),
      1);
}

/// The paper's main cost factor (Section 4.2): an estimate of maxClsMII.
template <typename Sol>
double iiEstimateScoreT(const PreparedProblem& prepared, const Sol& solution) {
  // Per-cluster MIIs are clamped to the loop's target II (iniMII): the
  // final MII is max(iniMII, maxClsMII), so only excess above the target
  // costs anything. The max dominates; the clamped average (scaled down)
  // breaks ties between states with equal bottlenecks.
  const int target = std::max(1, prepared.options().weights.targetIi);
  double sum = 0;
  int maxMii = target;
  for (const ClusterId c : prepared.clusters()) {
    const int mii = std::max(clusterMiiT(prepared, solution, c), target);
    sum += mii;
    maxMii = std::max(maxMii, mii);
  }
  const auto numClusters = static_cast<double>(prepared.clusters().size());
  return maxMii + 0.1 * (sum / numClusters);
}

/// Spread of issue-slot occupancy across clusters (max - mean, normalized
/// by issue width): keeps the assignment from piling work on one cluster
/// before the II term starts to bite.
template <typename Sol>
double loadBalanceScoreT(const PreparedProblem& prepared,
                         const Sol& solution) {
  const auto& pg = *prepared.problem().pg;
  double sum = 0;
  double maxLoad = 0;
  for (const ClusterId c : prepared.clusters()) {
    const double load =
        static_cast<double>(solution.usage(c).instructions) /
        std::max(1, pg.node(c).resources.issueSlots());
    sum += load;
    maxLoad = std::max(maxLoad, load);
  }
  const double mean = sum / static_cast<double>(prepared.clusters().size());
  return maxLoad - mean;
}

/// Penalizes consumed reconfiguration budget: every distinct real
/// in-neighbor eats one of a cluster's few input-wire selects, and a
/// saturated cluster blocks all later assignments that need to reach it.
/// Quadratic in the per-cluster utilization so saturation hurts most.
template <typename Sol>
double wiringSlackScoreT(const PreparedProblem& prepared,
                         const Sol& solution) {
  const int maxIn = prepared.problem().constraints.maxInNeighbors;
  if (maxIn <= 0) return 0.0;
  double penalty = 0;
  for (const ClusterId c : prepared.clusters()) {
    const double used = static_cast<double>(solution.realInNeighborCount(c)) /
                        static_cast<double>(maxIn);
    penalty += used * used;
  }
  return penalty;
}

/// The objective: the weighted terms in a fixed order — ii estimate, copy
/// count (inter-cluster arc/value pairs), load balance, critical path
/// (copies on dependences with little slack), wiring slack — skipping zero
/// weights. `Sol` is non-const for `DeltaSolution`, whose critical-path
/// score sorts its pending terms in place.
template <typename Sol>
double objectiveT(const PreparedProblem& prepared, const CostWeights& weights,
                  Sol& solution) {
  double total = 0;
  if (weights.iiEstimate != 0.0) {
    total += weights.iiEstimate * iiEstimateScoreT(prepared, solution);
  }
  if (weights.copyCount != 0.0) {
    total += weights.copyCount * static_cast<double>(solution.totalCopies());
  }
  if (weights.loadBalance != 0.0) {
    total += weights.loadBalance * loadBalanceScoreT(prepared, solution);
  }
  if (weights.criticalPath != 0.0) {
    total += weights.criticalPath * solution.criticalPathScore(prepared);
  }
  if (weights.wiringSlack != 0.0) {
    total += weights.wiringSlack * wiringSlackScoreT(prepared, solution);
  }
  return total;
}

}  // namespace hca::see
