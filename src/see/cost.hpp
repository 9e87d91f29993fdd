#pragma once

#include <algorithm>
#include <cstdint>
#include <vector>

#include "see/prepared.hpp"

/// The SEE objective (paper Section 3: "the assignment n -> c is evaluated
/// by an objective function based on a collection of cost criteria"): five
/// weighted criteria (`CostWeights`), lower is better.
///
/// Every formula is a template over the solution representation, so the
/// search scoring a `DeltaSolution` overlay and the deep-copy reference
/// search in tests/support scoring its own states run the *same code*:
/// per-cluster loops iterate `prepared.clusters()` in order, so the
/// floating-point accumulation sequence, and therefore the resulting bits,
/// are identical for equal inputs. A `Sol` must provide usage(c), distinctValuesIn/Out(c),
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
      clusterMiiBound(prepared.resources(cluster), solution.usage(cluster),
                      solution.distinctValuesIn(cluster),
                      solution.distinctValuesOut(cluster),
                      problem.inWiresPerCluster, problem.outWiresPerCluster),
      1);
}

/// One cluster's share of the three per-cluster criteria below.
struct ClusterTerms {
  int mii = 1;        ///< clusterMiiT
  double load = 0;    ///< issue-slot occupancy
  double slack = 0;   ///< squared in-neighbor utilization (0: no MUX cap)
};

template <typename Sol>
ClusterTerms clusterTermsT(const PreparedProblem& prepared,
                           const Sol& solution, ClusterId cluster) {
  ClusterTerms terms;
  terms.mii = clusterMiiT(prepared, solution, cluster);
  terms.load = static_cast<double>(solution.usage(cluster).instructions) /
               std::max(1, prepared.resources(cluster).issueSlots());
  const int maxIn = prepared.problem().constraints.maxInNeighbors;
  if (maxIn > 0) {
    const double used =
        static_cast<double>(solution.realInNeighborCount(cluster)) /
        static_cast<double>(maxIn);
    terms.slack = used * used;
  }
  return terms;
}

/// The three criteria that loop over clusters, from one pass.
struct ClusterScores {
  double iiEstimate = 0;
  double loadBalance = 0;
  double wiringSlack = 0;
};

/// clusterScoresT's loop state: the running sums and maxima after some
/// prefix of `prepared.clusters()`.
struct ClusterScan {
  ClusterScan() = default;
  /// The state before the first cluster: the max starts at the clamp.
  explicit ClusterScan(int target) : maxMii(target) {}

  std::int64_t miiSum = 0;
  int maxMii = 0;
  double loadSum = 0;
  double maxLoad = 0;
  double slackSum = 0;

  /// Adds one cluster's terms, its MII clamped to `target`.
  void add(const ClusterTerms& t, int target) {
    const int mii = std::max(t.mii, target);
    miiSum += mii;
    maxMii = std::max(maxMii, mii);
    loadSum += t.load;
    maxLoad = std::max(maxLoad, t.load);
    slackSum += t.slack;
  }
};

/// The scoring tables of one expanded frontier state, built once per beam
/// step in the engine's scratch (never in the snapshot arenas) and read by
/// every candidate expanded from it:
///  * `terms` — clusterTermsT per position of `prepared.clusters()`;
///  * `scan` — clusterScoresT's loop state before each position (n + 1
///    entries; `scan[n]` is the parent's own);
///  * `penalty` — the running critical-path penalty after each of the
///    parent's sorted terms (`penalty[0]` = 0).
/// A candidate starts from the entry at its first touched cluster or first
/// inserted term and repeats the rest of the loop, so it performs the same
/// floating-point additions in the same order as the full loop (DESIGN.md
/// §4k).
struct ParentScores {
  const ClusterTerms* terms = nullptr;
  std::vector<ClusterScan> scan;
  std::vector<double> penalty;
};

/// The clamp clusterScoresT applies to every per-cluster MII.
inline int miiTarget(const PreparedProblem& prepared) {
  return std::max(1, prepared.options().weights.targetIi);
}

/// ii estimate — the paper's main cost factor (Section 4.2): an estimate of
/// maxClsMII. Per-cluster MIIs are clamped to the loop's target II
/// (iniMII): the final MII is max(iniMII, maxClsMII), so only excess above
/// the target costs anything. The max dominates; the clamped average
/// (scaled down) breaks ties between states with equal bottlenecks.
///
/// load balance — spread of issue-slot occupancy across clusters (max -
/// mean, normalized by issue width): keeps the assignment from piling work
/// on one cluster before the II term starts to bite.
///
/// wiring slack — penalizes consumed reconfiguration budget: every
/// distinct real in-neighbor eats one of a cluster's few input-wire
/// selects, and a saturated cluster blocks all later assignments that need
/// to reach it. Quadratic in the per-cluster utilization so saturation
/// hurts most.
///
/// The MII sum is an integer and the doubles are summed in cluster order,
/// so each score has the bits of a plain loop over clusterTermsT. A
/// solution that knows its parent's scoring tables and which clusters it
/// touched (a DeltaSolution) starts from the parent's loop state before
/// its first touched cluster, recomputes only the touched clusters and
/// reads the rest from the parent's terms; clusters() ascends by PG id,
/// so the touched clusters' positions come out of the mask in order.
template <typename Sol>
ClusterScores clusterScoresT(const PreparedProblem& prepared,
                             const Sol& solution) {
  const int target = miiTarget(prepared);
  const auto& clusters = prepared.clusters();
  const std::size_t n = clusters.size();
  const auto scores = [&](const ClusterScan& scan) {
    const auto numClusters = static_cast<double>(n);
    ClusterScores out;
    out.iiEstimate =
        scan.maxMii + 0.1 * (static_cast<double>(scan.miiSum) / numClusters);
    out.loadBalance = scan.maxLoad - scan.loadSum / numClusters;
    out.wiringSlack =
        prepared.problem().constraints.maxInNeighbors > 0 ? scan.slackSum
                                                          : 0.0;
    return out;
  };
  if constexpr (requires { solution.parentScores(); }) {
    if (const ParentScores* parent = solution.parentScores()) {
      std::uint64_t touched = solution.touchedNodes() & prepared.clusterMask();
      if (touched == 0) return scores(parent->scan[n]);
      std::size_t i =
          prepared.clusterPosition(ClusterId(__builtin_ctzll(touched)));
      ClusterScan scan = parent->scan[i];
      for (; touched != 0; touched &= touched - 1) {
        const ClusterId c(__builtin_ctzll(touched));
        const std::size_t pos = prepared.clusterPosition(c);
        for (; i < pos; ++i) scan.add(parent->terms[i], target);
        scan.add(clusterTermsT(prepared, solution, c), target);
        i = pos + 1;
      }
      for (; i < n; ++i) scan.add(parent->terms[i], target);
      return scores(scan);
    }
  }
  ClusterScan scan(target);
  for (const ClusterId c : clusters) {
    scan.add(clusterTermsT(prepared, solution, c), target);
  }
  return scores(scan);
}

/// The objective: the weighted terms in a fixed order — ii estimate, copy
/// count (inter-cluster arc/value pairs), load balance, critical path
/// (copies on dependences with little slack), wiring slack — skipping zero
/// weights. `Sol` is non-const for `DeltaSolution`, whose critical-path
/// score sorts its pending terms in place.
template <typename Sol>
double objectiveT(const PreparedProblem& prepared, const CostWeights& weights,
                  Sol& solution) {
  const ClusterScores scores = clusterScoresT(prepared, solution);
  double total = 0;
  if (weights.iiEstimate != 0.0) {
    total += weights.iiEstimate * scores.iiEstimate;
  }
  if (weights.copyCount != 0.0) {
    total += weights.copyCount * static_cast<double>(solution.totalCopies());
  }
  if (weights.loadBalance != 0.0) {
    total += weights.loadBalance * scores.loadBalance;
  }
  if (weights.criticalPath != 0.0) {
    total += weights.criticalPath * solution.criticalPathScore(prepared);
  }
  if (weights.wiringSlack != 0.0) {
    total += weights.wiringSlack * scores.wiringSlack;
  }
  return total;
}

}  // namespace hca::see
