#include "baseline/flat_ica.hpp"

#include <algorithm>

#include "machine/pattern_graph.hpp"
#include "see/engine.hpp"
#include "support/check.hpp"

namespace hca::baseline {

FlatIcaResult runFlatIca(const ddg::Ddg& ddg,
                         const machine::DspFabricModel& model) {
  HCA_REQUIRE(model.totalCns() <= 64,
              "flat ICA supports up to 64 computation nodes");
  FlatIcaResult result;

  // The flat K_n pattern graph: every CN connected to every other. Dead
  // CNs keep their slot (indices must stay CN ids) but carry no resources
  // and are marked so SEE never places work on them.
  machine::PatternGraph pg;
  for (int i = 0; i < model.totalCns(); ++i) {
    const bool alive = model.cnAlive(CnId(i));
    pg.addCluster(machine::ResourceTable::computationNode() * (alive ? 1 : 0),
                  "CN" + std::to_string(i));
    if (!alive) pg.markDead(ClusterId(i));
  }
  pg.connectClustersCompletely();

  see::SeeProblem problem;
  problem.ddg = &ddg;
  for (std::int32_t v = 0; v < ddg.numNodes(); ++v) {
    if (ddg::isInstruction(ddg.node(DdgNodeId(v)).op)) {
      problem.workingSet.emplace_back(v);
    }
  }
  problem.pg = &pg;
  // The only hierarchy knowledge the flat view keeps: a CN has two input
  // selects and one output wire.
  problem.constraints.maxInNeighbors = model.config().cnInWires;
  problem.inWiresPerCluster = model.config().cnInWires;
  problem.outWiresPerCluster = model.config().cnOutWires;
  problem.latency = model.config().latency;

  see::SeeOptions flatOptions;
  const auto stats = ddg.stats();
  flatOptions.weights.targetIi = std::max<int>(
      {static_cast<int>(ddg.miiRec(model.config().latency)),
       (stats.numInstructions + model.aliveCns() - 1) / model.aliveCns(),
       (stats.numMemOps + model.config().dmaSlots - 1) /
           model.config().dmaSlots});
  const see::SpaceExplorationEngine engine(flatOptions);
  const auto seeResult = engine.run(problem);
  result.seeStats = seeResult.stats;
  result.assignmentLegal = seeResult.legal;
  if (!seeResult.legal) {
    result.failureReason = "flat assignment: " + seeResult.failureReason;
    return result;
  }

  const see::FlatSolution& solution = seeResult.frontier.front().state();
  result.assignment.assign(static_cast<std::size_t>(ddg.numNodes()),
                           CnId::invalid());
  for (std::size_t i = 0; i < problem.workingSet.size(); ++i) {
    result.assignment[problem.workingSet[i].index()] =
        CnId(solution.clusterAt(i).value());
  }
  for (const ClusterId c : pg.clusterNodes()) {
    result.maxCnPressure =
        std::max(result.maxCnPressure,
                 solution.usage(c).instructions + solution.distinctValuesIn(c));
  }

  // Post-hoc: can the MUX hierarchy actually realize this assignment?
  result.hierarchy =
      checkHierarchyFeasibility(ddg, model, result.assignment);
  result.hierarchyLegal = result.hierarchy.legal;
  if (!result.hierarchyLegal) {
    result.failureReason = "hierarchy: " + result.hierarchy.failureReason;
  }
  return result;
}

}  // namespace hca::baseline
