// The framework is architecture-agnostic (paper Section 3): this example
// runs the same engine on two machines that are *not* the paper's 64-CN
// fabric — a small 16-CN, two-level DSPFabric variant, and the RCP ring of
// Figure 1, driven through the single-level SEE directly.
//
//   $ ./examples/custom_architecture

#include <cstdio>

#include "ddg/builder.hpp"
#include "hca/driver.hpp"
#include "hca/mii.hpp"
#include "machine/rcp.hpp"
#include "see/engine.hpp"

using namespace hca;

namespace {

/// Small 2-D stencil loop used for both machines.
ddg::Ddg stencilDdg() {
  ddg::DdgBuilder b;
  auto p = b.carry(0, "p");
  const auto next = b.add(p, b.cst(1));
  b.close(p, next, 1);
  const auto left = b.load(next, 0, "x[i-1]");
  const auto mid = b.load(next, 1, "x[i]");
  const auto right = b.load(next, 2, "x[i+1]");
  const auto sum = b.add(b.add(left, mid), right);
  const auto avg = b.shr(sum, b.cst(2));
  b.store(next, b.clip(avg, 0, 255), 64);
  return b.finish();
}

/// Both helpers return whether the mapping succeeded.
bool onSmallFabric(const ddg::Ddg& ddg) {
  machine::DspFabricConfig config;
  config.branching = {4, 4};  // 16 CNs, two interconnect levels
  config.n = 4;
  config.m = 4;  // unused at depth 2, kept for clarity
  config.k = 4;
  const machine::DspFabricModel model(config);
  std::printf("-- 16-CN two-level fabric: %s\n", config.toString().c_str());

  const core::HcaDriver driver(model);
  const auto result = driver.run(ddg);
  if (!result.legal) {
    std::printf("   clusterization failed: %s\n",
                result.failureReason.c_str());
    return false;
  }
  const auto mii = core::computeMii(ddg, model, result);
  std::printf("   legal; %s\n", mii.toString().c_str());
  std::printf("   reconfiguration stream:\n%s",
              result.reconfig.toString().c_str());
  return true;
}

bool onRcpRing(const ddg::Ddg& ddg) {
  // Figure 1: an 8-cluster ring, 4 potential sources per cluster, but only
  // 2 input ports — and heterogeneous: every second PE can access memory.
  machine::RcpConfig config;
  config.clusters = 8;
  config.neighborReach = 2;
  config.inputPorts = 2;
  config.memClusterStride = 2;
  const auto pg = machine::rcpPatternGraph(config);
  std::printf("\n-- RCP ring (Fig. 1): %d PEs, reach 2, K=%d ports\n",
              config.clusters, config.inputPorts);

  see::SeeProblem problem;
  problem.ddg = &ddg;
  for (std::int32_t v = 0; v < ddg.numNodes(); ++v) {
    if (ddg::isInstruction(ddg.node(DdgNodeId(v)).op)) {
      problem.workingSet.emplace_back(v);
    }
  }
  problem.pg = &pg;
  problem.constraints = machine::rcpConstraints(config);
  problem.inWiresPerCluster = config.inputPorts;
  problem.outWiresPerCluster = config.inputPorts;

  see::SeeOptions options;
  options.weights.targetIi = 3;
  const see::SpaceExplorationEngine engine(options);
  const auto result = engine.run(problem);
  if (!result.legal) {
    std::printf("   assignment failed: %s\n", result.failureReason.c_str());
    return false;
  }
  // The best frontier state, read by working-set position.
  const see::FlatSolution& solution = result.frontier.front().state();
  std::printf("   legal; placements:\n");
  for (std::size_t i = 0; i < problem.workingSet.size(); ++i) {
    const auto& node = ddg.node(problem.workingSet[i]);
    std::printf("     %-6s %-8s -> %s%s\n",
                std::string(ddg::opName(node.op)).c_str(), node.name.c_str(),
                pg.node(solution.clusterAt(i)).name.c_str(),
                ddg::isMemoryOp(node.op) ? "  (memory-capable PE)" : "");
  }
  std::printf("   inter-cluster copies: %d\n", solution.totalCopies());
  return true;
}

}  // namespace

int main() {
  const auto ddg = stencilDdg();
  std::printf("Stencil loop: %d instructions\n\n",
              ddg.stats().numInstructions);
  const bool fabricOk = onSmallFabric(ddg);
  const bool ringOk = onRcpRing(ddg);
  return fabricOk && ringOk ? 0 : 1;
}
