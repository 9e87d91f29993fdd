#include "machine/rcp.hpp"

#include "support/check.hpp"
#include "support/str.hpp"

namespace hca::machine {

PatternGraph rcpPatternGraph(const RcpConfig& config) {
  HCA_REQUIRE(config.clusters >= 3, "RCP needs >= 3 clusters");
  HCA_REQUIRE(config.neighborReach >= 1, "RCP reach must be >= 1");
  HCA_REQUIRE(2 * config.neighborReach < config.clusters,
              "RCP reach wraps past the ring");
  HCA_REQUIRE(config.inputPorts >= 1, "RCP needs >= 1 input port");
  HCA_REQUIRE(config.memClusterStride >= 1, "bad memory-cluster stride");

  PatternGraph pg;
  for (int i = 0; i < config.clusters; ++i) {
    const bool hasMemory = i % config.memClusterStride == 0;
    pg.addCluster(ResourceTable(1, hasMemory ? 1 : 0), strCat("PE", i));
  }
  for (int i = 0; i < config.clusters; ++i) {
    for (int d = 1; d <= config.neighborReach; ++d) {
      const int fwd = (i + d) % config.clusters;
      const int bwd = (i - d + config.clusters) % config.clusters;
      if (!pg.arcBetween(ClusterId(i), ClusterId(fwd))) {
        pg.addArc(ClusterId(i), ClusterId(fwd));
      }
      if (!pg.arcBetween(ClusterId(i), ClusterId(bwd))) {
        pg.addArc(ClusterId(i), ClusterId(bwd));
      }
    }
  }
  return pg;
}

PgConstraints rcpConstraints(const RcpConfig& config) {
  PgConstraints c;
  c.maxInNeighbors = config.inputPorts;
  return c;
}

}  // namespace hca::machine
