#include "hca/mii.hpp"

#include <algorithm>

#include "see/cost.hpp"
#include "support/check.hpp"
#include "support/str.hpp"

namespace hca::core {

namespace {
int ceilDiv(int a, int b) { return b <= 0 ? 0 : (a + b - 1) / b; }
}  // namespace

std::string MiiReport::toString() const {
  return strCat("MII{rec=", miiRec, ", res=", miiRes, ", ini=", iniMii,
                ", maxCluster=", maxClusterMii, ", wire=", maxWirePressure,
                ", final=", finalMii, "}");
}

int unifiedMiiRes(const ddg::DdgStats& stats,
                  const machine::DspFabricModel& model) {
  // Only surviving CNs contribute issue slots: on a faulty fabric the
  // resource bound rises monotonically with the number of dead clusters.
  const int issue = ceilDiv(stats.numInstructions, model.aliveCns());
  const int mem = ceilDiv(stats.numMemOps, model.config().dmaSlots);
  return std::max({issue, mem, 1});
}

MiiReport computeMii(const ddg::Ddg& ddg,
                     const machine::DspFabricModel& model,
                     const HcaResult& result) {
  MiiReport report;
  report.miiRec =
      static_cast<int>(ddg.miiRec(model.config().latency));
  report.miiRes = unifiedMiiRes(ddg.stats(), model);
  report.iniMii = std::max(report.miiRec, report.miiRes);

  for (const auto& record : result.records) {
    const machine::LevelSpec spec = model.levelSpec(record->level);
    for (const ClusterSummary& s : record->clusterSummaries) {
      report.maxClusterMii = std::max(
          report.maxClusterMii,
          see::clusterMiiBound(record->pg.node(s.cluster).resources,
                               {.alu = s.aluOps,
                                .ag = s.agOps,
                                .instructions = s.instructions},
                               s.distinctValuesIn, s.distinctValuesOut,
                               spec.inWires, spec.outWires));
    }
    report.maxWirePressure =
        std::max(report.maxWirePressure, record->mapResult.maxValuesPerWire);
  }
  report.finalMii = std::max(
      {report.iniMii, report.maxClusterMii, report.maxWirePressure, 1});
  return report;
}

}  // namespace hca::core
