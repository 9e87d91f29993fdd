#include "baseline/hierarchy_check.hpp"

#include <algorithm>
#include <map>
#include <set>
#include <utility>

#include "machine/pattern_graph.hpp"
#include "mapper/mapper.hpp"
#include "support/check.hpp"
#include "support/str.hpp"

namespace hca::baseline {

namespace {

struct Checker {
  const machine::DspFabricModel& model;
  const std::vector<CnId>& assignment;
  HierarchyCheckResult result;

  /// Consumers per value (instruction nodes only).
  std::map<ValueId, std::vector<DdgNodeId>> consumers;

  bool check(const std::vector<int>& path,
             const std::vector<mapper::WireValues>& boundaryIn,
             const std::vector<mapper::WireValues>& boundaryOut) {
    const int level = static_cast<int>(path.size());
    const bool leaf = level == model.numLevels() - 1;
    const machine::LevelSpec spec = model.levelSpec(level);

    // Child index of a CN under this problem, or -1 if outside.
    const auto childOf = [&](CnId cn) {
      const auto cnPath = model.pathOfCn(cn);
      for (std::size_t i = 0; i < path.size(); ++i) {
        if (cnPath[i] != path[static_cast<std::size_t>(i)]) return -1;
      }
      return cnPath[path.size()];
    };

    machine::PatternGraph pg = model.patternGraphAt(path);
    std::map<ValueId, ClusterId> valueSource;
    for (const auto& wire : boundaryIn) {
      const ClusterId in = pg.addInputNode(wire.values);
      for (const ValueId v : wire.values) valueSource.emplace(v, in);
    }
    std::vector<ClusterId> outNodes;
    for (const auto& wire : boundaryOut) {
      outNodes.push_back(pg.addOutputNode(strCat("out", wire.wire),
                                          wire.values));
    }
    pg.connectBoundaryNodes();
    const auto clusters = pg.clusterNodes();

    // Derive the copy flow this assignment implies at this level.
    machine::CopyFlow flow(pg);
    const auto sourceNode = [&](ValueId v) -> ClusterId {
      const DdgNodeId producer(v.value());
      const CnId cn = assignment[producer.index()];
      const int child = cn.valid() ? childOf(cn) : -1;
      if (child >= 0) return clusters[static_cast<std::size_t>(child)];
      const auto it = valueSource.find(v);
      return it == valueSource.end() ? ClusterId::invalid() : it->second;
    };

    std::set<ValueId> relevant;
    for (const auto& [v, list] : consumers) {
      (void)list;
      relevant.insert(v);
    }
    for (const auto& wire : boundaryIn) {
      relevant.insert(wire.values.begin(), wire.values.end());
    }
    for (const ValueId v : relevant) {
      const ClusterId src = sourceNode(v);
      // Destinations: children consuming v (other than the source child).
      std::set<ClusterId> dests;
      const auto consIt = consumers.find(v);
      if (consIt != consumers.end()) {
        for (const DdgNodeId consumer : consIt->second) {
          const int child = childOf(assignment[consumer.index()]);
          if (child < 0) continue;
          const ClusterId c = clusters[static_cast<std::size_t>(child)];
          if (c != src) dests.insert(c);
        }
      }
      for (std::size_t w = 0; w < boundaryOut.size(); ++w) {
        const auto& values = boundaryOut[w].values;
        if (std::find(values.begin(), values.end(), v) != values.end()) {
          dests.insert(outNodes[w]);
        }
      }
      if (dests.empty()) continue;
      if (!src.valid()) {
        result.failureReason = strCat(
            "value ", to_string(v), " consumed in sub-problem [",
            strJoin(path, "."), "] but not available there");
        return false;
      }
      for (const ClusterId dst : dests) {
        const auto arc = pg.arcBetween(src, dst);
        HCA_CHECK(arc.has_value(), "missing PG arc in hierarchy check");
        flow.addCopy(*arc, v);
      }
    }
    result.totalCopies += flow.totalCopies();

    const mapper::MapperInput input =
        mapper::faultAwareMapperInput(model, path, pg, flow);
    const mapper::Mapper mapperPass;
    const auto mapped = mapperPass.map(input);
    ++result.problemsChecked;
    if (!mapped.legal) {
      result.failureReason = strCat("sub-problem [", strJoin(path, "."),
                                    "]: ", mapped.failureReason);
      return false;
    }
    result.maxWirePressure =
        std::max(result.maxWirePressure, mapped.maxValuesPerWire);

    if (leaf) return true;

    for (int i = 0; i < spec.children; ++i) {
      auto childPath = path;
      childPath.push_back(i);
      if (!check(childPath,
                 mapped.ilis[static_cast<std::size_t>(i)].inputs,
                 mapped.ilis[static_cast<std::size_t>(i)].outputs)) {
        return false;
      }
    }
    return true;
  }
};

}  // namespace

HierarchyCheckResult checkHierarchyFeasibility(
    const ddg::Ddg& ddg, const machine::DspFabricModel& model,
    const std::vector<CnId>& assignment) {
  HCA_REQUIRE(static_cast<std::int32_t>(assignment.size()) == ddg.numNodes(),
              "assignment size mismatch");
  Checker checker{model, assignment, {}, {}};
  for (std::int32_t v = 0; v < ddg.numNodes(); ++v) {
    const auto& node = ddg.node(DdgNodeId(v));
    if (!ddg::isInstruction(node.op)) continue;
    HCA_REQUIRE(assignment[static_cast<std::size_t>(v)].valid(),
                "instruction " << v << " unassigned");
    if (model.hasFaults() &&
        !model.cnAlive(assignment[static_cast<std::size_t>(v)])) {
      checker.result.legal = false;
      checker.result.failureReason =
          strCat("instruction ", v, " assigned to dead CN ",
                 to_string(assignment[static_cast<std::size_t>(v)]));
      return checker.result;
    }
    for (const auto& operand : node.operands) {
      if (!ddg::isInstruction(ddg.node(operand.src).op)) continue;
      if (assignment[operand.src.index()] ==
          assignment[static_cast<std::size_t>(v)]) {
        continue;  // CN-local
      }
      auto& list = checker.consumers[ValueId(operand.src.value())];
      if (std::find(list.begin(), list.end(), DdgNodeId(v)) == list.end()) {
        list.push_back(DdgNodeId(v));
      }
    }
  }
  checker.result.legal = checker.check({}, {}, {});
  return checker.result;
}

}  // namespace hca::baseline
