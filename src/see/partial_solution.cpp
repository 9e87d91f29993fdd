#include "see/partial_solution.hpp"

#include <algorithm>

#include "see/solution_ops.hpp"
#include "support/check.hpp"

namespace hca::see {

namespace {
void addDistinct(std::vector<ValueId>& list, ValueId v) {
  if (std::find(list.begin(), list.end(), v) == list.end()) list.push_back(v);
}
}  // namespace

PartialSolution PartialSolution::initial(const PreparedProblem& prepared) {
  const auto& pg = *prepared.problem().pg;
  PartialSolution sol;
  sol.nodeCluster_.assign(
      static_cast<std::size_t>(prepared.problem().ddg->numNodes()),
      ClusterId::invalid());
  sol.relayCluster_.assign(prepared.problem().relayValues.size(),
                           ClusterId::invalid());
  sol.usage_.resize(static_cast<std::size_t>(pg.numNodes()));
  sol.flow_ = machine::CopyFlow(pg);
  sol.inNbrMask_.assign(static_cast<std::size_t>(pg.numNodes()), 0);
  sol.inValues_.resize(static_cast<std::size_t>(pg.numNodes()));
  sol.outValues_.resize(static_cast<std::size_t>(pg.numNodes()));
  // Input nodes already "send" their boundary values.
  for (const ClusterId in : pg.inputNodes()) {
    for (const ValueId v : pg.node(in).boundaryValues) {
      addDistinct(sol.outValues_[in.index()], v);
    }
  }
  return sol;
}

bool PartialSolution::valueDelivered(ClusterId dst, ValueId value) const {
  const auto& list = inValues_[dst.index()];
  return std::find(list.begin(), list.end(), value) != list.end();
}

bool PartialSolution::flowContains(PgArcId arc, ValueId value) const {
  const auto& onArc = flow_.copiesOn(arc);
  return std::find(onArc.begin(), onArc.end(), value) != onArc.end();
}

bool PartialSolution::canAssign(const PreparedProblem& prepared,
                                const Item& item, ClusterId cluster) const {
  return canAssignT(prepared, *this, item, cluster);
}

bool PartialSolution::addFlowCopy(PgArcId arc, ClusterId src, ClusterId dst,
                                  ValueId value) {
  if (!flow_.addCopy(arc, value)) return false;
  inNbrMask_[dst.index()] |= detail::pgBit(src);
  addDistinct(inValues_[dst.index()], value);
  addDistinct(outValues_[src.index()], value);
  return true;
}

void PartialSolution::assign(const PreparedProblem& prepared, const Item& item,
                             ClusterId cluster) {
  assignT(prepared, *this, item, cluster);
}

double PartialSolution::criticalPathScore(
    const PreparedProblem& prepared) const {
  const auto& ddg = *prepared.problem().ddg;
  const std::int64_t maxHeight = prepared.maxWsHeight();
  double penalty = 0;
  for (const DdgNodeId n : prepared.problem().workingSet) {
    const ClusterId cn = clusterOf(n);
    if (!cn.valid()) continue;
    for (const auto& operand : ddg.node(n).operands) {
      if (operand.distance != 0) continue;
      if (!prepared.inWorkingSet(operand.src)) continue;
      const ClusterId cp = clusterOf(operand.src);
      if (!cp.valid() || cp == cn) continue;
      penalty += static_cast<double>(prepared.height(n) + 1) /
                 static_cast<double>(maxHeight);
    }
  }
  return penalty;
}

std::uint64_t PartialSolution::signature() const {
  std::uint64_t h = 1469598103934665603ULL;  // FNV-1a
  const auto mix = [&](std::int32_t v) {
    h ^= static_cast<std::uint64_t>(static_cast<std::uint32_t>(v));
    h *= 1099511628211ULL;
  };
  for (const ClusterId c : nodeCluster_) mix(c.value());
  for (const ClusterId c : relayCluster_) mix(c.value());
  return h;
}

}  // namespace hca::see
