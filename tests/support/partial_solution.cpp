#include "tests/support/partial_solution.hpp"

#include <algorithm>
#include <cstdio>
#include <cstring>

#include "see/solution_ops.hpp"
#include "support/check.hpp"

namespace hca::see {

namespace {
void addDistinct(std::vector<ValueId>& list, ValueId v) {
  if (std::find(list.begin(), list.end(), v) == list.end()) list.push_back(v);
}

std::string hexBits(std::uint64_t bits) {
  char buf[19];
  std::snprintf(buf, sizeof(buf), "0x%016llx",
                static_cast<unsigned long long>(bits));
  return buf;
}

template <class Id>
void writeIds(JsonWriter& json, const std::vector<Id>& ids) {
  json.beginArray();
  for (const Id id : ids) json.value(id.value());
  json.endArray();
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

PartialSolution PartialSolution::fromSnapshot(
    const FlatSolution& state, const std::vector<DdgNodeId>& workingSet,
    std::int32_t ddgNodes) {
  PartialSolution out;
  out.nodeCluster_.assign(static_cast<std::size_t>(ddgNodes),
                          ClusterId::invalid());
  for (std::size_t i = 0; i < workingSet.size(); ++i) {
    out.nodeCluster_[workingSet[i].index()] = state.clusterAt(i);
  }
  for (std::int32_t r = 0; r < state.numRelays(); ++r) {
    out.relayCluster_.push_back(
        state.relayCluster(static_cast<std::size_t>(r)));
  }
  for (std::int32_t p = 0; p < state.numPgNodes(); ++p) {
    const ClusterId c(p);
    out.usage_.push_back(state.usage(c));
    out.inNbrMask_.push_back(state.inNbrMask(c));
    const auto in = state.valuesIn(c);
    const auto sent = state.valuesOut(c);
    out.inValues_.emplace_back(in.begin(), in.end());
    out.outValues_.emplace_back(sent.begin(), sent.end());
  }
  out.flow_ = state.copyFlow();
  out.assigned_ = state.assignedCount();
  out.objective_ = state.objective();
  return out;
}

FrontierSnapshot PartialSolution::snapshot(
    const std::vector<DdgNodeId>& workingSet) const {
  SnapshotRows rows;
  for (const DdgNodeId n : workingSet) rows.nodeCluster.push_back(clusterOf(n));
  rows.relayCluster = relayCluster_;
  rows.usage = usage_;
  rows.inNbrMask = inNbrMask_;
  rows.inValues = inValues_;
  rows.outValues = outValues_;
  for (std::size_t arc = 0; arc < flow_.numArcLists(); ++arc) {
    rows.flow.push_back(
        flow_.copiesOn(PgArcId(static_cast<std::int32_t>(arc))));
  }
  rows.assigned = assigned_;
  rows.objective = objective_;
  MonotonicArena arena;
  return FrontierSnapshot(*FlatSolution::fromRows(rows, arena));
}

void PartialSolution::writeJson(JsonWriter& json) const {
  json.beginObject();
  json.key("nc");
  writeIds(json, nodeCluster_);
  json.key("rc");
  writeIds(json, relayCluster_);
  json.key("us").beginArray();
  for (const machine::ResourceUsage& u : usage_) {
    json.beginArray();
    json.value(u.alu);
    json.value(u.ag);
    json.value(u.instructions);
    json.endArray();
  }
  json.endArray();
  json.key("fl").beginArray();
  for (std::size_t arc = 0; arc < flow_.numArcLists(); ++arc) {
    writeIds(json, flow_.copiesOn(PgArcId(static_cast<std::int32_t>(arc))));
  }
  json.endArray();
  json.key("nm").beginArray();
  for (const std::uint64_t mask : inNbrMask_) json.value(hexBits(mask));
  json.endArray();
  json.key("iv").beginArray();
  for (const auto& values : inValues_) writeIds(json, values);
  json.endArray();
  json.key("ov").beginArray();
  for (const auto& values : outValues_) writeIds(json, values);
  json.endArray();
  json.key("as").value(assigned_);
  std::uint64_t objectiveBits = 0;
  std::memcpy(&objectiveBits, &objective_, sizeof(objectiveBits));
  json.key("ob").value(hexBits(objectiveBits));
  json.endObject();
}

}  // namespace hca::see
