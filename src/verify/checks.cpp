#include <algorithm>
#include <map>
#include <set>
#include <string>
#include <vector>

#include "support/check.hpp"
#include "support/str.hpp"
#include "verify/coherency.hpp"
#include "verify/verify.hpp"

/// The built-in invariant checks (see verify.hpp for the catalogue). Every
/// check body follows the same shape: a `perRecord` check verifies exactly
/// one ProblemRecord when `input.record` is set (the driver's between-stages
/// mode, where the whole-result context — final assignment, relays — does
/// not exist yet), and in whole-result scope (`input.record == nullptr`)
/// iterates every surviving record and adds the cross-record invariants.
/// Whole-result scope silently no-ops on an illegal result: a failed run's
/// partial state satisfies no global invariant by construction.
namespace hca::verify {

namespace {

using core::HcaResult;
using core::ProblemRecord;

void emit(std::vector<Diagnostic>& out, std::vector<int> path,
          std::vector<std::int64_t> entities, std::string message) {
  Diagnostic d;
  d.subproblemPath = std::move(path);
  d.entities = std::move(entities);
  d.message = std::move(message);
  out.push_back(std::move(d));
}

/// Fault-aware wire budgets of one record's level, recomputed the same way
/// the driver feeds them to the Mapper. Budgets come from the *current*
/// model: for results produced by the degraded-bandwidth fallback these are
/// upper bounds (the degraded fabric has strictly tighter budgets), so every
/// `<=` check below stays sound across all ladder rungs.
struct WireBudgets {
  machine::LevelSpec spec;
  machine::ProblemSpec pspec;
  bool usePerChild = false;
  bool leaf = false;

  static WireBudgets of(const machine::DspFabricModel& model,
                        const ProblemRecord& record) {
    WireBudgets b;
    b.spec = model.levelSpec(record.level);
    b.leaf = record.leaf;
    if (model.hasFaults()) {
      b.pspec = model.problemSpec(record.path);
      b.usePerChild = b.pspec.touched;
    }
    return b;
  }

  [[nodiscard]] int inCap(int di) const {
    const int wires =
        usePerChild ? pspec.inWiresOfChild[static_cast<std::size_t>(di)]
                    : spec.inWires;
    const int extra =
        leaf ? 0
             : (usePerChild
                    ? pspec.maxWiresIntoChildOf[static_cast<std::size_t>(di)]
                    : spec.maxWiresIntoChild);
    return extra > 0 ? std::min(wires, extra) : wires;
  }

  [[nodiscard]] int outBudget(int si) const {
    return usePerChild ? pspec.outWiresOfChild[static_cast<std::size_t>(si)]
                       : spec.outWires;
  }
};

/// Values flowing on real arcs into / out of one PG node, deduplicated.
std::set<ValueId> flowInto(const ProblemRecord& r, ClusterId node) {
  std::set<ValueId> values;
  for (const PgArcId arc : r.pg.inArcs(node)) {
    for (const ValueId v : r.flow.copiesOn(arc)) values.insert(v);
  }
  return values;
}

std::set<ValueId> flowOutOf(const ProblemRecord& r, ClusterId node) {
  std::set<ValueId> values;
  for (const PgArcId arc : r.pg.outArcs(node)) {
    for (const ValueId v : r.flow.copiesOn(arc)) values.insert(v);
  }
  return values;
}

// --------------------------------------------------------------------------
// ddg-well-formed
// --------------------------------------------------------------------------
void checkDdgWellFormed(const VerifyInput& in, std::vector<Diagnostic>& out) {
  try {
    in.ddg->validate();
  } catch (const std::exception& e) {
    emit(out, {}, {}, strCat("input DDG fails validation: ", e.what()));
  }
}

// --------------------------------------------------------------------------
// see-solution
// --------------------------------------------------------------------------
void checkSeeSolutionRecord(const VerifyInput& in, const ProblemRecord& r,
                            std::vector<Diagnostic>& out) {
  const auto clusters = r.pg.clusterNodes();
  const int numChildren = static_cast<int>(clusters.size());

  if (r.wsChild.size() != r.workingSet.size()) {
    emit(out, r.path, {},
         strCat("working set has ", r.workingSet.size(),
                " nodes but wsChild has ", r.wsChild.size(), " entries"));
    return;
  }
  if (r.relayChild.size() != r.relayValues.size()) {
    emit(out, r.path, {},
         strCat("relay list has ", r.relayValues.size(),
                " values but relayChild has ", r.relayChild.size(),
                " entries"));
    return;
  }

  // Every node assigned to exactly one child, in range.
  std::set<DdgNodeId> seen;
  for (std::size_t i = 0; i < r.workingSet.size(); ++i) {
    const DdgNodeId n = r.workingSet[i];
    if (!seen.insert(n).second) {
      emit(out, r.path, {n.value()},
           strCat("node ", n.value(),
                  " appears more than once in the working set (double "
                  "assignment)"));
    }
    if (r.wsChild[i] < 0 || r.wsChild[i] >= numChildren) {
      emit(out, r.path, {n.value(), r.wsChild[i]},
           strCat("node ", n.value(), " assigned to child ", r.wsChild[i],
                  " outside [0,", numChildren, ")"));
    }
  }
  for (std::size_t i = 0; i < r.relayValues.size(); ++i) {
    if (r.relayChild[i] < 0 || r.relayChild[i] >= numChildren) {
      emit(out, r.path, {r.relayValues[i].value(), r.relayChild[i]},
           strCat("relay value ", r.relayValues[i].value(),
                  " parked on child ", r.relayChild[i], " outside [0,",
                  numChildren, ")"));
    }
  }

  // Candidate-filter respect: the copy flow must honor the level's
  // reconfiguration constraints (the SEE's candidate filter).
  const machine::PgConstraints constraints = in.model->constraints(r.level);
  if (constraints.maxInNeighbors > 0) {
    for (const ClusterId c : clusters) {
      const auto neighbors = r.flow.realInNeighbors(r.pg, c);
      if (static_cast<int>(neighbors.size()) > constraints.maxInNeighbors) {
        emit(out, r.path, {c.value()},
             strCat("cluster node ", c.value(), " has ", neighbors.size(),
                    " real in-neighbors, MUX capacity is ",
                    constraints.maxInNeighbors));
      }
    }
  }
  for (const ClusterId outNode : r.pg.outputNodes()) {
    int feeders = 0;
    for (const PgArcId arc : r.pg.inArcs(outNode)) {
      if (r.flow.isReal(arc)) ++feeders;
    }
    if (feeders > 1) {
      emit(out, r.path, {outNode.value()},
           strCat("output node ", outNode.value(), " is fed by ", feeders,
                  " real arcs (unary fan-in violated)"));
    }
  }

  // Cost-input integrity: the recorded per-cluster summaries must describe
  // this record's clusters (the cost function consumed them in this order).
  if (!r.clusterSummaries.empty()) {
    if (r.clusterSummaries.size() != clusters.size()) {
      emit(out, r.path, {},
           strCat("record has ", r.clusterSummaries.size(),
                  " cluster summaries for ", clusters.size(), " clusters"));
    } else {
      for (std::size_t j = 0; j < clusters.size(); ++j) {
        if (r.clusterSummaries[j].cluster != clusters[j]) {
          emit(out, r.path, {clusters[j].value()},
               strCat("cluster summary ", j, " describes node ",
                      r.clusterSummaries[j].cluster.value(), ", expected ",
                      clusters[j].value()));
        }
      }
    }
  }
}

void checkSeeSolution(const VerifyInput& in, std::vector<Diagnostic>& out) {
  if (in.record != nullptr) {
    checkSeeSolutionRecord(in, *in.record, out);
    return;
  }
  const HcaResult& result = *in.result;
  if (!result.legal) return;

  if (static_cast<std::int32_t>(result.assignment.size()) !=
      in.ddg->numNodes()) {
    emit(out, {}, {},
         strCat("assignment covers ", result.assignment.size(),
                " nodes, DDG has ", in.ddg->numNodes()));
    return;
  }

  std::map<std::vector<int>, const ProblemRecord*> byPath;
  for (const auto& record : result.records) {
    checkSeeSolutionRecord(in, *record, out);
    if (!byPath.emplace(record->path, record.get()).second) {
      emit(out, record->path, {},
           strCat("two records describe sub-problem [",
                  strJoin(record->path, "."), "]"));
    }
  }

  // Parent/child working-set consistency: a child solves exactly the nodes
  // its parent assigned to it, in the parent's order.
  for (const auto& record : result.records) {
    if (record->leaf ||
        record->wsChild.size() != record->workingSet.size()) {
      continue;
    }
    const int numChildren =
        static_cast<int>(record->pg.clusterNodes().size());
    for (int j = 0; j < numChildren; ++j) {
      std::vector<DdgNodeId> expected;
      for (std::size_t i = 0; i < record->workingSet.size(); ++i) {
        if (record->wsChild[i] == j) expected.push_back(record->workingSet[i]);
      }
      auto childPath = record->path;
      childPath.push_back(j);
      const auto it = byPath.find(childPath);
      if (it == byPath.end()) {
        if (!expected.empty()) {
          emit(out, childPath, {},
               strCat("sub-problem [", strJoin(childPath, "."),
                      "] was assigned ", expected.size(),
                      " nodes but has no record"));
        }
        continue;
      }
      if (it->second->workingSet != expected) {
        emit(out, childPath, {},
             strCat("sub-problem [", strJoin(childPath, "."),
                    "] solves a working set different from its parent's "
                    "partition (",
                    it->second->workingSet.size(), " vs ", expected.size(),
                    " nodes)"));
      }
    }
  }

  // Leaf coverage: every instruction lands in exactly one leaf working set
  // and the final assignment points at that leaf's CN.
  std::map<DdgNodeId, int> leafCount;
  for (const auto& record : result.records) {
    if (!record->leaf ||
        record->wsChild.size() != record->workingSet.size()) {
      continue;
    }
    for (std::size_t i = 0; i < record->workingSet.size(); ++i) {
      const DdgNodeId n = record->workingSet[i];
      ++leafCount[n];
      auto cnPath = record->path;
      cnPath.push_back(record->wsChild[i]);
      const CnId expected = in.model->cnIdOf(cnPath);
      if (n.index() < result.assignment.size() &&
          result.assignment[n.index()] != expected) {
        emit(out, record->path, {n.value()},
             strCat("node ", n.value(), " is recorded on CN ",
                    to_string(expected), " but finally assigned to CN ",
                    to_string(result.assignment[n.index()])));
      }
    }
  }
  for (std::int32_t v = 0; v < in.ddg->numNodes(); ++v) {
    if (!ddg::isInstruction(in.ddg->node(DdgNodeId(v)).op)) continue;
    const auto it = leafCount.find(DdgNodeId(v));
    const int count = it == leafCount.end() ? 0 : it->second;
    if (count != 1) {
      emit(out, {}, {v},
           strCat("instruction ", v, " appears in ", count,
                  " leaf working sets (must be exactly 1)"));
    }
  }
}

// --------------------------------------------------------------------------
// ili-conservation
// --------------------------------------------------------------------------
void checkIliConservationRecord(const VerifyInput& in, const ProblemRecord& r,
                                std::vector<Diagnostic>& out) {
  if (!r.mapResult.legal) return;
  const auto clusters = r.pg.clusterNodes();
  const int numChildren = static_cast<int>(clusters.size());
  const auto& ilis = r.mapResult.ilis;

  if (static_cast<int>(ilis.size()) != numChildren) {
    emit(out, r.path, {},
         strCat("mapper produced ", ilis.size(), " ILIs for ", numChildren,
                " children"));
    return;
  }
  const WireBudgets budgets = WireBudgets::of(*in.model, r);

  for (int j = 0; j < numChildren; ++j) {
    const mapper::Ili& ili = ilis[static_cast<std::size_t>(j)];
    if (ili.child != j) {
      emit(out, r.path, {j},
           strCat("ILI at index ", j, " claims child ", ili.child));
      continue;
    }

    // Input side. A merged or boundary wire may carry extra values besides
    // the ones this child consumes (downstream latches only its booked
    // values), so the invariant is: every copy entering the child is
    // declared on at least one of its input wires — never dropped.
    std::set<int> inWires;
    std::set<ValueId> declaredIn;
    for (const mapper::WireValues& wire : ili.inputs) {
      if (!inWires.insert(wire.wire).second) {
        emit(out, r.path, {j, wire.wire},
             strCat("child ", j, " declares input wire ", wire.wire,
                    " twice"));
      }
      declaredIn.insert(wire.values.begin(), wire.values.end());
    }
    if (static_cast<int>(ili.inputs.size()) > budgets.inCap(j)) {
      emit(out, r.path, {j},
           strCat("child ", j, " uses ", ili.inputs.size(),
                  " input wires, budget is ", budgets.inCap(j)));
    }
    for (const ValueId v : flowInto(r, clusters[static_cast<std::size_t>(j)])) {
      if (declaredIn.count(v) == 0) {
        emit(out, r.path, {j, v.value()},
             strCat("copy of value ", v.value(), " entering child ", j,
                    " is not declared by its ILI (dropped copy)"));
      }
    }

    // Output side: the sender's outgoing values are an exact partition of
    // its wires — each flowing value leaves on exactly one wire, and no
    // wire carries a value that never flows.
    const std::set<ValueId> outgoing =
        flowOutOf(r, clusters[static_cast<std::size_t>(j)]);
    std::set<int> outWires;
    std::map<ValueId, int> declaredOut;
    for (const mapper::WireValues& wire : ili.outputs) {
      if (!outWires.insert(wire.wire).second) {
        emit(out, r.path, {j, wire.wire},
             strCat("child ", j, " declares output wire ", wire.wire,
                    " twice"));
      }
      for (const ValueId v : wire.values) ++declaredOut[v];
    }
    if (static_cast<int>(ili.outputs.size()) > budgets.outBudget(j)) {
      emit(out, r.path, {j},
           strCat("child ", j, " drives ", ili.outputs.size(),
                  " output wires, budget is ", budgets.outBudget(j)));
    }
    for (const ValueId v : outgoing) {
      const auto it = declaredOut.find(v);
      const int count = it == declaredOut.end() ? 0 : it->second;
      if (count != 1) {
        emit(out, r.path, {j, v.value()},
             strCat("value ", v.value(), " leaving child ", j,
                    " rides ", count, " output wires (must be exactly 1)"));
      }
    }
    for (const auto& [v, count] : declaredOut) {
      if (outgoing.count(v) == 0) {
        emit(out, r.path, {j, v.value()},
             strCat("child ", j, " declares value ", v.value(),
                    " on an output wire but no copy of it leaves the "
                    "child"));
      }
    }
  }

  // Serialization-pressure integrity: the recorded max must match a
  // recomputation over the emitted wires (boundary input wires included,
  // whether or not any child latches them — mirroring the mapper).
  int recomputed = 0;
  for (const mapper::Ili& ili : ilis) {
    for (const mapper::WireValues& wire : ili.outputs) {
      recomputed = std::max(recomputed, static_cast<int>(wire.values.size()));
    }
  }
  for (const ClusterId inNode : r.pg.inputNodes()) {
    recomputed = std::max(
        recomputed,
        static_cast<int>(r.pg.node(inNode).boundaryValues.size()));
  }
  if (recomputed != r.mapResult.maxValuesPerWire) {
    emit(out, r.path, {},
         strCat("recorded maxValuesPerWire ", r.mapResult.maxValuesPerWire,
                " does not match recomputation ", recomputed));
  }
}

void checkIliConservation(const VerifyInput& in,
                          std::vector<Diagnostic>& out) {
  if (in.record != nullptr) {
    checkIliConservationRecord(in, *in.record, out);
    return;
  }
  if (!in.result->legal) return;
  for (const auto& record : in.result->records) {
    checkIliConservationRecord(in, *record, out);
  }
}

// --------------------------------------------------------------------------
// topology
// --------------------------------------------------------------------------
void checkTopologyRecord(const VerifyInput& in, const ProblemRecord& r,
                         std::vector<Diagnostic>& out) {
  if (!r.mapResult.legal) return;
  const int numChildren = static_cast<int>(r.pg.clusterNodes().size());
  const int numInputs = static_cast<int>(r.pg.inputNodes().size());
  const int numOutputs = static_cast<int>(r.pg.outputNodes().size());
  const WireBudgets budgets = WireBudgets::of(*in.model, r);

  for (const machine::MuxSetting& s : r.mapResult.reconfig.settings) {
    if (s.problemPath != r.path) {
      emit(out, r.path, {s.dstChild, s.dstWire},
           strCat("MUX setting targets problem [", strJoin(s.problemPath, "."),
                  "], expected [", strJoin(r.path, "."), "]"));
      continue;
    }
    if (s.dstChild >= numChildren) {
      // Drives one of the problem's boundary output wires.
      const int outIndex = s.dstChild - numChildren;
      if (outIndex >= numOutputs) {
        emit(out, r.path, {s.dstChild},
             strCat("MUX setting drives boundary output ", outIndex,
                    " but the problem has ", numOutputs, " output wires"));
      }
      if (s.dstWire != 0) {
        emit(out, r.path, {s.dstChild, s.dstWire},
             strCat("boundary output connection must use dstWire 0, got ",
                    s.dstWire));
      }
    } else if (s.dstChild < 0 || s.dstWire < 0 ||
               s.dstWire >= budgets.inCap(s.dstChild)) {
      emit(out, r.path, {s.dstChild, s.dstWire},
           strCat("MUX setting programs input wire ", s.dstWire, " of child ",
                  s.dstChild, ", surviving budget is ",
                  s.dstChild >= 0 ? budgets.inCap(s.dstChild) : 0));
    }
    if (s.srcIsBoundary) {
      if (s.srcWire < 0 || s.srcWire >= numInputs) {
        emit(out, r.path, {s.srcWire},
             strCat("MUX setting reads boundary wire ", s.srcWire,
                    " but the problem has ", numInputs, " input wires"));
      }
    } else if (s.srcChild < 0 || s.srcChild >= numChildren ||
               s.srcWire < 0 || s.srcWire >= budgets.outBudget(s.srcChild)) {
      emit(out, r.path, {s.srcChild, s.srcWire},
           strCat("MUX setting reads output wire ", s.srcWire, " of child ",
                  s.srcChild, ", surviving budget is ",
                  s.srcChild >= 0 && s.srcChild < numChildren
                      ? budgets.outBudget(s.srcChild)
                      : 0));
    }
  }

  try {
    r.mapResult.reconfig.validate();
  } catch (const std::exception& e) {
    emit(out, r.path, {}, strCat("reconfiguration invalid: ", e.what()));
  }
}

void checkTopology(const VerifyInput& in, std::vector<Diagnostic>& out) {
  if (in.record != nullptr) {
    checkTopologyRecord(in, *in.record, out);
    return;
  }
  const HcaResult& result = *in.result;
  if (!result.legal) return;

  std::set<std::vector<int>> recordPaths;
  for (const auto& record : result.records) {
    checkTopologyRecord(in, *record, out);
    recordPaths.insert(record->path);
  }
  // The global stream must only program problems the decomposition actually
  // solved, and no select register twice across the whole fabric.
  for (const machine::MuxSetting& s : result.reconfig.settings) {
    if (recordPaths.count(s.problemPath) == 0) {
      emit(out, s.problemPath, {s.dstChild, s.dstWire},
           strCat("MUX setting programs problem [",
                  strJoin(s.problemPath, "."),
                  "] which no record describes"));
    }
  }
  try {
    result.reconfig.validate();
  } catch (const std::exception& e) {
    emit(out, {}, {},
         strCat("global reconfiguration stream invalid: ", e.what()));
  }
}

// --------------------------------------------------------------------------
// fault-survivors
// --------------------------------------------------------------------------
void checkFaultSurvivorsRecord(const VerifyInput& in, const ProblemRecord& r,
                               std::vector<Diagnostic>& out) {
  (void)in;
  const auto clusters = r.pg.clusterNodes();
  for (std::size_t j = 0; j < clusters.size(); ++j) {
    const ClusterId c = clusters[j];
    if (!r.pg.node(c).dead) continue;
    for (std::size_t i = 0;
         i < r.wsChild.size() && i < r.workingSet.size(); ++i) {
      if (r.wsChild[i] == static_cast<int>(j)) {
        emit(out, r.path, {r.workingSet[i].value(), static_cast<int>(j)},
             strCat("node ", r.workingSet[i].value(),
                    " assigned to dead child ", j));
      }
    }
    for (std::size_t i = 0;
         i < r.relayChild.size() && i < r.relayValues.size(); ++i) {
      if (r.relayChild[i] == static_cast<int>(j)) {
        emit(out, r.path, {r.relayValues[i].value(), static_cast<int>(j)},
             strCat("relay value ", r.relayValues[i].value(),
                    " parked on dead child ", j));
      }
    }
    if (!flowInto(r, c).empty() || !flowOutOf(r, c).empty()) {
      emit(out, r.path, {static_cast<int>(j)},
           strCat("dead child ", j, " carries copy traffic"));
    }
    if (r.mapResult.legal &&
        j < r.mapResult.ilis.size() &&
        (!r.mapResult.ilis[j].inputs.empty() ||
         !r.mapResult.ilis[j].outputs.empty())) {
      emit(out, r.path, {static_cast<int>(j)},
           strCat("dead child ", j, " has a non-empty ILI"));
    }
  }
}

void checkFaultSurvivors(const VerifyInput& in, std::vector<Diagnostic>& out) {
  if (in.record != nullptr) {
    checkFaultSurvivorsRecord(in, *in.record, out);
    return;
  }
  const HcaResult& result = *in.result;
  if (!result.legal) return;
  for (const auto& record : result.records) {
    checkFaultSurvivorsRecord(in, *record, out);
  }
  // Final placements only on alive CNs.
  for (std::size_t v = 0; v < result.assignment.size(); ++v) {
    const CnId cn = result.assignment[v];
    if (!cn.valid()) continue;
    if (cn.value() >= in.model->totalCns()) {
      emit(out, {}, {static_cast<std::int64_t>(v), cn.value()},
           strCat("node ", v, " assigned to CN ", cn.value(),
                  " outside the fabric (", in.model->totalCns(), " CNs)"));
    } else if (!in.model->cnAlive(cn)) {
      emit(out, {}, {static_cast<std::int64_t>(v), cn.value()},
           strCat("node ", v, " assigned to dead CN ", cn.value()));
    }
  }
  for (const core::RelayPlacement& relay : result.relays) {
    if (!relay.cn.valid() || relay.cn.value() >= in.model->totalCns()) {
      emit(out, {}, {relay.value.value()},
           strCat("relay of value ", relay.value.value(),
                  " placed on invalid CN ", to_string(relay.cn)));
    } else if (!in.model->cnAlive(relay.cn)) {
      emit(out, {}, {relay.value.value(), relay.cn.value()},
           strCat("relay of value ", relay.value.value(),
                  " placed on dead CN ", relay.cn.value()));
    }
  }
}

// --------------------------------------------------------------------------
// recv-placement
// --------------------------------------------------------------------------
void checkRecvPlacement(const VerifyInput& in, std::vector<Diagnostic>& out) {
  if (in.mapping == nullptr) return;  // nothing post-processed yet
  const core::FinalMapping& m = *in.mapping;
  const HcaResult& result = *in.result;
  if (!result.legal) return;

  if (m.cnOf.size() != static_cast<std::size_t>(m.finalDdg.numNodes())) {
    emit(out, {}, {},
         strCat("final mapping places ", m.cnOf.size(), " nodes, final DDG "
                "has ", m.finalDdg.numNodes()));
    return;
  }
  if (m.numOriginalNodes > m.finalDdg.numNodes() ||
      static_cast<std::size_t>(m.numOriginalNodes) >
          result.assignment.size()) {
    emit(out, {}, {m.numOriginalNodes},
         "final mapping claims more original nodes than exist");
    return;
  }

  // The original prefix must keep the HCA placements verbatim.
  for (std::int32_t v = 0; v < m.numOriginalNodes; ++v) {
    if (m.cnOf[static_cast<std::size_t>(v)] !=
        result.assignment[static_cast<std::size_t>(v)]) {
      emit(out, {}, {v},
           strCat("post-process moved node ", v, " from CN ",
                  to_string(result.assignment[static_cast<std::size_t>(v)]),
                  " to CN ",
                  to_string(m.cnOf[static_cast<std::size_t>(v)])));
    }
  }

  // Every appended node is a recv described by exactly one RecvInfo, placed
  // on the CN the info records, which must be alive.
  std::map<DdgNodeId, const core::FinalMapping::RecvInfo*> infoOf;
  for (const auto& info : m.recvs) {
    if (info.recvNode.value() < m.numOriginalNodes ||
        info.recvNode.value() >= m.finalDdg.numNodes()) {
      emit(out, {}, {info.recvNode.value()},
           strCat("RecvInfo points at node ", info.recvNode.value(),
                  " outside the appended recv range"));
      continue;
    }
    if (!infoOf.emplace(info.recvNode, &info).second) {
      emit(out, {}, {info.recvNode.value()},
           strCat("recv node ", info.recvNode.value(),
                  " described by two RecvInfos"));
      continue;
    }
    const auto& node = m.finalDdg.node(info.recvNode);
    if (node.op != ddg::Op::kRecv) {
      emit(out, {}, {info.recvNode.value()},
           strCat("RecvInfo points at node ", info.recvNode.value(),
                  " which is not a recv"));
      continue;
    }
    if (node.operands.size() != 1 ||
        node.operands[0].src.value() != info.value.value()) {
      emit(out, {}, {info.recvNode.value(), info.value.value()},
           strCat("recv node ", info.recvNode.value(),
                  " does not read value ", info.value.value()));
    }
    if (m.cnOf[info.recvNode.index()] != info.cn) {
      emit(out, {}, {info.recvNode.value(), info.value.value()},
           strCat("recv of value ", info.value.value(), " recorded on CN ",
                  to_string(info.cn), " but placed on CN ",
                  to_string(m.cnOf[info.recvNode.index()])));
    }
    if (!info.cn.valid() || info.cn.value() >= in.model->totalCns() ||
        !in.model->cnAlive(info.cn)) {
      emit(out, {}, {info.recvNode.value(), info.value.value()},
           strCat("recv of value ", info.value.value(),
                  " placed on dead or invalid CN ", to_string(info.cn)));
    }
  }
  for (std::int32_t v = m.numOriginalNodes; v < m.finalDdg.numNodes(); ++v) {
    if (infoOf.count(DdgNodeId(v)) == 0) {
      emit(out, {}, {v},
           strCat("appended node ", v, " has no RecvInfo"));
    }
  }

  // No original instruction may read an instruction value across CNs: the
  // post-process must have rewritten the operand to a CN-local recv (a recv
  // read on another cluster is exactly the "recv on the wrong cluster"
  // corruption).
  for (std::int32_t v = 0; v < m.numOriginalNodes; ++v) {
    const auto& node = m.finalDdg.node(DdgNodeId(v));
    if (!ddg::isInstruction(node.op)) continue;
    const CnId myCn = m.cnOf[static_cast<std::size_t>(v)];
    for (const auto& operand : node.operands) {
      if (!ddg::isInstruction(m.finalDdg.node(operand.src).op)) continue;
      const CnId srcCn = m.cnOf[operand.src.index()];
      if (srcCn == myCn) continue;
      emit(out, {}, {v, operand.src.value()},
           strCat("node ", v, " on CN ", to_string(myCn), " reads node ",
                  operand.src.value(), " on CN ", to_string(srcCn),
                  " without a CN-local recv"));
    }
  }

  // Every relay placement materialized as a receive-and-forward recv.
  for (const core::RelayPlacement& relay : result.relays) {
    bool found = false;
    for (const auto& info : m.recvs) {
      if (info.isRelay && info.value == relay.value && info.cn == relay.cn) {
        found = true;
        break;
      }
    }
    if (!found) {
      emit(out, {}, {relay.value.value()},
           strCat("relay of value ", relay.value.value(), " on CN ",
                  to_string(relay.cn), " has no receive-and-forward recv"));
    }
  }
}

// --------------------------------------------------------------------------
// coherency (the Section 4.1 checker, as the final registered check)
// --------------------------------------------------------------------------
void checkCoherencyAdapter(const VerifyInput& in,
                           std::vector<Diagnostic>& out) {
  if (!in.result->legal) return;
  for (const core::CoherencyViolation& violation :
       core::checkCoherency(*in.ddg, *in.model, *in.result)) {
    emit(out, violation.path, {violation.value.value()}, violation.message);
  }
}

}  // namespace

const CheckRegistry& CheckRegistry::builtin() {
  static const CheckRegistry* const registry = [] {
    auto* r = new CheckRegistry();
    r->add({"ddg-well-formed", "input DDG validates", CheckStage::kInput,
            /*perRecord=*/false, checkDdgWellFormed});
    r->add({"see-solution",
            "SEE assignment legality per sub-problem (exactly-once "
            "assignment, candidate-filter respect, cost-input integrity)",
            CheckStage::kSolve, /*perRecord=*/true, checkSeeSolution});
    r->add({"ili-conservation",
            "mapper copy-flow conservation and per-wire budgets",
            CheckStage::kMap, /*perRecord=*/true, checkIliConservation});
    r->add({"topology", "MUX reconfiguration legality",
            CheckStage::kMap, /*perRecord=*/true, checkTopology});
    r->add({"fault-survivors",
            "no placement, relay, copy or ILI on dead resources",
            CheckStage::kResult, /*perRecord=*/true, checkFaultSurvivors});
    r->add({"recv-placement",
            "post-process recv legality (needs a FinalMapping)",
            CheckStage::kPostProcess, /*perRecord=*/false,
            checkRecvPlacement});
    r->add({"coherency",
            "Section 4.1 value-routability check over the audit records",
            CheckStage::kResult, /*perRecord=*/false, checkCoherencyAdapter});
    return r;
  }();
  return *registry;
}

}  // namespace hca::verify
