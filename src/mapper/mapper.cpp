#include "mapper/mapper.hpp"

#include <algorithm>
#include <map>
#include <set>

#include "machine/dspfabric.hpp"
#include "support/check.hpp"
#include "support/str.hpp"

namespace hca::mapper {

namespace {

/// One output-wire assignment of a sending child: a set of values sharing a
/// wire, the sibling destinations reading it, and the boundary output
/// wires it drives. Two parent wires may select the same source wire, so a
/// group can serve several boundary outputs (each then physically carries
/// the union; downstream consumers latch only their booked values).
struct WireGroup {
  std::vector<ValueId> values;
  std::set<std::int32_t> destChildren;     // cluster node ids reading this wire
  std::set<std::int32_t> boundaryOutputs;  // output node ids driven by it

  void mergeFrom(WireGroup& other) {
    values.insert(values.end(), other.values.begin(), other.values.end());
    destChildren.insert(other.destChildren.begin(), other.destChildren.end());
    boundaryOutputs.insert(other.boundaryOutputs.begin(),
                           other.boundaryOutputs.end());
  }
};

struct Sender {
  ClusterId cluster;
  std::vector<WireGroup> groups;
};

}  // namespace

MapperInput faultAwareMapperInput(const machine::DspFabricModel& model,
                                  const std::vector<int>& path,
                                  const machine::PatternGraph& pg,
                                  const machine::CopyFlow& flow) {
  const int level = static_cast<int>(path.size());
  const bool leaf = level == model.numLevels() - 1;
  const machine::LevelSpec spec = model.levelSpec(level);
  MapperInput input;
  input.pg = &pg;
  input.flow = &flow;
  input.inWiresPerChild = spec.inWires;
  input.outWiresPerChild = spec.outWires;
  input.maxWiresIntoChild = leaf ? 0 : spec.maxWiresIntoChild;
  if (model.hasFaults()) {
    const machine::ProblemSpec pspec = model.problemSpec(path);
    if (pspec.touched) {
      input.inWiresOfChild = pspec.inWiresOfChild;
      input.outWiresOfChild = pspec.outWiresOfChild;
      if (!leaf) input.maxWiresIntoChildOf = pspec.maxWiresIntoChildOf;
    }
  }
  input.problemPath = path;
  return input;
}

MapResult Mapper::map(const MapperInput& input) const {
  HCA_REQUIRE(input.pg != nullptr && input.flow != nullptr,
              "Mapper needs a PatternGraph and a CopyFlow");
  HCA_REQUIRE(input.inWiresPerChild >= 1 && input.outWiresPerChild >= 1,
              "wire counts must be >= 1");
  const auto& pg = *input.pg;
  const auto& flow = *input.flow;

  MapResult result;
  const auto children = pg.clusterNodes();
  const auto inputNodes = pg.inputNodes();
  const auto outputNodes = pg.outputNodes();
  const int numChildren = static_cast<int>(children.size());

  const auto checkPerChild = [&](const std::vector<int>& v, const char* what) {
    HCA_REQUIRE(v.empty() || static_cast<int>(v.size()) == numChildren,
                "Mapper " << what << " must be empty or one entry per child");
  };
  checkPerChild(input.inWiresOfChild, "inWiresOfChild");
  checkPerChild(input.outWiresOfChild, "outWiresOfChild");
  checkPerChild(input.maxWiresIntoChildOf, "maxWiresIntoChildOf");
  /// Surviving output wires of one sending child.
  const auto outBudgetOf = [&](int si) {
    return input.outWiresOfChild.empty()
               ? input.outWiresPerChild
               : input.outWiresOfChild[static_cast<std::size_t>(si)];
  };
  /// Surviving input-wire budget of one receiving child (MUX wires further
  /// capped by the surviving crossbar lanes at the leaves).
  const auto inCapOf = [&](int di) {
    const int wires =
        input.inWiresOfChild.empty()
            ? input.inWiresPerChild
            : input.inWiresOfChild[static_cast<std::size_t>(di)];
    const int extra =
        input.maxWiresIntoChildOf.empty()
            ? input.maxWiresIntoChild
            : input.maxWiresIntoChildOf[static_cast<std::size_t>(di)];
    return extra > 0 ? std::min(wires, extra) : wires;
  };

  // Cluster node id -> child index; output node id -> boundary index. PG
  // node ids are dense (indexes into the node table), so a flat vector
  // replaces the former std::map: O(1) lookups, one contiguous allocation.
  const auto numPgNodes = static_cast<std::size_t>(pg.numNodes());
  std::vector<int> childIndex(numPgNodes, -1);
  for (int i = 0; i < numChildren; ++i) {
    childIndex[static_cast<std::size_t>(
        children[static_cast<std::size_t>(i)].value())] = i;
  }
  std::vector<int> outputIndex(numPgNodes, -1);
  for (std::size_t i = 0; i < outputNodes.size(); ++i) {
    outputIndex[static_cast<std::size_t>(outputNodes[i].value())] =
        static_cast<int>(i);
  }
  const auto indexIn = [](const std::vector<int>& table, std::int32_t node) {
    const int index = table[static_cast<std::size_t>(node)];
    HCA_CHECK(index >= 0, "PG node " << node << " missing from index table");
    return index;
  };

  // Every output node must be fed by exactly one sender (unary fan-in of
  // the outgoing MUX wire). The SEE enforces this during assignment; for
  // externally-produced flows (the baselines' post-hoc checks) it must be
  // re-validated here.
  for (const ClusterId out : outputNodes) {
    int feeders = 0;
    for (const PgArcId arc : pg.inArcs(out)) {
      if (flow.isReal(arc)) ++feeders;
    }
    if (feeders > 1) {
      result.legal = false;
      result.failureReason =
          strCat("output node ", indexIn(outputIndex, out.value()),
                 " is fed by ", feeders, " clusters (unary fan-in violated)");
      return result;
    }
  }

  // ---- Phase A: group each sender's outgoing values onto output wires. ----
  //
  // Values sharing an identical destination set share a wire (broadcast,
  // Fig. 9); values bound to the same boundary output node must ride the
  // one wire driving it. When the output-wire budget runs out, groups are
  // merged: a merged wire may drive several parent wires and carry sibling
  // traffic besides — the extra values are simply ignored downstream.
  std::vector<Sender> senders(static_cast<std::size_t>(numChildren));
  for (int si = 0; si < numChildren; ++si) {
    const ClusterId s = children[static_cast<std::size_t>(si)];
    senders[static_cast<std::size_t>(si)].cluster = s;

    // Destination sets per value.
    std::map<ValueId, std::set<std::int32_t>> destsOf;
    std::map<ValueId, std::int32_t> boundaryOf;
    for (const PgArcId arc : pg.outArcs(s)) {
      const ClusterId dst = pg.arc(arc).dst;
      for (const ValueId v : flow.copiesOn(arc)) {
        if (pg.node(dst).kind == machine::PgNodeKind::kOutput) {
          HCA_CHECK(boundaryOf.count(v) == 0 || boundaryOf[v] == dst.value(),
                    "value bound to two output wires");
          boundaryOf[v] = dst.value();
        } else {
          destsOf[v].insert(dst.value());
        }
        if (destsOf.count(v) == 0) destsOf[v];  // ensure key exists
      }
    }

    // Boundary groups first: one per output node fed by s, then sibling
    // groups keyed by exact destination set (broadcast sharing, Fig. 9).
    std::map<std::int32_t, WireGroup> boundaryGroups;
    std::map<std::set<std::int32_t>, WireGroup> siblingGroups;
    for (const auto& [v, dests] : destsOf) {
      const auto bIt = boundaryOf.find(v);
      if (bIt != boundaryOf.end()) {
        WireGroup& g = boundaryGroups[bIt->second];
        g.boundaryOutputs.insert(bIt->second);
        g.values.push_back(v);
        g.destChildren.insert(dests.begin(), dests.end());
      } else {
        WireGroup& g = siblingGroups[dests];
        g.values.push_back(v);
        g.destChildren = dests;
      }
    }

    auto& groups = senders[static_cast<std::size_t>(si)].groups;
    for (auto& [node, g] : boundaryGroups) groups.push_back(std::move(g));
    for (auto& [dests, g] : siblingGroups) groups.push_back(std::move(g));

    // Distribution: use *all* available wires (Fig. 9b: "it tries to use
    // all the possible communication patterns to map the remaining
    // copies"). Splitting fat sibling groups matters beyond pressure: a
    // wire's value list becomes an outNode_MaxIn co-location group one
    // level down, so thin wires keep the child problems solvable.
    // Boundary groups are not splittable (the parent wire is fixed).
    while (static_cast<int>(groups.size()) < outBudgetOf(si)) {
      int fattest = -1;
      for (int i = 0; i < static_cast<int>(groups.size()); ++i) {
        const auto& g = groups[static_cast<std::size_t>(i)];
        if (!g.boundaryOutputs.empty() || g.values.size() < 2) continue;
        if (fattest == -1 ||
            g.values.size() >
                groups[static_cast<std::size_t>(fattest)].values.size()) {
          fattest = i;
        }
      }
      if (fattest == -1) break;
      auto& g = groups[static_cast<std::size_t>(fattest)];
      std::sort(g.values.begin(), g.values.end());
      WireGroup half;
      half.destChildren = g.destChildren;
      const std::size_t keep = g.values.size() / 2;
      half.values.assign(g.values.begin() + static_cast<std::ptrdiff_t>(keep),
                         g.values.end());
      g.values.resize(keep);
      groups.push_back(std::move(half));
    }

    // Cap: merge the two smallest groups while the wire budget is blown.
    while (static_cast<int>(groups.size()) > outBudgetOf(si)) {
      if (groups.size() < 2) {
        // A single unmergeable group over budget: the child must drive a
        // wire but none survives (dead output wires).
        result.legal = false;
        result.failureReason =
            strCat("child ", si, " must drive ", groups.size(),
                   " output wires but only ", outBudgetOf(si), " survive");
        return result;
      }
      int a = -1, b = -1;
      for (int i = 0; i < static_cast<int>(groups.size()); ++i) {
        const auto size = groups[static_cast<std::size_t>(i)].values.size();
        if (a == -1 ||
            size < groups[static_cast<std::size_t>(a)].values.size()) {
          b = a;
          a = i;
        } else if (b == -1 ||
                   size < groups[static_cast<std::size_t>(b)].values.size()) {
          b = i;
        }
      }
      HCA_CHECK(a != -1 && b != -1, "merge candidates must exist");
      auto& ga = groups[static_cast<std::size_t>(std::min(a, b))];
      auto& gb = groups[static_cast<std::size_t>(std::max(a, b))];
      ga.mergeFrom(gb);
      groups.erase(groups.begin() + std::max(a, b));
    }
  }

  // ---- Phase B: satisfy per-receiver input-wire budgets by merging. ------
  const auto wiresInto = [&](std::int32_t dstNodeId) {
    int count = 0;
    // Boundary input wires with traffic for dst.
    for (const ClusterId in : inputNodes) {
      const auto arc = pg.arcBetween(in, ClusterId(dstNodeId));
      if (arc.has_value() && flow.isReal(*arc)) ++count;
    }
    // Sibling wires carrying at least one value for dst.
    for (const auto& sender : senders) {
      for (const auto& g : sender.groups) {
        if (g.destChildren.count(dstNodeId) != 0) ++count;
      }
    }
    return count;
  };

  for (int di = 0; di < numChildren; ++di) {
    const std::int32_t d = children[static_cast<std::size_t>(di)].value();
    const int inCap = inCapOf(di);
    while (wiresInto(d) > inCap) {
      // Merge two groups of the sender with the most wires into d.
      int bestSender = -1;
      std::vector<int> mergeable;
      for (int si = 0; si < numChildren; ++si) {
        auto& groups = senders[static_cast<std::size_t>(si)].groups;
        std::vector<int> touching;
        for (int gi = 0; gi < static_cast<int>(groups.size()); ++gi) {
          if (groups[static_cast<std::size_t>(gi)].destChildren.count(d) !=
              0) {
            touching.push_back(gi);
          }
        }
        if (touching.size() >= 2 &&
            (bestSender == -1 || touching.size() > mergeable.size())) {
          bestSender = si;
          mergeable = touching;
        }
      }
      if (bestSender == -1) {
        result.legal = false;
        result.failureReason =
            strCat("child ", di, " needs ", wiresInto(d),
                   " input wires but only ", inCap, " are available");
        return result;
      }
      auto& groups = senders[static_cast<std::size_t>(bestSender)].groups;
      groups[static_cast<std::size_t>(mergeable[0])].mergeFrom(
          groups[static_cast<std::size_t>(mergeable[1])]);
      groups.erase(groups.begin() + mergeable[1]);
    }
  }

  // ---- Emit ILIs, MUX settings and statistics. ----------------------------
  for (int si = 0; si < numChildren; ++si) {
    result.wiresAvailable += outBudgetOf(si);
  }
  result.ilis.resize(static_cast<std::size_t>(numChildren));
  std::vector<int> inWireCursor(static_cast<std::size_t>(numChildren), 0);

  for (int di = 0; di < numChildren; ++di) {
    result.ilis[static_cast<std::size_t>(di)].child = di;
  }

  // Sender output wires (deterministic: boundary groups then sibling
  // groups, already in construction order).
  for (int si = 0; si < numChildren; ++si) {
    auto& sender = senders[static_cast<std::size_t>(si)];
    for (int wire = 0; wire < static_cast<int>(sender.groups.size());
         ++wire) {
      auto& g = sender.groups[static_cast<std::size_t>(wire)];
      std::sort(g.values.begin(), g.values.end());
      result.maxValuesPerWire = std::max(
          result.maxValuesPerWire, static_cast<int>(g.values.size()));
      ++result.wiresUsed;
      // The sender's own ILI: values leaving on this wire.
      result.ilis[static_cast<std::size_t>(si)].outputs.push_back(
          WireValues{wire, g.values});
      // Boundary output connections (several parent wires may select the
      // same source wire).
      for (const std::int32_t outNode : g.boundaryOutputs) {
        machine::MuxSetting setting;
        setting.problemPath = input.problemPath;
        setting.dstChild = numChildren + indexIn(outputIndex, outNode);
        setting.dstWire = 0;
        setting.srcChild = si;
        setting.srcWire = wire;
        result.reconfig.settings.push_back(setting);
      }
      // Sibling connections: one input wire per reading child.
      for (const std::int32_t dstNode : g.destChildren) {
        const int di = indexIn(childIndex, dstNode);
        const int dstWire = inWireCursor[static_cast<std::size_t>(di)]++;
        machine::MuxSetting setting;
        setting.problemPath = input.problemPath;
        setting.dstChild = di;
        setting.dstWire = dstWire;
        setting.srcChild = si;
        setting.srcWire = wire;
        result.reconfig.settings.push_back(setting);
        result.ilis[static_cast<std::size_t>(di)].inputs.push_back(
            WireValues{dstWire, g.values});
      }
    }
  }

  // Boundary input wires reaching children.
  for (std::size_t bi = 0; bi < inputNodes.size(); ++bi) {
    const ClusterId in = inputNodes[bi];
    auto boundaryValues = pg.node(in).boundaryValues;
    std::sort(boundaryValues.begin(), boundaryValues.end());
    result.maxValuesPerWire = std::max(
        result.maxValuesPerWire, static_cast<int>(boundaryValues.size()));
    for (int di = 0; di < numChildren; ++di) {
      const auto arc =
          pg.arcBetween(in, children[static_cast<std::size_t>(di)]);
      if (!arc.has_value() || !flow.isReal(*arc)) continue;
      const int dstWire = inWireCursor[static_cast<std::size_t>(di)]++;
      machine::MuxSetting setting;
      setting.problemPath = input.problemPath;
      setting.dstChild = di;
      setting.dstWire = dstWire;
      setting.srcIsBoundary = true;
      setting.srcWire = static_cast<int>(bi);
      result.reconfig.settings.push_back(setting);
      result.ilis[static_cast<std::size_t>(di)].inputs.push_back(
          WireValues{dstWire, boundaryValues});
    }
  }

  // Final verification of the budgets.
  for (int di = 0; di < numChildren; ++di) {
    const int used = inWireCursor[static_cast<std::size_t>(di)];
    HCA_CHECK(used <= inCapOf(di),
              "mapper exceeded input-wire budget of child "
                  << di << ": " << used << " > " << inCapOf(di));
  }
  result.reconfig.validate();
  result.legal = true;
  return result;
}

}  // namespace hca::mapper
