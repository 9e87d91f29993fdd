#include "machine/dspfabric.hpp"

#include <algorithm>

#include "support/check.hpp"
#include "support/str.hpp"

namespace hca::machine {

std::string DspFabricConfig::toString() const {
  int cns = 1;
  for (int b : branching) cns *= b;
  return strCat("DSPFabric[", cns, " CNs, N=", n, ", M=", m, ", K=", k,
                ", DMA=", dmaSlots, "]");
}

DspFabricModel::DspFabricModel(DspFabricConfig config, FaultSet faults)
    : config_(std::move(config)), faults_(std::move(faults)) {
  HCA_REQUIRE(!config_.branching.empty(), "DSPFabric needs >= 1 level");
  for (const int b : config_.branching) {
    HCA_REQUIRE(b >= 2, "each hierarchy level needs >= 2 children, got " << b);
    totalCns_ *= b;
  }
  HCA_REQUIRE(config_.n >= 1 && config_.m >= 1 && config_.k >= 1,
              "MUX capacities must be >= 1");
  HCA_REQUIRE(config_.cnInWires >= 1 && config_.cnOutWires >= 1,
              "CN wire counts must be >= 1");
  HCA_REQUIRE(config_.dmaSlots >= 1, "DMA needs >= 1 slot");

  // Digest the fault set into per-CN liveness, per-problem wire-fault
  // counts and per-leaf lane-fault counts, validating ranges as we go.
  std::vector<char> cnDead(static_cast<std::size_t>(totalCns_), 0);
  for (const CnId cn : faults_.deadCns) {
    HCA_REQUIRE(cn.valid() && cn.value() < totalCns_,
                "fault: dead CN id out of range: " << to_string(cn));
    cnDead[cn.index()] = 1;
  }
  alivePrefix_.assign(static_cast<std::size_t>(totalCns_) + 1, 0);
  for (int i = 0; i < totalCns_; ++i) {
    alivePrefix_[static_cast<std::size_t>(i) + 1] =
        alivePrefix_[static_cast<std::size_t>(i)] +
        (cnDead[static_cast<std::size_t>(i)] ? 0 : 1);
  }
  aliveCns_ = alivePrefix_.back();

  const auto requirePathInRange = [&](const std::vector<int>& path,
                                      const char* what) {
    HCA_REQUIRE(static_cast<int>(path.size()) <= numLevels(),
                "fault: " << what << " path deeper than the hierarchy");
    for (std::size_t l = 0; l < path.size(); ++l) {
      HCA_REQUIRE(path[l] >= 0 && path[l] < config_.branching[l],
                  "fault: " << what << " path index out of range at level "
                            << l << ": " << path[l]);
    }
  };
  for (const DeadWire& w : faults_.deadWires) {
    requirePathInRange(w.problemPath, "dead wire");
    const int level = static_cast<int>(w.problemPath.size());
    HCA_REQUIRE(level < numLevels(),
                "fault: dead wire problem path names a CN, not a problem");
    const int children = config_.branching[static_cast<std::size_t>(level)];
    HCA_REQUIRE(w.child >= 0 && w.child < children,
                "fault: dead wire child index out of range: " << w.child);
    auto& counts = wireFaults_[w.problemPath];
    counts.resize(static_cast<std::size_t>(children));
    auto& entry = counts[static_cast<std::size_t>(w.child)];
    (w.input ? entry.in : entry.out) += 1;
  }
  for (const DeadLane& l : faults_.deadLanes) {
    HCA_REQUIRE(numLevels() >= 2, "fault: lane faults need >= 2 levels");
    HCA_REQUIRE(static_cast<int>(l.leafPath.size()) == numLevels() - 1,
                "fault: lane path must address a leaf crossbar (one index "
                "per non-leaf level), got depth "
                    << l.leafPath.size());
    requirePathInRange(l.leafPath, "dead lane");
    laneFaults_[l.leafPath] += 1;
  }
}

LevelSpec DspFabricModel::levelSpec(int level) const {
  HCA_REQUIRE(level >= 0 && level < numLevels(),
              "level out of range: " << level);
  LevelSpec spec;
  spec.children = config_.branching[static_cast<std::size_t>(level)];
  const bool leaf = level == numLevels() - 1;
  if (leaf) {
    // Children are computation nodes behind the crossbar.
    spec.inWires = config_.cnInWires;
    spec.outWires = config_.cnOutWires;
    spec.maxWiresIntoChild = 0;  // nothing below a CN
  } else {
    // MUX capacity: N at level 0, M below; deeper (non-paper) levels reuse M.
    const int cap = level == 0 ? config_.n : config_.m;
    spec.inWires = cap;
    spec.outWires = cap;
    const bool childIsLeaf = level + 1 == numLevels() - 1;
    // Wires entering a child sub-problem: bounded by the child's input
    // wires at this interconnect (= cap), and additionally by the K
    // crossbar inputs when the child is a leaf.
    spec.maxWiresIntoChild = childIsLeaf ? std::min(cap, config_.k) : cap;
  }
  return spec;
}

std::string DspFabricModel::levelName(int level) const {
  HCA_REQUIRE(level >= 0 && level < numLevels(),
              "level out of range: " << level);
  if (level == 0) return "cluster-sets";
  if (level == numLevels() - 1) return "leaf-crossbars";
  if (numLevels() <= 3) return "sub-clusters";
  return "sub-clusters." + std::to_string(level);
}

ResourceTable DspFabricModel::clusterResources(int level) const {
  HCA_REQUIRE(level >= 0 && level < numLevels(),
              "level out of range: " << level);
  int cnsBelow = 1;
  for (int l = level + 1; l < numLevels(); ++l) {
    cnsBelow *= config_.branching[static_cast<std::size_t>(l)];
  }
  return ResourceTable::computationNode() * cnsBelow;
}

PgConstraints DspFabricModel::constraints(int level) const {
  const LevelSpec spec = levelSpec(level);
  PgConstraints c;
  c.maxInNeighbors = spec.inWires;
  return c;
}

PatternGraph DspFabricModel::patternGraph(int level) const {
  const LevelSpec spec = levelSpec(level);
  const ResourceTable rt = clusterResources(level);
  PatternGraph pg;
  for (int i = 0; i < spec.children; ++i) {
    pg.addCluster(rt, strCat("L", level, ".", i));
  }
  pg.connectClustersCompletely();
  return pg;
}

bool DspFabricModel::cnAlive(CnId cn) const {
  HCA_REQUIRE(cn.valid() && cn.value() < totalCns_,
              "CN id out of range: " << to_string(cn));
  return alivePrefix_[cn.index() + 1] > alivePrefix_[cn.index()];
}

int DspFabricModel::aliveCnsBelow(const std::vector<int>& path) const {
  HCA_REQUIRE(static_cast<int>(path.size()) <= numLevels(),
              "problem path deeper than the hierarchy");
  int base = 0;
  int size = totalCns_;
  for (std::size_t l = 0; l < path.size(); ++l) {
    const int b = config_.branching[l];
    HCA_REQUIRE(path[l] >= 0 && path[l] < b,
                "problem path index out of range at level " << l << ": "
                                                            << path[l]);
    size /= b;
    base += path[l] * size;
  }
  return alivePrefix_[static_cast<std::size_t>(base + size)] -
         alivePrefix_[static_cast<std::size_t>(base)];
}

ProblemSpec DspFabricModel::problemSpec(const std::vector<int>& path) const {
  const int level = static_cast<int>(path.size());
  HCA_REQUIRE(level < numLevels(), "problem path names a CN, not a problem");
  ProblemSpec spec;
  spec.level = level;
  spec.base = levelSpec(level);
  const std::size_t children = static_cast<std::size_t>(spec.base.children);
  spec.inWiresOfChild.assign(children, spec.base.inWires);
  spec.outWiresOfChild.assign(children, spec.base.outWires);
  spec.maxWiresIntoChildOf.assign(children, spec.base.maxWiresIntoChild);
  spec.childDead.assign(children, false);

  if (const auto it = wireFaults_.find(path); it != wireFaults_.end()) {
    for (std::size_t i = 0; i < children; ++i) {
      const WireFaultCount& dead = it->second[i];
      spec.inWiresOfChild[i] = std::max(0, spec.base.inWires - dead.in);
      spec.outWiresOfChild[i] = std::max(0, spec.base.outWires - dead.out);
    }
  }
  const bool childIsLeaf = level + 1 == numLevels() - 1;
  int fullBelow = 1;
  for (int l = level + 1; l < numLevels(); ++l) {
    fullBelow *= config_.branching[static_cast<std::size_t>(l)];
  }
  std::vector<int> childPath = path;
  for (std::size_t i = 0; i < children; ++i) {
    childPath.push_back(static_cast<int>(i));
    if (level < numLevels() - 1) {
      int budget = spec.inWiresOfChild[i];
      if (childIsLeaf) {
        int lanes = config_.k;
        if (const auto it = laneFaults_.find(childPath);
            it != laneFaults_.end()) {
          lanes = std::max(0, lanes - it->second);
        }
        budget = std::min(budget, lanes);
      }
      spec.maxWiresIntoChildOf[i] = budget;
    } else {
      spec.maxWiresIntoChildOf[i] = 0;  // nothing below a CN
    }
    const int alive = aliveCnsBelow(childPath);
    spec.childDead[i] = alive == 0;
    if (alive != fullBelow) spec.touched = true;
    childPath.pop_back();
  }
  spec.touched =
      spec.touched ||
      spec.inWiresOfChild !=
          std::vector<int>(children, spec.base.inWires) ||
      spec.outWiresOfChild !=
          std::vector<int>(children, spec.base.outWires) ||
      spec.maxWiresIntoChildOf !=
          std::vector<int>(children, spec.base.maxWiresIntoChild);
  return spec;
}

PatternGraph DspFabricModel::patternGraphAt(const std::vector<int>& path) const {
  const int level = static_cast<int>(path.size());
  if (!hasFaults()) return patternGraph(level);
  const ProblemSpec spec = problemSpec(path);
  if (!spec.touched) return patternGraph(level);
  PatternGraph pg;
  std::vector<int> childPath = path;
  for (int i = 0; i < spec.base.children; ++i) {
    childPath.push_back(i);
    const int alive = aliveCnsBelow(childPath);
    const ClusterId id =
        pg.addCluster(ResourceTable::computationNode() * alive,
                      strCat("L", level, ".", i));
    if (alive == 0) pg.markDead(id);
    const std::size_t ci = static_cast<std::size_t>(i);
    if (spec.inWiresOfChild[ci] != spec.base.inWires ||
        spec.outWiresOfChild[ci] != spec.base.outWires) {
      pg.setWireCaps(id, spec.inWiresOfChild[ci], spec.outWiresOfChild[ci]);
    }
    childPath.pop_back();
  }
  pg.connectClustersCompletely();
  return pg;
}

std::string DspFabricModel::faultViabilityError() const {
  if (!hasFaults()) return {};
  if (aliveCns_ == 0) return "no surviving computation node";
  std::vector<int> path;
  return viabilityWalk(path);
}

std::string DspFabricModel::viabilityWalk(std::vector<int>& path) const {
  const int level = static_cast<int>(path.size());
  if (level >= numLevels()) return {};
  const ProblemSpec spec = problemSpec(path);
  for (int i = 0; i < spec.base.children; ++i) {
    const std::size_t ci = static_cast<std::size_t>(i);
    if (spec.childDead[ci]) continue;  // fully dead subtrees need no wires
    path.push_back(i);
    const auto where = [&] {
      std::string s = "child ";
      for (std::size_t l = 0; l < path.size(); ++l) {
        if (l > 0) s += '.';
        s += std::to_string(path[l]);
      }
      return s;
    };
    if (spec.inWiresOfChild[ci] <= 0) {
      const std::string err =
          strCat(where(), " has no surviving input wire (disconnected)");
      path.pop_back();
      return err;
    }
    if (spec.outWiresOfChild[ci] <= 0) {
      const std::string err =
          strCat(where(), " has no surviving output wire (disconnected)");
      path.pop_back();
      return err;
    }
    if (level < numLevels() - 1 && spec.maxWiresIntoChildOf[ci] <= 0) {
      const std::string err =
          strCat(where(), " has no surviving ILI lane (disconnected)");
      path.pop_back();
      return err;
    }
    std::string err = viabilityWalk(path);
    path.pop_back();
    if (!err.empty()) return err;
  }
  return {};
}

CnId DspFabricModel::cnIdOf(const std::vector<int>& path) const {
  HCA_REQUIRE(static_cast<int>(path.size()) == numLevels(),
              "CN path must have one index per level");
  int id = 0;
  for (int l = 0; l < numLevels(); ++l) {
    const int b = config_.branching[static_cast<std::size_t>(l)];
    const int idx = path[static_cast<std::size_t>(l)];
    HCA_REQUIRE(idx >= 0 && idx < b, "CN path index out of range at level "
                                         << l << ": " << idx);
    id = id * b + idx;
  }
  return CnId(id);
}

std::vector<int> DspFabricModel::pathOfCn(CnId cn) const {
  HCA_REQUIRE(cn.valid() && cn.value() < totalCns_,
              "CN id out of range: " << to_string(cn));
  std::vector<int> path(static_cast<std::size_t>(numLevels()));
  int rest = cn.value();
  for (int l = numLevels() - 1; l >= 0; --l) {
    const int b = config_.branching[static_cast<std::size_t>(l)];
    path[static_cast<std::size_t>(l)] = rest % b;
    rest /= b;
  }
  return path;
}

int DspFabricModel::commonLevel(CnId a, CnId b) const {
  if (a == b) return numLevels();
  const auto pa = pathOfCn(a);
  const auto pb = pathOfCn(b);
  for (int l = 0; l < numLevels(); ++l) {
    if (pa[static_cast<std::size_t>(l)] != pb[static_cast<std::size_t>(l)]) {
      return l;
    }
  }
  return numLevels();
}

int DspFabricModel::copyLatency(CnId a, CnId b) const {
  const int common = commonLevel(a, b);
  if (common == numLevels()) return 0;
  // The value climbs from the producer CN up to the first shared
  // interconnect level and back down: one wire hop per level boundary in
  // each direction.
  const int hops = 2 * (numLevels() - common) - 1;
  return hops * config_.latency.interCluster;
}

}  // namespace hca::machine
