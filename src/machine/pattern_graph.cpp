#include "machine/pattern_graph.hpp"

#include <algorithm>
#include <ostream>

#include "support/check.hpp"
#include "support/dot.hpp"
#include "support/str.hpp"

namespace hca::machine {

ClusterId PatternGraph::addNode(PgNode node) {
  nodes_.push_back(std::move(node));
  out_.emplace_back();
  in_.emplace_back();
  return ClusterId(static_cast<std::int32_t>(nodes_.size()) - 1);
}

void PatternGraph::ensureArcIndex() const {
  const std::size_t n = nodes_.size();
  if (arcIndex_.size() == n * n) return;
  arcIndex_.assign(n * n, PgArcId::invalid());
  for (std::size_t i = 0; i < arcs_.size(); ++i) {
    const PgArc& a = arcs_[i];
    arcIndex_[a.src.index() * n + a.dst.index()] =
        PgArcId(static_cast<std::int32_t>(i));
  }
}

ClusterId PatternGraph::addCluster(ResourceTable resources,
                                   std::string name) {
  PgNode node;
  node.kind = PgNodeKind::kCluster;
  node.resources = resources;
  node.name = std::move(name);
  return addNode(std::move(node));
}

ClusterId PatternGraph::addInputNode(std::vector<ValueId> values,
                                     std::string name) {
  PgNode node;
  node.kind = PgNodeKind::kInput;
  node.boundaryValues = std::move(values);
  node.name = std::move(name);
  return addNode(std::move(node));
}

ClusterId PatternGraph::addOutputNode(std::string name,
                                      std::vector<ValueId> values) {
  PgNode node;
  node.kind = PgNodeKind::kOutput;
  node.name = std::move(name);
  node.boundaryValues = std::move(values);
  return addNode(std::move(node));
}

PgArcId PatternGraph::addArc(ClusterId src, ClusterId dst) {
  HCA_REQUIRE(src.valid() && src.value() < numNodes(), "arc src out of range");
  HCA_REQUIRE(dst.valid() && dst.value() < numNodes(), "arc dst out of range");
  HCA_REQUIRE(src != dst, "self arc in PatternGraph");
  HCA_REQUIRE(!arcBetween(src, dst).has_value(),
              "duplicate arc " << to_string(src) << "->" << to_string(dst));
  const auto id = PgArcId(static_cast<std::int32_t>(arcs_.size()));
  arcs_.push_back(PgArc{src, dst});
  out_[src.index()].push_back(id);
  in_[dst.index()].push_back(id);
  ensureArcIndex();
  arcIndex_[src.index() * static_cast<std::size_t>(numNodes()) +
            dst.index()] = id;
  return id;
}

void PatternGraph::connectClustersCompletely() {
  const auto clusters = clusterNodes();
  for (const ClusterId a : clusters) {
    for (const ClusterId b : clusters) {
      if (a == b) continue;
      if (!arcBetween(a, b).has_value()) addArc(a, b);
    }
  }
}

void PatternGraph::connectBoundaryNodes() {
  const auto clusters = clusterNodes();
  for (const ClusterId in : inputNodes()) {
    for (const ClusterId c : clusters) {
      if (!arcBetween(in, c).has_value()) addArc(in, c);
    }
  }
  for (const ClusterId out : outputNodes()) {
    for (const ClusterId c : clusters) {
      if (!arcBetween(c, out).has_value()) addArc(c, out);
    }
  }
}

void PatternGraph::markDead(ClusterId id) {
  HCA_REQUIRE(id.valid() && id.value() < numNodes(),
              "PG node id out of range: " << to_string(id));
  nodes_[id.index()].dead = true;
}

void PatternGraph::setWireCaps(ClusterId id, int inCap, int outCap) {
  HCA_REQUIRE(id.valid() && id.value() < numNodes(),
              "PG node id out of range: " << to_string(id));
  nodes_[id.index()].inWireCap = inCap;
  nodes_[id.index()].outWireCap = outCap;
}

namespace {
std::vector<ClusterId> nodesOfKind(const PatternGraph& pg, PgNodeKind kind) {
  std::vector<ClusterId> out;
  for (std::int32_t v = 0; v < pg.numNodes(); ++v) {
    if (pg.node(ClusterId(v)).kind == kind) out.emplace_back(v);
  }
  return out;
}
}  // namespace

std::vector<ClusterId> PatternGraph::clusterNodes() const {
  return nodesOfKind(*this, PgNodeKind::kCluster);
}
std::vector<ClusterId> PatternGraph::inputNodes() const {
  return nodesOfKind(*this, PgNodeKind::kInput);
}
std::vector<ClusterId> PatternGraph::outputNodes() const {
  return nodesOfKind(*this, PgNodeKind::kOutput);
}

void PatternGraph::toDot(std::ostream& os, const std::string& title) const {
  DotWriter dot(os, title);
  for (std::int32_t v = 0; v < numNodes(); ++v) {
    const PgNode& n = nodes_[static_cast<std::size_t>(v)];
    std::string label = n.name.empty() ? strCat("C", v) : n.name;
    std::string attrs;
    switch (n.kind) {
      case PgNodeKind::kCluster:
        label += strCat("\\n", n.resources.toString());
        break;
      case PgNodeKind::kInput:
        attrs = "shape=invtriangle";
        break;
      case PgNodeKind::kOutput:
        attrs = "shape=triangle";
        break;
    }
    dot.node(strCat("c", v), label, attrs);
  }
  for (const PgArc& a : arcs_) {
    dot.edge(strCat("c", a.src.value()), strCat("c", a.dst.value()), "",
             "style=dashed");
  }
}

// --- CopyFlow ---------------------------------------------------------------

bool CopyFlow::addCopy(PgArcId arc, ValueId value) {
  HCA_REQUIRE(arc.valid() && arc.index() < values_.size(),
              "CopyFlow: arc out of range");
  auto& list = values_[arc.index()];
  if (std::find(list.begin(), list.end(), value) != list.end()) return false;
  list.push_back(value);
  return true;
}

const std::vector<ValueId>& CopyFlow::copiesOn(PgArcId arc) const {
  HCA_REQUIRE(arc.valid() && arc.index() < values_.size(),
              "CopyFlow: arc out of range");
  return values_[arc.index()];
}

int CopyFlow::totalCopies() const {
  int total = 0;
  for (const auto& list : values_) {
    total += static_cast<int>(list.size());
  }
  return total;
}

std::vector<ClusterId> CopyFlow::realInNeighbors(const PatternGraph& pg,
                                                 ClusterId node) const {
  std::vector<ClusterId> result;
  for (const PgArcId arc : pg.inArcs(node)) {
    if (!isReal(arc)) continue;
    const ClusterId src = pg.arc(arc).src;
    if (std::find(result.begin(), result.end(), src) == result.end()) {
      result.push_back(src);
    }
  }
  return result;
}

}  // namespace hca::machine
