#include "see/feasibility.hpp"

#include <vector>

namespace hca::see {

FeasibilityOracle::FeasibilityOracle(const PreparedProblem& prepared)
    : prepared_(&prepared) {
  // Per resource class (kAlu, kAg): clusters owning at least one unit.
  std::uint64_t rcMask[ddg::kNumResourceClasses] = {};
  for (const ClusterId c : prepared.clusters()) {
    const auto& rt = prepared.resources(c);
    if (rt.count(ddg::ResourceClass::kAlu) > 0) {
      rcMask[static_cast<int>(ddg::ResourceClass::kAlu)] |= detail::pgBit(c);
    }
    if (rt.count(ddg::ResourceClass::kAg) > 0) {
      rcMask[static_cast<int>(ddg::ResourceClass::kAg)] |= detail::pgBit(c);
    }
  }

  // Static prefix of canAddCopyT seen from the receiver: a copy src -> dst
  // requires a live sender with a surviving output wire, an arc, and a
  // live receiver.
  arcInMask_.assign(static_cast<std::size_t>(prepared.numPg()), 0);
  for (std::int32_t u = 0; u < prepared.numPg(); ++u) {
    const ClusterId src(u);
    if (!prepared.canSend(src)) continue;
    for (const ClusterId dst : prepared.outHeads(src)) {
      if (prepared.isDead(dst)) continue;
      arcInMask_[dst.index()] |= detail::pgBit(src);
    }
  }

  // Per-group static mask: alive, resource-class-capable for every node
  // member, and able to feed every output wire a node member's value must
  // leave on (the produced value cannot be delivered anywhere before its
  // producer is placed, so the arc requirement is unconditional).
  groupMask_.reserve(prepared.items().size());
  for (const ItemGroup& group : prepared.items()) {
    std::uint64_t m = prepared.aliveClusterMask();
    for (const Item& item : group.members) {
      if (item.kind != Item::Kind::kNode) continue;
      const ddg::ResourceClass rc =
          ddg::opResource(prepared.problem().ddg->node(item.node).op);
      if (rc != ddg::ResourceClass::kNone) {
        m &= rcMask[static_cast<int>(rc)];
      }
      const ClusterId out = prepared.outputNodeOf(ValueId(item.node.value()));
      if (out.valid()) m &= arcInMask_[out.index()];
    }
    groupMask_.push_back(m);
  }
}

// Static relay-hop distances: BFS from every node over arcs whose
// intermediate hops are alive clusters that can re-send. Distances are
// recorded for every live node (findPathT's destination may be an output
// node), but only clusters are expanded — exactly the relay rule of the
// dynamic BFS with all budget checks assumed to pass, so a static
// kUnreachable implies dynamic unreachability at any budget.
void FeasibilityOracle::buildHopMatrix() const {
  const PreparedProblem& prep = *prepared_;
  const auto numPg = static_cast<std::size_t>(prep.numPg());
  hop_.assign(numPg * numPg, kUnreachable);
  std::vector<ClusterId> queue;
  for (std::int32_t s = 0; s < prep.numPg(); ++s) {
    const ClusterId src(s);
    std::uint8_t* dist = &hop_[static_cast<std::size_t>(s) * numPg];
    dist[src.index()] = 0;
    if (!prep.canSend(src)) continue;
    queue.clear();
    queue.push_back(src);
    for (std::size_t head = 0; head < queue.size(); ++head) {
      const ClusterId u = queue[head];
      if (dist[u.index()] == kUnreachable - 1) continue;
      for (const ClusterId w : prep.outHeads(u)) {
        if (prep.isDead(w) || dist[w.index()] != kUnreachable) continue;
        dist[w.index()] = static_cast<std::uint8_t>(dist[u.index()] + 1);
        if (prep.isCluster(w) && prep.canSend(w)) queue.push_back(w);
      }
    }
  }
  hopsBuilt_ = true;
}

}  // namespace hca::see
