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
// kUnreachable implies dynamic unreachability at any budget. The BFS runs
// one level at a time over masks: level d + 1 is every live out-head of the
// level-d nodes that may relay, not yet reached. Shortest-path lengths do
// not depend on the order a level is visited in.
void FeasibilityOracle::buildHopMatrix() const {
  const PreparedProblem& prep = *prepared_;
  const auto numPg = static_cast<std::size_t>(prep.numPg());
  hop_.assign(numPg * numPg, kUnreachable);
  const std::uint64_t live = ~prep.deadMask();
  const std::uint64_t relays = prep.aliveClusterMask() & prep.sendMask();
  for (std::int32_t s = 0; s < prep.numPg(); ++s) {
    const ClusterId src(s);
    std::uint8_t* dist = &hop_[static_cast<std::size_t>(s) * numPg];
    dist[src.index()] = 0;
    if (!prep.canSend(src)) continue;
    std::uint64_t reached = detail::pgBit(src);
    std::uint64_t expand = reached;
    for (std::uint8_t d = 1; expand != 0 && d < kUnreachable; ++d) {
      std::uint64_t level = 0;
      for (; expand != 0; expand &= expand - 1) {
        level |= prep.outHeadMask(ClusterId(__builtin_ctzll(expand)));
      }
      level &= live & ~reached;
      reached |= level;
      expand = level & relays;
      for (; level != 0; level &= level - 1) {
        dist[static_cast<std::size_t>(__builtin_ctzll(level))] = d;
      }
    }
  }
  hopsBuilt_ = true;
}

}  // namespace hca::see
