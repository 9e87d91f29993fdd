#include "see/prepared.hpp"

#include <algorithm>

#include "see/feasibility.hpp"
#include "support/check.hpp"

namespace hca::see {

PreparedProblem::PreparedProblem(const SeeProblem& problem,
                                 const SeeOptions& options)
    : problem_(&problem), options_(options) {
  HCA_REQUIRE(problem.ddg != nullptr, "SeeProblem without DDG");
  HCA_REQUIRE(problem.pg != nullptr, "SeeProblem without PatternGraph");
  HCA_REQUIRE(problem.pg->numNodes() <= 64,
              "SEE supports pattern graphs of up to 64 nodes");
  const ddg::Ddg& ddg = *problem.ddg;

  clusters_ = problem.pg->clusterNodes();
  HCA_REQUIRE(!clusters_.empty(), "PatternGraph has no cluster nodes");

  inWs_.assign(static_cast<std::size_t>(ddg.numNodes()), 0);
  for (const DdgNodeId n : problem.workingSet) {
    HCA_REQUIRE(n.valid() && n.value() < ddg.numNodes(),
                "working-set node out of range");
    HCA_REQUIRE(ddg::isInstruction(ddg.node(n).op),
                "working set contains a non-instruction (const) node");
    HCA_REQUIRE(inWs_[n.index()] == 0, "duplicate working-set node");
    inWs_[n.index()] = 1;
  }

  // Dense pattern-graph view (prepared.hpp): the search's topology reads,
  // validated once here.
  const machine::PatternGraph& pg = *problem.pg;
  numPg_ = pg.numNodes();
  const auto numPg = static_cast<std::size_t>(numPg_);
  inCap_.resize(numPg);
  resources_.resize(numPg);
  arcId_.assign(numPg * numPg, PgArcId::invalid());
  outHeadOff_.assign(numPg + 1, 0);
  outHeadMask_.assign(numPg, 0);
  headRank_.assign(numPg * numPg, 0);
  for (std::int32_t u = 0; u < numPg_; ++u) {
    const ClusterId id(u);
    const machine::PgNode& node = pg.node(id);
    const std::uint64_t bit = detail::pgBit(id);
    if (node.kind == machine::PgNodeKind::kCluster) clusterMask_ |= bit;
    if (node.kind == machine::PgNodeKind::kOutput) outputMask_ |= bit;
    if (node.dead) deadMask_ |= bit;
    if (!node.dead && node.outWireCap != 0) sendMask_ |= bit;
    int cap = problem.constraints.maxInNeighbors;
    if (node.inWireCap >= 0) {
      cap = cap < 0 ? node.inWireCap : std::min(cap, node.inWireCap);
    }
    inCap_[id.index()] = cap;
    resources_[id.index()] = node.resources;
    for (const PgArcId a : pg.outArcs(id)) {
      const ClusterId head = pg.arc(a).dst;
      arcId_[id.index() * numPg + head.index()] = a;
      headRank_[id.index() * numPg + head.index()] = static_cast<std::uint8_t>(
          outHeads_.size() - static_cast<std::size_t>(outHeadOff_[id.index()]));
      outHeads_.push_back(head);
      outHeadMask_[id.index()] |= detail::pgBit(head);
    }
    outHeadOff_[id.index() + 1] = static_cast<std::int32_t>(outHeads_.size());
  }

  // Dense value -> output node / source tables. A value is named by the
  // DDG node producing it.
  valueOutput_.assign(static_cast<std::size_t>(ddg.numNodes()),
                      ClusterId::invalid());
  valueSource_.assign(static_cast<std::size_t>(ddg.numNodes()),
                      ClusterId::invalid());
  const auto slotOf = [&ddg](std::vector<ClusterId>& table,
                             ValueId v) -> ClusterId& {
    HCA_REQUIRE(v.valid() && v.value() < ddg.numNodes(),
                "value " << to_string(v) << " is not a DDG node");
    return table[v.index()];
  };
  for (const auto& [out, values] : problem.outputRequirements) {
    HCA_REQUIRE(out.valid() && out.value() < numPg_ && isOutput(out),
                "output requirement target is not an output node");
    for (const ValueId v : values) {
      ClusterId& slot = slotOf(valueOutput_, v);
      HCA_REQUIRE(!slot.valid(), "value assigned to two output wires");
      slot = out;
    }
  }
  // hca-lint: ordered-ok(each key writes its own slot; order cannot matter)
  for (const auto& [value, source] : problem.valueSources) {
    HCA_REQUIRE(source.valid() && source.value() < numPg_,
                "value source is not a PG node");
    HCA_REQUIRE(!isOutput(source), "value source cannot be an output node");
    slotOf(valueSource_, value) = source;
  }

  // Operand values / consumer adjacency restricted to the problem.
  operandValues_.resize(static_cast<std::size_t>(ddg.numNodes()));
  wsConsumers_.resize(static_cast<std::size_t>(ddg.numNodes()));
  for (const DdgNodeId n : problem.workingSet) {
    auto& ops = operandValues_[n.index()];
    for (const auto& operand : ddg.node(n).operands) {
      if (!ddg::isInstruction(ddg.node(operand.src).op)) continue;  // const
      if (operand.src == n) continue;  // self-recurrence: same cluster
      const ValueId v(operand.src.value());
      if (std::find(ops.begin(), ops.end(), v) == ops.end()) {
        ops.push_back(v);
      }
      if (inWs_[operand.src.index()] != 0) {
        auto& cons = wsConsumers_[operand.src.index()];
        if (std::find(cons.begin(), cons.end(), n) == cons.end()) {
          cons.push_back(n);
        }
      } else {
        // Out-of-WS producer: a source (input node) must be registered.
        HCA_REQUIRE(
            valueSource(v).valid(),
            "operand value " << to_string(v)
                             << " has no registered source (missing ILI?)");
      }
    }
  }
  for (const ValueId v : problem.relayValues) {
    HCA_REQUIRE(valueSource(v).valid(), "relay value without a source");
    HCA_REQUIRE(outputNodeOf(v).valid(), "relay value without an output wire");
  }

  if (problem.heights != nullptr) {
    HCA_REQUIRE(problem.heights->size() ==
                    static_cast<std::size_t>(ddg.numNodes()),
                "SeeProblem heights sized " << problem.heights->size()
                                            << " for a DDG of "
                                            << ddg.numNodes() << " nodes");
    heights_ = problem.heights;
  } else {
    ownHeights_ = ddg.heights(problem.latency);
    heights_ = &ownHeights_;
  }
  const std::vector<std::int64_t>& heights = *heights_;

  // Critical-path adjacency for the search's critical-path score: every
  // intra-iteration WS->WS dependence, keyed by (working-set position of
  // the consumer, operand position) so the delta evaluator can sum penalty
  // terms in exactly the order a full scan over the working set visits
  // them. Self-references are skipped — equal clusters never
  // pay.
  wsIndexOf_.assign(static_cast<std::size_t>(ddg.numNodes()), -1);
  for (std::size_t i = 0; i < problem.workingSet.size(); ++i) {
    wsIndexOf_[problem.workingSet[i].index()] = static_cast<std::int32_t>(i);
  }
  maxWsHeight_ = 1;
  for (const DdgNodeId n : problem.workingSet) {
    maxWsHeight_ = std::max(maxWsHeight_, heights[n.index()]);
  }
  critOperands_.resize(static_cast<std::size_t>(ddg.numNodes()));
  critUses_.resize(static_cast<std::size_t>(ddg.numNodes()));
  for (const DdgNodeId n : problem.workingSet) {
    const auto& operands = ddg.node(n).operands;
    for (std::size_t j = 0; j < operands.size(); ++j) {
      const auto& operand = operands[j];
      if (operand.distance != 0) continue;
      if (operand.src == n) continue;
      if (wsIndexOf_[operand.src.index()] < 0) continue;
      critOperands_[n.index()].push_back(
          CritOperand{static_cast<std::int32_t>(j), operand.src});
      critUses_[operand.src.index()].push_back(
          CritUse{n, static_cast<std::int32_t>(j)});
    }
  }

  // Priority list (union-find over two kinds of cohesion):
  //  * mandatory unions — items whose values leave on one output wire must
  //    share a cluster (outNode_MaxIn, Fig. 10), so their placement is one
  //    combined move, decided first while the wire budget is free;
  //  * affinity unions — single-consumer dependence chains are kept
  //    together (the paper's SEE "picks a new DDG node (or a set of
  //    nodes)"), capped so a chain still fits a cluster at the target II.
  // Remaining items follow by decreasing height (list-scheduling order).
  const std::size_t numEntities =
      static_cast<std::size_t>(ddg.numNodes()) + problem.relayValues.size();
  std::vector<std::int32_t> parent(numEntities);
  for (std::size_t i = 0; i < numEntities; ++i) {
    parent[i] = static_cast<std::int32_t>(i);
  }
  std::vector<int> groupSize(numEntities, 1);
  std::vector<char> mandatory(numEntities, 0);
  const auto find = [&](std::int32_t x) {
    while (parent[static_cast<std::size_t>(x)] != x) {
      parent[static_cast<std::size_t>(x)] =
          parent[static_cast<std::size_t>(
              parent[static_cast<std::size_t>(x)])];
      x = parent[static_cast<std::size_t>(x)];
    }
    return x;
  };
  const auto unite = [&](std::int32_t a, std::int32_t b, bool isMandatory) {
    a = find(a);
    b = find(b);
    if (a == b) {
      if (isMandatory) mandatory[static_cast<std::size_t>(a)] = 1;
      return;
    }
    parent[static_cast<std::size_t>(b)] = a;
    groupSize[static_cast<std::size_t>(a)] +=
        groupSize[static_cast<std::size_t>(b)];
    mandatory[static_cast<std::size_t>(a)] = static_cast<char>(
        mandatory[static_cast<std::size_t>(a)] != 0 ||
        mandatory[static_cast<std::size_t>(b)] != 0 || isMandatory);
  };
  const auto relayEntity = [&](ValueId v) {
    const auto it = std::find(problem.relayValues.begin(),
                              problem.relayValues.end(), v);
    HCA_CHECK(it != problem.relayValues.end(), "unknown relay value");
    return static_cast<std::int32_t>(
        ddg.numNodes() + (it - problem.relayValues.begin()));
  };

  // Mandatory unions per output wire.
  for (const auto& [out, values] : problem.outputRequirements) {
    (void)out;
    std::int32_t anchor = -1;
    for (const ValueId v : values) {
      const DdgNodeId producer(v.value());
      const std::int32_t entity = inWorkingSet(producer)
                                      ? producer.value()
                                      : relayEntity(v);
      if (anchor == -1) {
        anchor = entity;
        if (values.size() > 1) {
          mandatory[static_cast<std::size_t>(find(entity))] = 1;
        }
      } else {
        unite(anchor, entity, /*isMandatory=*/true);
      }
    }
  }

  // Affinity unions: single-WS-consumer chains, capped.
  if (options.chainGrouping) {
    int minIssue = 1 << 20;
    for (const ClusterId c : clusters_) {
      minIssue = std::min(minIssue, resources(c).issueSlots());
    }
    const int cap = std::max(
        2, options.weights.targetIi * std::max(minIssue, 1) / 2);
    for (const DdgNodeId n : problem.workingSet) {
      const auto& consumers = wsConsumers_[n.index()];
      if (consumers.size() != 1) continue;
      const std::int32_t a = find(n.value());
      const std::int32_t b = find(consumers[0].value());
      if (a == b) continue;
      if (groupSize[static_cast<std::size_t>(a)] +
              groupSize[static_cast<std::size_t>(b)] >
          cap) {
        continue;
      }
      unite(a, b, /*isMandatory=*/false);
    }
  }

  // Emit groups. Members sorted by height (desc); groups ordered:
  // mandatory first (largest first), then by tallest member.
  //
  // Buckets live in a flat vector indexed through a dense root -> slot
  // lookup (entity ids are small consecutive integers, so the lookup array
  // beats a std::map's node allocations at prepare time). Slots are
  // created in first-touch order and sorted by root afterwards, matching
  // the ascending-key iteration of the map this replaces; the final group
  // comparator is a strict total order (minId ties are impossible across
  // disjoint buckets), so the emitted group order is unchanged.
  struct Bucket {
    std::int32_t root = 0;
    std::vector<Item> members;
    bool isMandatory = false;
    std::int64_t maxHeight = 0;
    std::int32_t minId = 1 << 30;
    bool hasRelay = false;
  };
  std::vector<Bucket> ordered;
  std::vector<std::int32_t> bucketSlot(numEntities, -1);
  const auto bucketFor = [&](std::int32_t root) -> Bucket& {
    std::int32_t& slot = bucketSlot[static_cast<std::size_t>(root)];
    if (slot < 0) {
      slot = static_cast<std::int32_t>(ordered.size());
      ordered.emplace_back();
      ordered.back().root = root;
    }
    return ordered[static_cast<std::size_t>(slot)];
  };
  for (const DdgNodeId n : problem.workingSet) {
    Bucket& bucket = bucketFor(find(n.value()));
    Item item;
    item.kind = Item::Kind::kNode;
    item.node = n;
    bucket.members.push_back(item);
    bucket.maxHeight = std::max(bucket.maxHeight, heights[n.index()]);
    bucket.minId = std::min(bucket.minId, n.value());
  }
  for (std::size_t i = 0; i < problem.relayValues.size(); ++i) {
    Bucket& bucket = bucketFor(find(
        static_cast<std::int32_t>(ddg.numNodes() + i)));
    Item item;
    item.kind = Item::Kind::kRelay;
    item.value = problem.relayValues[i];
    bucket.members.push_back(item);
    bucket.hasRelay = true;
    bucket.minId = std::min(
        bucket.minId, static_cast<std::int32_t>(ddg.numNodes() + i));
  }
  std::sort(ordered.begin(), ordered.end(),
            [](const Bucket& a, const Bucket& b) { return a.root < b.root; });
  for (auto& bucket : ordered) {
    bucket.isMandatory =
        mandatory[static_cast<std::size_t>(bucket.root)] != 0;
    std::sort(bucket.members.begin(), bucket.members.end(),
              [&](const Item& a, const Item& b) {
                const auto ha = a.kind == Item::Kind::kNode
                                    ? heights[a.node.index()]
                                    : 0;
                const auto hb = b.kind == Item::Kind::kNode
                                    ? heights[b.node.index()]
                                    : 0;
                if (ha != hb) return ha > hb;
                const auto ia = a.kind == Item::Kind::kNode
                                    ? a.node.value()
                                    : a.value.value() + (1 << 20);
                const auto ib = b.kind == Item::Kind::kNode
                                    ? b.node.value()
                                    : b.value.value() + (1 << 20);
                return ia < ib;
              });
  }
  std::sort(ordered.begin(), ordered.end(),
            [](const Bucket& a, const Bucket& b) {
              if (a.isMandatory != b.isMandatory) return a.isMandatory;
              if (a.isMandatory) {
                if (a.members.size() != b.members.size()) {
                  return a.members.size() > b.members.size();
                }
              }
              if (a.hasRelay != b.hasRelay) return a.hasRelay;
              if (a.maxHeight != b.maxHeight) return a.maxHeight > b.maxHeight;
              return a.minId < b.minId;
            });
  for (auto& bucket : ordered) {
    items_.push_back(ItemGroup{std::move(bucket.members)});
  }

  oracle_ = std::make_unique<FeasibilityOracle>(*this);
}

PreparedProblem::~PreparedProblem() = default;

}  // namespace hca::see
