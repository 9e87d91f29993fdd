#include "hca/subproblem_cache.hpp"

#include <cstring>

namespace hca::core {

namespace {

/// Little accumulator for the binary key: fixed-width fields, no separators
/// needed because every record below has a self-describing length prefix.
void appendI32(std::string& out, std::int32_t v) {
  char buf[sizeof(v)];
  std::memcpy(buf, &v, sizeof(v));
  out.append(buf, sizeof(v));
}

void appendDouble(std::string& out, double v) {
  char buf[sizeof(v)];
  std::memcpy(buf, &v, sizeof(v));
  out.append(buf, sizeof(v));
}

template <class Id>
void appendIds(std::string& out, const std::vector<Id>& ids) {
  appendI32(out, static_cast<std::int32_t>(ids.size()));
  for (const Id id : ids) appendI32(out, id.value());
}

void appendWires(std::string& out,
                 const std::vector<mapper::WireValues>& wires) {
  appendI32(out, static_cast<std::int32_t>(wires.size()));
  for (const auto& wire : wires) {
    appendI32(out, wire.wire);
    appendIds(out, wire.values);
  }
}

void appendI64(std::string& out, std::int64_t v) {
  char buf[sizeof(v)];
  std::memcpy(buf, &v, sizeof(v));
  out.append(buf, sizeof(v));
}

void appendOptions(std::string& out, const see::SeeOptions& o) {
  appendI32(out, o.beamWidth);
  appendI32(out, o.candidateKeep);
  appendI32(out, o.enableRouteAllocator ? 1 : 0);
  appendI32(out, o.eagerRouting ? 1 : 0);
  appendI32(out, o.maxRouteHops);
  appendI32(out, o.maxBeamSteps);
  // The arena ceiling aborts a search mid-flight, so a result computed
  // under one budget must never be replayed under another.
  appendI64(out, o.arenaBudgetBytes);
  appendI32(out, o.chainGrouping ? 1 : 0);
  appendDouble(out, o.weights.iiEstimate);
  appendDouble(out, o.weights.copyCount);
  appendDouble(out, o.weights.loadBalance);
  appendDouble(out, o.weights.criticalPath);
  appendDouble(out, o.weights.wiringSlack);
  appendI32(out, o.weights.targetIi);
}

}  // namespace

std::string subproblemKey(
    const machine::PatternGraph& pg, const machine::PgConstraints& constraints,
    const ddg::LatencyModel& latency, int inWiresPerCluster,
    int outWiresPerCluster,
    const std::vector<mapper::WireValues>& boundaryInputs,
    const std::vector<mapper::WireValues>& boundaryOutputs,
    const std::vector<DdgNodeId>& workingSet,
    const std::vector<ValueId>& relayValues, const see::SeeOptions& options) {
  std::string key;
  key.reserve(64 + 8 * (workingSet.size() + relayValues.size()) +
              16 * static_cast<std::size_t>(pg.numNodes()));

  // Pattern-graph shape: node kinds and resources. Arcs are fully
  // determined by the construction sequence (complete cluster connection +
  // connectBoundaryNodes), but serialize the count as a tripwire.
  appendI32(key, pg.numNodes());
  for (std::int32_t v = 0; v < pg.numNodes(); ++v) {
    const auto& node = pg.node(ClusterId(v));
    appendI32(key, static_cast<std::int32_t>(node.kind));
    appendI32(key, node.resources.alu());
    appendI32(key, node.resources.ag());
    // Fault state: dead nodes and surviving-wire overrides change the SEE
    // result, so two problems differing only in faults must never collide.
    appendI32(key, node.dead ? 1 : 0);
    appendI32(key, node.inWireCap);
    appendI32(key, node.outWireCap);
  }
  appendI32(key, pg.numArcs());

  appendI32(key, constraints.maxInNeighbors);

  appendI32(key, latency.alu);
  appendI32(key, latency.mul);
  appendI32(key, latency.mac);
  appendI32(key, latency.load);
  appendI32(key, latency.store);
  appendI32(key, latency.recv);
  appendI32(key, latency.interCluster);

  appendI32(key, inWiresPerCluster);
  appendI32(key, outWiresPerCluster);

  appendWires(key, boundaryInputs);
  appendWires(key, boundaryOutputs);
  appendIds(key, workingSet);
  appendIds(key, relayValues);
  appendOptions(key, options);
  return key;
}

SubproblemCache::SubproblemCache(std::int64_t maxBytes)
    : maxBytes_(maxBytes) {}

std::int64_t SubproblemCache::entryBytes(const std::string& key,
                                         const see::SeeResult& result) {
  return static_cast<std::int64_t>(key.size()) + result.bytes();
}

std::shared_ptr<const see::SeeResult> SubproblemCache::lookup(
    const std::string& key) {
  const auto it = map_.find(key);
  if (it == map_.end()) {
    ++misses_;
    return nullptr;
  }
  ++hits_;
  return it->second;
}

std::shared_ptr<const see::SeeResult> SubproblemCache::insert(
    const std::string& key, see::SeeResult result) {
  const auto keep = static_cast<std::size_t>(kMaxAlternatives);
  if (result.frontier.size() > keep) {
    result.frontier.erase(
        result.frontier.begin() + static_cast<std::ptrdiff_t>(keep),
        result.frontier.end());
    result.frontier.shrink_to_fit();
  }
  auto entry = std::make_shared<const see::SeeResult>(std::move(result));
  const auto [it, inserted] = map_.emplace(key, std::move(entry));
  if (!inserted) return it->second;  // first writer wins
  insertionOrder_.push_back(&*it);
  bytes_ += entryBytes(key, *it->second);
  // Byte-budget shedding: drop oldest-inserted residents (never the entry
  // just stored, the newest — the caller is about to replay it) until
  // back under the ceiling. Evicted sub-problems are re-solved on their
  // next miss, so the budget degrades hit rate, never correctness.
  while (maxBytes_ > 0 && bytes_ > maxBytes_ && insertionOrder_.size() > 1) {
    const Map::value_type* victim = insertionOrder_.front();
    insertionOrder_.pop_front();
    bytes_ -= entryBytes(victim->first, *victim->second);
    map_.erase(map_.find(victim->first));
    ++evictions_;
  }
  return it->second;
}

}  // namespace hca::core
