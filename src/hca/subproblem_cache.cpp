#include "hca/subproblem_cache.hpp"

#include <cstring>
#include <functional>

#include "support/check.hpp"

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
  // Retired op cap (always off): a literal 0 keeps the keys.
  appendI32(out, 0);
  appendI32(out, o.enableRouteAllocator ? 1 : 0);
  appendI32(out, o.eagerRouting ? 1 : 0);
  // Retired retry-ladder switch (always on): a literal 1 keeps the keys,
  // and so the shard hashes, of default options.
  appendI32(out, 1);
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
  // Retired constraint fields, fixed by the architecture (unbounded
  // out-neighbors, unary fan-in on output nodes): literals keep the keys.
  appendI32(key, -1);
  appendI32(key, 1);

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

SubproblemCache::SubproblemCache(int numShards, std::int64_t maxBytesPerShard)
    : maxBytesPerShard_(maxBytesPerShard),
      shards_(static_cast<std::size_t>(numShards)) {
  HCA_REQUIRE(numShards >= 1, "cache needs at least one shard");
}

std::int64_t SubproblemCache::entryBytes(const std::string& key,
                                         const see::SeeResult& result) {
  return static_cast<std::int64_t>(key.size()) + result.bytes();
}

SubproblemCache::Shard& SubproblemCache::shardOf(const std::string& key) const {
  const std::size_t h = std::hash<std::string>()(key);
  return shards_[h % shards_.size()];
}

std::shared_ptr<const see::SeeResult> SubproblemCache::lookup(
    const std::string& key) const {
  Shard& shard = shardOf(key);
  MutexLock lock(shard.mutex);
  const auto it = shard.map.find(key);
  if (it == shard.map.end()) {
    ++shard.misses;
    return nullptr;
  }
  ++shard.hits;
  return it->second;
}

void SubproblemCache::evictOldest(Shard& shard) {
  const Map::value_type* victim = shard.insertionOrder.front();
  shard.insertionOrder.pop_front();
  shard.bytes -= entryBytes(victim->first, *victim->second);
  shard.map.erase(shard.map.find(victim->first));
  ++shard.evictions;
}

std::shared_ptr<const see::SeeResult> SubproblemCache::insert(
    const std::string& key, see::SeeResult result) {
  auto entry = std::make_shared<const see::SeeResult>(std::move(result));
  Shard& shard = shardOf(key);
  MutexLock lock(shard.mutex);
  const auto [it, inserted] = shard.map.emplace(key, std::move(entry));
  if (inserted) {
    shard.insertionOrder.push_back(&*it);
    shard.bytes += entryBytes(key, *it->second);
    // Byte-budget shedding: drop oldest-inserted residents (never the entry
    // just stored, the newest — the caller is about to replay it) until
    // back under the ceiling. Evicted sub-problems are re-solved on their
    // next miss, so the budget degrades hit rate, never correctness.
    if (maxBytesPerShard_ > 0) {
      while (shard.bytes > maxBytesPerShard_ &&
             shard.insertionOrder.size() > 1) {
        evictOldest(shard);
      }
    }
  }
  return it->second;  // first writer wins
}

std::int64_t SubproblemCache::entries() const {
  std::int64_t total = 0;
  for (const Shard& shard : shards_) {
    MutexLock lock(shard.mutex);
    total += static_cast<std::int64_t>(shard.map.size());
  }
  return total;
}

std::int64_t SubproblemCache::bytesUsed() const {
  std::int64_t total = 0;
  for (const Shard& shard : shards_) {
    MutexLock lock(shard.mutex);
    total += shard.bytes;
  }
  return total;
}

void SubproblemCache::dropEntries() {
  for (Shard& shard : shards_) {
    MutexLock lock(shard.mutex);
    shard.insertionOrder.clear();
    shard.map.clear();
    shard.bytes = 0;
  }
}

std::vector<SubproblemCache::ShardStats> SubproblemCache::shardStats() const {
  std::vector<ShardStats> out;
  out.reserve(shards_.size());
  for (const Shard& shard : shards_) {
    MutexLock lock(shard.mutex);
    ShardStats s;
    s.hits = shard.hits;
    s.misses = shard.misses;
    s.evictions = shard.evictions;
    s.entries = static_cast<std::int64_t>(shard.map.size());
    s.bytes = shard.bytes;
    out.push_back(s);
  }
  return out;
}

void SubproblemCache::forEach(
    const std::function<void(const std::string& key,
                             const std::shared_ptr<const see::SeeResult>&
                                 result)>& fn) const {
  for (const Shard& shard : shards_) {
    MutexLock lock(shard.mutex);
    for (const Map::value_type* entry : shard.insertionOrder) {
      fn(entry->first, entry->second);
    }
  }
}

}  // namespace hca::core
