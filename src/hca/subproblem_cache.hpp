#pragma once

#include <atomic>
#include <cstdint>
#include <deque>
#include <functional>
#include <memory>
#include <string>
#include <unordered_map>
#include <vector>

#include "machine/pattern_graph.hpp"
#include "mapper/mapper.hpp"
#include "see/engine.hpp"
#include "support/mutex.hpp"
#include "support/thread_annotations.hpp"

/// Memoization of single-level SEE sub-problems (one HcaDriver::run).
///
/// The outer portfolio search re-solves the same 4-ish-node sub-problems
/// over and over: backtracking alternatives re-enter identical children,
/// and different heuristic profiles share every sub-problem whose options
/// they do not perturb. The SEE is deterministic, so a sub-problem is fully
/// described by the *content* of its inputs — pattern-graph shape, working
/// set, relay values, boundary ILIs, constraints, latency model, and a
/// fingerprint of the SeeOptions — and its SeeResult can be replayed from a
/// hash lookup. Keys are exact serialized content (compared byte-for-byte on
/// lookup), never a lossy hash, so a hit is guaranteed to byte-match a fresh
/// solve. The map is sharded: each shard has its own mutex, so concurrent
/// portfolio attempts rarely contend.
///
/// The problem path is deliberately *not* part of the key: identical
/// sub-problems at different positions of the problem tree (or in different
/// outer attempts) share one entry.
namespace hca::core {

/// Serializes everything the SEE result depends on, except the DDG itself
/// (fixed for the lifetime of one cache) and the problem path (irrelevant
/// to the result). `boundaryInputs`/`boundaryOutputs` must be the exact
/// wire lists used to extend `pg` with boundary nodes, in that order.
[[nodiscard]] std::string subproblemKey(
    const machine::PatternGraph& pg, const machine::PgConstraints& constraints,
    const ddg::LatencyModel& latency, int inWiresPerCluster,
    int outWiresPerCluster,
    const std::vector<mapper::WireValues>& boundaryInputs,
    const std::vector<mapper::WireValues>& boundaryOutputs,
    const std::vector<DdgNodeId>& workingSet,
    const std::vector<ValueId>& relayValues, const see::SeeOptions& options);

class SubproblemCache {
 public:
  /// Per-shard traffic counters for the observability layer. Shard-level
  /// granularity shows whether the key hash actually spreads the portfolio
  /// attempts (a hot shard = lock contention the aggregate would hide).
  struct ShardStats {
    std::int64_t hits = 0;
    std::int64_t misses = 0;
    std::int64_t evictions = 0;
    std::int64_t entries = 0;
    std::int64_t bytes = 0;  ///< resident footprint (entryBytes sum)
  };

  /// `maxBytesPerShard` <= 0 = no byte ceiling (the default — one run's
  /// sub-problem population is small). When set, every insert adds the
  /// entry's bytes (entryBytes) to the shard's tally and sheds
  /// oldest-inserted entries until the shard is back under its ceiling,
  /// counting each in ShardStats::evictions — the cache half of the
  /// driver's `HcaOptions::memoryBudgetBytes` contract: degrade hit rate,
  /// never OOM. Evicted sub-problems are simply re-solved on the next miss.
  explicit SubproblemCache(int numShards = 16,
                           std::int64_t maxBytesPerShard = 0);

  SubproblemCache(const SubproblemCache&) = delete;
  SubproblemCache& operator=(const SubproblemCache&) = delete;

  /// Returns the cached result for `key`, or nullptr on a miss.
  [[nodiscard]] std::shared_ptr<const see::SeeResult> lookup(
      const std::string& key) const;

  /// Inserts `result` if the key is absent and returns the stored entry
  /// (the first writer wins, so concurrent attempts all observe the same
  /// object — with a deterministic SEE both candidates are identical
  /// anyway).
  std::shared_ptr<const see::SeeResult> insert(const std::string& key,
                                               see::SeeResult result);

  [[nodiscard]] std::int64_t entries() const;

  /// Resident bytes across all shards.
  [[nodiscard]] std::int64_t bytesUsed() const;

  /// Frees every entry (not an eviction: the counters are untouched). The
  /// driver calls it once a cache will see no more lookups.
  void dropEntries();

  /// Snapshot of the per-shard counters, in shard order.
  [[nodiscard]] std::vector<ShardStats> shardStats() const;

  /// Visits every resident entry: shards in index order, entries within a
  /// shard in insertion order (each shard's lock is held for its pass).
  /// The deterministic order matters to the checkpoint layer — restoring
  /// entries in visit order reproduces the per-shard insertion order, so a
  /// resumed run's eviction decisions match the original's. `fn` must not
  /// reenter the cache.
  void forEach(const std::function<void(
                   const std::string& key,
                   const std::shared_ptr<const see::SeeResult>& result)>& fn)
      const;

  /// Footprint of one cache entry, the unit of the byte accounting above:
  /// its key plus the bytes its result owns (SeeResult::bytes — the
  /// frontier snapshot blocks, chiefly). Map-node and allocator overhead
  /// are not counted.
  [[nodiscard]] static std::int64_t entryBytes(const std::string& key,
                                               const see::SeeResult& result);

 private:
  using Map =
      std::unordered_map<std::string, std::shared_ptr<const see::SeeResult>>;

  struct Shard {
    mutable Mutex mutex;
    /// Point lookups only; every walk (forEach, eviction) goes through
    /// `insertionOrder` below, so hash order never reaches a result.
    Map map HCA_GUARDED_BY(mutex);
    /// The map's entries in insertion order — oldest first, the eviction
    /// order. Map nodes never move, so this holds each key once.
    std::deque<Map::value_type*> insertionOrder HCA_GUARDED_BY(mutex);
    std::int64_t hits HCA_GUARDED_BY(mutex) = 0;
    std::int64_t misses HCA_GUARDED_BY(mutex) = 0;
    std::int64_t evictions HCA_GUARDED_BY(mutex) = 0;
    std::int64_t bytes HCA_GUARDED_BY(mutex) = 0;
  };

  [[nodiscard]] Shard& shardOf(const std::string& key) const;
  /// Erases the shard's oldest entry.
  static void evictOldest(Shard& shard) HCA_REQUIRES(shard.mutex);

  const std::int64_t maxBytesPerShard_;
  mutable std::vector<Shard> shards_;
};

}  // namespace hca::core
