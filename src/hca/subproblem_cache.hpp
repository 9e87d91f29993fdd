#pragma once

#include <cstdint>
#include <deque>
#include <memory>
#include <string>
#include <unordered_map>
#include <vector>

#include "machine/pattern_graph.hpp"
#include "mapper/mapper.hpp"
#include "see/engine.hpp"

/// Memoization of single-level SEE sub-problems within one outer attempt.
///
/// An outer (target II, profile) attempt re-solves the same 4-ish-node
/// sub-problems over and over: backtracking alternatives re-enter identical
/// children. The SEE is deterministic, so a sub-problem is fully described
/// by the *content* of its inputs — pattern-graph shape, working set, relay
/// values, boundary ILIs, constraints, latency model, and every SeeOptions
/// field — and its SeeResult can be replayed from a lookup. Keys are exact
/// serialized content (compared byte-for-byte on lookup), never a lossy
/// hash, so a hit is guaranteed to byte-match a fresh solve.
///
/// The problem path is deliberately *not* part of the key: identical
/// sub-problems at different positions of the attempt's problem tree share
/// one entry. Attempts never share entries: the key holds every SeeOptions
/// field, the target II included, and no two attempts of a run solve under
/// the same options. So each attempt owns its cache (HcaDriver::runAttempt),
/// uses it from one thread, and frees it when it returns.
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

/// Hierarchical backtracking: when a child sub-problem turns out to be
/// infeasible, up to this many states of the parent's final search frontier
/// (the best and its runners-up) are tried before the parent itself fails.
/// A cached result keeps no more states than that.
inline constexpr int kMaxAlternatives = 12;

class SubproblemCache {
 public:
  /// `maxBytes` <= 0 = no byte ceiling (the default — one attempt's
  /// sub-problem population is small). When set, every insert adds the
  /// entry's bytes (entryBytes) to the tally and sheds oldest-inserted
  /// entries until the cache is back under its ceiling, counting each in
  /// evictions() — the cache half of the driver's
  /// `HcaOptions::memoryBudgetBytes` contract: degrade hit rate, never OOM.
  /// Evicted sub-problems are simply re-solved on the next miss.
  explicit SubproblemCache(std::int64_t maxBytes = 0);

  SubproblemCache(const SubproblemCache&) = delete;
  SubproblemCache& operator=(const SubproblemCache&) = delete;

  /// Returns the cached result for `key`, or nullptr on a miss.
  [[nodiscard]] std::shared_ptr<const see::SeeResult> lookup(
      const std::string& key);

  /// Stores `result`, its frontier cut to kMaxAlternatives states, if the
  /// key is absent, and returns the stored entry (the first writer wins).
  /// The caller holds the entry while it replays it: a later insert may
  /// evict it from the cache meanwhile.
  std::shared_ptr<const see::SeeResult> insert(const std::string& key,
                                               see::SeeResult result);

  [[nodiscard]] std::int64_t hits() const { return hits_; }
  [[nodiscard]] std::int64_t misses() const { return misses_; }
  [[nodiscard]] std::int64_t evictions() const { return evictions_; }
  [[nodiscard]] std::int64_t entries() const {
    return static_cast<std::int64_t>(map_.size());
  }
  /// Resident bytes (the entryBytes sum).
  [[nodiscard]] std::int64_t bytesUsed() const { return bytes_; }

  /// Footprint of one cache entry, the unit of the byte accounting above:
  /// its key plus the bytes its result owns (SeeResult::bytes — the
  /// frontier snapshot blocks, chiefly). Map-node and allocator overhead
  /// are not counted.
  [[nodiscard]] static std::int64_t entryBytes(const std::string& key,
                                               const see::SeeResult& result);

 private:
  using Map =
      std::unordered_map<std::string, std::shared_ptr<const see::SeeResult>>;

  const std::int64_t maxBytes_;
  /// Point lookups only; eviction walks `insertionOrder_` below, so hash
  /// order never reaches a result.
  Map map_;
  /// The map's entries in insertion order — oldest first, the eviction
  /// order. Map nodes never move, so this holds each key once.
  std::deque<Map::value_type*> insertionOrder_;
  std::int64_t hits_ = 0;
  std::int64_t misses_ = 0;
  std::int64_t evictions_ = 0;
  std::int64_t bytes_ = 0;
};

}  // namespace hca::core
