#pragma once

#include <cstddef>
#include <cstdint>
#include <string_view>

#include "see/engine.hpp"
#include "support/json.hpp"
#include "tests/support/partial_solution.hpp"

/// The tests' independent reference for the Space Exploration Engine: the
/// same beam search as `SpaceExplorationEngine::run` (paper Figs. 4-5, the
/// same retry ladder: primary, then `deeper`, then `eager`), written over
/// deep-copied `PartialSolution` states instead of copy-on-write deltas and
/// arena snapshots. It shares only the assignment and cost templates
/// (see/solution_ops.hpp, see/cost.hpp, see/route_allocator.hpp) and the
/// feasibility oracle with the library, so a fault in the delta, snapshot
/// or merge machinery shows up as a difference between the two.
namespace hca::see {

/// Runs the reference search. Its result converts every final state to a
/// snapshot through FlatSolution::fromRows, so it compares
/// directly with the engine's: equal up to the three counters only the
/// engine keeps (copiesAvoided, snapshotsMaterialized, arenaBytesPeak),
/// which read 0 here.
[[nodiscard]] SeeResult referenceSearch(const SeeProblem& problem,
                                        const SeeOptions& options = {});

/// Frontier state `i` of `result` as a DDG-indexed PartialSolution.
[[nodiscard]] PartialSolution materialize(const SeeResult& result,
                                          std::size_t i = 0);

/// `result` in the SEE-result JSON the checkpoint once stored, written from
/// materialized PartialSolutions: the text the SEE and delta-identity
/// suites digest.
void writeReferenceSeeResult(JsonWriter& json, const SeeResult& result);

/// FNV-1a 64 of `text`: the digest the SEE and delta-identity suites pin.
[[nodiscard]] inline std::uint64_t fnv1a(std::string_view text) {
  std::uint64_t h = 1469598103934665603ULL;
  for (const char c : text) {
    h ^= static_cast<unsigned char>(c);
    h *= 1099511628211ULL;
  }
  return h;
}

}  // namespace hca::see
