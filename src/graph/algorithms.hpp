#pragma once

#include <cstdint>
#include <functional>
#include <optional>
#include <vector>

#include "graph/digraph.hpp"

/// Graph algorithms shared by the DDG analyses and the assignment passes.
namespace hca::graph {

/// Kahn topological order considering only edges for which `keepEdge`
/// returns true (the DDG uses this to drop loop-carried back edges).
/// Returns nullopt if the filtered graph has a cycle.
std::optional<std::vector<std::int32_t>> topologicalOrder(
    const Digraph& g,
    const std::function<bool(std::int32_t edgeId)>& keepEdge);

/// Topological order over all edges.
std::optional<std::vector<std::int32_t>> topologicalOrder(const Digraph& g);

/// True if the graph (filtered) contains a directed cycle.
bool hasCycle(const Digraph& g,
              const std::function<bool(std::int32_t edgeId)>& keepEdge);

/// Longest path lengths *to* sinks (the DDG "height" priority).
std::vector<std::int64_t> longestPathToSinks(
    const Digraph& g,
    const std::function<bool(std::int32_t edgeId)>& keepEdge,
    const std::function<std::int64_t(std::int32_t edgeId)>& weight);

/// Detects whether the graph with per-edge weights contains a cycle of
/// strictly positive total weight (Bellman–Ford with early exit). Used by the
/// parametric MII search: with weight(e) = latency(e) - II * distance(e), a
/// positive cycle means II is below the recurrence bound.
bool hasPositiveCycle(const Digraph& g,
                      const std::function<std::int64_t(std::int32_t)>& weight);

/// Smallest integer II >= 1 such that no cycle has sum(latency) >
/// II * sum(distance); i.e. MIIRec = max over cycles of
/// ceil(sum latency / sum distance). Edges with distance 0 and latency > 0 on
/// a cycle make the instance infeasible (throws InvalidArgumentError);
/// acyclic graphs (ignoring distance>0 edges there are no cycles) return 1.
std::int64_t minFeasibleInitiationInterval(
    const Digraph& g,
    const std::function<std::int64_t(std::int32_t)>& latency,
    const std::function<std::int64_t(std::int32_t)>& distance);

}  // namespace hca::graph
