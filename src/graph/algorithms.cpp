#include "graph/algorithms.hpp"

#include <algorithm>
#include <deque>

namespace hca::graph {

namespace {
bool keepAll(std::int32_t) { return true; }
}  // namespace

std::optional<std::vector<std::int32_t>> topologicalOrder(
    const Digraph& g,
    const std::function<bool(std::int32_t edgeId)>& keepEdge) {
  const std::int32_t n = g.numNodes();
  std::vector<std::int32_t> indeg(static_cast<std::size_t>(n), 0);
  for (std::int32_t e = 0; e < g.numEdges(); ++e) {
    if (keepEdge(e)) ++indeg[static_cast<std::size_t>(g.edge(e).dst)];
  }
  std::deque<std::int32_t> ready;
  for (std::int32_t v = 0; v < n; ++v) {
    if (indeg[static_cast<std::size_t>(v)] == 0) ready.push_back(v);
  }
  std::vector<std::int32_t> order;
  order.reserve(static_cast<std::size_t>(n));
  while (!ready.empty()) {
    const std::int32_t v = ready.front();
    ready.pop_front();
    order.push_back(v);
    for (std::int32_t e : g.outEdges(v)) {
      if (!keepEdge(e)) continue;
      auto& d = indeg[static_cast<std::size_t>(g.edge(e).dst)];
      if (--d == 0) ready.push_back(g.edge(e).dst);
    }
  }
  if (static_cast<std::int32_t>(order.size()) != n) return std::nullopt;
  return order;
}

std::optional<std::vector<std::int32_t>> topologicalOrder(const Digraph& g) {
  return topologicalOrder(g, keepAll);
}

bool hasCycle(const Digraph& g,
              const std::function<bool(std::int32_t edgeId)>& keepEdge) {
  return !topologicalOrder(g, keepEdge).has_value();
}

std::vector<std::int64_t> longestPathToSinks(
    const Digraph& g,
    const std::function<bool(std::int32_t edgeId)>& keepEdge,
    const std::function<std::int64_t(std::int32_t edgeId)>& weight) {
  const auto order = topologicalOrder(g, keepEdge);
  HCA_REQUIRE(order.has_value(), "longestPathToSinks on a cyclic graph");
  std::vector<std::int64_t> dist(static_cast<std::size_t>(g.numNodes()), 0);
  for (auto it = order->rbegin(); it != order->rend(); ++it) {
    const std::int32_t v = *it;
    for (std::int32_t e : g.outEdges(v)) {
      if (!keepEdge(e)) continue;
      const std::int32_t w = g.edge(e).dst;
      dist[static_cast<std::size_t>(v)] =
          std::max(dist[static_cast<std::size_t>(v)],
                   dist[static_cast<std::size_t>(w)] + weight(e));
    }
  }
  return dist;
}

bool hasPositiveCycle(
    const Digraph& g,
    const std::function<std::int64_t(std::int32_t)>& weight) {
  // Bellman–Ford searching for a *positive* cycle: negate weights and look
  // for a negative cycle. All nodes start at distance 0 (virtual super
  // source), which finds cycles anywhere in the graph.
  const std::int32_t n = g.numNodes();
  if (n == 0) return false;
  std::vector<std::int64_t> dist(static_cast<std::size_t>(n), 0);
  for (std::int32_t round = 0; round < n; ++round) {
    bool changed = false;
    for (std::int32_t e = 0; e < g.numEdges(); ++e) {
      const Edge& edge = g.edge(e);
      const std::int64_t cand =
          dist[static_cast<std::size_t>(edge.src)] - weight(e);
      if (cand < dist[static_cast<std::size_t>(edge.dst)]) {
        dist[static_cast<std::size_t>(edge.dst)] = cand;
        changed = true;
      }
    }
    if (!changed) return false;
  }
  return true;  // still relaxing after n rounds => negative (=positive) cycle
}

std::int64_t minFeasibleInitiationInterval(
    const Digraph& g,
    const std::function<std::int64_t(std::int32_t)>& latency,
    const std::function<std::int64_t(std::int32_t)>& distance) {
  // A cycle with total distance 0 cannot be broken by any II.
  {
    const auto zeroDistOnly = [&](std::int32_t e) { return distance(e) == 0; };
    HCA_REQUIRE(!hasCycle(g, zeroDistOnly),
                "DDG has a dependence cycle with zero total distance");
  }
  std::int64_t hi = 1;
  for (std::int32_t e = 0; e < g.numEdges(); ++e) {
    hi += std::max<std::int64_t>(latency(e), 0);
  }
  std::int64_t lo = 1;
  const auto infeasible = [&](std::int64_t ii) {
    return hasPositiveCycle(
        g, [&](std::int32_t e) { return latency(e) - ii * distance(e); });
  };
  // Binary search the smallest feasible II in [lo, hi]. hi is always
  // feasible: any cycle has distance >= 1 and total latency <= hi - 1.
  while (lo < hi) {
    const std::int64_t mid = lo + (hi - lo) / 2;
    if (infeasible(mid)) {
      lo = mid + 1;
    } else {
      hi = mid;
    }
  }
  return lo;
}

}  // namespace hca::graph
