#include "baseline/multilevel.hpp"

#include <algorithm>
#include <deque>
#include <map>

#include "support/check.hpp"
#include "support/rng.hpp"

namespace hca::baseline {

namespace {

/// Undirected dependence adjacency between instruction nodes.
std::map<DdgNodeId, std::vector<DdgNodeId>> buildAdjacency(
    const ddg::Ddg& ddg) {
  std::map<DdgNodeId, std::vector<DdgNodeId>> adj;
  for (std::int32_t v = 0; v < ddg.numNodes(); ++v) {
    const auto& node = ddg.node(DdgNodeId(v));
    if (!ddg::isInstruction(node.op)) continue;
    adj[DdgNodeId(v)];  // ensure entry
    for (const auto& operand : node.operands) {
      if (!ddg::isInstruction(ddg.node(operand.src).op)) continue;
      if (operand.src == DdgNodeId(v)) continue;
      adj[DdgNodeId(v)].push_back(operand.src);
      adj[operand.src].push_back(DdgNodeId(v));
    }
  }
  return adj;
}

struct Partitioner {
  const ddg::Ddg& ddg;
  const machine::DspFabricModel& model;
  const MultilevelOptions& options;
  std::map<DdgNodeId, std::vector<DdgNodeId>> adjacency;
  Rng rng;
  MultilevelResult result;

  /// Splits `nodes` into `parts` balanced groups grown by BFS
  /// followed by FM-style refinement. Returns the part of each node
  /// (parallel to `nodes`).
  std::vector<int> split(const std::vector<DdgNodeId>& nodes, int parts) {
    const int n = static_cast<int>(nodes.size());
    std::vector<int> part(static_cast<std::size_t>(n), -1);
    if (n == 0) return part;
    std::map<DdgNodeId, int> indexOf;
    for (int i = 0; i < n; ++i) {
      indexOf[nodes[static_cast<std::size_t>(i)]] = i;
    }
    const int capacity = std::max(
        1, static_cast<int>(
               static_cast<double>(n) / parts * (1.0 + options.balanceTolerance) +
               0.999));

    // Greedy seed: grow each part by BFS from an unassigned node, stopping
    // at the balanced size. Keeps connected regions together.
    const int targetSize = (n + parts - 1) / parts;
    int cursor = 0;
    for (int p = 0; p < parts; ++p) {
      int size = 0;
      std::deque<int> queue;
      while (size < targetSize) {
        if (queue.empty()) {
          while (cursor < n && part[static_cast<std::size_t>(cursor)] != -1) {
            ++cursor;
          }
          if (cursor >= n) break;
          queue.push_back(cursor);
          part[static_cast<std::size_t>(cursor)] = p;
          ++size;
        }
        const int u = queue.front();
        queue.pop_front();
        for (const DdgNodeId nbr :
             adjacency[nodes[static_cast<std::size_t>(u)]]) {
          const auto it = indexOf.find(nbr);
          if (it == indexOf.end()) continue;
          const int w = it->second;
          if (part[static_cast<std::size_t>(w)] != -1) continue;
          if (size >= targetSize) break;
          part[static_cast<std::size_t>(w)] = p;
          ++size;
          queue.push_back(w);
        }
      }
    }
    for (int i = 0; i < n; ++i) {
      if (part[static_cast<std::size_t>(i)] == -1) {
        part[static_cast<std::size_t>(i)] =
            static_cast<int>(rng.below(static_cast<std::uint64_t>(parts)));
      }
    }

    // FM-style refinement: move nodes to the part holding most of their
    // neighbors when the balance allows it.
    std::vector<int> sizes(static_cast<std::size_t>(parts), 0);
    for (int i = 0; i < n; ++i) ++sizes[static_cast<std::size_t>(part[static_cast<std::size_t>(i)])];
    for (int pass = 0; pass < options.refinementPasses; ++pass) {
      bool moved = false;
      for (int i = 0; i < n; ++i) {
        const int own = part[static_cast<std::size_t>(i)];
        std::vector<int> affinity(static_cast<std::size_t>(parts), 0);
        for (const DdgNodeId nbr :
             adjacency[nodes[static_cast<std::size_t>(i)]]) {
          const auto it = indexOf.find(nbr);
          if (it == indexOf.end()) continue;
          ++affinity[static_cast<std::size_t>(
              part[static_cast<std::size_t>(it->second)])];
        }
        int best = own;
        for (int p = 0; p < parts; ++p) {
          if (p == own || sizes[static_cast<std::size_t>(p)] >= capacity) {
            continue;
          }
          if (affinity[static_cast<std::size_t>(p)] >
              affinity[static_cast<std::size_t>(best)]) {
            best = p;
          }
        }
        if (best != own && sizes[static_cast<std::size_t>(own)] > 1) {
          part[static_cast<std::size_t>(i)] = best;
          --sizes[static_cast<std::size_t>(own)];
          ++sizes[static_cast<std::size_t>(best)];
          ++result.refinementMoves;
          moved = true;
        }
      }
      if (!moved) break;
    }
    return part;
  }

  void assign(const std::vector<DdgNodeId>& nodes, std::vector<int> path) {
    const int level = static_cast<int>(path.size());
    if (level == model.numLevels()) {
      const CnId cn = model.cnIdOf(path);
      for (const DdgNodeId n : nodes) {
        result.assignment[n.index()] = cn;
      }
      result.maxCnLoad =
          std::max(result.maxCnLoad, static_cast<int>(nodes.size()));
      return;
    }
    const int parts = model.levelSpec(level).children;
    const auto part = split(nodes, parts);
    std::vector<std::vector<DdgNodeId>> groups(
        static_cast<std::size_t>(parts));
    for (std::size_t i = 0; i < nodes.size(); ++i) {
      groups[static_cast<std::size_t>(part[i])].push_back(nodes[i]);
    }
    for (int p = 0; p < parts; ++p) {
      auto childPath = path;
      childPath.push_back(p);
      assign(groups[static_cast<std::size_t>(p)], std::move(childPath));
    }
  }
};

}  // namespace

MultilevelResult runMultilevel(const ddg::Ddg& ddg,
                               const machine::DspFabricModel& model,
                               const MultilevelOptions& options) {
  Partitioner partitioner{ddg, model, options, buildAdjacency(ddg),
                          Rng(options.seed), {}};
  partitioner.result.assignment.assign(
      static_cast<std::size_t>(ddg.numNodes()), CnId::invalid());

  std::vector<DdgNodeId> all;
  for (std::int32_t v = 0; v < ddg.numNodes(); ++v) {
    if (ddg::isInstruction(ddg.node(DdgNodeId(v)).op)) all.emplace_back(v);
  }
  partitioner.assign(all, {});

  MultilevelResult result = std::move(partitioner.result);
  // Cut metric: dependence edges crossing CNs.
  for (std::int32_t v = 0; v < ddg.numNodes(); ++v) {
    const auto& node = ddg.node(DdgNodeId(v));
    if (!ddg::isInstruction(node.op)) continue;
    for (const auto& operand : node.operands) {
      if (!ddg::isInstruction(ddg.node(operand.src).op)) continue;
      if (result.assignment[operand.src.index()] !=
          result.assignment[static_cast<std::size_t>(v)]) {
        ++result.cutEdges;
      }
    }
  }
  result.hierarchy = checkHierarchyFeasibility(ddg, model, result.assignment);
  result.hierarchyLegal = result.hierarchy.legal;
  if (!result.hierarchyLegal) {
    result.failureReason = result.hierarchy.failureReason;
  }
  return result;
}

}  // namespace hca::baseline
