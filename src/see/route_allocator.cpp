#include "see/route_allocator.hpp"

namespace hca::see {

std::vector<ClusterId> RouteAllocator::findPath(
    const PreparedProblem& prepared, const PartialSolution& solution,
    ClusterId src, ClusterId dst, ValueId value, int maxHops,
    RouteScratch* scratch) {
  return findPathT(prepared, solution, src, dst, value, maxHops, scratch);
}

std::optional<PartialSolution> RouteAllocator::tryAssign(
    const PreparedProblem& prepared, const PartialSolution& base,
    const Item& item, ClusterId cluster, int maxHops, int* routedOperands,
    RouteScratch* scratch) {
  const auto& pg = *prepared.problem().pg;
  if (pg.node(cluster).kind != machine::PgNodeKind::kCluster) {
    return std::nullopt;
  }
  PartialSolution sol = base;
  if (!routeAndAssignT(prepared, sol, item, cluster, maxHops, routedOperands,
                       scratch)) {
    return std::nullopt;
  }
  return sol;
}

std::optional<PartialSolution> RouteAllocator::tryAssignGroup(
    const PreparedProblem& prepared, const PartialSolution& base,
    const ItemGroup& group, ClusterId cluster, int maxHops,
    int* routedOperands, RouteScratch* scratch) {
  PartialSolution sol = base;
  if (!routeAssignGroupT(prepared, sol, group, cluster, maxHops,
                         routedOperands, scratch)) {
    return std::nullopt;
  }
  return sol;
}

}  // namespace hca::see
