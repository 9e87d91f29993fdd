#include <gtest/gtest.h>

#include <array>
#include <memory>
#include <random>
#include <sstream>

#include "ddg/builder.hpp"
#include "ddg/kernels.hpp"
#include "machine/rcp.hpp"
#include "see/cost.hpp"
#include "see/engine.hpp"
#include "see/route_allocator.hpp"
#include "see/solution_ops.hpp"
#include "support/check.hpp"
#include "support/json.hpp"
#include "support/rng.hpp"
#include "support/str.hpp"
#include "tests/support/reference_search.hpp"

namespace hca::see {
namespace {

using ddg::DdgBuilder;

/// All instruction nodes of a DDG as a working set.
std::vector<DdgNodeId> fullWorkingSet(const ddg::Ddg& ddg) {
  std::vector<DdgNodeId> ws;
  for (std::int32_t v = 0; v < ddg.numNodes(); ++v) {
    if (ddg::isInstruction(ddg.node(DdgNodeId(v)).op)) ws.emplace_back(v);
  }
  return ws;
}

/// A small diamond DDG: two loads feed an add that is stored.
ddg::Ddg diamondDdg() {
  DdgBuilder b;
  const auto a = b.load(b.cst(0), 0, "a");
  const auto c = b.load(b.cst(1), 0, "c");
  const auto s = b.add(a, c, "s");
  b.store(b.cst(2), s, 0, "out");
  return b.finish();
}

/// Fully-connected PG with `n` clusters of one CN each.
machine::PatternGraph smallPg(int n) {
  machine::PatternGraph pg;
  for (int i = 0; i < n; ++i) {
    pg.addCluster(machine::ResourceTable::computationNode());
  }
  pg.connectClustersCompletely();
  return pg;
}

SeeProblem baseProblem(const ddg::Ddg& ddg, const machine::PatternGraph& pg) {
  SeeProblem problem;
  problem.ddg = &ddg;
  problem.workingSet = fullWorkingSet(ddg);
  problem.pg = &pg;
  problem.constraints.maxInNeighbors = -1;
  problem.inWiresPerCluster = 2;
  problem.outWiresPerCluster = 2;
  return problem;
}

// --- PreparedProblem ----------------------------------------------------------

TEST(PreparedTest, PriorityOrderIsHeightDescending) {
  const auto ddg = diamondDdg();
  const auto pg = smallPg(2);
  const auto problem = baseProblem(ddg, pg);
  SeeOptions noChains;
  noChains.chainGrouping = false;  // keep every item a singleton
  const PreparedProblem prepared(problem, noChains);
  const auto& items = prepared.items();
  ASSERT_EQ(items.size(), 4u);  // 2 loads, add, store (all singletons)
  for (std::size_t i = 0; i + 1 < items.size(); ++i) {
    ASSERT_EQ(items[i].members.size(), 1u);
    EXPECT_GE(prepared.height(items[i].members[0].node),
              prepared.height(items[i + 1].members[0].node));
  }
  // Loads (height lat(load)+lat(add)+...) come before the store (height 0).
  EXPECT_EQ(ddg.node(items.back().members[0].node).op, ddg::Op::kStore);
}

TEST(PreparedTest, MissingValueSourceThrows) {
  const auto ddg = diamondDdg();
  const auto pg = smallPg(2);
  auto problem = baseProblem(ddg, pg);
  // Drop the add from the WS: the store's operand has no producer in WS and
  // no registered source.
  std::vector<DdgNodeId> ws;
  for (const DdgNodeId n : problem.workingSet) {
    if (ddg.node(n).op != ddg::Op::kAdd) ws.push_back(n);
  }
  problem.workingSet = ws;
  EXPECT_THROW(PreparedProblem(problem, SeeOptions{}), InvalidArgumentError);
}

TEST(PreparedTest, ConstOperandsNeedNoSource) {
  const auto ddg = diamondDdg();  // addresses are consts
  const auto pg = smallPg(2);
  const auto problem = baseProblem(ddg, pg);
  EXPECT_NO_THROW(PreparedProblem(problem, SeeOptions{}));
}

TEST(PreparedTest, DuplicateWsNodeRejected) {
  const auto ddg = diamondDdg();
  const auto pg = smallPg(2);
  auto problem = baseProblem(ddg, pg);
  problem.workingSet.push_back(problem.workingSet.front());
  EXPECT_THROW(PreparedProblem(problem, SeeOptions{}), InvalidArgumentError);
}

TEST(PreparedTest, ValuesOutsideTheDdgRejected) {
  // Values are named by their producing DDG node; the prepared problem's
  // value tables are sized to the DDG and reject anything else.
  const auto ddg = diamondDdg();
  auto pg = smallPg(2);
  const ClusterId in = pg.addInputNode({}, "in");
  const ClusterId out = pg.addOutputNode("out");
  pg.connectBoundaryNodes();
  const ValueId outside(ddg.numNodes());
  auto sourced = baseProblem(ddg, pg);
  sourced.valueSources[outside] = in;
  EXPECT_THROW(PreparedProblem(sourced, SeeOptions{}), InvalidArgumentError);
  auto required = baseProblem(ddg, pg);
  required.outputRequirements.push_back({out, {outside}});
  EXPECT_THROW(PreparedProblem(required, SeeOptions{}), InvalidArgumentError);
}

// --- engine on unconstrained machines -----------------------------------------

TEST(EngineTest, AssignsEverythingOnGenerousMachine) {
  const auto ddg = diamondDdg();
  const auto pg = smallPg(4);
  const auto problem = baseProblem(ddg, pg);
  const SpaceExplorationEngine engine;
  const auto result = engine.run(problem);
  ASSERT_TRUE(result.legal) << result.failureReason;
  const PartialSolution solution = materialize(result);
  for (const DdgNodeId n : problem.workingSet) {
    EXPECT_TRUE(solution.clusterOf(n).valid());
  }
  EXPECT_GT(result.stats.candidatesEvaluated, 0);
}

TEST(EngineTest, SingleClusterNeedsNoCopies) {
  const auto ddg = diamondDdg();
  machine::PatternGraph pg;
  pg.addCluster(machine::ResourceTable(4, 4));
  const auto problem = baseProblem(ddg, pg);
  const SpaceExplorationEngine engine;
  const auto result = engine.run(problem);
  ASSERT_TRUE(result.legal);
  EXPECT_EQ(materialize(result).flow().totalCopies(), 0);
}

TEST(EngineTest, CopiesAppearWhenDependencesCrossClusters) {
  // Clusters with one issue slot each: the II term (weight 100 against 4
  // per copy) spreads the four ops, so dependences cross clusters.
  const auto ddg = diamondDdg();
  const auto pg = smallPg(4);
  auto problem = baseProblem(ddg, pg);
  SeeOptions options;
  options.chainGrouping = false;
  const SpaceExplorationEngine engine(options);
  const auto result = engine.run(problem);
  ASSERT_TRUE(result.legal) << result.failureReason;
  const PartialSolution solution = materialize(result);
  EXPECT_GT(solution.flow().totalCopies(), 0);
}

TEST(EngineTest, HeterogeneousResourcesRespected) {
  // RCP-style: only even clusters own an AG; loads/stores must land there.
  const auto ddg = diamondDdg();
  machine::RcpConfig config;
  config.clusters = 4;
  config.neighborReach = 1;
  config.inputPorts = 2;
  config.memClusterStride = 2;
  const auto pg = machine::rcpPatternGraph(config);
  auto problem = baseProblem(ddg, pg);
  problem.constraints = machine::rcpConstraints(config);
  const SpaceExplorationEngine engine;
  const auto result = engine.run(problem);
  ASSERT_TRUE(result.legal) << result.failureReason;
  const PartialSolution solution = materialize(result);
  for (const DdgNodeId n : problem.workingSet) {
    if (ddg::isMemoryOp(ddg.node(n).op)) {
      EXPECT_EQ(solution.clusterOf(n).value() % 2, 0)
          << "memory op on AG-less cluster";
    }
  }
}

TEST(EngineTest, DeterministicAcrossRuns) {
  const auto kernel = ddg::buildFir2Dim();
  const auto pg = smallPg(8);
  auto problem = baseProblem(kernel.ddg, pg);
  const SpaceExplorationEngine engine;
  const auto r1 = engine.run(problem);
  const auto r2 = engine.run(problem);
  ASSERT_TRUE(r1.legal);
  EXPECT_EQ(materialize(r1).signature(), materialize(r2).signature());
  EXPECT_EQ(materialize(r1).objective(), materialize(r2).objective());
}

TEST(EngineTest, EmptyWorkingSetIsLegal) {
  ddg::Ddg empty;
  const auto pg = smallPg(2);
  SeeProblem problem;
  problem.ddg = &empty;
  problem.pg = &pg;
  const SpaceExplorationEngine engine;
  const auto result = engine.run(problem);
  EXPECT_TRUE(result.legal);
  EXPECT_EQ(materialize(result).assignedCount(), 0);
}

// --- constraints ----------------------------------------------------------------

TEST(ConstraintTest, MaxInNeighborsEnforced) {
  // Star: center consumes from 3 producers on 3 different clusters, but
  // maxIn = 2 and each producer cluster is capped to its producer. The
  // engine must still find a legal solution by co-locating or routing.
  DdgBuilder b;
  const auto x = b.load(b.cst(0), 0);
  const auto y = b.load(b.cst(1), 0);
  const auto z = b.load(b.cst(2), 0);
  const auto s = b.add(b.add(x, y), z);
  b.store(b.cst(3), s);
  const auto ddg = b.finish();

  const auto pg = smallPg(4);
  auto problem = baseProblem(ddg, pg);
  problem.constraints.maxInNeighbors = 1;
  const SpaceExplorationEngine engine;
  const auto result = engine.run(problem);
  ASSERT_TRUE(result.legal) << result.failureReason;
  const PartialSolution solution = materialize(result);
  // Verify the constraint on the result.
  for (const ClusterId c : pg.clusterNodes()) {
    EXPECT_LE(solution.flow().realInNeighbors(pg, c).size(), 1u);
  }
}

TEST(ConstraintTest, OutputUnaryFanInForcesCoLocation) {
  // Paper Fig. 10: two values k, h leave on the same output wire; their
  // producers must land on the same cluster.
  DdgBuilder b;
  const auto a = b.load(b.cst(0), 0, "x");
  const auto k = b.add(a, b.cst(1), "k");
  const auto h = b.mul(a, b.cst(2), "h");
  const auto ddg = b.finish();

  machine::PatternGraph pg;
  for (int i = 0; i < 4; ++i) {
    pg.addCluster(machine::ResourceTable::computationNode());
  }
  pg.connectClustersCompletely();
  const auto out = pg.addOutputNode("out0");
  pg.connectBoundaryNodes();

  SeeProblem problem;
  problem.ddg = &ddg;
  problem.workingSet = fullWorkingSet(ddg);
  problem.pg = &pg;
  const ValueId kv(b.idOf(k).value());
  const ValueId hv(b.idOf(h).value());
  problem.outputRequirements.push_back({out, {kv, hv}});

  const SpaceExplorationEngine engine;
  const auto result = engine.run(problem);
  ASSERT_TRUE(result.legal) << result.failureReason;
  const PartialSolution solution = materialize(result);
  EXPECT_EQ(solution.clusterOf(DdgNodeId(kv.value())),
            solution.clusterOf(DdgNodeId(hv.value())));
  // Output node has exactly one real in-neighbor.
  EXPECT_EQ(solution.flow().realInNeighbors(pg, out).size(), 1u);
}

TEST(ConstraintTest, InputNodeValuesConsumedViaBoundary) {
  // A consumer whose producer is outside the WS reads it from the input
  // node registered in valueSources.
  DdgBuilder b;
  const auto ext = b.load(b.cst(0), 0, "ext");  // will be out-of-WS
  const auto use = b.add(ext, b.cst(1), "use");
  b.store(b.cst(2), use);
  const auto ddg = b.finish();

  machine::PatternGraph pg;
  for (int i = 0; i < 2; ++i) {
    pg.addCluster(machine::ResourceTable::computationNode());
  }
  pg.connectClustersCompletely();
  ValueId extV;
  for (std::int32_t v = 0; v < ddg.numNodes(); ++v) {
    if (ddg.node(DdgNodeId(v)).name == "ext") extV = ValueId(v);
  }
  const auto in = pg.addInputNode({extV}, "in0");
  pg.connectBoundaryNodes();

  SeeProblem problem;
  problem.ddg = &ddg;
  for (std::int32_t v = 0; v < ddg.numNodes(); ++v) {
    const auto op = ddg.node(DdgNodeId(v)).op;
    if (ddg::isInstruction(op) && op != ddg::Op::kLoad) {
      problem.workingSet.emplace_back(v);
    }
  }
  problem.pg = &pg;
  problem.valueSources[extV] = in;

  const SpaceExplorationEngine engine;
  const auto result = engine.run(problem);
  ASSERT_TRUE(result.legal) << result.failureReason;
  const PartialSolution solution = materialize(result);
  // The boundary value flows from the input node to the add's cluster.
  const ClusterId addCluster = solution.clusterOf(
      DdgNodeId(extV.value() + 2));  // cst(1) then add follow ext
  bool found = false;
  for (const PgArcId arc : pg.outArcs(in)) {
    for (const ValueId v : solution.flow().copiesOn(arc)) {
      if (v == extV) found = true;
    }
  }
  EXPECT_TRUE(found);
  (void)addCluster;
}

// --- route allocator (paper Fig. 6) --------------------------------------------

TEST(RouteAllocatorTest, PaperFigure6RoutesThroughIntermediate) {
  // Ring of 4 clusters (reach 1), maxIn = 1. The load can only go on
  // cluster 2, the one with an AG; the add's value leaves on an output wire
  // that only cluster 0 feeds, two hops away, outside the ring's reach.
  // Wherever the add goes, its operand or its result must be routed
  // through an intermediate cluster (1 or 3).
  DdgBuilder b;
  const auto x = b.load(b.cst(0), 0, "x");
  const auto u = b.add(x, b.cst(1), "u");
  const auto ddg = b.finish();

  machine::PatternGraph pg;
  for (int i = 0; i < 4; ++i) {
    pg.addCluster(machine::ResourceTable(1, i == 2 ? 1 : 0));
  }
  for (int i = 0; i < 4; ++i) {
    pg.addArc(ClusterId(i), ClusterId((i + 1) % 4));
    pg.addArc(ClusterId((i + 1) % 4), ClusterId(i));
  }
  const auto out = pg.addOutputNode("out0");
  pg.addArc(ClusterId(0), out);

  SeeProblem problem;
  problem.ddg = &ddg;
  problem.workingSet = fullWorkingSet(ddg);
  problem.pg = &pg;
  problem.constraints.maxInNeighbors = 1;
  const ValueId xv(b.idOf(x).value());
  const ValueId uv(b.idOf(u).value());
  problem.outputRequirements.push_back({out, {uv}});

  SeeOptions options;
  options.beamWidth = 2;
  const SpaceExplorationEngine engine(options);
  const auto result = engine.run(problem);
  ASSERT_TRUE(result.legal) << result.failureReason;
  EXPECT_GT(result.stats.routedOperands, 0);
  const PartialSolution solution = materialize(result);
  const ClusterId from = solution.clusterOf(DdgNodeId(xv.value()));
  const ClusterId to = solution.clusterOf(DdgNodeId(uv.value()));
  EXPECT_EQ(from, ClusterId(2));
  // A relay copy: a value reaches a cluster that holds neither op, so
  // nothing there produces or consumes it.
  int relayCopies = 0;
  for (const ClusterId c : pg.clusterNodes()) {
    if (c == from || c == to) continue;
    for (const PgArcId arc : pg.inArcs(c)) {
      relayCopies += static_cast<int>(solution.flow().copiesOn(arc).size());
    }
  }
  EXPECT_GT(relayCopies, 0);
  // Constraint must hold in the final flow.
  for (const ClusterId c : pg.clusterNodes()) {
    EXPECT_LE(solution.flow().realInNeighbors(pg, c).size(), 1u);
  }
}

TEST(RouteAllocatorTest, FindsMultiHopPath) {
  // Directly exercise routeAndAssignT: line topology 0 -> 1 -> 2, value
  // produced at 0, consumer forced to 2.
  DdgBuilder b;
  const auto x = b.load(b.cst(0), 0, "x");
  const auto y = b.neg(x, "y");
  b.store(b.cst(1), y);
  const auto ddg = b.finish();

  machine::PatternGraph pg;
  for (int i = 0; i < 3; ++i) {
    pg.addCluster(machine::ResourceTable::computationNode());
  }
  pg.addArc(ClusterId(0), ClusterId(1));
  pg.addArc(ClusterId(1), ClusterId(2));

  SeeProblem problem;
  problem.ddg = &ddg;
  problem.workingSet = fullWorkingSet(ddg);
  problem.pg = &pg;

  const PreparedProblem prepared(problem, SeeOptions{});
  auto sol = PartialSolution::initial(prepared);
  // Assign the load to cluster 0 by hand.
  Item loadItem;
  loadItem.kind = Item::Kind::kNode;
  for (const auto& group : prepared.items()) {
    for (const auto& item : group.members) {
      if (item.kind == Item::Kind::kNode &&
          ddg.node(item.node).op == ddg::Op::kLoad) {
        loadItem = item;
      }
    }
  }
  ASSERT_TRUE(sol.canAssign(prepared, loadItem, ClusterId(0)));
  sol.assign(prepared, loadItem, ClusterId(0));

  // The neg cannot go on cluster 2 directly (no arc 0 -> 2)...
  Item negItem;
  for (const auto& group : prepared.items()) {
    for (const auto& item : group.members) {
      if (item.kind == Item::Kind::kNode &&
          ddg.node(item.node).op == ddg::Op::kNeg) {
        negItem = item;
      }
    }
  }
  EXPECT_FALSE(sol.canAssign(prepared, negItem, ClusterId(2)));
  // ...but the route allocator relays through cluster 1.
  PartialSolution extended = sol;
  int routed = 0;
  RouteScratch scratch;
  ASSERT_TRUE(routeAndAssignT(prepared, extended, negItem, ClusterId(2),
                              /*maxHops=*/3, &routed, scratch));
  EXPECT_EQ(routed, 1);
  EXPECT_EQ(extended.clusterOf(negItem.node), ClusterId(2));
  // The value crosses both arcs.
  const ValueId xv(loadItem.node.value());
  const auto a01 = *pg.arcBetween(ClusterId(0), ClusterId(1));
  const auto a12 = *pg.arcBetween(ClusterId(1), ClusterId(2));
  EXPECT_EQ(extended.flow().copiesOn(a01).size(), 1u);
  EXPECT_EQ(extended.flow().copiesOn(a01)[0], xv);
  EXPECT_EQ(extended.flow().copiesOn(a12)[0], xv);
}

TEST(RouteAllocatorTest, RespectsHopLimit) {
  // Long line: 5 clusters, value at 0, target 4 -> needs 3 relays.
  DdgBuilder b;
  const auto x = b.load(b.cst(0), 0, "x");
  const auto y = b.neg(x, "y");
  b.store(b.cst(1), y);
  const auto ddg = b.finish();

  machine::PatternGraph pg;
  for (int i = 0; i < 5; ++i) {
    pg.addCluster(machine::ResourceTable::computationNode());
  }
  for (int i = 0; i < 4; ++i) pg.addArc(ClusterId(i), ClusterId(i + 1));

  SeeProblem problem;
  problem.ddg = &ddg;
  problem.workingSet = fullWorkingSet(ddg);
  problem.pg = &pg;

  // The hop budget is a per-call argument (the retry ladder varies it over
  // one prepared problem), not a property of the preparation.
  const PreparedProblem prepared(problem, SeeOptions{});
  auto sol = PartialSolution::initial(prepared);
  Item loadItem, negItem;
  for (const auto& group : prepared.items()) {
    for (const auto& item : group.members) {
      if (item.kind != Item::Kind::kNode) continue;
      if (ddg.node(item.node).op == ddg::Op::kLoad) loadItem = item;
      if (ddg.node(item.node).op == ddg::Op::kNeg) negItem = item;
    }
  }
  sol.assign(prepared, loadItem, ClusterId(0));
  PartialSolution tooShort = sol;  // 2 hops: not enough for 3 relays
  RouteScratch scratch;
  EXPECT_FALSE(routeAndAssignT(prepared, tooShort, negItem, ClusterId(4),
                               /*maxHops=*/2, nullptr, scratch));
  PartialSolution enough = sol;
  EXPECT_TRUE(routeAndAssignT(prepared, enough, negItem, ClusterId(4),
                              /*maxHops=*/3, nullptr, scratch));
}

// --- relays -------------------------------------------------------------------

TEST(RelayTest, RelayValueParkedAndWired) {
  // No WS nodes: a pure pass-through of the value of a load produced
  // elsewhere.
  DdgBuilder b;
  const auto x = b.load(b.cst(0), 0, "x");
  b.store(b.cst(1), x);
  const auto ddg = b.finish();
  ValueId v;
  for (std::int32_t n = 0; n < ddg.numNodes(); ++n) {
    if (ddg.node(DdgNodeId(n)).name == "x") v = ValueId(n);
  }
  ASSERT_TRUE(v.valid());
  machine::PatternGraph pg;
  for (int i = 0; i < 2; ++i) {
    pg.addCluster(machine::ResourceTable::computationNode());
  }
  pg.connectClustersCompletely();
  const auto in = pg.addInputNode({v}, "in");
  const auto out = pg.addOutputNode("out");
  pg.connectBoundaryNodes();

  SeeProblem problem;
  problem.ddg = &ddg;
  problem.pg = &pg;
  problem.relayValues = {v};
  problem.valueSources[v] = in;
  problem.outputRequirements.push_back({out, {v}});

  const SpaceExplorationEngine engine;
  const auto result = engine.run(problem);
  ASSERT_TRUE(result.legal) << result.failureReason;
  const PartialSolution solution = materialize(result);
  const ClusterId parked = solution.relayCluster(0);
  EXPECT_TRUE(parked.valid());
  // Value flows in -> parked -> out.
  const auto aIn = *pg.arcBetween(in, parked);
  const auto aOut = *pg.arcBetween(parked, out);
  EXPECT_TRUE(solution.flow().isReal(aIn));
  EXPECT_TRUE(solution.flow().isReal(aOut));
  // The relay consumes an issue slot.
  EXPECT_EQ(solution.usage(parked).instructions, 1);
}

// --- cost criteria --------------------------------------------------------------

TEST(CostTest, IiEstimateGrowsWithLoad) {
  const auto ddg = diamondDdg();
  machine::PatternGraph pg;
  pg.addCluster(machine::ResourceTable::computationNode());
  pg.addCluster(machine::ResourceTable::computationNode());
  pg.connectClustersCompletely();
  auto problem = baseProblem(ddg, pg);
  const PreparedProblem prepared(problem, SeeOptions{});

  auto sol = PartialSolution::initial(prepared);
  const double before = clusterScoresT(prepared, sol).iiEstimate;
  // Pile everything on cluster 0.
  for (const auto& group : prepared.items()) {
    for (const auto& item : group.members) {
      sol.assign(prepared, item, ClusterId(0));
    }
  }
  EXPECT_GT(clusterScoresT(prepared, sol).iiEstimate, before);
  EXPECT_EQ(clusterMiiT(prepared, sol, ClusterId(0)), 4);
  EXPECT_EQ(clusterMiiT(prepared, sol, ClusterId(1)), 1);
}

TEST(CostTest, BalancedBeatsUnbalanced) {
  const auto ddg = diamondDdg();
  const auto pg = smallPg(2);
  auto problem = baseProblem(ddg, pg);
  const PreparedProblem prepared(problem, SeeOptions{});

  auto lumped = PartialSolution::initial(prepared);
  for (const auto& group : prepared.items()) {
    for (const auto& item : group.members) {
      lumped.assign(prepared, item, ClusterId(0));
    }
  }
  auto spread = PartialSolution::initial(prepared);
  int i = 0;
  for (const auto& group : prepared.items()) {
    for (const auto& item : group.members) {
      spread.assign(prepared, item, ClusterId(i++ % 2));
    }
  }
  EXPECT_LT(clusterScoresT(prepared, spread).loadBalance,
            clusterScoresT(prepared, lumped).loadBalance);
}

TEST(CostTest, CopyCountCountsFlow) {
  const auto ddg = diamondDdg();
  const auto pg = smallPg(2);
  auto problem = baseProblem(ddg, pg);
  const PreparedProblem prepared(problem, SeeOptions{});
  auto sol = PartialSolution::initial(prepared);
  int i = 0;
  for (const auto& group : prepared.items()) {
    for (const auto& item : group.members) {
      sol.assign(prepared, item, ClusterId(i++ % 2));
    }
  }
  CostWeights copiesOnly;
  copiesOnly.iiEstimate = 0;
  copiesOnly.copyCount = 1;
  copiesOnly.loadBalance = 0;
  copiesOnly.criticalPath = 0;
  copiesOnly.wiringSlack = 0;
  EXPECT_EQ(sol.totalCopies(), sol.flow().totalCopies());
  EXPECT_EQ(objectiveT(prepared, copiesOnly, sol),
            static_cast<double>(sol.flow().totalCopies()));
  EXPECT_GT(sol.flow().totalCopies(), 0);
}

TEST(CostTest, WeightedObjectiveCombines) {
  // Diamond: loads a, c feed s = a + c, which is stored. Placing a and s on
  // cluster 0 and c and the store on cluster 1 cuts two intra-iteration
  // dependences (c -> s, s -> store), so the critical-path term is live.
  const auto ddg = diamondDdg();
  const auto pg = smallPg(2);
  auto problem = baseProblem(ddg, pg);
  problem.constraints.maxInNeighbors = 2;  // wiring slack is live too
  SeeOptions noChains;
  noChains.chainGrouping = false;  // one item per node, height order
  const PreparedProblem prepared(problem, noChains);
  ASSERT_EQ(prepared.items().size(), 4u);
  const std::array<ClusterId, 4> placement = {ClusterId(0), ClusterId(1),
                                              ClusterId(0), ClusterId(1)};

  CostWeights weights;  // every default weight is non-zero
  ASSERT_NE(weights.iiEstimate, 0.0);
  ASSERT_NE(weights.copyCount, 0.0);
  ASSERT_NE(weights.loadBalance, 0.0);
  ASSERT_NE(weights.criticalPath, 0.0);
  ASSERT_NE(weights.wiringSlack, 0.0);
  CostWeights iiOnly;
  iiOnly.iiEstimate = 10;
  iiOnly.copyCount = 0;
  iiOnly.loadBalance = 0;
  iiOnly.criticalPath = 0;
  iiOnly.wiringSlack = 0;

  // The same state twice: a PartialSolution, and a DeltaSolution over a
  // snapshot of the first three placements with the store added on top, so
  // the delta's critical-path score merges parent and delta terms.
  auto partial = PartialSolution::initial(prepared);
  partial.setObjective(objectiveT(prepared, weights, partial));
  MonotonicArena arena;
  DeltaSolution first;
  first.init(prepared);
  first.reset(FlatSolution::initial(prepared, arena));
  DeltaSolution second;
  second.init(prepared);
  for (std::size_t i = 0; i < placement.size(); ++i) {
    if (i == 3) {
      first.setObjective(objectiveT(prepared, weights, first));
      second.reset(FlatSolution::fromDelta(first, arena));
    }
    DeltaSolution& delta = i < 3 ? first : second;
    const Item& item = prepared.items()[i].members.front();
    ASSERT_TRUE(partial.canAssign(prepared, item, placement[i]));
    ASSERT_TRUE(canAssignT(prepared, delta, item, placement[i]));
    partial.assign(prepared, item, placement[i]);
    assignT(prepared, delta, item, placement[i]);
  }

  EXPECT_GT(partial.criticalPathScore(prepared), 0.0);
  EXPECT_GT(clusterScoresT(prepared, partial).wiringSlack, 0.0);
  EXPECT_EQ(partial.criticalPathScore(prepared),
            second.criticalPathScore(prepared));
  EXPECT_EQ(objectiveT(prepared, weights, partial),
            objectiveT(prepared, weights, second));
  EXPECT_EQ(objectiveT(prepared, iiOnly, partial),
            10 * clusterScoresT(prepared, partial).iiEstimate);
}

/// Walks `problem`'s priority list from the initial state, placing each
/// group on a random cluster that takes it. At every parent, each
/// cluster's candidate (placed directly or routed, as the engine's eager
/// rung does) is scored twice: once from the parent's scoring tables and
/// once by the full loops with none. The two must agree bit for bit.
/// Counts the candidates whose cluster scan started past position 0 and
/// those whose penalty merged new terms into a parent with terms.
void checkPrefixTablesOnWalk(const SeeProblem& problem, std::uint64_t seed,
                             int& laterScanStarts, int& penaltyMerges) {
  SeeOptions options;
  options.weights.targetIi = 2;  // MIIs above the clamp reach the sums
  const PreparedProblem prepared(problem, options);
  const auto& clusters = prepared.clusters();
  const std::uint64_t clusterMask = prepared.clusterMask();
  Rng rng(seed);
  MonotonicArena arena;
  DeltaSolution fromTables;
  DeltaSolution fullLoop;
  fromTables.init(prepared);
  fullLoop.init(prepared);
  RouteScratch scratch;
  const FlatSolution* parent = FlatSolution::initial(prepared, arena);
  std::vector<ClusterTerms> terms;
  ParentScores scores;
  const auto place = [&](DeltaSolution& d, const ItemGroup& group,
                         ClusterId c) {
    int routed = 0;
    return routeAssignGroupT(prepared, d, group, c, /*maxHops=*/2, &routed,
                             scratch);
  };
  for (std::size_t gi = 0; gi < prepared.items().size(); ++gi) {
    const ItemGroup& group = prepared.items()[gi];
    terms.clear();
    for (const ClusterId c : clusters) {
      terms.push_back(clusterTermsT(prepared, *parent, c));
    }
    buildParentScores(prepared, *parent, terms.data(), scores);
    std::vector<ClusterId> takers;
    for (const ClusterId c : clusters) {
      fromTables.reset(parent, &scores);
      fullLoop.reset(parent);
      const bool placed = place(fromTables, group, c);
      ASSERT_EQ(place(fullLoop, group, c), placed);
      if (!placed) continue;
      takers.push_back(c);
      SCOPED_TRACE(strCat("group ", gi, " cluster ", c.value()));
      const ClusterScores a = clusterScoresT(prepared, fromTables);
      const ClusterScores b = clusterScoresT(prepared, fullLoop);
      EXPECT_EQ(a.iiEstimate, b.iiEstimate);
      EXPECT_EQ(a.loadBalance, b.loadBalance);
      EXPECT_EQ(a.wiringSlack, b.wiringSlack);
      const double penalty = fromTables.criticalPathScore(prepared);
      EXPECT_EQ(penalty, fullLoop.criticalPathScore(prepared));
      EXPECT_EQ(objectiveT(prepared, options.weights, fromTables),
                objectiveT(prepared, options.weights, fullLoop));
      const std::uint64_t touched = fromTables.touchedNodes() & clusterMask;
      if (touched != 0 &&
          __builtin_ctzll(touched) > __builtin_ctzll(clusterMask)) {
        ++laterScanStarts;
      }
      if (scores.penalty.size() > 1 && penalty != scores.penalty.back()) {
        ++penaltyMerges;
      }
    }
    if (takers.empty()) return;
    const ClusterId pick = takers[rng.below(takers.size())];
    fromTables.reset(parent, &scores);
    ASSERT_TRUE(place(fromTables, group, pick));
    fromTables.setObjective(
        objectiveT(prepared, options.weights, fromTables));
    parent = FlatSolution::fromDelta(fromTables, arena);
  }
}

TEST(CostTest, PrefixTablesMatchFullLoop) {
  int laterScanStarts = 0;
  int penaltyMerges = 0;
  const auto walk = [&](const ddg::Ddg& ddg, const machine::PatternGraph& pg,
                        int maxIn, int inWires, int outWires) {
    for (std::uint64_t seed = 1; seed <= 2; ++seed) {
      auto problem = baseProblem(ddg, pg);
      problem.constraints.maxInNeighbors = maxIn;
      problem.inWiresPerCluster = inWires;
      problem.outWiresPerCluster = outWires;
      SCOPED_TRACE(strCat(pg.numNodes(), " clusters, cap ", maxIn, ", seed ",
                          seed));
      checkPrefixTablesOnWalk(problem, seed, laterScanStarts, penaltyMerges);
    }
  };
  // The flat-ICA fabric: 64 single-CN clusters, two input selects each.
  const auto idct = ddg::buildIdctHor();
  walk(idct.ddg, smallPg(64), 2, 2, 1);
  // 4-CN clusters, some of them with a dead CN: 3 issue slots, so loads
  // are thirds and their sums are not exact in binary.
  const auto fir = ddg::buildFir2Dim();
  machine::PatternGraph degraded;
  for (int i = 0; i < 8; ++i) {
    degraded.addCluster(machine::ResourceTable::computationNode() *
                        (i % 3 == 1 ? 3 : 4));
  }
  degraded.connectClustersCompletely();
  walk(fir.ddg, degraded, 2, 4, 4);
  // A 3/3/3 fabric level: in-neighbor caps of 3 make the wiring slack's
  // squared utilizations ninths.
  machine::PatternGraph threes;
  for (int i = 0; i < 9; ++i) {
    threes.addCluster(machine::ResourceTable::computationNode() * 3);
  }
  threes.connectClustersCompletely();
  walk(idct.ddg, threes, 3, 3, 3);
  EXPECT_GT(laterScanStarts, 0);
  EXPECT_GT(penaltyMerges, 0);
}

// --- beam / filters --------------------------------------------------------------

TEST(FilterTest, WiderBeamExploresMoreWithComparableQuality) {
  const auto kernel = ddg::buildIdctHor();
  const auto pg = smallPg(8);
  auto problem = baseProblem(kernel.ddg, pg);
  problem.inWiresPerCluster = 4;
  problem.outWiresPerCluster = 4;

  SeeOptions narrow;
  narrow.beamWidth = 1;
  narrow.candidateKeep = 1;
  SeeOptions wide;
  wide.beamWidth = 6;
  wide.candidateKeep = 4;

  const auto r1 = SpaceExplorationEngine(narrow).run(problem);
  const auto r2 = SpaceExplorationEngine(wide).run(problem);
  ASSERT_TRUE(r1.legal);
  ASSERT_TRUE(r2.legal);
  // Beam search is not strictly monotone in the beam width, but a wider
  // beam must stay within a whisker of greedy and explore far more states.
  EXPECT_LE(materialize(r2).objective(), materialize(r1).objective() * 1.02);
  EXPECT_GT(r2.stats.candidatesEvaluated, r1.stats.candidatesEvaluated);
}

TEST(FilterTest, StatsTrackPruning) {
  const auto kernel = ddg::buildFir2Dim();
  const auto pg = smallPg(8);
  auto problem = baseProblem(kernel.ddg, pg);
  SeeOptions options;
  options.beamWidth = 2;
  options.candidateKeep = 4;
  const auto result = SpaceExplorationEngine(options).run(problem);
  ASSERT_TRUE(result.legal);
  EXPECT_GT(result.stats.statesPruned, 0);
  EXPECT_GT(result.stats.statesExplored, 0);
}

// --- feasibility oracle -------------------------------------------------------

/// Brute-force direct assignment of a whole group: the loop the oracle's
/// directFeasibleMask summarizes. Probing on a copy leaves `sol` intact.
bool bruteForceDirect(const PreparedProblem& prepared,
                      const PartialSolution& sol, const ItemGroup& group,
                      ClusterId c) {
  PartialSolution probe = sol;
  for (const Item& item : group.members) {
    if (!canAssignT(prepared, probe, item, c)) return false;
    assignT(prepared, probe, item, c);
  }
  return true;
}

/// Soundness property of the oracle's dynamic mask: walking random partial
/// solutions through the priority list, a cluster where the brute-force
/// direct-assignment loop succeeds must never be excluded from the mask.
/// (The converse — the mask excluding every failing cluster — is not
/// required: the oracle is an over-approximation.)
void checkMaskSoundOnRandomWalks(const SeeProblem& problem,
                                 const SeeOptions& options,
                                 std::uint32_t seed) {
  const PreparedProblem prepared(problem, options);
  const FeasibilityOracle& oracle = prepared.oracle();
  std::mt19937 rng(seed);
  for (int walk = 0; walk < 8; ++walk) {
    auto sol = PartialSolution::initial(prepared);
    for (std::size_t gi = 0; gi < prepared.items().size(); ++gi) {
      const ItemGroup& group = prepared.items()[gi];
      const std::uint64_t mask = oracle.directFeasibleMask(sol, gi);
      std::vector<ClusterId> feasible;
      for (const ClusterId c : prepared.clusters()) {
        if (!bruteForceDirect(prepared, sol, group, c)) continue;
        feasible.push_back(c);
        EXPECT_NE(mask & detail::pgBit(c), 0u)
            << "oracle excluded assignable cluster " << c.value()
            << " for group " << gi << " on walk " << walk;
      }
      if (feasible.empty()) break;  // dead end: restart from a fresh walk
      const ClusterId pick =
          feasible[rng() % static_cast<std::uint32_t>(feasible.size())];
      for (const Item& item : group.members) {
        assignT(prepared, sol, item, pick);
      }
    }
  }
}

TEST(OracleTest, MaskNeverExcludesAssignableClusterDiamond) {
  const auto ddg = diamondDdg();
  const auto pg = smallPg(4);
  SeeOptions options;
  options.chainGrouping = false;
  checkMaskSoundOnRandomWalks(baseProblem(ddg, pg), options, 1u);
}

TEST(OracleTest, MaskNeverExcludesAssignableClusterRcp) {
  const auto ddg = diamondDdg();
  std::mt19937 rng(7);
  for (int trial = 0; trial < 6; ++trial) {
    machine::RcpConfig config;
    config.clusters = 4 + static_cast<int>(rng() % 3);
    config.neighborReach = 1 + static_cast<int>(rng() % 2);
    config.inputPorts = 1 + static_cast<int>(rng() % 2);
    config.memClusterStride = 1 + static_cast<int>(rng() % 2);
    const auto pg = machine::rcpPatternGraph(config);
    auto problem = baseProblem(ddg, pg);
    problem.constraints = machine::rcpConstraints(config);
    SeeOptions options;
    options.chainGrouping = false;
    (void)rng();  // the retired op cap's draw keeps the later seeds
    checkMaskSoundOnRandomWalks(problem, options, rng());
  }
}

TEST(OracleTest, MaskNeverExcludesAssignableClusterFir2Dim) {
  const auto kernel = ddg::buildFir2Dim();
  const auto pg = smallPg(6);
  auto problem = baseProblem(kernel.ddg, pg);
  checkMaskSoundOnRandomWalks(problem, SeeOptions{}, 11u);
}

/// findPathT's path, empty when it finds none; with `scratch`, through
/// that caller's buffers, else through fresh ones.
template <typename Sol>
std::vector<ClusterId> routeOf(const PreparedProblem& prepared,
                               const Sol& solution, ClusterId src,
                               ClusterId dst, ValueId value, int maxHops,
                               RouteScratch* scratch = nullptr) {
  RouteScratch local;
  RouteScratch& rs = scratch != nullptr ? *scratch : local;
  if (!findPathT(prepared, solution, src, dst, value, maxHops, rs)) return {};
  return rs.path();
}

TEST(OracleTest, HopDistanceMatchesBfsOnFreshLine) {
  // Directed line 0 -> 1 -> ... -> 5 with generous budgets: the dynamic
  // BFS sees exactly the static graph, so the (lazily built) hop matrix
  // must agree with findPathT in both directions — forward pairs reachable
  // at distance dst-src, backward pairs unreachable.
  DdgBuilder b;
  const auto x = b.load(b.cst(0), 0, "x");
  b.store(b.cst(1), b.neg(x, "y"));
  const auto ddg = b.finish();
  machine::PatternGraph pg;
  for (int i = 0; i < 6; ++i) {
    pg.addCluster(machine::ResourceTable::computationNode());
  }
  for (int i = 0; i < 5; ++i) pg.addArc(ClusterId(i), ClusterId(i + 1));
  const auto problem = baseProblem(ddg, pg);
  const PreparedProblem prepared(problem, SeeOptions{});
  const FeasibilityOracle& oracle = prepared.oracle();
  const auto sol = PartialSolution::initial(prepared);
  ValueId v;
  for (std::int32_t n = 0; n < ddg.numNodes(); ++n) {
    if (ddg.node(DdgNodeId(n)).name == "x") v = ValueId(n);
  }
  ASSERT_TRUE(v.valid());
  for (int s = 0; s < 6; ++s) {
    for (int d = 0; d < 6; ++d) {
      const auto path = routeOf(prepared, sol, ClusterId(s), ClusterId(d),
                                v, /*maxHops=*/10);
      const std::uint8_t hop = oracle.hopDistance(ClusterId(s), ClusterId(d));
      if (d >= s) {
        ASSERT_EQ(path.size(), static_cast<std::size_t>(d - s + 1))
            << s << " -> " << d;
        EXPECT_EQ(static_cast<int>(hop), d - s);
      } else {
        EXPECT_TRUE(path.empty());
        EXPECT_EQ(hop, FeasibilityOracle::kUnreachable);
      }
    }
  }
  // The depth budget applies on top of reachability: 0 -> 4 needs 3
  // relays, so maxHops = 2 must refuse even though hop says reachable.
  EXPECT_TRUE(routeOf(prepared, sol, ClusterId(0), ClusterId(4), v, 2).empty());
  EXPECT_FALSE(
      routeOf(prepared, sol, ClusterId(0), ClusterId(4), v, 3).empty());
}

// --- route BFS against its per-arc reference ----------------------------------

/// The route BFS as a plain per-arc walk: every out-arc of a dequeued node
/// in PatternGraph order, every hop decided by canAddCopyT, no hop matrix.
/// findPathT must return exactly this path (or both nothing) on any state.
template <typename Sol>
std::vector<ClusterId> referenceFindPath(const PreparedProblem& prepared,
                                         const Sol& solution, ClusterId src,
                                         ClusterId dst, ValueId value,
                                         int maxHops) {
  const auto& pg = *prepared.problem().pg;
  const int maxPathNodes = maxHops + 2;
  std::vector<int> depth(static_cast<std::size_t>(pg.numNodes()), -1);
  std::vector<ClusterId> parent(depth.size(), ClusterId::invalid());
  std::vector<ClusterId> queue{src};
  depth[src.index()] = 0;
  for (std::size_t head = 0; head < queue.size(); ++head) {
    const ClusterId u = queue[head];
    if (u == dst) break;
    if (depth[u.index()] + 1 >= maxPathNodes) continue;
    for (const PgArcId a : pg.outArcs(u)) {
      const ClusterId w = pg.arc(a).dst;
      if (depth[w.index()] >= 0) continue;
      if (w != dst && (pg.node(w).kind != machine::PgNodeKind::kCluster ||
                       pg.node(w).dead)) {
        continue;
      }
      if (!canAddCopyT(prepared, solution, u, w, value)) continue;
      depth[w.index()] = depth[u.index()] + 1;
      parent[w.index()] = u;
      queue.push_back(w);
    }
  }
  if (depth[dst.index()] < 0) return {};
  std::vector<ClusterId> path;
  for (ClusterId v = dst; v.valid(); v = parent[v.index()]) path.push_back(v);
  std::reverse(path.begin(), path.end());
  return path;
}

/// Random dead nodes and wire caps on every cluster of `pg`.
void injectRandomNodeFaults(machine::PatternGraph& pg, Rng& rng) {
  for (const ClusterId c : pg.clusterNodes()) {
    if (rng.below(8) == 0) {
      pg.markDead(c);
    } else if (rng.below(3) == 0) {
      pg.setWireCaps(c, static_cast<int>(rng.range(-1, 2)),
                     rng.below(6) == 0 ? 0 : -1);
    }
  }
}

/// Random copy flows over `pg` (values 0..5; 6 and 7 never flow), applied
/// alike to a PartialSolution and a DeltaSolution over the initial
/// snapshot, under random level constraints; then random route queries,
/// each of which must give the reference path on both states; some must
/// find a path and some must not.
void checkRouteBfsOnRandomStates(const machine::PatternGraph& pg,
                                std::uint64_t seed, int trials) {
  const ddg::Ddg empty;
  int found = 0;
  int queries = 0;
  for (int trial = 0; trial < trials; ++trial) {
    Rng rng(seed * 1000 + static_cast<std::uint64_t>(trial));
    SeeProblem problem;
    problem.ddg = &empty;
    problem.pg = &pg;
    problem.constraints.maxInNeighbors = static_cast<int>(rng.range(-1, 3));
    // The draws of the retired out-neighbor cap and fan-in switch keep the
    // rest of each trial's values.
    if (rng.below(4) == 0) (void)rng.range(1, 3);
    (void)rng.below(4);
    const PreparedProblem prepared(problem, SeeOptions{});
    PartialSolution partial = PartialSolution::initial(prepared);
    MonotonicArena arena;
    DeltaSolution delta;
    delta.init(prepared);
    delta.reset(FlatSolution::initial(prepared, arena));
    const auto numCopies = rng.below(static_cast<std::uint64_t>(
        2 * pg.numNodes() + 1));
    for (std::uint64_t i = 0; i < numCopies; ++i) {
      const ClusterId src(static_cast<std::int32_t>(
          rng.below(static_cast<std::uint64_t>(pg.numNodes()))));
      const auto& out = pg.outArcs(src);
      if (out.empty()) continue;
      const PgArcId arc = out[rng.below(out.size())];
      const ValueId v(static_cast<std::int32_t>(rng.below(6)));
      partial.addFlowCopy(arc, src, pg.arc(arc).dst, v);
      delta.addFlowCopy(arc, src, pg.arc(arc).dst, v);
    }
    RouteScratch scratch;
    for (int q = 0; q < 64; ++q) {
      const ClusterId src(static_cast<std::int32_t>(
          rng.below(static_cast<std::uint64_t>(pg.numNodes()))));
      const ClusterId dst(static_cast<std::int32_t>(
          rng.below(static_cast<std::uint64_t>(pg.numNodes()))));
      const ValueId v(static_cast<std::int32_t>(rng.below(8)));
      const int maxHops = static_cast<int>(rng.range(1, 4));
      SCOPED_TRACE(strCat("trial ", trial, " query ", q, ": ", src.value(),
                          " -> ", dst.value(), " value ", v.value(),
                          " hops ", maxHops));
      const auto expected =
          referenceFindPath(prepared, partial, src, dst, v, maxHops);
      ASSERT_EQ(referenceFindPath(prepared, delta, src, dst, v, maxHops),
                expected);
      ASSERT_EQ(routeOf(prepared, partial, src, dst, v, maxHops, &scratch),
                expected);
      ASSERT_EQ(routeOf(prepared, delta, src, dst, v, maxHops), expected);
      ++queries;
      if (!expected.empty() && src != dst) ++found;
    }
  }
  EXPECT_GT(found, 0);
  EXPECT_LT(found, queries);
}

/// The hop matrix as a per-source queue BFS that walks every out-head of
/// each expanded node: distances to every live node, expanding only the
/// source and alive clusters that can send.
std::vector<std::uint8_t> referenceHopMatrix(const PreparedProblem& prep) {
  const auto numPg = static_cast<std::size_t>(prep.numPg());
  std::vector<std::uint8_t> hop(numPg * numPg,
                                FeasibilityOracle::kUnreachable);
  for (std::int32_t s = 0; s < prep.numPg(); ++s) {
    const ClusterId src(s);
    std::uint8_t* dist = &hop[static_cast<std::size_t>(s) * numPg];
    dist[src.index()] = 0;
    if (!prep.canSend(src)) continue;
    std::vector<ClusterId> queue{src};
    for (std::size_t head = 0; head < queue.size(); ++head) {
      const ClusterId u = queue[head];
      for (const ClusterId w : prep.outHeads(u)) {
        if (prep.isDead(w) ||
            dist[w.index()] != FeasibilityOracle::kUnreachable) {
          continue;
        }
        dist[w.index()] = static_cast<std::uint8_t>(dist[u.index()] + 1);
        if (prep.isCluster(w) && prep.canSend(w)) queue.push_back(w);
      }
    }
  }
  return hop;
}

void expectHopMatrixMatchesReference(const machine::PatternGraph& pg) {
  const ddg::Ddg empty;
  SeeProblem problem;
  problem.ddg = &empty;
  problem.pg = &pg;
  const PreparedProblem prepared(problem, SeeOptions{});
  const auto expected = referenceHopMatrix(prepared);
  const auto numPg = static_cast<std::size_t>(pg.numNodes());
  int reachable = 0;
  int unreachable = 0;
  for (std::size_t s = 0; s < numPg; ++s) {
    for (std::size_t d = 0; d < numPg; ++d) {
      const std::uint8_t hop = prepared.oracle().hopDistance(
          ClusterId(static_cast<std::int32_t>(s)),
          ClusterId(static_cast<std::int32_t>(d)));
      ASSERT_EQ(static_cast<int>(hop),
                static_cast<int>(expected[s * numPg + d]))
          << s << " -> " << d;
      ++(hop == FeasibilityOracle::kUnreachable ? unreachable : reachable);
    }
  }
  EXPECT_GT(reachable, 0);
  EXPECT_GT(unreachable, 0);
}

TEST(OracleTest, MaskBuiltHopMatrixMatchesPerSourceBfs) {
  // K64 with dead CNs and clusters whose output wires are all dead: both
  // end a relay chain, and only the live ones can be reached.
  for (std::uint64_t seed = 1; seed <= 4; ++seed) {
    Rng rng(seed);
    machine::PatternGraph pg;
    for (int i = 0; i < 64; ++i) {
      pg.addCluster(machine::ResourceTable::computationNode());
    }
    pg.connectClustersCompletely();
    int dead = 0;
    int mute = 0;
    for (const ClusterId c : pg.clusterNodes()) {
      if (rng.below(6) == 0) {
        pg.markDead(c);
        ++dead;
      } else if (rng.below(5) == 0) {
        pg.setWireCaps(c, -1, 0);
        ++mute;
      }
    }
    ASSERT_GT(dead, 0);
    ASSERT_GT(mute, 0);
    SCOPED_TRACE(strCat("K64 seed ", seed));
    expectHopMatrixMatchesReference(pg);
  }
  // A sparse leaf whose sources include input nodes, which send but never
  // relay, and whose arcs are not in head order: depths above 1 occur.
  for (std::uint64_t seed = 1; seed <= 4; ++seed) {
    Rng rng(seed);
    machine::PatternGraph pg;
    for (int i = 0; i < 8; ++i) {
      pg.addCluster(machine::ResourceTable::computationNode());
    }
    for (int a = 0; a < 8; ++a) {
      for (int b = 0; b < 8; ++b) {
        if (a != b && rng.below(4) == 0) pg.addArc(ClusterId(b), ClusterId(a));
      }
    }
    pg.addInputNode({ValueId(0)}, "in");
    pg.addOutputNode("out");
    pg.connectBoundaryNodes();
    injectRandomNodeFaults(pg, rng);
    SCOPED_TRACE(strCat("leaf seed ", seed));
    expectHopMatrixMatchesReference(pg);
  }
}

TEST(RouteBfsTest, MatchesPerArcReferenceOnCompleteFabrics) {
  for (const int n : {16, 64}) {
    for (std::uint64_t seed = 1; seed <= 3; ++seed) {
      Rng rng(seed + static_cast<std::uint64_t>(n));
      machine::PatternGraph pg;
      for (int i = 0; i < n; ++i) {
        pg.addCluster(machine::ResourceTable::computationNode());
      }
      pg.connectClustersCompletely();
      injectRandomNodeFaults(pg, rng);
      SCOPED_TRACE(strCat("K", n, " seed ", seed));
      checkRouteBfsOnRandomStates(pg, seed, 6);
    }
  }
}

TEST(RouteBfsTest, MatchesPerArcReferenceOnLeafWithBoundaryNodes) {
  // A leaf crossbar: clusters with a sparse arc set inserted in shuffled
  // order (so arc order is not head order), plus input and output wires.
  for (std::uint64_t seed = 1; seed <= 6; ++seed) {
    Rng rng(seed);
    machine::PatternGraph pg;
    const int clusters = static_cast<int>(rng.range(4, 8));
    for (int i = 0; i < clusters; ++i) {
      pg.addCluster(machine::ResourceTable::computationNode());
    }
    std::vector<std::pair<int, int>> arcs;
    for (int a = 0; a < clusters; ++a) {
      for (int b = 0; b < clusters; ++b) {
        if (a != b && rng.below(3) != 0) arcs.emplace_back(a, b);
      }
    }
    for (std::size_t i = arcs.size(); i > 1; --i) {
      std::swap(arcs[i - 1], arcs[rng.below(i)]);
    }
    for (const auto& [a, b] : arcs) pg.addArc(ClusterId(a), ClusterId(b));
    for (int i = 0; i < 2; ++i) {
      pg.addInputNode({ValueId(2 * i), ValueId(2 * i + 7)},
                      strCat("in", i));
    }
    for (int i = 0; i < 2; ++i) pg.addOutputNode(strCat("out", i));
    pg.connectBoundaryNodes();
    injectRandomNodeFaults(pg, rng);
    SCOPED_TRACE(strCat("leaf seed ", seed));
    checkRouteBfsOnRandomStates(pg, seed, 8);
  }
}

TEST(RouteBfsTest, MatchesPerArcReferenceOnRcpRingWithReach2) {
  // Ring reach 2: node i's out-arcs run i+1, i-1, i+2, i-2, so arc order is
  // not head order and the head-rank walk must reorder the open heads.
  for (std::uint64_t seed = 1; seed <= 4; ++seed) {
    machine::RcpConfig config;
    config.clusters = 6 + 2 * static_cast<int>(seed);
    config.neighborReach = 2;
    config.inputPorts = 1 + static_cast<int>(seed % 2);
    auto pg = machine::rcpPatternGraph(config);
    const auto heads = [&pg](ClusterId c) {
      std::vector<std::int32_t> out;
      for (const PgArcId a : pg.outArcs(c)) {
        out.push_back(pg.arc(a).dst.value());
      }
      return out;
    };
    ASSERT_FALSE(std::is_sorted(heads(ClusterId(3)).begin(),
                                heads(ClusterId(3)).end()));
    Rng rng(seed);
    injectRandomNodeFaults(pg, rng);
    SCOPED_TRACE(strCat("ring of ", config.clusters, " seed ", seed));
    checkRouteBfsOnRandomStates(pg, seed, 8);
  }
}

TEST(RouteBfsTest, StopsAtDiscoveryBehindQueuedDepthOneNodes) {
  // K64 with in-neighbor cap 1: cluster 5 is already fed by `feeder`, so
  // from 0 the only way in is through the feeder. BFS from 0 queues every
  // other cluster at depth 1 and discovers 5 at depth 2 while the depth-1
  // nodes after the feeder are still queued.
  machine::PatternGraph pg;
  for (int i = 0; i < 64; ++i) {
    pg.addCluster(machine::ResourceTable::computationNode());
  }
  pg.connectClustersCompletely();
  const ddg::Ddg empty;
  SeeProblem problem;
  problem.ddg = &empty;
  problem.pg = &pg;
  problem.constraints.maxInNeighbors = 1;
  const PreparedProblem prepared(problem, SeeOptions{});
  const ClusterId src(0);
  const ClusterId dst(5);
  for (const int feeder : {1, 40, 63}) {
    SCOPED_TRACE(strCat("feeder ", feeder));
    PartialSolution partial = PartialSolution::initial(prepared);
    MonotonicArena arena;
    DeltaSolution delta;
    delta.init(prepared);
    delta.reset(FlatSolution::initial(prepared, arena));
    const PgArcId arc = *pg.arcBetween(ClusterId(feeder), dst);
    partial.addFlowCopy(arc, ClusterId(feeder), dst, ValueId(0));
    delta.addFlowCopy(arc, ClusterId(feeder), dst, ValueId(0));
    const std::vector<ClusterId> expected = {src, ClusterId(feeder), dst};
    RouteScratch scratch;
    EXPECT_EQ(referenceFindPath(prepared, partial, src, dst, ValueId(1), 1),
              expected);
    EXPECT_EQ(routeOf(prepared, partial, src, dst, ValueId(1), 1, &scratch),
              expected);
    EXPECT_EQ(routeOf(prepared, delta, src, dst, ValueId(1), 1, &scratch),
              expected);
    // No relay allowed: the direct hop is blocked, so nothing is found.
    EXPECT_TRUE(referenceFindPath(prepared, delta, src, dst, ValueId(1), 0)
                    .empty());
    EXPECT_TRUE(routeOf(prepared, delta, src, dst, ValueId(1), 0, &scratch)
                    .empty());
  }
}

// --- copy-on-write delta path -----------------------------------------------

/// The engine and the deep-copy reference search (tests/support) are the
/// same search; results must match field for field (modulo the CoW-only
/// counters), and objectives bit for bit.
void expectSameSearch(const SeeResult& reference, const SeeResult& delta) {
  ASSERT_EQ(reference.legal, delta.legal)
      << reference.failureReason << " vs " << delta.failureReason;
  EXPECT_EQ(reference.failureReason, delta.failureReason);
  EXPECT_EQ(reference.stats.statesExplored, delta.stats.statesExplored);
  EXPECT_EQ(reference.stats.candidatesEvaluated,
            delta.stats.candidatesEvaluated);
  EXPECT_EQ(reference.stats.candidateRejections,
            delta.stats.candidateRejections);
  EXPECT_EQ(reference.stats.statesPruned, delta.stats.statesPruned);
  EXPECT_EQ(reference.stats.routeInvocations, delta.stats.routeInvocations);
  EXPECT_EQ(reference.stats.routeFailures, delta.stats.routeFailures);
  EXPECT_EQ(reference.stats.routedOperands, delta.stats.routedOperands);
  ASSERT_EQ(reference.frontier.size(), delta.frontier.size());
  for (std::size_t i = 0; i < reference.frontier.size(); ++i) {
    const auto& rs = materialize(reference, i);
    const auto& ds = materialize(delta, i);
    EXPECT_EQ(rs.signature(), ds.signature()) << "frontier state " << i;
    EXPECT_EQ(rs.objective(), ds.objective()) << "frontier state " << i;
    EXPECT_EQ(rs.flow().totalCopies(), ds.flow().totalCopies())
        << "frontier state " << i;
  }
  if (reference.legal) {
    EXPECT_EQ(materialize(reference).signature(),
              materialize(delta).signature());
    EXPECT_EQ(materialize(reference).objective(),
              materialize(delta).objective());
  }
}

/// Runs `problem` through the reference and the engine under `options` and
/// checks equality.
void roundTrip(const SeeProblem& problem, const SeeOptions& options) {
  const auto reference = referenceSearch(problem, options);
  const auto delta = SpaceExplorationEngine(options).run(problem);
  expectSameSearch(reference, delta);
  EXPECT_EQ(reference.stats.copiesAvoided, 0);
  if (delta.stats.statesExplored > 0) {
    EXPECT_GT(delta.stats.snapshotsMaterialized, 0);
    EXPECT_GT(delta.stats.arenaBytesPeak, 0);
  }
}

TEST(DeltaSearchTest, MatchesLegacyOnDiamond) {
  const auto ddg = diamondDdg();
  const auto pg = smallPg(2);
  roundTrip(baseProblem(ddg, pg), SeeOptions{});
}

TEST(DeltaSearchTest, MatchesLegacyOnFir2DimAcrossBeamWidths) {
  const auto kernel = ddg::buildFir2Dim();
  const auto pg = smallPg(8);
  const auto problem = baseProblem(kernel.ddg, pg);
  for (const int beam : {1, 2, 6}) {
    SeeOptions options;
    options.beamWidth = beam;
    options.candidateKeep = beam == 1 ? 1 : 4;
    roundTrip(problem, options);
  }
}

TEST(DeltaSearchTest, MatchesLegacyOnInfeasibleProblem) {
  // One 1x1 cluster cannot host fir2dim: both paths must fail identically
  // (same failure reason, same partial stats).
  const auto kernel = ddg::buildFir2Dim();
  machine::PatternGraph pg;
  pg.addCluster(machine::ResourceTable(1, 1));
  auto problem = baseProblem(kernel.ddg, pg);
  roundTrip(problem, SeeOptions{});
}

TEST(DeltaSearchTest, MatchesLegacyWithEagerRouting) {
  const auto kernel = ddg::buildIdctHor();
  const auto pg = smallPg(8);
  auto problem = baseProblem(kernel.ddg, pg);
  problem.inWiresPerCluster = 4;
  problem.outWiresPerCluster = 4;
  for (const bool eager : {false, true}) {
    SeeOptions options;
    options.eagerRouting = eager;
    roundTrip(problem, options);
  }
}

TEST(DeltaSearchTest, MatchesLegacyOnRandomDdgs) {
  // Random loop bodies under random search knobs, so the reference is
  // checked beyond the hand-written kernels. Ring-wired fabrics and tight
  // in-neighbor budgets send some cases through the route allocator; every
  // fourth seed runs without it, which makes some infeasible. The last
  // seeds run on complete fabrics of 16 to 64 clusters, where the route
  // BFS and the per-cluster cost terms see flat-ICA-sized pattern graphs.
  int legal = 0;
  int routed = 0;
  constexpr int kSeeds = 128;
  constexpr int kLargeSeeds = 6;
  for (std::uint64_t seed = 1; seed <= kSeeds + kLargeSeeds; ++seed) {
    const bool large = seed > kSeeds;
    Rng rng(seed);
    ddg::RandomDdgParams params;
    params.numInstructions =
        static_cast<int>(large ? rng.range(8, 20) : rng.range(8, 40));
    const auto ddg = ddg::randomDdg(rng, params);
    const int clusters =
        static_cast<int>(large ? rng.range(16, 64) : rng.range(2, 8));
    machine::PatternGraph pg;
    for (int i = 0; i < clusters; ++i) {
      pg.addCluster(machine::ResourceTable::computationNode());
    }
    const bool ring = !large && rng.below(2) == 1;
    if (ring) {
      for (int i = 0; i < clusters; ++i) {
        const ClusterId a(i);
        const ClusterId b((i + 1) % clusters);
        if (!pg.arcBetween(a, b)) pg.addArc(a, b);
        if (!pg.arcBetween(b, a)) pg.addArc(b, a);
      }
    } else {
      pg.connectClustersCompletely();
    }
    auto problem = baseProblem(ddg, pg);
    problem.constraints.maxInNeighbors =
        rng.below(2) == 1 ? -1 : static_cast<int>(rng.range(1, 2));
    SeeOptions options;
    options.beamWidth = static_cast<int>(rng.range(1, large ? 3 : 6));
    options.candidateKeep = static_cast<int>(rng.range(1, 4));
    options.eagerRouting = rng.below(2) == 1;
    (void)rng.range(0, 2);  // the retired op cap's draw keeps the corpus
    options.enableRouteAllocator = seed % 4 != 0;
    options.chainGrouping = rng.below(2) == 1;
    SCOPED_TRACE(strCat("seed ", seed, ": ", params.numInstructions,
                        " instructions on ", clusters,
                        ring ? " ring" : " complete", " clusters"));
    roundTrip(problem, options);
    const auto result = SpaceExplorationEngine(options).run(problem);
    legal += result.legal ? 1 : 0;
    routed += result.stats.routedOperands > 0 ? 1 : 0;
  }
  // The cases must cover legal and illegal outcomes and routed operands.
  EXPECT_GT(legal, 0);
  EXPECT_LT(legal, kSeeds);
  EXPECT_GT(routed, 0);
}

/// Random dependence chains whose nodes are created interleaved, some steps
/// also reading another chain's tail.
ddg::Ddg interleavedChainsDdg(Rng& rng) {
  DdgBuilder b;
  const auto numChains = static_cast<std::size_t>(rng.range(2, 5));
  std::vector<int> left;
  std::vector<DdgBuilder::Value> tail;
  for (std::size_t c = 0; c < numChains; ++c) {
    left.push_back(static_cast<int>(rng.range(3, 14)));
    tail.push_back(b.load(b.cst(static_cast<std::int64_t>(c)), 0));
  }
  for (std::size_t open = numChains; open > 0;) {
    std::size_t c = rng.below(numChains);
    while (left[c] == 0) c = (c + 1) % numChains;
    const std::size_t other = rng.below(numChains);
    tail[c] = other != c && rng.below(3) == 0 ? b.add(tail[c], tail[other])
                                              : b.mul(tail[c], b.cst(3));
    if (--left[c] == 0) --open;
  }
  for (std::size_t c = 0; c < numChains; ++c) {
    b.store(b.cst(static_cast<std::int64_t>(100 + c)), tail[c]);
  }
  return b.finish();
}

TEST(DeltaSearchTest, MatchesLegacyOnInterleavedChains) {
  // A delta's critical-path score merges its parent's terms with its own
  // in key (working-set) order; summing them in any other order drifts by
  // an ULP. These cases make that drift reach the frontier objectives:
  //  * chains spread over the clusters (a load-balance term, tight
  //    in-neighbor caps), so most steps add cross-cluster terms to a
  //    parent that already has some;
  //  * a shuffled working set, so the search's height order and the key
  //    order disagree and a step's terms fall between its parent's;
  //  * the critical path as the only weighted term besides a small load
  //    balance, so the other terms' larger magnitudes cannot round the
  //    drift away.
  constexpr int kSeeds = 48;
  int legal = 0;
  for (std::uint64_t seed = 1; seed <= kSeeds; ++seed) {
    Rng rng(seed);
    const auto ddg = interleavedChainsDdg(rng);
    const auto pg = smallPg(static_cast<int>(rng.range(4, 8)));
    auto problem = baseProblem(ddg, pg);
    for (std::size_t i = problem.workingSet.size(); i > 1; --i) {
      std::swap(problem.workingSet[i - 1], problem.workingSet[rng.below(i)]);
    }
    problem.constraints.maxInNeighbors = static_cast<int>(rng.range(2, 3));
    SeeOptions options;
    options.beamWidth = static_cast<int>(rng.range(2, 6));
    options.candidateKeep = static_cast<int>(rng.range(2, 4));
    options.chainGrouping = false;
    const auto numClusters = static_cast<std::size_t>(pg.numNodes());
    options.weights = CostWeights{
        .iiEstimate = 0, .copyCount = 0, .loadBalance = 0.5, .wiringSlack = 0};
    SCOPED_TRACE(strCat("seed ", seed, ": ", problem.workingSet.size(),
                        " instructions on ", numClusters, " clusters"));
    roundTrip(problem, options);
    legal += SpaceExplorationEngine(options).run(problem).legal ? 1 : 0;
  }
  // Most cases must map, so whole frontiers of complete solutions are
  // compared.
  EXPECT_GT(legal, kSeeds / 2);
}

/// The whole result — winning solution, frontier alternatives, failure
/// item and reason, every counter — as the reference SEE-result JSON. With
/// `dropCowCounters` the three counters only the delta path keeps
/// (copiesAvoided, snapshotsMaterialized, arenaBytesPeak) are zeroed, so a
/// reference and a delta result compare equal exactly when they are the same
/// search.
std::string resultJson(SeeResult result, bool dropCowCounters) {
  if (dropCowCounters) {
    result.stats.copiesAvoided = 0;
    result.stats.snapshotsMaterialized = 0;
    result.stats.arenaBytesPeak = 0;
  }
  std::ostringstream os;
  JsonWriter json(os);
  writeReferenceSeeResult(json, result);
  return os.str();
}

TEST(DeltaSearchTest, LadderRungKeepsItsOwnRouteHops) {
  // The consumer can only run on cluster 4 (the one ALU); its operand
  // arrives on an input node wired to cluster 0 alone, and the clusters
  // form a line 0 -> 1 -> 2 -> 3 -> 4. Delivering it takes four relays
  // (clusters 0..3). With maxRouteHops = 2 the primary search and the
  // eager-routing rung route at most two; only the `deeper` rung
  // (maxRouteHops + 2 = 4) can route it. The rungs share one prepared
  // problem, so this fails if a rung's hop budget is read from the
  // preparation instead of the rung.
  DdgBuilder b;
  b.store(b.cst(1), b.neg(b.load(b.cst(0), 0, "x"), "y"));
  const auto ddg = b.finish();
  DdgNodeId x, y;
  for (std::int32_t v = 0; v < ddg.numNodes(); ++v) {
    if (ddg.node(DdgNodeId(v)).name == "x") x = DdgNodeId(v);
    if (ddg.node(DdgNodeId(v)).name == "y") y = DdgNodeId(v);
  }
  ASSERT_TRUE(x.valid() && y.valid());

  machine::PatternGraph pg;
  for (int i = 0; i < 4; ++i) pg.addCluster(machine::ResourceTable(0, 1));
  pg.addCluster(machine::ResourceTable(1, 0));
  for (int i = 0; i < 4; ++i) pg.addArc(ClusterId(i), ClusterId(i + 1));
  const ValueId xv(x.value());
  const ClusterId in = pg.addInputNode({xv}, "in");
  pg.addArc(in, ClusterId(0));

  SeeProblem problem;
  problem.ddg = &ddg;
  problem.workingSet = {y};
  problem.pg = &pg;
  problem.constraints.maxInNeighbors = -1;
  problem.valueSources.emplace(xv, in);

  SeeOptions options;
  // One hop fewer and `deeper` gets three: no rung delivers the operand.
  options.maxRouteHops = 1;
  EXPECT_FALSE(SpaceExplorationEngine(options).run(problem).legal);
  options.maxRouteHops = 2;
  const SeeResult reference = referenceSearch(problem, options);
  const SeeResult delta = SpaceExplorationEngine(options).run(problem);
  ASSERT_TRUE(delta.legal) << delta.failureReason;
  EXPECT_EQ(materialize(delta).clusterOf(y), ClusterId(4));
  // The value crosses in -> 0 -> 1 -> 2 -> 3 -> 4.
  EXPECT_EQ(materialize(delta).flow().totalCopies(), 5);
  expectSameSearch(reference, delta);
  EXPECT_EQ(resultJson(reference, true), resultJson(delta, true));
}

TEST(DeltaSearchTest, DeeperRungRescuesOnePortRcpRing) {
  // fir2dim on an 8-cluster RCP ring, reach 1, one input port per cluster
  // and a memory port on every second one: the primary search and the
  // eager-routing rung both fail, and only the `deeper` rung maps it. On
  // one-port rings `deeper` is the only rung that rescues some SEE calls,
  // which is why the ladder keeps it.
  const auto kernel = ddg::buildFir2Dim();
  machine::RcpConfig config;
  config.clusters = 8;
  config.neighborReach = 1;
  config.inputPorts = 1;
  config.memClusterStride = 2;
  const auto pg = machine::rcpPatternGraph(config);
  SeeProblem problem = baseProblem(kernel.ddg, pg);
  problem.constraints = machine::rcpConstraints(config);
  problem.inWiresPerCluster = config.inputPorts;
  problem.outWiresPerCluster = config.inputPorts;
  SeeOptions options;
  options.weights.targetIi = 4;
  const SeeResult result = SpaceExplorationEngine(options).run(problem);
  EXPECT_TRUE(result.legal) << result.failureReason;
}

/// A slice of a Table 1 kernel shaped like an HCA leaf sub-problem: up to
/// 13 instructions (every `stride`-th node) on 8 fully connected clusters,
/// their out-of-slice operands arriving on two input wires and up to three
/// of their values leaving on output wires. On h264deblocking's 225-node
/// DDG with stride 5 it is 13 working-set nodes of a large DDG.
struct KernelSlice {
  ddg::Kernel kernel;
  machine::PatternGraph pg;
  SeeProblem problem;

  KernelSlice(ddg::Kernel k, int stride) : kernel(std::move(k)) {
    const ddg::Ddg& ddg = kernel.ddg;
    pg = smallPg(8);
    problem.ddg = &ddg;
    for (std::int32_t v = 0;
         v < ddg.numNodes() && problem.workingSet.size() < 13; v += stride) {
      if (ddg::isInstruction(ddg.node(DdgNodeId(v)).op)) {
        problem.workingSet.emplace_back(v);
      }
    }
    const auto contains = [](const auto& list, const auto& x) {
      return std::find(list.begin(), list.end(), x) != list.end();
    };
    std::vector<ValueId> external;  // distinct out-of-WS operand values
    std::vector<ValueId> leaving;
    for (const DdgNodeId n : problem.workingSet) {
      for (const auto& operand : ddg.node(n).operands) {
        const ValueId v(operand.src.value());
        if (ddg::isInstruction(ddg.node(operand.src).op) &&
            !contains(problem.workingSet, operand.src) &&
            !contains(external, v)) {
          external.push_back(v);
        }
      }
      if (leaving.size() < 3 && ddg.node(n).op != ddg::Op::kStore) {
        leaving.emplace_back(n.value());
      }
    }
    // Alternate the external values over two input wires.
    std::vector<ValueId> wires[2];
    for (std::size_t i = 0; i < external.size(); ++i) {
      wires[i % 2].push_back(external[i]);
    }
    for (const auto& values : wires) {
      const ClusterId in = pg.addInputNode(values);
      for (const ValueId v : values) problem.valueSources.emplace(v, in);
    }
    for (const ValueId v : leaving) {
      problem.outputRequirements.push_back({pg.addOutputNode({}, {v}), {v}});
    }
    pg.connectBoundaryNodes();
    problem.pg = &pg;
    problem.constraints.maxInNeighbors = 2;
    problem.inWiresPerCluster = 2;
    problem.outWiresPerCluster = 2;
  }
};

TEST(DeltaSearchTest, WorkingSetLocalStateOnLargeDdg) {
  const KernelSlice leaf(ddg::buildH264Deblocking(), 5);
  const ddg::Ddg& ddg = leaf.kernel.ddg;
  ASSERT_EQ(ddg.numNodes(), 225);
  ASSERT_EQ(leaf.problem.workingSet.size(), 13u);

  const SeeResult reference = referenceSearch(leaf.problem);
  const SeeResult delta = SpaceExplorationEngine().run(leaf.problem);
  ASSERT_TRUE(delta.legal) << delta.failureReason;
  expectSameSearch(reference, delta);
  // Same PartialSolution (every alternative, field for field) and the same
  // counters apart from the delta-only ones.
  EXPECT_EQ(resultJson(reference, true), resultJson(delta, true));
  EXPECT_GT(delta.stats.arenaBytesPeak, 0);

  // The working-set-indexed snapshots convert back to DDG-indexed states:
  // every WS node placed, every other DDG node unassigned.
  for (std::size_t i = 0; i < delta.frontier.size(); ++i) {
    const PartialSolution alt = materialize(delta, i);
    for (std::int32_t v = 0; v < ddg.numNodes(); ++v) {
      const DdgNodeId n(v);
      const bool inWs =
          std::find(leaf.problem.workingSet.begin(),
                    leaf.problem.workingSet.end(),
                    n) != leaf.problem.workingSet.end();
      EXPECT_EQ(alt.clusterOf(n).valid(), inWs) << "node " << v;
    }
  }
}

TEST(DeltaSearchTest, SuppliedHeightsMatchComputedHeights) {
  KernelSlice leaf(ddg::buildH264Deblocking(), 5);
  const auto heights = leaf.kernel.ddg.heights(leaf.problem.latency);
  const SpaceExplorationEngine engine;
  const SeeResult computed = engine.run(leaf.problem);
  leaf.problem.heights = &heights;
  const SeeResult supplied = engine.run(leaf.problem);
  EXPECT_EQ(resultJson(computed, false), resultJson(supplied, false));

  const std::vector<std::int64_t> truncated(heights.begin(),
                                            heights.end() - 1);
  leaf.problem.heights = &truncated;
  EXPECT_THROW((void)engine.run(leaf.problem), InvalidArgumentError);
}


// --- frontier snapshots --------------------------------------------------------

/// A result whose frontier is rebuilt from its own materialized states
/// through FlatSolution::fromRows.
SeeResult rebuiltFromPartials(const SeeResult& result) {
  SeeResult copy = result;
  copy.frontier.clear();
  for (std::size_t i = 0; i < result.frontier.size(); ++i) {
    copy.frontier.push_back(materialize(result, i).snapshot(result.workingSet));
  }
  return copy;
}

TEST(FrontierSnapshotTest, MaterializedFrontierMatchesPinnedPartialSolutions) {
  // The digests pin the checkpoint JSON (every frontier state field for
  // field, flow-list order included, plus the counters both searches
  // share) that these searches produced when SeeResult still held
  // PartialSolutions built by the delta search and by the deep-copy search
  // directly. Both the engine and the reference search must still give
  // them; a changed digest means the snapshots no longer carry the same
  // states.
  struct Pin {
    const char* kernel;
    std::uint64_t whole;  ///< all instructions on 8 clusters
    std::uint64_t slice;  ///< KernelSlice
  };
  const Pin pins[] = {
      {"fir2dim", 0xeee3588b07bc6323ULL, 0x78c46930ea1d96a3ULL},
      {"idcthor", 0x419af4afa827cef2ULL, 0x28481705d162bda8ULL},
      {"mpeg2inter", 0xdbf19a8be0136647ULL, 0x6b98bb005ec7f06dULL},
      {"h264deblocking", 0xd36303e164dd8e4aULL, 0xaa8a83f2ec26d605ULL},
  };
  auto kernels = ddg::table1Kernels();
  ASSERT_EQ(kernels.size(), std::size(pins));
  const auto pg = smallPg(8);
  for (std::size_t k = 0; k < kernels.size(); ++k) {
    ASSERT_EQ(kernels[k].name, pins[k].kernel);
    const KernelSlice slice(kernels[k], 3);
    const SeeProblem whole = baseProblem(kernels[k].ddg, pg);
    for (const bool reference : {false, true}) {
      SCOPED_TRACE(std::string(pins[k].kernel) +
                   (reference ? " reference" : " engine"));
      for (const auto& [problem, pin] :
           {std::pair{&whole, pins[k].whole},
            std::pair{&slice.problem, pins[k].slice}}) {
        const SeeResult result = reference
                                     ? referenceSearch(*problem)
                                     : SpaceExplorationEngine().run(*problem);
        ASSERT_EQ(result.workingSet, problem->workingSet);
        ASSERT_EQ(result.frontier.size(), result.legal ? 4u : 1u);
        const std::string json = resultJson(result, true);
        EXPECT_EQ(fnv1a(json), pin);
        // Snapshotting the materialized states again changes nothing.
        EXPECT_EQ(resultJson(rebuiltFromPartials(result), true), json);
      }
    }
  }
}

TEST(FrontierSnapshotTest, ReadsMatchTheMaterializedState) {
  const KernelSlice slice(ddg::buildH264Deblocking(), 3);
  const SeeResult result = SpaceExplorationEngine().run(slice.problem);
  ASSERT_TRUE(result.legal) << result.failureReason;
  const auto& ws = slice.problem.workingSet;
  for (std::size_t i = 0; i < result.frontier.size(); ++i) {
    const FlatSolution& state = result.frontier[i].state();
    const PartialSolution partial = materialize(result, i);
    for (std::size_t pos = 0; pos < ws.size(); ++pos) {
      EXPECT_EQ(state.clusterAt(pos), partial.clusterOf(ws[pos]));
    }
    for (std::int32_t c = 0; c < slice.pg.numNodes(); ++c) {
      const ClusterId id(c);
      EXPECT_EQ(state.usage(id).instructions, partial.usage(id).instructions);
      EXPECT_EQ(state.distinctValuesIn(id), partial.distinctValuesIn(id));
      EXPECT_EQ(state.distinctValuesOut(id), partial.distinctValuesOut(id));
    }
    const machine::CopyFlow flow = state.copyFlow();
    ASSERT_EQ(flow.numArcLists(), partial.flow().numArcLists());
    for (std::int32_t a = 0; a < slice.pg.numArcs(); ++a) {
      EXPECT_EQ(flow.copiesOn(PgArcId(a)), partial.flow().copiesOn(PgArcId(a)));
    }
    // A copy owns its own block of the same size.
    const FrontierSnapshot copy = result.frontier[i];
    EXPECT_EQ(copy.bytes(), result.frontier[i].bytes());
    EXPECT_NE(&copy.state().usage(ClusterId(0)), &state.usage(ClusterId(0)));
    EXPECT_EQ(copy.state().objective(), state.objective());
  }
  std::int64_t bytes = sizeof(SeeResult);
  bytes += static_cast<std::int64_t>(result.workingSet.capacity() *
                                         sizeof(DdgNodeId) +
                                     result.failureReason.size());
  for (const FrontierSnapshot& state : result.frontier) {
    bytes += static_cast<std::int64_t>(state.bytes());
  }
  EXPECT_EQ(result.bytes(), bytes);
}

// --- the reference search, live ----------------------------------------------

/// The differential corpus: every Table 1 kernel, whole (all instructions on
/// 8 clusters) and as a KernelSlice, under the engine's defaults, the
/// driver's defaults (beam 16, keep 10), eager routing and a one-hop route
/// budget; plus two illegal searches — fir2dim on one 1x1 cluster, and
/// fir2dim stopped mid-search by its step budget.
class DifferentialCorpus {
 public:
  struct Case {
    std::string name;
    const SeeProblem* problem;
    SeeOptions options;
  };

  DifferentialCorpus() {
    SeeOptions driverDefaults;
    driverDefaults.beamWidth = 16;
    driverDefaults.candidateKeep = 10;
    SeeOptions eager;
    eager.eagerRouting = true;
    SeeOptions oneHop;
    oneHop.maxRouteHops = 1;
    const std::pair<const char*, SeeOptions> optionSets[] = {
        {"default", SeeOptions{}},
        {"driver-default", driverDefaults},
        {"eager", eager},
        {"hops1", oneHop}};
    for (const ddg::Kernel& kernel : kernels_) {
      wholes_.push_back(baseProblem(kernel.ddg, pg_));
      slices_.push_back(std::make_unique<KernelSlice>(kernel, 3));
    }
    for (std::size_t k = 0; k < kernels_.size(); ++k) {
      for (const auto& [name, options] : optionSets) {
        cases_.push_back({strCat(kernels_[k].name, " whole ", name),
                          &wholes_[k], options});
        cases_.push_back({strCat(kernels_[k].name, " slice ", name),
                          &slices_[k]->problem, options});
      }
    }
    tinyPg_.addCluster(machine::ResourceTable(1, 1));
    infeasible_ = baseProblem(kernels_[0].ddg, tinyPg_);
    cases_.push_back({"fir2dim on one 1x1 cluster", &infeasible_, {}});
    SeeOptions budget;
    budget.maxBeamSteps = 5;
    cases_.push_back({"fir2dim whole, 5 beam steps", &wholes_[0], budget});
  }
  DifferentialCorpus(const DifferentialCorpus&) = delete;
  DifferentialCorpus& operator=(const DifferentialCorpus&) = delete;

  [[nodiscard]] const std::vector<Case>& cases() const { return cases_; }

 private:
  const std::vector<ddg::Kernel> kernels_ = ddg::table1Kernels();
  const machine::PatternGraph pg_ = smallPg(8);
  machine::PatternGraph tinyPg_;
  std::vector<SeeProblem> wholes_;
  std::vector<std::unique_ptr<KernelSlice>> slices_;
  SeeProblem infeasible_;
  std::vector<Case> cases_;
};

TEST(ReferenceSearchTest, EngineMatchesReferenceOnDifferentialCorpus) {
  const DifferentialCorpus corpus;
  int legal = 0;
  int illegal = 0;
  for (const auto& c : corpus.cases()) {
    SCOPED_TRACE(c.name);
    const SeeResult reference = referenceSearch(*c.problem, c.options);
    const SeeResult engine = SpaceExplorationEngine(c.options).run(*c.problem);
    expectSameSearch(reference, engine);
    EXPECT_EQ(resultJson(reference, true), resultJson(engine, true));
    // The copy-on-write counters land on their sides: zero for the
    // reference, live for the engine.
    EXPECT_EQ(reference.stats.copiesAvoided, 0);
    EXPECT_EQ(reference.stats.snapshotsMaterialized, 0);
    EXPECT_EQ(reference.stats.arenaBytesPeak, 0);
    EXPECT_GT(engine.stats.copiesAvoided, 0);
    EXPECT_GT(engine.stats.snapshotsMaterialized, 0);
    EXPECT_GT(engine.stats.arenaBytesPeak, 0);
    ++(engine.legal ? legal : illegal);
  }
  EXPECT_GT(legal, 0);
  EXPECT_GE(illegal, 2);
}

}  // namespace
}  // namespace hca::see
