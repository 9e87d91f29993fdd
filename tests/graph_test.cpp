#include <gtest/gtest.h>

#include <algorithm>

#include "graph/algorithms.hpp"
#include "graph/digraph.hpp"
#include "support/check.hpp"

namespace hca::graph {
namespace {

Digraph chain(int n) {
  Digraph g(n);
  for (int i = 0; i + 1 < n; ++i) g.addEdge(i, i + 1);
  return g;
}

// --- Digraph ---------------------------------------------------------------

TEST(DigraphTest, AddNodesAndEdges) {
  Digraph g;
  EXPECT_EQ(g.numNodes(), 0);
  const auto a = g.addNode();
  const auto b = g.addNode();
  const auto e = g.addEdge(a, b);
  EXPECT_EQ(g.numNodes(), 2);
  EXPECT_EQ(g.numEdges(), 1);
  EXPECT_EQ(g.edge(e).src, a);
  EXPECT_EQ(g.edge(e).dst, b);
  EXPECT_EQ(g.outDegree(a), 1);
  EXPECT_EQ(g.inDegree(b), 1);
  EXPECT_EQ(g.inDegree(a), 0);
}

TEST(DigraphTest, ParallelEdgesAllowed) {
  Digraph g(2);
  g.addEdge(0, 1);
  g.addEdge(0, 1);
  EXPECT_EQ(g.numEdges(), 2);
  EXPECT_EQ(g.outDegree(0), 2);
}

TEST(DigraphTest, SelfLoopAllowed) {
  Digraph g(1);
  g.addEdge(0, 0);
  EXPECT_EQ(g.inDegree(0), 1);
  EXPECT_EQ(g.outDegree(0), 1);
}

TEST(DigraphTest, OutOfRangeEdgeThrows) {
  Digraph g(1);
  EXPECT_THROW(g.addEdge(0, 1), InvalidArgumentError);
  EXPECT_THROW(g.addEdge(-1, 0), InvalidArgumentError);
}

TEST(DigraphTest, ResizeCannotShrink) {
  Digraph g(4);
  EXPECT_THROW(g.resize(2), InvalidArgumentError);
  g.resize(6);
  EXPECT_EQ(g.numNodes(), 6);
}

// --- topological order -----------------------------------------------------

TEST(TopoTest, ChainOrder) {
  const auto g = chain(5);
  const auto order = topologicalOrder(g);
  ASSERT_TRUE(order.has_value());
  EXPECT_EQ(*order, (std::vector<std::int32_t>{0, 1, 2, 3, 4}));
}

TEST(TopoTest, DetectsCycle) {
  Digraph g(3);
  g.addEdge(0, 1);
  g.addEdge(1, 2);
  g.addEdge(2, 0);
  EXPECT_FALSE(topologicalOrder(g).has_value());
  EXPECT_TRUE(hasCycle(g, [](std::int32_t) { return true; }));
}

TEST(TopoTest, FilteredEdgesBreakCycle) {
  Digraph g(3);
  g.addEdge(0, 1);
  g.addEdge(1, 2);
  const auto back = g.addEdge(2, 0);
  const auto order =
      topologicalOrder(g, [&](std::int32_t e) { return e != back; });
  ASSERT_TRUE(order.has_value());
  EXPECT_FALSE(hasCycle(g, [&](std::int32_t e) { return e != back; }));
}

TEST(TopoTest, RespectsAllEdges) {
  Digraph g(4);
  g.addEdge(2, 0);
  g.addEdge(0, 1);
  g.addEdge(3, 1);
  const auto order = topologicalOrder(g);
  ASSERT_TRUE(order.has_value());
  std::vector<int> pos(4);
  for (int i = 0; i < 4; ++i) pos[static_cast<std::size_t>((*order)[static_cast<std::size_t>(i)])] = i;
  EXPECT_LT(pos[2], pos[0]);
  EXPECT_LT(pos[0], pos[1]);
  EXPECT_LT(pos[3], pos[1]);
}

// --- longest paths ---------------------------------------------------------

TEST(LongestPathTest, ToSinks) {
  Digraph g(3);
  g.addEdge(0, 1);
  g.addEdge(1, 2);
  const auto keep = [](std::int32_t) { return true; };
  const auto w = [](std::int32_t) -> std::int64_t { return 3; };
  const auto h = longestPathToSinks(g, keep, w);
  EXPECT_EQ(h[0], 6);
  EXPECT_EQ(h[1], 3);
  EXPECT_EQ(h[2], 0);
}

TEST(LongestPathTest, ThrowsOnCycle) {
  Digraph g(2);
  g.addEdge(0, 1);
  g.addEdge(1, 0);
  const auto keep = [](std::int32_t) { return true; };
  const auto w = [](std::int32_t) -> std::int64_t { return 1; };
  EXPECT_THROW(longestPathToSinks(g, keep, w), InvalidArgumentError);
}

// --- positive cycle / MII --------------------------------------------------

TEST(PositiveCycleTest, DetectsPositive) {
  Digraph g(2);
  g.addEdge(0, 1);
  g.addEdge(1, 0);
  EXPECT_TRUE(hasPositiveCycle(g, [](std::int32_t) { return 1; }));
  EXPECT_FALSE(hasPositiveCycle(g, [](std::int32_t) { return 0; }));
  EXPECT_FALSE(hasPositiveCycle(g, [](std::int32_t) { return -1; }));
}

TEST(PositiveCycleTest, AcyclicNeverPositive) {
  const auto g = chain(6);
  EXPECT_FALSE(hasPositiveCycle(g, [](std::int32_t) { return 100; }));
}

TEST(MiiTest, SimpleRecurrence) {
  // Self-recurrence: latency 3, distance 1 -> MII 3.
  Digraph g(1);
  g.addEdge(0, 0);
  const auto mii = minFeasibleInitiationInterval(
      g, [](std::int32_t) { return 3; }, [](std::int32_t) { return 1; });
  EXPECT_EQ(mii, 3);
}

TEST(MiiTest, DistanceTwoHalvesRatio) {
  // Cycle latency 5, total distance 2 -> ceil(5/2) = 3.
  Digraph g(2);
  const auto e0 = g.addEdge(0, 1);
  g.addEdge(1, 0);
  const auto lat = [&](std::int32_t e) -> std::int64_t {
    return e == e0 ? 2 : 3;
  };
  const auto dist = [&](std::int32_t e) -> std::int64_t {
    return e == e0 ? 0 : 2;
  };
  EXPECT_EQ(minFeasibleInitiationInterval(g, lat, dist), 3);
}

TEST(MiiTest, MaxOverCycles) {
  // Two disjoint cycles, ratios 2 and 4 -> MII 4.
  Digraph g(4);
  g.addEdge(0, 1);
  g.addEdge(1, 0);
  g.addEdge(2, 3);
  g.addEdge(3, 2);
  // Cycle {0,1}: latency 1+1 = 2, distance 1 -> ratio 2.
  // Cycle {2,3}: latency 2+2 = 4, distance 1 -> ratio 4.
  const auto lat = [&](std::int32_t e) -> std::int64_t {
    return e < 2 ? 1 : 2;
  };
  const auto dist = [&](std::int32_t e) -> std::int64_t {
    return (e == 1 || e == 3) ? 1 : 0;
  };
  EXPECT_EQ(minFeasibleInitiationInterval(g, lat, dist), 4);
}

TEST(MiiTest, AcyclicIsOne) {
  const auto g = chain(5);
  EXPECT_EQ(minFeasibleInitiationInterval(
                g, [](std::int32_t) { return 9; },
                [](std::int32_t) { return 0; }),
            1);
}

TEST(MiiTest, ZeroDistanceCycleThrows) {
  Digraph g(2);
  g.addEdge(0, 1);
  g.addEdge(1, 0);
  EXPECT_THROW(minFeasibleInitiationInterval(
                   g, [](std::int32_t) { return 1; },
                   [](std::int32_t) { return 0; }),
               InvalidArgumentError);
}

// Parameterized sweep: self-loop of latency L, distance D -> ceil(L/D).
class MiiRatioTest
    : public ::testing::TestWithParam<std::tuple<int, int>> {};

TEST_P(MiiRatioTest, MatchesCeilRatio) {
  const auto [lat, dist] = GetParam();
  Digraph g(1);
  g.addEdge(0, 0);
  const auto mii = minFeasibleInitiationInterval(
      g, [&](std::int32_t) { return lat; },
      [&](std::int32_t) { return dist; });
  const std::int64_t expected = std::max<std::int64_t>(1, (lat + dist - 1) / dist);
  EXPECT_EQ(mii, expected) << "lat=" << lat << " dist=" << dist;
}

INSTANTIATE_TEST_SUITE_P(
    Sweep, MiiRatioTest,
    ::testing::Combine(::testing::Values(1, 2, 3, 5, 8, 13, 30),
                       ::testing::Values(1, 2, 3, 4)));

}  // namespace
}  // namespace hca::graph
