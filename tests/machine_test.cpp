#include <gtest/gtest.h>

#include <sstream>

#include "machine/dspfabric.hpp"
#include "machine/pattern_graph.hpp"
#include "machine/rcp.hpp"
#include "machine/reconfig.hpp"
#include "machine/resources.hpp"
#include "support/check.hpp"

namespace hca::machine {
namespace {

// --- ResourceTable -----------------------------------------------------------

TEST(ResourceTableTest, ComputationNode) {
  const auto rt = ResourceTable::computationNode();
  EXPECT_EQ(rt.alu(), 1);
  EXPECT_EQ(rt.ag(), 1);
  EXPECT_EQ(rt.issueSlots(), 1);
}

TEST(ResourceTableTest, Arithmetic) {
  const auto rt = ResourceTable(1, 1) * 16;
  EXPECT_EQ(rt.alu(), 16);
  EXPECT_EQ(rt.ag(), 16);
  const auto sum = rt + ResourceTable(2, 0);
  EXPECT_EQ(sum.alu(), 18);
  EXPECT_EQ(sum.ag(), 16);
}

TEST(ResourceTableTest, CountByClass) {
  const ResourceTable rt(3, 2);
  EXPECT_EQ(rt.count(ddg::ResourceClass::kAlu), 3);
  EXPECT_EQ(rt.count(ddg::ResourceClass::kAg), 2);
  EXPECT_EQ(rt.count(ddg::ResourceClass::kNone), 0);
}

TEST(ResourceTableTest, NegativeCountsRejected) {
  EXPECT_THROW(ResourceTable(-1, 0), InvalidArgumentError);
}

TEST(ResourceUsageTest, TracksClasses) {
  ResourceUsage u;
  u.addOp(ddg::Op::kAdd);
  u.addOp(ddg::Op::kLoad);
  u.addOp(ddg::Op::kRecv);
  u.addOp(ddg::Op::kConst);  // not an instruction
  EXPECT_EQ(u.alu, 1);
  EXPECT_EQ(u.ag, 1);
  EXPECT_EQ(u.instructions, 3);
}

// --- PatternGraph ------------------------------------------------------------

TEST(PatternGraphTest, CompleteClusterGraph) {
  PatternGraph pg;
  for (int i = 0; i < 4; ++i) pg.addCluster(ResourceTable(1, 1));
  pg.connectClustersCompletely();
  EXPECT_EQ(pg.numNodes(), 4);
  EXPECT_EQ(pg.numArcs(), 12);  // 4 * 3 directed arcs
  EXPECT_TRUE(pg.arcBetween(ClusterId(0), ClusterId(3)).has_value());
  EXPECT_TRUE(pg.arcBetween(ClusterId(3), ClusterId(0)).has_value());
  EXPECT_FALSE(pg.arcBetween(ClusterId(0), ClusterId(0)).has_value());
}

TEST(PatternGraphTest, DuplicateArcRejected) {
  PatternGraph pg;
  pg.addCluster(ResourceTable(1, 1));
  pg.addCluster(ResourceTable(1, 1));
  pg.addArc(ClusterId(0), ClusterId(1));
  EXPECT_THROW(pg.addArc(ClusterId(0), ClusterId(1)), InvalidArgumentError);
}

TEST(PatternGraphTest, SelfArcRejected) {
  PatternGraph pg;
  pg.addCluster(ResourceTable(1, 1));
  EXPECT_THROW(pg.addArc(ClusterId(0), ClusterId(0)), InvalidArgumentError);
}

TEST(PatternGraphTest, BoundaryNodes) {
  PatternGraph pg;
  pg.addCluster(ResourceTable(1, 1), "c0");
  pg.addCluster(ResourceTable(1, 1), "c1");
  pg.connectClustersCompletely();
  pg.addInputNode({ValueId(5), ValueId(6)}, "in0");
  pg.addOutputNode("out0");
  pg.connectBoundaryNodes();

  EXPECT_EQ(pg.clusterNodes().size(), 2u);
  EXPECT_EQ(pg.inputNodes().size(), 1u);
  EXPECT_EQ(pg.outputNodes().size(), 1u);
  const auto in = pg.inputNodes()[0];
  EXPECT_EQ(pg.node(in).boundaryValues.size(), 2u);
  // Input connects to every cluster; output reachable from every cluster.
  EXPECT_TRUE(pg.arcBetween(in, ClusterId(0)).has_value());
  EXPECT_TRUE(pg.arcBetween(in, ClusterId(1)).has_value());
  const auto out = pg.outputNodes()[0];
  EXPECT_TRUE(pg.arcBetween(ClusterId(0), out).has_value());
  EXPECT_TRUE(pg.arcBetween(ClusterId(1), out).has_value());
  // But not input -> output directly.
  EXPECT_FALSE(pg.arcBetween(in, out).has_value());
}

TEST(PatternGraphTest, DotOutput) {
  PatternGraph pg;
  pg.addCluster(ResourceTable(4, 4), "set0");
  pg.addCluster(ResourceTable(4, 4), "set1");
  pg.connectClustersCompletely();
  std::ostringstream os;
  pg.toDot(os);
  EXPECT_NE(os.str().find("set0"), std::string::npos);
  EXPECT_NE(os.str().find("->"), std::string::npos);
}

// --- CopyFlow ----------------------------------------------------------------

TEST(CopyFlowTest, RealArcsAndNeighbors) {
  PatternGraph pg;
  for (int i = 0; i < 3; ++i) pg.addCluster(ResourceTable(1, 1));
  pg.connectClustersCompletely();
  CopyFlow flow(pg);
  const auto a01 = *pg.arcBetween(ClusterId(0), ClusterId(1));
  const auto a21 = *pg.arcBetween(ClusterId(2), ClusterId(1));
  flow.addCopy(a01, ValueId(7));
  flow.addCopy(a01, ValueId(7));  // idempotent
  flow.addCopy(a01, ValueId(8));
  flow.addCopy(a21, ValueId(9));

  EXPECT_TRUE(flow.isReal(a01));
  EXPECT_FALSE(flow.isReal(*pg.arcBetween(ClusterId(1), ClusterId(0))));
  EXPECT_EQ(flow.copiesOn(a01).size(), 2u);
  EXPECT_EQ(flow.totalCopies(), 3);
  const auto inNbrs = flow.realInNeighbors(pg, ClusterId(1));
  EXPECT_EQ(inNbrs.size(), 2u);
  EXPECT_TRUE(flow.realInNeighbors(pg, ClusterId(0)).empty());
}

// --- DSPFabric ---------------------------------------------------------------

TEST(DspFabricTest, PaperInstanceShape) {
  const DspFabricModel fabric{DspFabricConfig{}};
  EXPECT_EQ(fabric.numLevels(), 3);
  EXPECT_EQ(fabric.totalCns(), 64);
  EXPECT_EQ(fabric.clusterResources(0).alu(), 16);  // a set: 16 ALUs/AGs
  EXPECT_EQ(fabric.clusterResources(1).alu(), 4);
  EXPECT_EQ(fabric.clusterResources(2).alu(), 1);
}

TEST(DspFabricTest, LevelSpecs) {
  DspFabricConfig config;
  config.n = 8;
  config.m = 6;
  config.k = 4;
  const DspFabricModel fabric{config};
  const auto l0 = fabric.levelSpec(0);
  EXPECT_EQ(l0.children, 4);
  EXPECT_EQ(l0.inWires, 8);
  EXPECT_EQ(l0.outWires, 8);
  EXPECT_EQ(l0.maxWiresIntoChild, 8);  // child (a set) accepts N wires
  const auto l1 = fabric.levelSpec(1);
  EXPECT_EQ(l1.inWires, 6);
  EXPECT_EQ(l1.maxWiresIntoChild, 4);  // leaf crossbar takes K wires
  const auto l2 = fabric.levelSpec(2);
  EXPECT_EQ(l2.inWires, 2);   // CN: two incoming wires
  EXPECT_EQ(l2.outWires, 1);  // one outgoing wire
}

TEST(DspFabricTest, ConstraintsFollowMuxCapacity) {
  DspFabricConfig config;
  config.n = 5;
  config.m = 3;
  const DspFabricModel fabric{config};
  EXPECT_EQ(fabric.constraints(0).maxInNeighbors, 5);
  EXPECT_EQ(fabric.constraints(1).maxInNeighbors, 3);
  EXPECT_EQ(fabric.constraints(2).maxInNeighbors, 2);
}

TEST(DspFabricTest, PatternGraphPerLevel) {
  const DspFabricModel fabric{DspFabricConfig{}};
  const auto pg = fabric.patternGraph(0);
  EXPECT_EQ(pg.numNodes(), 4);
  EXPECT_EQ(pg.numArcs(), 12);
  EXPECT_EQ(pg.node(ClusterId(0)).resources.alu(), 16);
  const auto leaf = fabric.patternGraph(2);
  EXPECT_EQ(leaf.node(ClusterId(0)).resources.alu(), 1);
}

TEST(DspFabricTest, CnAddressingRoundTrip) {
  const DspFabricModel fabric{DspFabricConfig{}};
  for (int id = 0; id < 64; ++id) {
    const auto path = fabric.pathOfCn(CnId(id));
    EXPECT_EQ(fabric.cnIdOf(path), CnId(id));
  }
  EXPECT_EQ(fabric.cnIdOf({0, 0, 0}), CnId(0));
  EXPECT_EQ(fabric.cnIdOf({3, 3, 3}), CnId(63));
  EXPECT_EQ(fabric.cnIdOf({1, 2, 3}), CnId(16 + 8 + 3));
}

TEST(DspFabricTest, CommonLevel) {
  const DspFabricModel fabric{DspFabricConfig{}};
  EXPECT_EQ(fabric.commonLevel(CnId(0), CnId(0)), 3);   // same CN
  EXPECT_EQ(fabric.commonLevel(CnId(0), CnId(1)), 2);   // same crossbar
  EXPECT_EQ(fabric.commonLevel(CnId(0), CnId(4)), 1);   // same set
  EXPECT_EQ(fabric.commonLevel(CnId(0), CnId(16)), 0);  // different sets
}

TEST(DspFabricTest, CopyLatencyGrowsWithDistance) {
  const DspFabricModel fabric{DspFabricConfig{}};
  EXPECT_EQ(fabric.copyLatency(CnId(0), CnId(0)), 0);
  const int sameXbar = fabric.copyLatency(CnId(0), CnId(1));
  const int sameSet = fabric.copyLatency(CnId(0), CnId(4));
  const int crossSet = fabric.copyLatency(CnId(0), CnId(16));
  EXPECT_GT(sameXbar, 0);
  EXPECT_GT(sameSet, sameXbar);
  EXPECT_GT(crossSet, sameSet);
}

TEST(DspFabricTest, NonPaperShapes) {
  DspFabricConfig small;
  small.branching = {4, 4};  // 16 CNs, two levels
  const DspFabricModel fabric{small};
  EXPECT_EQ(fabric.totalCns(), 16);
  EXPECT_EQ(fabric.numLevels(), 2);
  EXPECT_EQ(fabric.clusterResources(0).alu(), 4);
  // Level 0's children are leaves: maxWiresIntoChild clamps to K.
  EXPECT_EQ(fabric.levelSpec(0).maxWiresIntoChild,
            std::min(small.n, small.k));
}

TEST(DspFabricTest, InvalidConfigsRejected) {
  DspFabricConfig bad;
  bad.branching = {};
  EXPECT_THROW(DspFabricModel{bad}, InvalidArgumentError);
  bad.branching = {4, 1};
  EXPECT_THROW(DspFabricModel{bad}, InvalidArgumentError);
  bad = DspFabricConfig{};
  bad.n = 0;
  EXPECT_THROW(DspFabricModel{bad}, InvalidArgumentError);
  bad = DspFabricConfig{};
  bad.dmaSlots = 0;
  EXPECT_THROW(DspFabricModel{bad}, InvalidArgumentError);
}

// --- RCP ---------------------------------------------------------------------

TEST(RcpTest, PaperFigure1Shape) {
  // Figure 1(a): 8 clusters, each can receive from 4 neighbors.
  RcpConfig config;
  config.clusters = 8;
  config.neighborReach = 2;
  const auto pg = rcpPatternGraph(config);
  EXPECT_EQ(pg.numNodes(), 8);
  for (int i = 0; i < 8; ++i) {
    EXPECT_EQ(pg.inArcs(ClusterId(i)).size(), 4u) << "cluster " << i;
    EXPECT_EQ(pg.outArcs(ClusterId(i)).size(), 4u) << "cluster " << i;
  }
  // Ring reach: 0 connects to 1,2,6,7 but not 3..5.
  EXPECT_TRUE(pg.arcBetween(ClusterId(0), ClusterId(2)).has_value());
  EXPECT_FALSE(pg.arcBetween(ClusterId(0), ClusterId(3)).has_value());
  EXPECT_TRUE(pg.arcBetween(ClusterId(0), ClusterId(6)).has_value());
}

TEST(RcpTest, Heterogeneity) {
  RcpConfig config;
  config.memClusterStride = 2;
  const auto pg = rcpPatternGraph(config);
  EXPECT_EQ(pg.node(ClusterId(0)).resources.ag(), 1);
  EXPECT_EQ(pg.node(ClusterId(1)).resources.ag(), 0);
  EXPECT_EQ(pg.node(ClusterId(2)).resources.ag(), 1);
}

TEST(RcpTest, ConstraintsUseInputPorts) {
  RcpConfig config;
  config.inputPorts = 2;
  EXPECT_EQ(rcpConstraints(config).maxInNeighbors, 2);
}

TEST(RcpTest, InvalidConfigRejected) {
  RcpConfig bad;
  bad.clusters = 2;
  EXPECT_THROW(rcpPatternGraph(bad), InvalidArgumentError);
  bad = RcpConfig{};
  bad.neighborReach = 4;  // wraps past an 8-ring
  EXPECT_THROW(rcpPatternGraph(bad), InvalidArgumentError);
}

// --- reconfiguration ----------------------------------------------------------

TEST(ReconfigTest, EncodeDecodeRoundTrip) {
  MuxSetting s;
  s.problemPath = {0, 2};
  s.dstChild = 3;
  s.dstWire = 1;
  s.srcIsBoundary = false;
  s.srcChild = 2;
  s.srcWire = 5;
  EXPECT_EQ(decodeMuxSetting(encodeMuxSetting(s)), s);

  s.srcIsBoundary = true;
  s.srcWire = 7;
  s.problemPath = {};
  EXPECT_EQ(decodeMuxSetting(encodeMuxSetting(s)), s);
}

TEST(ReconfigTest, ProgramRoundTrip) {
  ReconfigurationProgram program;
  for (int i = 0; i < 5; ++i) {
    MuxSetting s;
    s.problemPath = {i % 4};
    s.dstChild = i % 4;
    s.dstWire = i % 2;
    s.srcChild = (i + 1) % 4;
    s.srcWire = i;
    program.settings.push_back(s);
  }
  const auto words = program.encode();
  const auto decoded = ReconfigurationProgram::decode(words);
  EXPECT_EQ(decoded.settings.size(), program.settings.size());
  for (std::size_t i = 0; i < words.size(); ++i) {
    EXPECT_EQ(decoded.settings[i], program.settings[i]);
  }
}

TEST(ReconfigTest, ValidateRejectsDoubleProgramming) {
  ReconfigurationProgram program;
  MuxSetting a;
  a.problemPath = {1};
  a.dstChild = 0;
  a.dstWire = 0;
  a.srcChild = 1;
  a.srcWire = 0;
  MuxSetting b = a;
  b.srcChild = 2;  // same input wire, different source
  program.settings = {a, b};
  EXPECT_THROW(program.validate(), InvalidArgumentError);
  program.settings = {a, a};  // identical duplicates are tolerated
  EXPECT_NO_THROW(program.validate());
}

TEST(ReconfigTest, FieldOverflowRejected) {
  MuxSetting s;
  s.dstChild = 64;  // does not fit a 6-bit lane
  EXPECT_THROW(encodeMuxSetting(s), InvalidArgumentError);
}

TEST(ReconfigTest, ToStringListsSettings) {
  ReconfigurationProgram program;
  MuxSetting s;
  s.problemPath = {0, 1};
  s.dstChild = 2;
  s.dstWire = 1;
  s.srcIsBoundary = true;
  s.srcWire = 3;
  program.settings.push_back(s);
  const auto text = program.toString();
  EXPECT_NE(text.find("mux[0.1]"), std::string::npos);
  EXPECT_NE(text.find("boundary wire 3"), std::string::npos);
}

}  // namespace
}  // namespace hca::machine
