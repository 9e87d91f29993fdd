// Failure-injection and edge-case tests across module boundaries: wrong
// inputs must fail loudly with typed errors, and degenerate-but-valid
// inputs must work.

#include <gtest/gtest.h>

#include "ddg/builder.hpp"
#include "ddg/kernels.hpp"
#include "ddg/serialize.hpp"
#include "hca/driver.hpp"
#include "hca/mii.hpp"
#include "hca/postprocess.hpp"
#include "hca/visualize.hpp"
#include "machine/reconfig.hpp"
#include "mapper/mapper.hpp"
#include "sched/modulo.hpp"
#include "see/engine.hpp"
#include "support/check.hpp"

#include <algorithm>
#include <sstream>

namespace hca {
namespace {

machine::DspFabricModel paperFabric() {
  machine::DspFabricConfig config;
  config.n = config.m = config.k = 8;
  return machine::DspFabricModel(config);
}

// --- malformed inputs fail with typed errors -----------------------------------

TEST(FailureInjectionTest, SeeRejectsNullInputs) {
  see::SeeProblem problem;  // ddg and pg are null
  const see::SpaceExplorationEngine engine;
  EXPECT_THROW(engine.run(problem), InvalidArgumentError);
}

TEST(FailureInjectionTest, SeeRejectsOversizedPatternGraph) {
  machine::PatternGraph pg;
  for (int i = 0; i < 65; ++i) {
    pg.addCluster(machine::ResourceTable(1, 1));
  }
  ddg::Ddg empty;
  see::SeeProblem problem;
  problem.ddg = &empty;
  problem.pg = &pg;
  const see::SpaceExplorationEngine engine;
  EXPECT_THROW(engine.run(problem), InvalidArgumentError);
}

TEST(FailureInjectionTest, SeeRejectsBadOptions) {
  see::SeeOptions bad;
  bad.beamWidth = 0;
  EXPECT_THROW(see::SpaceExplorationEngine{bad}, InvalidArgumentError);
  bad = see::SeeOptions{};
  bad.candidateKeep = -1;
  EXPECT_THROW(see::SpaceExplorationEngine{bad}, InvalidArgumentError);
}

TEST(FailureInjectionTest, MapperRejectsNullAndBadWireCounts) {
  const mapper::Mapper mapperPass;
  mapper::MapperInput input;  // null pg/flow
  EXPECT_THROW(mapperPass.map(input), InvalidArgumentError);

  machine::PatternGraph pg;
  pg.addCluster(machine::ResourceTable(1, 1));
  machine::CopyFlow flow(pg);
  input.pg = &pg;
  input.flow = &flow;
  input.inWiresPerChild = 0;
  EXPECT_THROW(mapperPass.map(input), InvalidArgumentError);
}

TEST(FailureInjectionTest, DriverRejectsCyclicDdg) {
  // Intra-iteration cycle: validate() must refuse before any search runs.
  ddg::Ddg ddg;
  ddg::DdgNode a;
  a.op = ddg::Op::kNeg;
  a.operands.push_back(ddg::Operand{DdgNodeId(1), 0, 0});
  ddg.addNode(a);
  ddg::DdgNode b;
  b.op = ddg::Op::kNeg;
  b.operands.push_back(ddg::Operand{DdgNodeId(0), 0, 0});
  ddg.addNode(b);
  const core::HcaDriver driver(paperFabric());
  EXPECT_THROW(driver.run(ddg), InvalidArgumentError);
}

TEST(FailureInjectionTest, PostprocessRejectsIllegalResult) {
  const auto model = paperFabric();
  core::HcaResult bogus;  // legal = false
  ddg::DdgBuilder b;
  b.store(b.cst(0), b.cst(1));
  const auto ddg = b.finish();
  EXPECT_THROW(core::buildFinalMapping(ddg, model, bogus),
               InvalidArgumentError);
}

TEST(FailureInjectionTest, SchedulerReportsExhaustedIi) {
  // maxIi = 0 can never schedule anything.
  ddg::DdgBuilder b;
  b.store(b.cst(0), b.cst(1));
  const auto ddg = b.finish();
  const auto model = paperFabric();
  const core::HcaDriver driver(model);
  const auto hca = driver.run(ddg);
  ASSERT_TRUE(hca.legal);
  const auto mapping = core::buildFinalMapping(ddg, model, hca);
  sched::ModuloOptions options;
  options.maxIi = 0;
  const auto result = sched::moduloSchedule(mapping, model, 1, options);
  EXPECT_FALSE(result.ok);
  EXPECT_FALSE(result.failureReason.empty());
}

TEST(FailureInjectionTest, ReconfigDecodeRejectsCorruptDepth) {
  // Depth lane beyond kMaxPathDepth.
  const std::uint64_t corrupt = 63ULL << (5 * 6);
  EXPECT_THROW(machine::decodeMuxSetting(corrupt), InvalidArgumentError);
}

TEST(FailureInjectionTest, CopyFlowBoundsChecked) {
  machine::PatternGraph pg;
  pg.addCluster(machine::ResourceTable(1, 1));
  pg.addCluster(machine::ResourceTable(1, 1));
  pg.addArc(ClusterId(0), ClusterId(1));
  machine::CopyFlow flow(pg);
  EXPECT_THROW(flow.addCopy(PgArcId(5), ValueId(0)), InvalidArgumentError);
  EXPECT_THROW((void)flow.copiesOn(PgArcId::invalid()), InvalidArgumentError);
}

// --- degenerate but valid inputs ------------------------------------------------

TEST(EdgeCaseTest, SingleInstructionLoop) {
  ddg::DdgBuilder b;
  auto iv = b.carry(0);
  b.close(iv, b.add(iv, b.cst(1)), 1);
  const auto ddg = b.finish();
  const auto model = paperFabric();
  const core::HcaDriver driver(model);
  const auto result = driver.run(ddg);
  ASSERT_TRUE(result.legal);
  const auto mii = core::computeMii(ddg, model, result);
  EXPECT_EQ(mii.finalMii, 1);
}

TEST(EdgeCaseTest, DeepCarriedDistance) {
  // Distance 7 through the whole pipeline.
  ddg::DdgBuilder b;
  auto iv = b.carry(0);
  const auto next = b.add(iv, b.cst(1));
  b.close(iv, next, 1);
  const auto old = b.at(next, 7, -1);
  b.store(b.and_(next, b.cst(31)), old, 64);
  const auto ddg = b.finish();
  const auto model = paperFabric();
  const core::HcaDriver driver(model);
  const auto result = driver.run(ddg);
  ASSERT_TRUE(result.legal);
  ddg::InterpConfig config;
  config.iterations = 10;
  config.memory.assign(128, 0);
  const auto out = ddg::interpret(ddg, config);
  // Iterations 0..6 store the init (-1), 7.. store iv from 7 back.
  EXPECT_EQ(out.storeTrace[0].value, -1);
  EXPECT_EQ(out.storeTrace[9].value, 3);
}

TEST(EdgeCaseTest, WideIndependentLoop) {
  // 48 completely independent store chains: stresses balance, no copies
  // needed anywhere.
  ddg::DdgBuilder b;
  for (int i = 0; i < 48; ++i) {
    b.store(b.cst(i), b.cst(i * 3));
  }
  const auto ddg = b.finish();
  const auto model = paperFabric();
  const core::HcaDriver driver(model);
  const auto result = driver.run(ddg);
  ASSERT_TRUE(result.legal) << result.failureReason;
  const auto mii = core::computeMii(ddg, model, result);
  // 48 stores / 8 DMA slots bounds the II.
  EXPECT_GE(mii.finalMii, 6);
}

TEST(EdgeCaseTest, VisualizationOutputsWellFormedDot) {
  const auto kernel = ddg::buildFir2Dim();
  const auto model = paperFabric();
  const core::HcaDriver driver(model);
  const auto result = driver.run(kernel.ddg);
  ASSERT_TRUE(result.legal);

  std::ostringstream tree;
  core::problemTreeToDot(result, tree);
  const std::string treeText = tree.str();
  EXPECT_NE(treeText.find("digraph"), std::string::npos);
  EXPECT_NE(treeText.find("leaf"), std::string::npos);
  EXPECT_EQ(std::count(treeText.begin(), treeText.end(), '{'), 1);

  std::ostringstream assignment;
  core::assignmentToDot(kernel.ddg, model, result, assignment);
  const auto text = assignment.str();
  EXPECT_NE(text.find("cluster_set"), std::string::npos);
  EXPECT_NE(text.find("cluster_cn"), std::string::npos);
  // Balanced braces.
  EXPECT_EQ(std::count(text.begin(), text.end(), '{'),
            std::count(text.begin(), text.end(), '}'));
}

TEST(EdgeCaseTest, SerializedKernelSurvivesFullPipeline) {
  // Round-trip through text, then clusterize the parsed DDG.
  const auto kernel = ddg::buildIdctHor();
  const auto parsed = ddg::fromText(ddg::toText(kernel.ddg));
  const auto model = paperFabric();
  const core::HcaDriver driver(model);
  const auto result = driver.run(parsed);
  EXPECT_TRUE(result.legal) << result.failureReason;
}

TEST(EdgeCaseTest, MiiReportOnEmptyLoop) {
  ddg::Ddg empty;
  const auto model = paperFabric();
  const core::HcaDriver driver(model);
  const auto result = driver.run(empty);
  ASSERT_TRUE(result.legal);
  const auto mii = core::computeMii(empty, model, result);
  EXPECT_EQ(mii.finalMii, 1);
  EXPECT_FALSE(mii.toString().empty());
}

}  // namespace
}  // namespace hca
