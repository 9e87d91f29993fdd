#include <gtest/gtest.h>

#include <sstream>

#include "baseline/flat_ica.hpp"
#include "baseline/hierarchy_check.hpp"
#include "baseline/multilevel.hpp"
#include "ddg/builder.hpp"
#include "ddg/kernels.hpp"
#include "hca/driver.hpp"
#include "support/str.hpp"

namespace hca::baseline {
namespace {

machine::DspFabricModel paperFabric(int n = 8, int m = 8, int k = 8) {
  machine::DspFabricConfig config;
  config.n = n;
  config.m = m;
  config.k = k;
  return machine::DspFabricModel(config);
}

// --- hierarchy check ----------------------------------------------------------

TEST(HierarchyCheckTest, AcceptsDirectlyWirableHcaAssignment) {
  // The checker only derives *direct* producer->consumer flows (baseline
  // assignments have no relays), so it accepts an HCA result whenever that
  // result needed no relay routing — e.g. this small loop.
  ddg::DdgBuilder b;
  auto iv = b.carry(0);
  const auto next = b.add(iv, b.cst(1));
  b.close(iv, next, 1);
  const auto x = b.load(next, 0);
  const auto y = b.mul(x, b.cst(3));
  b.store(next, y, 64);
  const auto ddg = b.finish();
  const auto model = paperFabric();
  const core::HcaDriver driver(model);
  const auto hca = driver.run(ddg);
  ASSERT_TRUE(hca.legal) << hca.failureReason;
  const auto check = checkHierarchyFeasibility(ddg, model, hca.assignment);
  EXPECT_TRUE(check.legal) << check.failureReason;
  EXPECT_EQ(check.problemsChecked, 21);
}

TEST(HierarchyCheckTest, StricterThanRelayAwareLegality) {
  // On the Table 1 kernels the HCA result may rely on relay routing,
  // which the direct-wiring derivation cannot represent: the checker is
  // allowed to reject those, but must always produce a verdict with a
  // reason, and its pressure stats must be populated on success.
  const auto model = paperFabric();
  auto kernels = ddg::table1Kernels();
  for (std::size_t i = 0; i < 3; ++i) {
    const core::HcaDriver driver(model);
    const auto hca = driver.run(kernels[i].ddg);
    ASSERT_TRUE(hca.legal) << kernels[i].name;
    const auto check =
        checkHierarchyFeasibility(kernels[i].ddg, model, hca.assignment);
    if (check.legal) {
      EXPECT_EQ(check.problemsChecked, 21);
      EXPECT_GT(check.totalCopies, 0);
    } else {
      EXPECT_FALSE(check.failureReason.empty()) << kernels[i].name;
    }
  }
}

TEST(HierarchyCheckTest, SingleCnIsTrivial) {
  ddg::DdgBuilder b;
  const auto x = b.load(b.cst(0), 0);
  b.store(b.cst(1), b.add(x, b.cst(1)));
  const auto ddg = b.finish();
  const auto model = paperFabric();
  std::vector<CnId> assignment(static_cast<std::size_t>(ddg.numNodes()),
                               CnId::invalid());
  for (std::int32_t v = 0; v < ddg.numNodes(); ++v) {
    if (ddg::isInstruction(ddg.node(DdgNodeId(v)).op)) {
      assignment[static_cast<std::size_t>(v)] = CnId(0);
    }
  }
  const auto check = checkHierarchyFeasibility(ddg, model, assignment);
  EXPECT_TRUE(check.legal) << check.failureReason;
  EXPECT_EQ(check.totalCopies, 0);
}

TEST(HierarchyCheckTest, DetectsOverloadedCnWiring) {
  // A consumer CN fed by three different CNs in three different sets needs
  // three input selects — more than the two a CN owns.
  ddg::DdgBuilder b;
  const auto x = b.load(b.cst(0), 0);
  const auto y = b.load(b.cst(1), 0);
  const auto z = b.load(b.cst(2), 0);
  const auto s = b.add(b.add(x, y), z);
  b.store(b.cst(3), s);
  const auto ddg = b.finish();
  const auto model = paperFabric();
  std::vector<CnId> assignment(static_cast<std::size_t>(ddg.numNodes()),
                               CnId::invalid());
  // Loads on CNs 0, 16, 32 (different sets); both adds + store on CN 48.
  int memCn = 0;
  for (std::int32_t v = 0; v < ddg.numNodes(); ++v) {
    const auto op = ddg.node(DdgNodeId(v)).op;
    if (!ddg::isInstruction(op)) continue;
    if (op == ddg::Op::kLoad) {
      assignment[static_cast<std::size_t>(v)] = CnId(memCn);
      memCn += 16;
    } else {
      assignment[static_cast<std::size_t>(v)] = CnId(48);
    }
  }
  const auto check = checkHierarchyFeasibility(ddg, model, assignment);
  EXPECT_FALSE(check.legal);
  EXPECT_NE(check.failureReason.find("input wires"), std::string::npos);
}

TEST(HierarchyCheckTest, DetectsUnaryFanInViolation) {
  // Two producers on different CNs, both consumed outside their set on the
  // same... rather: directly craft a same-set case where two subclusters
  // feed the set's single used output wire. Simplest: two producers in
  // different subclusters of set 0, one consumer CN in set 1 for each, and
  // verify the checker at least accounts the traffic legally (mapper gives
  // each producer its own wire). This is the *legal* dual of the unary
  // fan-in rule; the illegal case cannot be expressed by an assignment
  // alone (wires are chosen by the mapper), so we assert legality here.
  ddg::DdgBuilder b;
  const auto x = b.load(b.cst(0), 0);
  const auto y = b.load(b.cst(1), 0);
  b.store(b.cst(2), x);
  b.store(b.cst(3), y);
  const auto ddg = b.finish();
  const auto model = paperFabric();
  std::vector<CnId> assignment(static_cast<std::size_t>(ddg.numNodes()),
                               CnId::invalid());
  int next = 0;
  const CnId spots[] = {CnId(0), CnId(4), CnId(16), CnId(20)};
  for (std::int32_t v = 0; v < ddg.numNodes(); ++v) {
    if (ddg::isInstruction(ddg.node(DdgNodeId(v)).op)) {
      assignment[static_cast<std::size_t>(v)] = spots[next++];
    }
  }
  const auto check = checkHierarchyFeasibility(ddg, model, assignment);
  EXPECT_TRUE(check.legal) << check.failureReason;
  EXPECT_GT(check.totalCopies, 0);
}

// --- flat ICA -------------------------------------------------------------------

TEST(FlatIcaTest, SmallDdgAssignsAndRealizes) {
  ddg::DdgBuilder b;
  auto iv = b.carry(0);
  const auto next = b.add(iv, b.cst(1));
  b.close(iv, next, 1);
  const auto x = b.load(next, 0);
  b.store(next, b.mul(x, b.cst(3)), 64);
  const auto ddg = b.finish();
  const auto model = paperFabric();
  const auto result = runFlatIca(ddg, model);
  EXPECT_TRUE(result.assignmentLegal) << result.failureReason;
  EXPECT_TRUE(result.hierarchyLegal) << result.failureReason;
}

TEST(FlatIcaTest, ReportsSearchEffort) {
  const auto kernel = ddg::buildFir2Dim();
  const auto model = paperFabric();
  const auto result = runFlatIca(kernel.ddg, model);
  // 64 clusters: the flat engine evaluates many more candidates per item
  // than any hierarchical sub-problem (4 clusters each).
  EXPECT_GT(result.seeStats.candidatesEvaluated, 0);
  if (result.assignmentLegal) {
    EXPECT_GT(result.maxCnPressure, 0);
  }
}

TEST(FlatIcaTest, FlatLegalityDoesNotImplyHierarchyLegality) {
  // The paper's core argument: the K64 abstraction hides the MUX logic.
  // Record both verdicts on the Table 1 kernels; whenever the flat engine
  // claims success, the hierarchy check must still run (and may refute it).
  const auto model = paperFabric();
  int flatOk = 0, hierarchyOk = 0;
  for (const auto& kernel : ddg::table1Kernels()) {
    const auto result = runFlatIca(kernel.ddg, model);
    flatOk += result.assignmentLegal ? 1 : 0;
    hierarchyOk += result.hierarchyLegal ? 1 : 0;
    if (result.assignmentLegal) {
      EXPECT_GT(result.hierarchy.problemsChecked, 0) << kernel.name;
    }
  }
  EXPECT_LE(hierarchyOk, flatOk);
}

/// One flat ICA run as a line: both verdicts, an FNV-1a hash of the
/// assignment, maxCnPressure and every SeeStats counter under its
/// SEE-result key.
std::string flatIcaPin(const FlatIcaResult& result) {
  std::uint64_t hash = 1469598103934665603ULL;
  for (const CnId cn : result.assignment) {
    hash ^= static_cast<std::uint32_t>(cn.value());
    hash *= 1099511628211ULL;
  }
  std::ostringstream os;
  os << (result.assignmentLegal ? "legal" : "illegal") << " hierarchy="
     << (result.hierarchyLegal ? "legal" : "illegal") << " assignment="
     << std::hex << hash << std::dec
     << " maxCnPressure=" << result.maxCnPressure;
  for (const see::SeeCounter& c : see::kSeeCounters) {
    os << ' ' << c.key << '=' << result.seeStats.*c.member;
  }
  return os.str();
}

TEST(FlatIcaTest, Table1ResultsArePinned) {
  // Flat ICA is a baseline only (no driver rung falls back to it); this
  // pins its 64-cluster searches (the only SEE problems with more than a
  // handful of clusters). Every kernel is flat-legal but not
  // hierarchy-legal, the paper's case against the flat view. A change to
  // a pinned line is a change in flat-ICA results, never a refactor.
  const auto model = paperFabric();
  const std::pair<const char*, const char*> kPins[] = {
      {"fir2dim",
       "legal hierarchy=illegal assignment=166cacfa468a659b maxCnPressure=10"
       " se=145 ce=7654 sp=392 ri=12 ro=1074"
       " cr=7114 rf=8 ca=10048 sm=149 ap=79308 or=1396 mh=0 dp=0"},
      {"idcthor",
       "legal hierarchy=illegal assignment=d579925eb5f84194 maxCnPressure=5"
       " se=201 ce=11128 sp=600 ri=0 ro=0"
       " cr=10324 rf=0 ca=12864 sm=205 ap=82404 or=1028 mh=0 dp=0"},
      {"mpeg2inter",
       "legal hierarchy=illegal assignment=8af3b6b980c6e9cc maxCnPressure=8"
       " se=165 ce=9988 sp=492 ri=0 ro=0"
       " cr=9328 rf=0 ca=10560 sm=169 ap=80124 or=388 mh=0 dp=0"},
      {"h264deblocking",
       "legal hierarchy=illegal assignment=6a7ea0ec3363eadf maxCnPressure=13"
       " se=1237 ce=62479 sp=3117 ri=34 ro=16582"
       " cr=58124 rf=6231 ca=81344 sm=1241 ap=97056 or=10076 mh=0 dp=0"},
  };
  const auto kernels = ddg::table1Kernels();
  ASSERT_EQ(kernels.size(), std::size(kPins));
  for (std::size_t i = 0; i < kernels.size(); ++i) {
    ASSERT_EQ(kernels[i].name, kPins[i].first);
    EXPECT_EQ(flatIcaPin(runFlatIca(kernels[i].ddg, model)), kPins[i].second)
        << kernels[i].name;
  }
}

// --- multilevel partitioning ------------------------------------------------------

TEST(MultilevelTest, ProducesCompleteBalancedAssignment) {
  const auto kernel = ddg::buildIdctHor();
  const auto model = paperFabric();
  const auto result = runMultilevel(kernel.ddg, model);
  for (std::int32_t v = 0; v < kernel.ddg.numNodes(); ++v) {
    if (ddg::isInstruction(kernel.ddg.node(DdgNodeId(v)).op)) {
      EXPECT_TRUE(result.assignment[static_cast<std::size_t>(v)].valid());
    }
  }
  EXPECT_GT(result.maxCnLoad, 0);
  // 82 instructions over 64 CNs with 30% tolerance: no CN is a hotspot.
  EXPECT_LE(result.maxCnLoad, 8);
}

TEST(MultilevelTest, RefinementReducesCut) {
  const auto kernel = ddg::buildFir2Dim();
  const auto model = paperFabric();
  MultilevelOptions noRefine;
  noRefine.refinementPasses = 0;
  MultilevelOptions refine;
  refine.refinementPasses = 6;
  const auto before = runMultilevel(kernel.ddg, model, noRefine);
  const auto after = runMultilevel(kernel.ddg, model, refine);
  EXPECT_LE(after.cutEdges, before.cutEdges);
  EXPECT_GT(after.refinementMoves, 0);
}

TEST(MultilevelTest, HierarchyVerdictReported) {
  // The partitioner ignores MUX capacities; the check tells the truth
  // either way and must never crash.
  const auto model = paperFabric();
  for (const auto& kernel : ddg::table1Kernels()) {
    const auto result = runMultilevel(kernel.ddg, model);
    if (!result.hierarchyLegal) {
      EXPECT_FALSE(result.failureReason.empty()) << kernel.name;
    }
  }
}

TEST(MultilevelTest, Deterministic) {
  const auto kernel = ddg::buildMpeg2Inter();
  const auto model = paperFabric();
  const auto r1 = runMultilevel(kernel.ddg, model);
  const auto r2 = runMultilevel(kernel.ddg, model);
  EXPECT_EQ(r1.cutEdges, r2.cutEdges);
  for (std::size_t i = 0; i < r1.assignment.size(); ++i) {
    EXPECT_EQ(r1.assignment[i], r2.assignment[i]);
  }
}

}  // namespace
}  // namespace hca::baseline
