#include <gtest/gtest.h>

#include <algorithm>
#include <set>

#include "ddg/kernels.hpp"
#include "verify/coherency.hpp"
#include "hca/driver.hpp"
#include "hca/mii.hpp"
#include "machine/fault.hpp"
#include "support/check.hpp"
#include "machine/fault_inject.hpp"
#include "support/rng.hpp"

namespace hca::core {
namespace {

machine::DspFabricModel paperFabric(machine::FaultSet faults = {}) {
  machine::DspFabricConfig config;
  config.n = 8;
  config.m = 8;
  config.k = 8;
  return machine::DspFabricModel(config, std::move(faults));
}

/// Every instruction must sit on a surviving CN and the mapping must be
/// coherent — the acceptance bar for any degraded-mode legal result.
void expectSoundMapping(const ddg::Ddg& ddg,
                        const machine::DspFabricModel& model,
                        const HcaResult& result) {
  ASSERT_TRUE(result.legal);
  for (std::int32_t v = 0; v < ddg.numNodes(); ++v) {
    if (!ddg::isInstruction(ddg.node(DdgNodeId(v)).op)) continue;
    const CnId cn = result.assignment[static_cast<std::size_t>(v)];
    ASSERT_TRUE(cn.valid()) << "instruction " << v << " unassigned";
    EXPECT_TRUE(model.cnAlive(cn))
        << "instruction " << v << " placed on dead CN " << to_string(cn);
  }
  const auto violations = checkCoherency(ddg, model, result);
  EXPECT_TRUE(violations.empty())
      << violations.size() << " coherency violations, first: "
      << (violations.empty() ? "" : violations.front().message);
}

// --- fault set parsing -------------------------------------------------------

TEST(FaultSetTest, ParseRoundTrips) {
  const auto faults =
      machine::FaultSet::parse("cn:3, wire:2:out wire:0.1:in,lane:1.2");
  EXPECT_EQ(faults.deadCns.size(), 1u);
  EXPECT_EQ(faults.deadWires.size(), 2u);
  EXPECT_EQ(faults.deadLanes.size(), 1u);
  EXPECT_EQ(faults.deadWires[0].problemPath, std::vector<int>{});
  EXPECT_EQ(faults.deadWires[0].child, 2);
  EXPECT_FALSE(faults.deadWires[0].input);
  EXPECT_EQ(faults.deadWires[1].problemPath, std::vector<int>{0});
  EXPECT_EQ(faults.deadWires[1].child, 1);
  EXPECT_TRUE(faults.deadWires[1].input);
  EXPECT_EQ(machine::FaultSet::parse(faults.toString()), faults);
  EXPECT_TRUE(machine::FaultSet::parse("").empty());
}

TEST(FaultSetTest, ParseRejectsMalformedTokens) {
  EXPECT_THROW(machine::FaultSet::parse("cn:"), InvalidArgumentError);
  EXPECT_THROW(machine::FaultSet::parse("cn:x"), InvalidArgumentError);
  EXPECT_THROW(machine::FaultSet::parse("wire:2"), InvalidArgumentError);
  EXPECT_THROW(machine::FaultSet::parse("wire:2:sideways"),
               InvalidArgumentError);
  EXPECT_THROW(machine::FaultSet::parse("lane:"), InvalidArgumentError);
  EXPECT_THROW(machine::FaultSet::parse("bogus:1"), InvalidArgumentError);
}

// --- fault-aware machine model ----------------------------------------------

TEST(FaultModelTest, DeadCnDisappearsFromLeafPatternGraph) {
  const auto model = paperFabric(machine::FaultSet::parse("cn:0"));
  EXPECT_FALSE(model.cnAlive(CnId(0)));
  EXPECT_TRUE(model.cnAlive(CnId(1)));
  EXPECT_EQ(model.aliveCns(), 63);
  const auto pg = model.patternGraphAt({0, 0});
  EXPECT_TRUE(pg.node(ClusterId(0)).dead);
  EXPECT_FALSE(pg.node(ClusterId(1)).dead);
  // The untouched sibling leaf keeps the stock per-level graph.
  const auto sibling = model.patternGraphAt({0, 1});
  for (std::int32_t v = 0; v < sibling.numNodes(); ++v) {
    EXPECT_FALSE(sibling.node(ClusterId(v)).dead);
  }
  EXPECT_TRUE(model.faultViabilityError().empty());
}

TEST(FaultModelTest, DeadWiresShrinkSurvivingBudgets) {
  const auto model =
      paperFabric(machine::FaultSet::parse("wire:2:in wire:2:in wire:2:out"));
  const auto spec = model.problemSpec({});
  ASSERT_TRUE(spec.touched);
  EXPECT_EQ(spec.inWiresOfChild[2], 6);   // 8 - 2 dead
  EXPECT_EQ(spec.outWiresOfChild[2], 7);  // 8 - 1 dead
  EXPECT_EQ(spec.inWiresOfChild[0], 8);
  EXPECT_TRUE(model.faultViabilityError().empty());
}

TEST(FaultModelTest, ZeroFaultModelIsByteIdenticalToStock) {
  const auto faulty = paperFabric();
  EXPECT_FALSE(faulty.hasFaults());
  for (int level = 0; level < faulty.numLevels(); ++level) {
    // patternGraphAt must be exactly the per-level graph.
    std::vector<int> path(static_cast<std::size_t>(level), 0);
    const auto a = faulty.patternGraphAt(path);
    const auto b = faulty.patternGraph(level);
    ASSERT_EQ(a.numNodes(), b.numNodes());
    for (std::int32_t v = 0; v < a.numNodes(); ++v) {
      EXPECT_EQ(a.node(ClusterId(v)).dead, b.node(ClusterId(v)).dead);
      EXPECT_EQ(a.node(ClusterId(v)).inWireCap, b.node(ClusterId(v)).inWireCap);
      EXPECT_EQ(a.node(ClusterId(v)).outWireCap,
                b.node(ClusterId(v)).outWireCap);
    }
  }
}

TEST(FaultModelTest, DisconnectedFabricIsDetected) {
  // All 8 input wires of root child 2 dead: its whole subtree is alive but
  // unreachable.
  std::string tokens;
  for (int i = 0; i < 8; ++i) tokens += "wire:2:in ";
  const auto model = paperFabric(machine::FaultSet::parse(tokens));
  EXPECT_FALSE(model.faultViabilityError().empty());
}

// --- deterministic injection harness ----------------------------------------

TEST(FaultInjectTest, SameSeedLargerCountIsSuperset) {
  const auto model = paperFabric();
  Rng rngA(42);
  Rng rngB(42);
  machine::FaultInjectParams a, b;
  a.deadCns = 2;
  b.deadCns = 6;
  const auto small = machine::injectRandomFaults(rngA, model, a);
  const auto large = machine::injectRandomFaults(rngB, model, b);
  ASSERT_EQ(small.deadCns.size(), 2u);
  ASSERT_EQ(large.deadCns.size(), 6u);
  for (std::size_t i = 0; i < small.deadCns.size(); ++i) {
    EXPECT_EQ(small.deadCns[i], large.deadCns[i]);
  }
}

TEST(FaultInjectTest, InjectedSetsAreAlwaysViable) {
  const auto model = paperFabric();
  for (std::uint64_t seed = 0; seed < 20; ++seed) {
    Rng rng(seed);
    machine::FaultInjectParams params;
    params.deadCns = static_cast<int>(seed % 12);
    params.deadWires = static_cast<int>(seed % 5);
    params.deadLanes = static_cast<int>(seed % 3);
    const auto faults = machine::injectRandomFaults(rng, model, params);
    const machine::DspFabricModel injected(model.config(), faults);
    EXPECT_TRUE(injected.faultViabilityError().empty())
        << "seed " << seed << ": " << injected.faultViabilityError();
  }
}

// --- MII bound degrades monotonically with the fault count -------------------

TEST(FaultMiiTest, UnifiedMiiResMonotoneUnderNestedCnFaults) {
  const auto kernels = ddg::table1Kernels();
  for (const auto& kernel : kernels) {
    const auto stats = kernel.ddg.stats();
    int previous = 0;
    for (const int k : {0, 1, 2, 4, 8, 16, 32}) {
      Rng rng(7);  // same seed => nested fault sets
      machine::FaultInjectParams params;
      params.deadCns = k;
      const auto faults =
          machine::injectRandomFaults(rng, paperFabric(), params);
      const auto model = paperFabric(faults);
      const int mii = unifiedMiiRes(stats, model);
      EXPECT_GE(mii, previous)
          << kernel.name << ": miiRes dropped from " << previous << " to "
          << mii << " when going to " << k << " dead CNs";
      previous = mii;
    }
  }
}

// --- end-to-end degraded-mode sweep over the Table 1 kernels -----------------

class KernelFaultSweepTest : public ::testing::TestWithParam<int> {
 protected:
  ddg::Kernel kernel() const {
    auto kernels = ddg::table1Kernels();
    return std::move(kernels[static_cast<std::size_t>(GetParam())]);
  }
};

TEST_P(KernelFaultSweepTest, DeadClusterSweepNeverThrowsOrHangs) {
  const auto k = kernel();
  // h264deblocking is not wireable at these budgets even fault-free (see
  // hca_test.cpp); it rides the sweep with a tight deadline to prove the
  // "structured report, never a hang" contract on a hard instance.
  const bool hard = k.ddg.stats().numInstructions > 100;
  for (const int deadCns : {1, 2, 4, 8}) {
    Rng rng(0xFA17 + static_cast<std::uint64_t>(GetParam()));
    machine::FaultInjectParams params;
    params.deadCns = deadCns;
    const auto faults =
        machine::injectRandomFaults(rng, paperFabric(), params);
    const auto model = paperFabric(faults);
    HcaOptions options;
    options.failurePolicy = FailurePolicy::kDegrade;
    options.deadlineMs = hard ? 3000 : 60000;
    const HcaDriver driver(model, options);
    HcaResult result;
    ASSERT_NO_THROW(result = driver.run(k.ddg))
        << k.name << " with " << deadCns << " dead CNs";
    if (result.legal) {
      expectSoundMapping(k.ddg, model, result);
    } else {
      ASSERT_NE(result.failure, nullptr)
          << k.name << ": illegal result without a failure report: "
          << result.failureReason;
      EXPECT_FALSE(result.failure->message.empty());
    }
    if (!hard && deadCns <= 2) {
      // The easy kernels must actually survive light damage, not just
      // fail gracefully.
      EXPECT_TRUE(result.legal)
          << k.name << " with " << deadCns
          << " dead CNs: " << result.failureReason;
    }
  }
}

TEST_P(KernelFaultSweepTest, DeadWireAndLaneSweepNeverThrowsOrHangs) {
  const auto k = kernel();
  const bool hard = k.ddg.stats().numInstructions > 100;
  Rng rng(0xBEEF + static_cast<std::uint64_t>(GetParam()));
  machine::FaultInjectParams params;
  params.deadCns = 1;
  params.deadWires = 3;
  params.deadLanes = 2;
  const auto faults = machine::injectRandomFaults(rng, paperFabric(), params);
  const auto model = paperFabric(faults);
  HcaOptions options;
  options.failurePolicy = FailurePolicy::kDegrade;
  options.deadlineMs = hard ? 3000 : 60000;
  const HcaDriver driver(model, options);
  HcaResult result;
  ASSERT_NO_THROW(result = driver.run(k.ddg)) << k.name;
  if (result.legal) {
    expectSoundMapping(k.ddg, model, result);
  } else {
    ASSERT_NE(result.failure, nullptr) << result.failureReason;
  }
}

std::string kernelName(const ::testing::TestParamInfo<int>& info) {
  static const char* kNames[] = {"fir2dim", "idcthor", "mpeg2inter",
                                 "h264deblocking"};
  return kNames[info.param];
}

INSTANTIATE_TEST_SUITE_P(Table1, KernelFaultSweepTest,
                         ::testing::Range(0, 4), kernelName);

// --- failure policy ----------------------------------------------------------

TEST(FailurePolicyTest, DisconnectedFabricStrictThrowsDegradeReports) {
  std::string tokens;
  for (int i = 0; i < 8; ++i) tokens += "wire:1:in ";
  const auto faults = machine::FaultSet::parse(tokens);
  const auto kernels = ddg::table1Kernels();
  const auto& ddg = kernels[0].ddg;

  EXPECT_THROW(HcaDriver(paperFabric(faults)).run(ddg), InvalidArgumentError);

  HcaOptions options;
  options.failurePolicy = FailurePolicy::kDegrade;
  HcaResult result;
  ASSERT_NO_THROW(result = HcaDriver(paperFabric(faults), options).run(ddg));
  EXPECT_FALSE(result.legal);
  ASSERT_NE(result.failure, nullptr);
  EXPECT_EQ(result.failure->cause, FailureCause::kDisconnectedFabric);
  EXPECT_NE(result.failure->toString().find("disconnected"),
            std::string::npos);
}

TEST(FailurePolicyTest, ZeroFaultDegradeRunIsByteIdentical) {
  const auto kernels = ddg::table1Kernels();
  const auto& ddg = kernels[0].ddg;  // fir2dim
  const auto model = paperFabric();

  const HcaResult plain = HcaDriver(model).run(ddg);
  HcaOptions options;
  options.failurePolicy = FailurePolicy::kDegrade;
  const HcaResult degrade = HcaDriver(model, options).run(ddg);

  ASSERT_TRUE(plain.legal);
  ASSERT_TRUE(degrade.legal);
  EXPECT_TRUE(degrade.fallbackUsed.empty());
  EXPECT_EQ(degrade.failure, nullptr);
  EXPECT_EQ(plain.assignment, degrade.assignment);
  EXPECT_EQ(plain.reconfig.encode(), degrade.reconfig.encode());
  EXPECT_EQ(plain.stats.outerAttempts, degrade.stats.outerAttempts);
  EXPECT_EQ(plain.stats.achievedTargetIi, degrade.stats.achievedTargetIi);
  EXPECT_EQ(plain.stats.attemptsCancelled, degrade.stats.attemptsCancelled);
  EXPECT_EQ(plain.stats.problemsSolved, degrade.stats.problemsSolved);
  EXPECT_EQ(plain.stats.backtrackAttempts, degrade.stats.backtrackAttempts);
  EXPECT_EQ(plain.stats.statesExplored, degrade.stats.statesExplored);
  EXPECT_EQ(plain.stats.candidatesEvaluated,
            degrade.stats.candidatesEvaluated);
  EXPECT_EQ(plain.stats.routeInvocations, degrade.stats.routeInvocations);
  EXPECT_EQ(plain.stats.maxWirePressure, degrade.stats.maxWirePressure);
}

TEST(FailurePolicyTest, BeamBackoffRungRescuesFaultyIdcthor) {
  // The widened-beam retry is the only rung that maps this run: the
  // primary sweep fails, and the degraded-bandwidth fabric (N=M=K=2) is
  // not viable under these faults, so that rung is skipped. The faults are
  // injectRandomFaults(16 CNs, 10 wires, 5 lanes) drawn from Rng(12).
  machine::DspFabricConfig config;
  config.n = 3;
  config.m = 3;
  config.k = 2;
  const auto faults = machine::FaultSet::parse(
      "cn:19,cn:52,cn:57,cn:60,cn:21,cn:20,cn:48,cn:53,cn:39,cn:46,cn:3,"
      "cn:18,cn:50,cn:17,cn:44,cn:30,wire:1.1:out,wire:2.1:out,wire:2.2:out,"
      "wire:3.3.3:in,wire:1:out,wire:1:out,wire:3.3.1:in,wire:2.3:out,"
      "wire:0:out,wire:1.0.1:in,lane:3.0,lane:0.0,lane:1.1,lane:3.3,"
      "lane:2.1");
  const machine::DspFabricModel model(config, faults);
  machine::DspFabricConfig degradedConfig = config;
  degradedConfig.n = degradedConfig.m = degradedConfig.k = 2;
  EXPECT_FALSE(machine::DspFabricModel(degradedConfig, faults)
                   .faultViabilityError()
                   .empty());

  const auto kernels = ddg::table1Kernels();
  const auto& ddg = kernels[1].ddg;  // idcthor
  ASSERT_EQ(kernels[1].name, "idcthor");
  HcaOptions options;
  options.failurePolicy = FailurePolicy::kDegrade;
  const HcaResult result = HcaDriver(model, options).run(ddg);
  expectSoundMapping(ddg, model, result);
  EXPECT_EQ(result.fallbackUsed, "beam-backoff");
  EXPECT_EQ(result.failure, nullptr);
}

// --- deadlines and beam budgets ----------------------------------------------

ddg::Ddg hugeDdg() {
  Rng rng(99);
  ddg::RandomDdgParams params;
  params.numInstructions = 500;
  params.memorySize = 1024;
  return ddg::randomDdg(rng, params);
}

TEST(DeadlineTest, TinyDeadlineReturnsWithCancelledAttempts) {
  const auto ddg = hugeDdg();
  HcaOptions options;
  options.failurePolicy = FailurePolicy::kDegrade;
  options.deadlineMs = 10;
  const HcaDriver driver(paperFabric(), options);
  HcaResult result;
  ASSERT_NO_THROW(result = driver.run(ddg));
  ASSERT_FALSE(result.legal);
  ASSERT_NE(result.failure, nullptr);
  EXPECT_EQ(result.failure->cause, FailureCause::kDeadlineExpired);
  EXPECT_GE(result.stats.attemptsCancelled, 1);
}

TEST(DeadlineTest, ParallelSweepHonorsDeadline) {
  const auto ddg = hugeDdg();
  HcaOptions options;
  options.failurePolicy = FailurePolicy::kDegrade;
  options.deadlineMs = 10;
  options.numThreads = 4;
  const HcaDriver driver(paperFabric(), options);
  HcaResult result;
  ASSERT_NO_THROW(result = driver.run(ddg));
  ASSERT_FALSE(result.legal);
  ASSERT_NE(result.failure, nullptr);
  EXPECT_EQ(result.failure->cause, FailureCause::kDeadlineExpired);
  EXPECT_GE(result.stats.attemptsCancelled, 1);
}

TEST(DeadlineTest, StrictPolicyAlsoStopsAtDeadline) {
  // The deadline is orthogonal to the failure policy: under kStrict the
  // run still returns (no report, just failureReason).
  const auto ddg = hugeDdg();
  HcaOptions options;
  options.deadlineMs = 10;
  const HcaDriver driver(paperFabric(), options);
  HcaResult result;
  ASSERT_NO_THROW(result = driver.run(ddg));
  EXPECT_FALSE(result.legal);
  EXPECT_EQ(result.failure, nullptr);
  EXPECT_FALSE(result.failureReason.empty());
}

TEST(BeamBudgetTest, MaxBeamStepsBoundsEveryAttempt) {
  const auto kernels = ddg::table1Kernels();
  const auto& ddg = kernels[0].ddg;
  HcaOptions options;
  options.failurePolicy = FailurePolicy::kDegrade;
  options.see.maxBeamSteps = 1;  // starve every SEE attempt
  options.targetIiSlack = 1;
  options.searchProfiles = 1;
  const HcaDriver driver(paperFabric(), options);
  HcaResult result;
  ASSERT_NO_THROW(result = driver.run(ddg));
  ASSERT_FALSE(result.legal);
  ASSERT_NE(result.failure, nullptr);
  EXPECT_EQ(result.failure->cause, FailureCause::kNoLegalMapping);
  EXPECT_EQ(result.failure->escalationsTried,
            (std::vector<std::string>{"widened-beam retry (beam x2, keep +4)",
                                      "degraded-bandwidth re-run (N=M=K=2)"}));
}

}  // namespace
}  // namespace hca::core
