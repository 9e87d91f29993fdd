#include <gtest/gtest.h>

#include <algorithm>
#include <set>
#include <string>
#include <vector>

#include "ddg/kernels.hpp"
#include "hca/driver.hpp"
#include "hca/postprocess.hpp"
#include "machine/fault.hpp"
#include "support/check.hpp"
#include "verify/verify.hpp"

namespace hca::verify {
namespace {

machine::DspFabricModel paperFabric(machine::FaultSet faults = {}) {
  machine::DspFabricConfig config;
  config.n = 8;
  config.m = 8;
  config.k = 8;
  return machine::DspFabricModel(config, std::move(faults));
}

core::HcaResult runLegal(const ddg::Ddg& ddg,
                         const machine::DspFabricModel& model,
                         core::HcaOptions options = {}) {
  const core::HcaDriver driver(model, options);
  auto result = driver.run(ddg);
  EXPECT_TRUE(result.legal) << result.failureReason;
  return result;
}

VerifyInput inputFor(const ddg::Ddg& ddg,
                     const machine::DspFabricModel& model,
                     const core::HcaResult& result,
                     const core::FinalMapping* mapping = nullptr) {
  VerifyInput input;
  input.ddg = &ddg;
  input.model = &model;
  input.result = &result;
  input.mapping = mapping;
  return input;
}

std::set<std::string> checkIdsOf(const std::vector<Diagnostic>& diagnostics) {
  std::set<std::string> ids;
  for (const auto& d : diagnostics) ids.insert(d.checkId);
  return ids;
}

/// The single-culprit assertion of the mutation tests: the corruption is
/// flagged, and *only* by the check designed to catch it.
void expectOnlyCheckFires(const std::vector<Diagnostic>& diagnostics,
                          const std::string& id) {
  ASSERT_FALSE(diagnostics.empty())
      << "corruption not flagged by any check";
  EXPECT_EQ(checkIdsOf(diagnostics), std::set<std::string>{id})
      << formatDiagnostics(diagnostics);
}

// --- registry plumbing ------------------------------------------------------

TEST(VerifyRegistryTest, BuiltinChecksAreOrderedWithCoherencyLast) {
  const auto& registry = CheckRegistry::builtin();
  ASSERT_FALSE(registry.checks().empty());
  EXPECT_EQ(registry.checks().back().id, "coherency");
  std::set<std::string> ids;
  for (const auto& check : registry.checks()) {
    EXPECT_TRUE(ids.insert(check.id).second) << "duplicate id " << check.id;
    EXPECT_NE(registry.find(check.id), nullptr);
    EXPECT_FALSE(check.description.empty()) << check.id;
  }
  EXPECT_NE(ids.count("see-solution"), 0u);
  EXPECT_NE(ids.count("ili-conservation"), 0u);
  EXPECT_NE(ids.count("recv-placement"), 0u);
  EXPECT_NE(ids.count("fault-survivors"), 0u);
  EXPECT_EQ(registry.find("no-such-check"), nullptr);
}

TEST(VerifyRegistryTest, ParseCheckListValidatesNames) {
  const auto ids = parseCheckList("see-solution,coherency");
  ASSERT_EQ(ids.size(), 2u);
  EXPECT_EQ(ids[0], "see-solution");
  EXPECT_EQ(ids[1], "coherency");
  EXPECT_THROW(parseCheckList("bogus-check"), InvalidArgumentError);
  EXPECT_THROW(parseCheckList("coherency,"), InvalidArgumentError);
  EXPECT_THROW(parseCheckList(""), InvalidArgumentError);
}

TEST(VerifyRegistryTest, DiagnosticToStringCarriesCheckPathAndMessage) {
  Diagnostic d;
  d.checkId = "see-solution";
  d.subproblemPath = {0, 2};
  d.entities = {7};
  d.message = "node 7 appears more than once";
  const std::string text = d.toString();
  EXPECT_NE(text.find("see-solution"), std::string::npos);
  EXPECT_NE(text.find("0.2"), std::string::npos);
  EXPECT_NE(text.find("node 7 appears more than once"), std::string::npos);
}

// --- clean runs pass every check -------------------------------------------

class KernelVerifyTest : public ::testing::TestWithParam<int> {
 protected:
  ddg::Kernel kernel() const {
    auto kernels = ddg::table1Kernels();
    return std::move(kernels[static_cast<std::size_t>(GetParam())]);
  }
};

TEST_P(KernelVerifyTest, CleanRunPassesAllChecks) {
  const auto k = kernel();
  const auto model = paperFabric();
  // verifyEach exercises the driver's between-stage hooks: a violated
  // invariant would abort this run with an InternalError.
  core::HcaOptions options;
  options.verifyEach = true;
  const auto result = runLegal(k.ddg, model, options);
  ASSERT_TRUE(result.legal);
  const auto mapping = core::buildFinalMapping(k.ddg, model, result);
  const auto diagnostics = CheckRegistry::builtin().run(
      inputFor(k.ddg, model, result, &mapping));
  EXPECT_TRUE(diagnostics.empty()) << formatDiagnostics(diagnostics);
}

TEST_P(KernelVerifyTest, RestrictedCheckListRunsClean) {
  const auto k = kernel();
  const auto model = paperFabric();
  core::HcaOptions options;
  options.verifyEach = true;
  options.verifyChecks = parseCheckList("see-solution,coherency");
  const auto result = runLegal(k.ddg, model, options);
  EXPECT_TRUE(result.legal);
}

// h264deblocking is not wireable at these budgets (see hca_test.cpp).
INSTANTIATE_TEST_SUITE_P(AllKernels, KernelVerifyTest, ::testing::Range(0, 3),
                         [](const auto& paramInfo) {
                           return ddg::table1Kernels()
                               [static_cast<std::size_t>(paramInfo.param)]
                                   .name;
                         });

TEST(VerifyFaultTest, DegradedRunUnderVerifyEachStaysLegal) {
  auto kernels = ddg::table1Kernels();
  const auto& k = kernels[0];
  const auto model = paperFabric(machine::FaultSet::parse("cn:0"));
  core::HcaOptions options;
  options.failurePolicy = core::FailurePolicy::kDegrade;
  options.verifyEach = true;
  const auto result = core::HcaDriver(model, options).run(k.ddg);
  ASSERT_TRUE(result.legal) << result.failureReason;
  const auto diagnostics =
      CheckRegistry::builtin().run(inputFor(k.ddg, model, result));
  EXPECT_TRUE(diagnostics.empty()) << formatDiagnostics(diagnostics);
}

// --- mutation detection: each corruption trips exactly its check ------------

TEST(VerifyMutationTest, DroppedIliCopyFiresIliConservation) {
  auto kernels = ddg::table1Kernels();
  const auto& k = kernels[0];
  const auto model = paperFabric();
  auto result = runLegal(k.ddg, model);
  ASSERT_TRUE(result.legal);

  // Erase one genuinely flowing value from every input wire of the child
  // consuming it — the "mapper forgot to book a copy" corruption.
  bool corrupted = false;
  for (auto& record : result.records) {
    const auto clusters = record->pg.clusterNodes();
    auto& ilis = record->mapResult.ilis;
    for (std::size_t j = 0; j < ilis.size() && !corrupted; ++j) {
      std::set<ValueId> flowing;
      for (const PgArcId arc : record->pg.inArcs(clusters[j])) {
        for (const ValueId v : record->flow.copiesOn(arc)) flowing.insert(v);
      }
      if (flowing.empty()) continue;
      const ValueId victim = *flowing.begin();
      for (auto& wire : ilis[j].inputs) {
        const auto it =
            std::find(wire.values.begin(), wire.values.end(), victim);
        if (it != wire.values.end()) {
          wire.values.erase(it);
          corrupted = true;
        }
      }
    }
    if (corrupted) break;
  }
  ASSERT_TRUE(corrupted) << "no inter-cluster copy to drop";

  const auto diagnostics =
      CheckRegistry::builtin().run(inputFor(k.ddg, model, result));
  expectOnlyCheckFires(diagnostics, "ili-conservation");
  bool sawDrop = false;
  for (const auto& d : diagnostics) {
    EXPECT_FALSE(d.subproblemPath.empty() && !d.entities.empty() &&
                 d.message.empty());
    if (d.message.find("dropped copy") != std::string::npos) {
      sawDrop = true;
      EXPECT_FALSE(d.entities.empty());
    }
  }
  EXPECT_TRUE(sawDrop) << formatDiagnostics(diagnostics);
}

TEST(VerifyMutationTest, DoubleAssignedNodeFiresSeeSolution) {
  auto kernels = ddg::table1Kernels();
  const auto& k = kernels[0];
  const auto model = paperFabric();
  auto result = runLegal(k.ddg, model);
  ASSERT_TRUE(result.legal);

  bool corrupted = false;
  for (auto& record : result.records) {
    if (!record->leaf || record->workingSet.empty()) continue;
    record->workingSet.push_back(record->workingSet.front());
    record->wsChild.push_back(record->wsChild.front());
    corrupted = true;
    break;
  }
  ASSERT_TRUE(corrupted) << "no leaf record to corrupt";

  const auto diagnostics =
      CheckRegistry::builtin().run(inputFor(k.ddg, model, result));
  expectOnlyCheckFires(diagnostics, "see-solution");
  bool sawDuplicate = false;
  for (const auto& d : diagnostics) {
    if (d.message.find("more than once") != std::string::npos) {
      sawDuplicate = true;
      EXPECT_FALSE(d.subproblemPath.empty());
      EXPECT_FALSE(d.entities.empty());
    }
  }
  EXPECT_TRUE(sawDuplicate) << formatDiagnostics(diagnostics);
}

TEST(VerifyMutationTest, RecvOnWrongClusterFiresRecvPlacement) {
  auto kernels = ddg::table1Kernels();
  const auto& k = kernels[0];
  const auto model = paperFabric();
  const auto result = runLegal(k.ddg, model);
  ASSERT_TRUE(result.legal);
  auto mapping = core::buildFinalMapping(k.ddg, model, result);
  ASSERT_FALSE(mapping.recvs.empty()) << "kernel maps without any recv";

  // Teleport one recv to a different (alive) CN than its RecvInfo records.
  const auto& info = mapping.recvs.front();
  const CnId wrong((info.cn.value() + 1) % model.totalCns());
  ASSERT_NE(wrong, info.cn);
  mapping.cnOf[info.recvNode.index()] = wrong;

  const auto diagnostics =
      CheckRegistry::builtin().run(inputFor(k.ddg, model, result, &mapping));
  expectOnlyCheckFires(diagnostics, "recv-placement");
}

TEST(VerifyMutationTest, RelayOnDeadCnFiresFaultSurvivors) {
  auto kernels = ddg::table1Kernels();
  const auto& k = kernels[0];
  const auto model = paperFabric(machine::FaultSet::parse("cn:0"));
  core::HcaOptions options;
  options.failurePolicy = core::FailurePolicy::kDegrade;
  auto result = core::HcaDriver(model, options).run(k.ddg);
  ASSERT_TRUE(result.legal) << result.failureReason;
  ASSERT_TRUE(
      CheckRegistry::builtin().run(inputFor(k.ddg, model, result)).empty());

  result.relays.push_back(core::RelayPlacement{ValueId(0), CnId(0)});

  const auto diagnostics =
      CheckRegistry::builtin().run(inputFor(k.ddg, model, result));
  expectOnlyCheckFires(diagnostics, "fault-survivors");
  ASSERT_EQ(diagnostics.size(), 1u);
  EXPECT_NE(diagnostics[0].message.find("dead CN"), std::string::npos);
}

// --- restricted runs only execute the selected checks -----------------------

TEST(VerifyRegistryTest, RunHonorsCheckSelection) {
  auto kernels = ddg::table1Kernels();
  const auto& k = kernels[0];
  const auto model = paperFabric();
  auto result = runLegal(k.ddg, model);
  ASSERT_TRUE(result.legal);

  // Corrupt a leaf working set; the duplicate is invisible to a run that
  // only selects ili-conservation.
  for (auto& record : result.records) {
    if (!record->leaf || record->workingSet.empty()) continue;
    record->workingSet.push_back(record->workingSet.front());
    record->wsChild.push_back(record->wsChild.front());
    break;
  }
  const auto& registry = CheckRegistry::builtin();
  const auto input = inputFor(k.ddg, model, result);
  EXPECT_TRUE(registry.run(input, {"ili-conservation"}).empty());
  EXPECT_FALSE(registry.run(input, {"see-solution"}).empty());
  EXPECT_THROW((void)registry.run(input, {"bogus"}), InvalidArgumentError);
}

}  // namespace
}  // namespace hca::verify
