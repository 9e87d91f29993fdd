#include <gtest/gtest.h>

#include "ddg/kernels.hpp"
#include "ddg/serialize.hpp"
#include "hca/driver.hpp"
#include "hca/postprocess.hpp"
#include "support/trace.hpp"

/// Byte-identity contract of the copy-on-write SEE beam search: the default
/// delta/arena path (SeeOptions::legacySearch = false) must reproduce the
/// pre-CoW deep-copy path exactly — same placement, same relays, same
/// reconfiguration stream, same FinalMapping, same aggregate HcaStats, and
/// the same frontier objectives, bit for bit, from every SEE call — for
/// every Table 1 kernel, under both failure policies. Only the wall-clock
/// and the CoW-specific counters (copies avoided, snapshots, arena bytes)
/// may differ. Each case also runs the delta path as a four-thread
/// portfolio sweep, which must give the serial legacy run's outputs. Carries
/// the ctest `tsan` label: the delta pools and arenas are per-attempt, so a
/// ThreadSanitizer build of that sweep is the proof that no state leaked
/// across portfolio threads.
namespace hca::core {
namespace {

machine::DspFabricModel paperFabric() {
  machine::DspFabricConfig config;
  config.n = config.m = config.k = 8;
  return machine::DspFabricModel(config);
}

/// Everything but wall-clock and the CoW counters must match.
void expectIdenticalStats(const HcaStats& legacy, const HcaStats& delta) {
  EXPECT_EQ(legacy.problemsSolved, delta.problemsSolved);
  EXPECT_EQ(legacy.backtrackAttempts, delta.backtrackAttempts);
  EXPECT_EQ(legacy.outerAttempts, delta.outerAttempts);
  EXPECT_EQ(legacy.achievedTargetIi, delta.achievedTargetIi);
  EXPECT_EQ(legacy.attemptsCancelled, delta.attemptsCancelled);
  EXPECT_EQ(legacy.statesExplored, delta.statesExplored);
  EXPECT_EQ(legacy.candidatesEvaluated, delta.candidatesEvaluated);
  EXPECT_EQ(legacy.routeInvocations, delta.routeInvocations);
  EXPECT_EQ(legacy.cacheHits, delta.cacheHits);
  EXPECT_EQ(legacy.cacheMisses, delta.cacheMisses);
  EXPECT_EQ(legacy.maxWirePressure, delta.maxWirePressure);
  // The CoW counters are the one permitted difference — and they must
  // land on the expected side: zero for the legacy path, live for delta.
  EXPECT_EQ(legacy.seeCopiesAvoided, 0);
  EXPECT_EQ(legacy.seeSnapshotsMaterialized, 0);
  EXPECT_EQ(legacy.seeArenaBytesPeak, 0);
  if (delta.statesExplored > 0) {
    EXPECT_GT(delta.seeSnapshotsMaterialized, 0);
    EXPECT_GT(delta.seeArenaBytesPeak, 0);
  }
}

/// Placement, relays and reconfiguration stream.
void expectIdenticalOutputs(const HcaResult& a, const HcaResult& b) {
  ASSERT_EQ(a.legal, b.legal) << a.failureReason << " vs " << b.failureReason;
  EXPECT_EQ(a.failureReason, b.failureReason);
  ASSERT_EQ(a.assignment.size(), b.assignment.size());
  for (std::size_t i = 0; i < a.assignment.size(); ++i) {
    ASSERT_EQ(a.assignment[i], b.assignment[i])
        << "assignment diverges at node " << i;
  }
  ASSERT_EQ(a.relays.size(), b.relays.size());
  for (std::size_t i = 0; i < a.relays.size(); ++i) {
    EXPECT_EQ(a.relays[i].value, b.relays[i].value);
    EXPECT_EQ(a.relays[i].cn, b.relays[i].cn);
  }
  ASSERT_EQ(a.reconfig.settings.size(), b.reconfig.settings.size());
  for (std::size_t i = 0; i < a.reconfig.settings.size(); ++i) {
    EXPECT_EQ(a.reconfig.settings[i], b.reconfig.settings[i]);
  }
}

/// The outputs and every counter but the CoW ones.
void expectIdenticalResults(const HcaResult& a, const HcaResult& b) {
  expectIdenticalOutputs(a, b);
  expectIdenticalStats(a.stats, b.stats);
}

void expectIdenticalMappings(const FinalMapping& legacy,
                             const FinalMapping& delta) {
  // toText round-trips every node, operand, immediate and name, so equal
  // text means equal final DDGs.
  EXPECT_EQ(ddg::toText(legacy.finalDdg), ddg::toText(delta.finalDdg));
  EXPECT_EQ(legacy.numOriginalNodes, delta.numOriginalNodes);
  ASSERT_EQ(legacy.cnOf.size(), delta.cnOf.size());
  for (std::size_t i = 0; i < legacy.cnOf.size(); ++i) {
    EXPECT_EQ(legacy.cnOf[i], delta.cnOf[i]) << "cnOf diverges at " << i;
  }
  ASSERT_EQ(legacy.recvs.size(), delta.recvs.size());
  for (std::size_t i = 0; i < legacy.recvs.size(); ++i) {
    EXPECT_EQ(legacy.recvs[i].recvNode, delta.recvs[i].recvNode);
    EXPECT_EQ(legacy.recvs[i].value, delta.recvs[i].value);
    EXPECT_EQ(legacy.recvs[i].cn, delta.recvs[i].cn);
    EXPECT_EQ(legacy.recvs[i].isRelay, delta.recvs[i].isRelay);
  }
}

/// Every fresh SEE call of a serial run, in call order: its `see` span's
/// states, verdict and frontier objective bits.
std::vector<std::vector<std::pair<std::string, std::string>>> seeCalls(
    const Tracer& tracer) {
  std::vector<std::vector<std::pair<std::string, std::string>>> calls;
  for (const Tracer::SpanRecord& span : tracer.spans()) {
    if (std::string(span.name) == "see") calls.push_back(span.args);
  }
  return calls;
}

/// Objectives are compared per SEE call: a 1-ULP drift in one criterion
/// rarely changes a placement, so placements alone would not show it.
void expectIdenticalSeeCalls(const Tracer& legacy, const Tracer& delta) {
  const auto a = seeCalls(legacy);
  const auto b = seeCalls(delta);
  ASSERT_EQ(a.size(), b.size());
  ASSERT_FALSE(a.empty());
  for (std::size_t i = 0; i < a.size(); ++i) {
    ASSERT_EQ(a[i], b[i]) << "SEE call " << i << " diverges";
  }
}

/// (kernel index, failure policy) — all four Table 1 kernels, both ladders.
class DeltaIdentityTest
    : public ::testing::TestWithParam<std::tuple<int, FailurePolicy>> {};

TEST_P(DeltaIdentityTest, DeltaPathByteMatchesLegacyPath) {
  auto kernels = ddg::table1Kernels();
  const auto kernelIndex = static_cast<std::size_t>(std::get<0>(GetParam()));
  auto k = std::move(kernels[kernelIndex]);
  const auto model = paperFabric();

  HcaOptions options;
  options.failurePolicy = std::get<1>(GetParam());
  if (kernelIndex == 3) {
    // h264deblocking defeats the direct search at N=M=K=8; a minimal sweep
    // reaches the fallback ladder quickly and still runs SEE on both the
    // failing and the fallback attempts.
    options.targetIiSlack = 0;
    options.searchProfiles = 1;
  } else {
    // A small sweep is enough: the point is legacy/delta equivalence on
    // every code path, not search quality.
    options.targetIiSlack = 1;
    options.searchProfiles = 2;
  }

  HcaOptions legacyOptions = options;
  legacyOptions.see.legacySearch = true;

  // The portfolio's stats are not compared: its cancelled attempts and
  // cache counters legitimately differ from a serial sweep's.
  HcaOptions parallelOptions = options;
  parallelOptions.numThreads = 4;
  parallelOptions.allowOversubscribe = true;

  Tracer legacyTrace;
  Tracer deltaTrace;
  legacyOptions.tracer = &legacyTrace;
  HcaOptions deltaOptions = options;
  deltaOptions.tracer = &deltaTrace;

  const auto legacy = HcaDriver(model, legacyOptions).run(k.ddg);
  const auto delta = HcaDriver(model, deltaOptions).run(k.ddg);
  const auto parallel = HcaDriver(model, parallelOptions).run(k.ddg);
  expectIdenticalResults(legacy, delta);
  expectIdenticalSeeCalls(legacyTrace, deltaTrace);
  {
    SCOPED_TRACE("four-thread delta sweep");
    expectIdenticalOutputs(legacy, parallel);
  }

  if (legacy.legal) {
    const FinalMapping reference = buildFinalMapping(k.ddg, model, legacy);
    expectIdenticalMappings(reference, buildFinalMapping(k.ddg, model, delta));
    SCOPED_TRACE("four-thread delta sweep");
    expectIdenticalMappings(reference,
                            buildFinalMapping(k.ddg, model, parallel));
  }
}

std::string paramName(
    const ::testing::TestParamInfo<std::tuple<int, FailurePolicy>>& info) {
  static const char* kNames[] = {"fir2dim", "idcthor", "mpeg2inter",
                                 "h264deblocking"};
  const char* policy = std::get<1>(info.param) == FailurePolicy::kStrict
                           ? "strict"
                           : "degrade";
  return std::string(kNames[std::get<0>(info.param)]) + "_" + policy;
}

INSTANTIATE_TEST_SUITE_P(
    Table1, DeltaIdentityTest,
    ::testing::Combine(::testing::Range(0, 4),
                       ::testing::Values(FailurePolicy::kStrict,
                                         FailurePolicy::kDegrade)),
    paramName);

}  // namespace
}  // namespace hca::core
