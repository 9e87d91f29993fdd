#include <gtest/gtest.h>

#include <sstream>

#include "ddg/kernels.hpp"
#include "ddg/serialize.hpp"
#include "hca/driver.hpp"
#include "hca/postprocess.hpp"
#include "support/trace.hpp"
#include "tests/support/reference_search.hpp"

/// Byte-identity of the SEE beam search through the whole driver: for every
/// Table 1 kernel under both failure policies, a serial run must reproduce
/// what the deep-copy reference search (tests/support) produced — same
/// placement, same relays, same reconfiguration stream, same FinalMapping,
/// same aggregate HcaStats, and the same frontier objectives, bit for bit,
/// from every SEE call. The reference cannot run inside the driver, so each
/// case compares against FNV-1a digests of those four texts, pinned from
/// reference runs of the same sweeps; see_test compares the two searches
/// live, call by call. Only the wall-clock and the copy-on-write counters
/// (copies avoided, snapshots, arena bytes) stay out of the digests.
///
/// Each case also runs a four-thread portfolio sweep, which must give the
/// serial run's outputs. Carries the ctest `tsan` label: the delta pools and
/// arenas are per-attempt, so a ThreadSanitizer build of that sweep is the
/// proof that no state leaked across portfolio threads.
namespace hca::core {
namespace {

machine::DspFabricModel paperFabric() {
  machine::DspFabricConfig config;
  config.n = config.m = config.k = 8;
  return machine::DspFabricModel(config);
}

/// Placement, relays and reconfiguration stream (and the verdict).
std::string outputsText(const HcaResult& r) {
  std::ostringstream os;
  os << r.legal << '|' << r.failureReason << "|assignment";
  for (const CnId cn : r.assignment) os << ' ' << cn.value();
  os << "|relays";
  for (const RelayPlacement& relay : r.relays) {
    os << ' ' << relay.value.value() << ':' << relay.cn.value();
  }
  os << "|reconfig";
  for (const machine::MuxSetting& s : r.reconfig.settings) {
    os << " [";
    for (const int step : s.problemPath) os << step << '.';
    os << ' ' << s.dstChild << ' ' << s.dstWire << ' ' << s.srcIsBoundary
       << ' ' << s.srcChild << ' ' << s.srcWire << ']';
  }
  return os.str();
}

/// Every counter but wall-clock and the copy-on-write ones.
std::string statsText(const HcaStats& s) {
  std::ostringstream os;
  os << s.problemsSolved << ' ' << s.backtrackAttempts << ' '
     << s.outerAttempts << ' ' << s.achievedTargetIi << ' '
     << s.attemptsCancelled << ' ' << s.statesExplored << ' '
     << s.candidatesEvaluated << ' ' << s.routeInvocations << ' '
     << s.cacheHits << ' ' << s.cacheMisses << ' ' << s.maxWirePressure;
  return os.str();
}

/// Every fresh SEE call of a serial run, in call order: its `see` span's
/// args (states, verdict and frontier objective bits). Objectives are
/// compared per SEE call: a 1-ULP drift in one criterion rarely changes a
/// placement, so placements alone would not show it.
std::string seeCallsText(const Tracer& tracer) {
  std::ostringstream os;
  int calls = 0;
  for (const Tracer::SpanRecord& span : tracer.spans()) {
    if (std::string(span.name) != "see") continue;
    ++calls;
    os << '{';
    for (const auto& [key, value] : span.args) os << key << '=' << value << ';';
    os << '}';
  }
  EXPECT_GT(calls, 0);
  return os.str();
}

/// The final mapping; toText round-trips every node, operand, immediate and
/// name, so equal text means equal final DDGs.
std::string mappingText(const FinalMapping& m) {
  std::ostringstream os;
  os << ddg::toText(m.finalDdg) << '|' << m.numOriginalNodes << "|cnOf";
  for (const CnId cn : m.cnOf) os << ' ' << cn.value();
  os << "|recvs";
  for (const FinalMapping::RecvInfo& recv : m.recvs) {
    os << ' ' << recv.recvNode.value() << ':' << recv.value.value() << ':'
       << recv.cn.value() << ':' << recv.isRelay;
  }
  return os.str();
}

struct Pin {
  std::uint64_t outputs;
  std::uint64_t stats;
  std::uint64_t seeCalls;
  std::uint64_t mapping;  ///< 0 for an illegal run (no mapping)
};

/// (kernel index, failure policy) — all four Table 1 kernels, both ladders.
class DeltaIdentityTest
    : public ::testing::TestWithParam<std::tuple<int, FailurePolicy>> {};

TEST_P(DeltaIdentityTest, DeltaPathByteMatchesLegacyPath) {
  // Pinned from the reference search's runs, per kernel: {strict, degrade}.
  static const Pin kPins[4][2] = {
      // fir2dim
      {{0x341f0f6befe5ffbeULL, 0xfe209509987079ebULL,
        0xb42b2d451395c989ULL, 0x84f7f60d7c0fca84ULL},
       {0x341f0f6befe5ffbeULL, 0xfe209509987079ebULL,
        0xb42b2d451395c989ULL, 0x84f7f60d7c0fca84ULL}},
      // idcthor
      {{0xc9b78b930e1f09e9ULL, 0xceeea5eef6f8f6dfULL,
        0xcb18af8e2278b973ULL, 0x2a44e72596f76da6ULL},
       {0x7b4f25bfeb13ba23ULL, 0xf563d3e7fb6a7c73ULL,
        0x7f843f253290f301ULL, 0x8678ca7518e8a8aaULL}},
      // mpeg2inter
      {{0x5bbfee59d2751832ULL, 0xe10d796b1f0678ffULL,
        0x0fb71ffc4f30b94bULL, 0x2008e35bcbc084cfULL},
       {0x5bbfee59d2751832ULL, 0xe10d796b1f0678ffULL,
        0x0fb71ffc4f30b94bULL, 0x2008e35bcbc084cfULL}},
      // h264deblocking
      {{0xa4d56a35bdcfde04ULL, 0x609ea2c412c64ba1ULL,
        0x6844e5442c2e7abfULL, 0xa328715477d41e10ULL},
       {0xa4d56a35bdcfde04ULL, 0x92cf45b22aa6151fULL,
        0x26f43fd76f8a0addULL, 0xa328715477d41e10ULL}},
  };
  auto kernels = ddg::table1Kernels();
  const auto kernelIndex = static_cast<std::size_t>(std::get<0>(GetParam()));
  auto k = std::move(kernels[kernelIndex]);
  const auto model = paperFabric();
  const Pin& pin =
      kPins[kernelIndex][std::get<1>(GetParam()) == FailurePolicy::kStrict
                             ? 0
                             : 1];

  HcaOptions options;
  options.failurePolicy = std::get<1>(GetParam());
  if (kernelIndex == 3) {
    // h264deblocking defeats the direct search at N=M=K=8; a minimal sweep
    // reaches the fallback ladder quickly and still runs SEE on both the
    // failing and the fallback attempts.
    options.targetIiSlack = 0;
    options.searchProfiles = 1;
  } else {
    // A small sweep is enough: the point is search equivalence on every
    // code path, not search quality.
    options.targetIiSlack = 1;
    options.searchProfiles = 2;
  }

  // The portfolio's stats are not compared: its cancelled attempts and
  // cache counters legitimately differ from a serial sweep's.
  HcaOptions parallelOptions = options;
  parallelOptions.numThreads = 4;
  parallelOptions.allowOversubscribe = true;

  Tracer trace;
  HcaOptions serialOptions = options;
  serialOptions.tracer = &trace;

  const auto serial = HcaDriver(model, serialOptions).run(k.ddg);
  const auto parallel = HcaDriver(model, parallelOptions).run(k.ddg);
  EXPECT_EQ(see::fnv1a(outputsText(serial)), pin.outputs);
  EXPECT_EQ(see::fnv1a(statsText(serial.stats)), pin.stats);
  EXPECT_EQ(see::fnv1a(seeCallsText(trace)), pin.seeCalls);
  // The copy-on-write counters are live on the engine's side.
  if (serial.stats.statesExplored > 0) {
    EXPECT_GT(serial.stats.seeSnapshotsMaterialized, 0);
    EXPECT_GT(serial.stats.seeArenaBytesPeak, 0);
  }
  {
    SCOPED_TRACE("four-thread sweep");
    EXPECT_EQ(outputsText(parallel), outputsText(serial));
  }

  if (serial.legal) {
    const std::string mapping =
        mappingText(buildFinalMapping(k.ddg, model, serial));
    EXPECT_EQ(see::fnv1a(mapping), pin.mapping);
    SCOPED_TRACE("four-thread sweep");
    EXPECT_EQ(mappingText(buildFinalMapping(k.ddg, model, parallel)),
              mapping);
  } else {
    EXPECT_EQ(pin.mapping, 0u);
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
