// Crash-safe checkpoint/resume and the fault-isolated batch driver.
//
// The load-bearing property is resume *identity*: a run interrupted at an
// arbitrary attempt boundary and resumed from its checkpoint file must
// produce byte-identical results — placement, reconfiguration stream AND
// the aggregate HcaStats (wall-clock metrics excepted) — to a run that was
// never interrupted. The suite drives real HcaDriver runs on every Table 1
// kernel, kills them at attempt boundaries via the manager's test seam, and
// compares field by field. The corruption half feeds damaged checkpoint
// files to the parser and expects typed rejections, never garbage results.

#include <gtest/gtest.h>

#include <algorithm>
#include <cctype>
#include <cstdint>
#include <iomanip>
#include <iterator>
#include <map>
#include <memory>
#include <sstream>
#include <string>
#include <utility>
#include <vector>

#include "ddg/kernels.hpp"
#include "ddg/serialize.hpp"
#include "hca/batch.hpp"
#include "hca/checkpoint.hpp"
#include "hca/driver.hpp"
#include "hca/report.hpp"
#include "hca/subproblem_cache.hpp"
#include "support/check.hpp"
#include "support/io.hpp"
#include "support/json.hpp"
#include "support/thread_pool.hpp"

namespace hca {
namespace {

using core::CheckpointAttempt;
using core::CheckpointData;
using core::CheckpointError;
using core::CheckpointManager;
using core::HcaDriver;
using core::HcaOptions;
using core::HcaResult;

std::string tmpPath(const std::string& name) {
  return ::testing::TempDir() + name;
}

machine::DspFabricModel paperFabric() {
  machine::DspFabricConfig config;
  config.n = config.m = config.k = 8;
  return machine::DspFabricModel(config);
}

const ddg::Kernel& kernelNamed(const std::string& name) {
  static const std::vector<ddg::Kernel> kernels = ddg::table1Kernels();
  for (const auto& kernel : kernels) {
    if (kernel.name == name) return kernel;
  }
  throw InvalidArgumentError("no such kernel: " + name);
}

/// Full identity: verdict, placement, reconfiguration stream and every
/// HcaStats counter. This is the checkpoint contract, which is strictly
/// stronger than the portfolio determinism contract (that one exempts the
/// effort counters; resume identity does not). Without `cacheCounters` the
/// cache's own hit/miss counters are left out (cache on against off).
void expectIdenticalRun(const HcaResult& a, const HcaResult& b,
                        bool cacheCounters = true) {
  ASSERT_EQ(a.legal, b.legal) << a.failureReason << " vs " << b.failureReason;
  EXPECT_EQ(a.failureReason, b.failureReason);
  EXPECT_EQ(a.failureSite.level, b.failureSite.level);
  EXPECT_EQ(a.failureSite.path, b.failureSite.path);
  EXPECT_EQ(a.fallbackUsed, b.fallbackUsed);
  ASSERT_EQ(a.assignment.size(), b.assignment.size());
  for (std::size_t i = 0; i < a.assignment.size(); ++i) {
    ASSERT_EQ(a.assignment[i], b.assignment[i])
        << "assignment diverges at " << i;
  }
  ASSERT_EQ(a.relays.size(), b.relays.size());
  for (std::size_t i = 0; i < a.relays.size(); ++i) {
    EXPECT_EQ(a.relays[i].value, b.relays[i].value);
    EXPECT_EQ(a.relays[i].cn, b.relays[i].cn);
  }
  EXPECT_EQ(a.reconfig.toString(), b.reconfig.toString());
  core::forEachRunCounter(
      [cacheCounters](const core::RunCounter& c, const auto& x,
                      const auto& y) {
        const std::string key = c.key;
        if (!cacheCounters && (key == "cacheHits" || key == "cacheMisses")) {
          return;
        }
        EXPECT_EQ(x, y) << c.key;
      },
      a.stats, b.stats);
}

/// A per-attempt SEE expansion budget low enough that early attempts fail
/// (so there is something to checkpoint) but — per kernel — chosen so the
/// escalation ladder still ends in a legal mapping where possible.
HcaOptions budgetedOptions(int maxBeamSteps) {
  HcaOptions options;
  options.see.maxBeamSteps = maxBeamSteps;
  return options;
}

/// One driver run against a checkpoint file. `cancelAfter` > 0 cancels the
/// external token as soon as that many attempts have been recorded — the
/// in-process equivalent of `kill` at a checkpoint boundary.
HcaResult runWithCheckpoint(const ddg::Kernel& kernel, HcaOptions options,
                            const std::string& checkpointPath,
                            int cancelAfter = 0) {
  CheckpointManager manager(checkpointPath);
  manager.loadForResume();
  CancellationToken stop;
  options.checkpoint = &manager;
  options.externalCancel = &stop;
  if (cancelAfter > 0) {
    manager.onAttemptRecorded = [&stop, cancelAfter](int recorded) {
      if (recorded >= cancelAfter) stop.cancel();
    };
  }
  const HcaDriver driver(paperFabric(), options);
  return driver.run(kernel.ddg);
}

// --- atomic I/O ------------------------------------------------------------

TEST(AtomicIoTest, WriteReadRoundTripAndOverwrite) {
  const std::string path = tmpPath("io_roundtrip.txt");
  atomicWriteFile(path, "first\n");
  EXPECT_EQ(readFile(path), "first\n");
  atomicWriteFile(path, "second, longer payload\n");
  EXPECT_EQ(readFile(path), "second, longer payload\n");
  EXPECT_TRUE(fileExists(path));
  removeFileIfExists(path);
  EXPECT_FALSE(fileExists(path));
  removeFileIfExists(path);  // idempotent
}

TEST(AtomicIoTest, MissingFileIsTypedIoError) {
  EXPECT_THROW(readFile(tmpPath("does_not_exist")), IoError);
}

TEST(AtomicIoTest, UnwritableDirectoryIsTypedIoError) {
  EXPECT_THROW(atomicWriteFile("/nonexistent-dir/sub/file.json", "x"),
               IoError);
}

// --- checkpoint format and corruption --------------------------------------

CheckpointData sampleData() {
  CheckpointData data;
  data.fingerprint = "00c0ffee00c0ffee";
  data.iniMii = 3;
  CheckpointAttempt attempt;
  attempt.phase = "sweep";
  attempt.index = 0;
  attempt.target = 3;
  attempt.profile = 0;
  attempt.failureReason = "sub-problem [] (level 0): beam step budget";
  attempt.stats.problemsSolved = 7;
  attempt.stats.outerAttempts = 1;
  attempt.stats.statesExplored = 123;
  attempt.stats.seeArenaBytesPeak = 4096;
  data.attempts.push_back(attempt);
  return data;
}

CheckpointError::Kind parseKind(const std::string& bytes) {
  try {
    (void)core::parseCheckpoint(bytes);
  } catch (const CheckpointError& e) {
    return e.kind();
  }
  ADD_FAILURE() << "parseCheckpoint accepted corrupt bytes";
  return CheckpointError::Kind::kBadMagic;
}

TEST(CheckpointFormatTest, SerializeParseRoundTrip) {
  const std::string bytes = core::serializeCheckpoint(sampleData());
  const CheckpointData parsed = core::parseCheckpoint(bytes);
  EXPECT_EQ(parsed.fingerprint, "00c0ffee00c0ffee");
  EXPECT_EQ(parsed.iniMii, 3);
  ASSERT_EQ(parsed.attempts.size(), 1u);
  EXPECT_EQ(parsed.attempts[0].phase, "sweep");
  EXPECT_EQ(parsed.attempts[0].failureReason,
            "sub-problem [] (level 0): beam step budget");
  EXPECT_EQ(parsed.attempts[0].stats.problemsSolved, 7);
  EXPECT_EQ(parsed.attempts[0].stats.statesExplored, 123);
  EXPECT_EQ(parsed.attempts[0].stats.seeArenaBytesPeak, 4096);
}

TEST(CheckpointFormatTest, TruncationRejected) {
  const std::string bytes = core::serializeCheckpoint(sampleData());
  // Every strictly-shorter prefix that still has a complete header must be
  // rejected as truncated — a crash mid-write may leave any length behind.
  const std::size_t headerEnd = bytes.find('\n') + 1;
  for (const std::size_t keep :
       {bytes.size() - 1, bytes.size() - 17, headerEnd}) {
    EXPECT_EQ(parseKind(bytes.substr(0, keep)),
              CheckpointError::Kind::kTruncated)
        << "kept " << keep << " of " << bytes.size() << " bytes";
  }
}

TEST(CheckpointFormatTest, FlippedPayloadByteRejected) {
  std::string bytes = core::serializeCheckpoint(sampleData());
  bytes[bytes.size() / 2] ^= 0x20;
  EXPECT_EQ(parseKind(bytes), CheckpointError::Kind::kBadChecksum);
}

TEST(CheckpointFormatTest, BadVersionRejected) {
  std::string bytes = core::serializeCheckpoint(sampleData());
  ASSERT_EQ(bytes.rfind("HCACHK 2 ", 0), 0u);
  bytes[7] = '9';
  EXPECT_EQ(parseKind(bytes), CheckpointError::Kind::kBadVersion);
}

TEST(CheckpointFormatTest, BadMagicRejected) {
  std::string bytes = core::serializeCheckpoint(sampleData());
  bytes[0] = 'X';
  EXPECT_EQ(parseKind(bytes), CheckpointError::Kind::kBadMagic);
  EXPECT_EQ(parseKind(""), CheckpointError::Kind::kBadMagic);
  EXPECT_EQ(parseKind("not a checkpoint at all"),
            CheckpointError::Kind::kBadMagic);
}

TEST(CheckpointFormatTest, ChecksummedGarbagePayloadRejected) {
  // A correct header over a payload with the wrong shape must fail payload
  // validation, not crash or return defaults.
  const std::string payload = "{\"fingerprint\":12}";
  std::ostringstream os;
  os << "HCACHK 2 " << std::hex << std::setw(16) << std::setfill('0')
     << core::fnv1a64(payload) << std::dec << " " << payload.size() << "\n"
     << payload;
  EXPECT_EQ(parseKind(os.str()), CheckpointError::Kind::kBadPayload);
}

// --- format pins -------------------------------------------------------------
//
// The on-disk shape of the counters: key names, key order, which keys an
// old file may lack and which it must carry. A checkpoint written by one
// build must resume on the next, so these pin the bytes, not a round trip.

/// Every HcaStats counter set to a distinct value: 1, 2, ... in report
/// order.
core::HcaStats pinnedRunStats() {
  core::HcaStats s;
  s.problemsSolved = 1;
  s.backtrackAttempts = 2;
  s.outerAttempts = 3;
  s.achievedTargetIi = 4;
  s.attemptsCancelled = 5;
  s.statesExplored = 6;
  s.candidatesEvaluated = 7;
  s.routeInvocations = 8;
  s.cacheHits = 9;
  s.cacheMisses = 10;
  s.maxWirePressure = 11;
  s.seeCopiesAvoided = 12;
  s.seeSnapshotsMaterialized = 13;
  s.seeArenaBytesPeak = 14;
  s.seeOracleRejects = 15;
  s.seeRouteMemoHits = 16;
  s.seeDominancePruned = 17;
  return s;
}

/// Every SeeStats counter set to a distinct value: 101, 102, ... in
/// snapshot order.
see::SeeStats pinnedSeeStats() {
  see::SeeStats t;
  t.statesExplored = 101;
  t.candidatesEvaluated = 102;
  t.statesPruned = 103;
  t.routeInvocations = 104;
  t.routedOperands = 105;
  t.candidateRejections = 106;
  t.routeFailures = 107;
  t.copiesAvoided = 108;
  t.snapshotsMaterialized = 109;
  t.arenaBytesPeak = 110;
  t.oracleRejects = 111;
  t.routeMemoHits = 112;
  t.dominancePruned = 113;
  return t;
}

/// One attempt, every counter a distinct non-zero value.
CheckpointData everyCounterData() {
  CheckpointData data;
  data.fingerprint = "0123456789abcdef";
  data.iniMii = 4;
  CheckpointAttempt attempt;
  attempt.phase = "sweep";
  attempt.index = 2;
  attempt.target = 5;
  attempt.profile = 1;
  attempt.failureReason = "pinned";
  attempt.failureSite = {2, {1, 3}};
  attempt.stats = pinnedRunStats();
  data.attempts.push_back(attempt);
  return data;
}

/// Re-frames `bytes` around `edit(payload)` with a valid header, so the edit
/// reaches payload validation instead of the checksum check.
template <class Edit>
std::string withEditedPayload(const std::string& bytes, Edit edit) {
  std::string payload = bytes.substr(bytes.find('\n') + 1);
  edit(payload);
  std::ostringstream os;
  os << "HCACHK 2 " << std::hex << std::setw(16) << std::setfill('0')
     << core::fnv1a64(payload) << std::dec << " " << payload.size() << "\n"
     << payload;
  return os.str();
}

/// Removes the member `"key":<integer>` and one comma next to it.
void eraseMember(std::string& payload, const std::string& key) {
  const std::size_t at = payload.find("\"" + key + "\":");
  ASSERT_TRUE(at != std::string::npos && at > 0) << key;
  std::size_t end = at + key.size() + 3;
  while (end < payload.size() && (std::isdigit(payload[end]) != 0 ||
                                  payload[end] == '-')) {
    ++end;
  }
  if (payload[at - 1] == ',') {
    payload.erase(at - 1, end - at + 1);
  } else {
    payload.erase(at, end - at + 1);  // first member: its trailing comma
  }
}

/// A version-1 file as the writer of that format produced it: the attempt
/// records plus a snapshot of the sub-problem cache.
const char kVersionOneFile[] =
    "HCACHK 1 1a2ce727e903bdf0 920\n"
    "{\"fingerprint\":\"0123456789abcdef\",\"iniMii\":4,\"attempts\":[{"
    "\"phase\":\"sweep\",\"index\":2,\"target\":5,\"profile\":1,"
    "\"failureReason\":\"pinned\",\"failureLevel\":2,"
    "\"failurePath\":[1,3],\"stats\":{\"problemsSolved\":1,"
    "\"backtrackAttempts\":2,\"outerAttempts\":3,\"achievedTargetIi\":4,"
    "\"attemptsCancelled\":5,\"statesExplored\":6,"
    "\"candidatesEvaluated\":7,\"routeInvocations\":8,\"cacheHits\":9,"
    "\"cacheMisses\":10,\"maxWirePressure\":11,\"seeCopiesAvoided\":12,"
    "\"seeSnapshotsMaterialized\":13,\"seeArenaBytesPeak\":14,"
    "\"seeOracleRejects\":15,\"seeRouteMemoHits\":16,"
    "\"seeDominancePruned\":17}}],\"caches\":[{\"scope\":\"pin\","
    "\"entries\":[{\"key\":\"6b\",\"result\":{\"legal\":false,"
    "\"solution\":{\"nc\":[],\"rc\":[],\"us\":[],\"fl\":[],\"nm\":[],"
    "\"iv\":[],\"ov\":[],\"as\":0,\"ob\":\"0x0000000000000000\"},"
    "\"alternatives\":[],\"stats\":{\"se\":101,\"ce\":102,\"sp\":103,"
    "\"ri\":104,\"ro\":105,\"cr\":106,\"rf\":107,\"ca\":108,\"sm\":109,"
    "\"ap\":110,\"or\":111,\"mh\":112,\"dp\":113},\"failedItem\":{"
    "\"k\":0,\"n\":-1,\"v\":-1},\"failureReason\":\"\"}}]}]}";

TEST(CheckpointFormatTest, VersionOneFileRejected) {
  // Version 1 carried cache snapshots a resume can no longer use: the file
  // is refused by its version, before its checksum or payload is read.
  const std::string bytes = kVersionOneFile;
  ASSERT_EQ(bytes.size(), bytes.find('\n') + 1 + 920);
  EXPECT_EQ(parseKind(bytes), CheckpointError::Kind::kBadVersion);
}

TEST(CheckpointFormatPinTest, SerializedBytesArePinned) {
  EXPECT_EQ(
      core::serializeCheckpoint(everyCounterData()),
      "HCACHK 2 7640053ba272e146 542\n"
      "{\"fingerprint\":\"0123456789abcdef\",\"iniMii\":4,\"attempts\":[{"
      "\"phase\":\"sweep\",\"index\":2,\"target\":5,\"profile\":1,"
      "\"failureReason\":\"pinned\",\"failureLevel\":2,"
      "\"failurePath\":[1,3],\"stats\":{\"problemsSolved\":1,"
      "\"backtrackAttempts\":2,\"outerAttempts\":3,\"achievedTargetIi\":4,"
      "\"attemptsCancelled\":5,\"statesExplored\":6,"
      "\"candidatesEvaluated\":7,\"routeInvocations\":8,\"cacheHits\":9,"
      "\"cacheMisses\":10,\"maxWirePressure\":11,\"seeCopiesAvoided\":12,"
      "\"seeSnapshotsMaterialized\":13,\"seeArenaBytesPeak\":14,"
      "\"seeOracleRejects\":15,\"seeRouteMemoHits\":16,"
      "\"seeDominancePruned\":17}}]}");
}

TEST(CheckpointFormatPinTest, CountersAddedLaterAreOptional) {
  const std::string bytes = withEditedPayload(
      core::serializeCheckpoint(everyCounterData()), [](std::string& p) {
        for (const char* key : {"seeOracleRejects", "seeRouteMemoHits",
                                "seeDominancePruned"}) {
          eraseMember(p, key);
        }
      });
  const CheckpointData parsed = core::parseCheckpoint(bytes);
  ASSERT_EQ(parsed.attempts.size(), 1u);
  const core::HcaStats& s = parsed.attempts[0].stats;
  EXPECT_EQ(s.seeOracleRejects, 0);
  EXPECT_EQ(s.seeRouteMemoHits, 0);
  EXPECT_EQ(s.seeDominancePruned, 0);
  EXPECT_EQ(s.seeArenaBytesPeak, 14);
}

TEST(CheckpointFormatPinTest, FailureSiteIsOptional) {
  // Files written before attempts kept their failure site still parse
  // (their fingerprint then refuses the resume), reading "no site".
  const std::string bytes = withEditedPayload(
      core::serializeCheckpoint(everyCounterData()), [](std::string& p) {
        const std::string site = ",\"failureLevel\":2,\"failurePath\":[1,3]";
        const std::size_t at = p.find(site);
        ASSERT_NE(at, std::string::npos);
        p.erase(at, site.size());
      });
  const CheckpointData parsed = core::parseCheckpoint(bytes);
  ASSERT_EQ(parsed.attempts.size(), 1u);
  EXPECT_EQ(parsed.attempts[0].failureSite.level, -1);
  EXPECT_TRUE(parsed.attempts[0].failureSite.path.empty());
}

TEST(CheckpointFormatPinTest, FirstSchemaCountersAreRequired) {
  const std::string bytes = core::serializeCheckpoint(everyCounterData());
  for (const char* key : {"problemsSolved", "statesExplored"}) {
    EXPECT_EQ(parseKind(withEditedPayload(
                  bytes, [key](std::string& p) { eraseMember(p, key); })),
              CheckpointError::Kind::kBadPayload)
        << key;
  }
}

TEST(CheckpointFormatPinTest, OutOfRangeInt32CounterRejected) {
  const std::string bytes = withEditedPayload(
      core::serializeCheckpoint(everyCounterData()), [](std::string& p) {
        const std::string from = "\"problemsSolved\":1,";
        const std::size_t at = p.find(from);
        ASSERT_NE(at, std::string::npos);
        p.replace(at, from.size(), "\"problemsSolved\":2147483648,");
      });
  EXPECT_EQ(parseKind(bytes), CheckpointError::Kind::kBadPayload);
}

// The run fingerprint names checkpoint files, so it keeps literal slots for
// retired options: the dominance flag as a 0. It changed when the retry
// ladder lost its third rung (ThreeRungLadderCheckpointRejected). The
// sub-problem cache key lives for one attempt and holds no retired slots.
TEST(CheckpointFormatPinTest, Fir2dimFingerprintAndCacheKeyArePinned) {
  const ddg::Ddg& ddg = kernelNamed("fir2dim").ddg;
  const machine::DspFabricModel model = paperFabric();
  const HcaOptions options;
  EXPECT_EQ(core::runFingerprint(ddg, model, options), "0e68cf5c1ba405e4");

  // The root (level 0) sub-problem over the whole DDG.
  std::vector<DdgNodeId> workingSet;
  for (std::int32_t v = 0; v < ddg.numNodes(); ++v) {
    workingSet.emplace_back(v);
  }
  const machine::LevelSpec spec = model.levelSpec(0);
  const std::string key = core::subproblemKey(
      model.patternGraphAt({}), model.constraints(0), model.config().latency,
      spec.inWires, spec.outWires, {}, {}, workingSet, {}, options.see);
  EXPECT_EQ(core::fnv1a64(key), 0xd796576f7115558aULL);
}

// --- counter table -----------------------------------------------------------
//
// Every row of HCA_COUNTER_TABLE must reach every consumer under its own
// names. The expectations are spelled out by hand on purpose: they are the
// independent record a missing or swapped row is checked against.

/// pinnedSeeStats()'s values in table order, with the name each consumer
/// must give them ("" = the consumer does not carry the counter).
struct SeePin {
  std::int64_t value;
  const char* key;        ///< SEE-result key
  const char* metric;     ///< per-level metric base name
  const char* levelsKey;  ///< report levels[] key
  const char* runKey;     ///< HcaStats counter it folds into
};
const SeePin kSeePins[] = {
    {101, "se", "see.expansions", "expansions", "statesExplored"},
    {102, "ce", "see.candidates", "candidates", "candidatesEvaluated"},
    {103, "sp", "see.pruned", "pruned", ""},
    {104, "ri", "see.route_invocations", "routeInvocations",
     "routeInvocations"},
    {105, "ro", "see.routed_operands", "", ""},
    {106, "cr", "see.candidate_rejections", "candidateRejections", ""},
    {107, "rf", "see.route_failures", "routeFailures", ""},
    {108, "ca", "see.copies_avoided", "", "seeCopiesAvoided"},
    {109, "sm", "see.snapshots", "", "seeSnapshotsMaterialized"},
    {110, "ap", "", "", "seeArenaBytesPeak"},
    {111, "or", "see.oracle_rejects", "oracleRejects", "seeOracleRejects"},
    {112, "mh", "see.route_memo_hits", "routeMemoHits", "seeRouteMemoHits"},
    {113, "dp", "see.dominance_pruned", "dominancePruned",
     "seeDominancePruned"},
};

/// HcaStats keys in report order (pinnedRunStats() sets key i to i + 1).
const char* const kRunKeys[] = {
    "problemsSolved",      "backtrackAttempts",
    "outerAttempts",       "achievedTargetIi",
    "attemptsCancelled",   "statesExplored",
    "candidatesEvaluated", "routeInvocations",
    "cacheHits",           "cacheMisses",
    "maxWirePressure",     "seeCopiesAvoided",
    "seeSnapshotsMaterialized", "seeArenaBytesPeak",
    "seeOracleRejects",    "seeRouteMemoHits",
    "seeDominancePruned"};

/// The SEE counters of the report's levels[] rows, in key order.
const char* const kLevelsKeys[] = {
    "expansions",          "pruned",           "candidates",
    "candidateRejections", "routeInvocations", "routeFailures",
    "oracleRejects",       "routeMemoHits",    "dominancePruned"};

const SeePin& pinForLevelsKey(const std::string& levelsKey) {
  for (const SeePin& pin : kSeePins) {
    if (levelsKey == pin.levelsKey) return pin;
  }
  throw InvalidArgumentError("no pin for levels key " + levelsKey);
}

JsonValue parsed(const std::string& text) {
  JsonValue root;
  std::string error;
  EXPECT_TRUE(parseJson(text, &root, &error)) << error;
  return root;
}

/// `object`'s members as (key, integer) pairs, in order.
std::vector<std::pair<std::string, std::int64_t>> intMembers(
    const JsonValue& object) {
  std::vector<std::pair<std::string, std::int64_t>> out;
  for (const auto& [key, value] : object.object) {
    out.emplace_back(key, static_cast<std::int64_t>(value.number));
  }
  return out;
}

/// The stats object of a run report of `stats`, as (key, value) pairs.
std::vector<std::pair<std::string, std::int64_t>> reportedStats(
    const core::HcaStats& stats) {
  HcaResult result;
  result.stats = stats;
  return intMembers(*parsed(core::runReportJson(result)).find("stats"));
}

TEST(CounterTableTest, SeeRowsMatchTheirFields) {
  ASSERT_EQ(std::size(see::kSeeCounters), std::size(kSeePins));
  const see::SeeStats stats = pinnedSeeStats();
  for (std::size_t i = 0; i < std::size(kSeePins); ++i) {
    const see::SeeCounter& row = see::kSeeCounters[i];
    const SeePin& pin = kSeePins[i];
    EXPECT_EQ(stats.*row.member, pin.value) << pin.key;
    EXPECT_STREQ(row.key, pin.key);
    EXPECT_STREQ(row.metric != nullptr ? row.metric : "", pin.metric);
    EXPECT_STREQ(row.levelsKey != nullptr ? row.levelsKey : "",
                 pin.levelsKey);
  }
}

TEST(CounterTableTest, SeeMergeSumsAndKeepsThePeak) {
  see::SeeStats merged = pinnedSeeStats();
  merged.merge(pinnedSeeStats());
  for (std::size_t i = 0; i < std::size(kSeePins); ++i) {
    const SeePin& pin = kSeePins[i];
    const std::int64_t expected =
        std::string(pin.key) == "ap" ? pin.value : 2 * pin.value;
    EXPECT_EQ(merged.*see::kSeeCounters[i].member, expected) << pin.key;
  }
}

TEST(CounterTableTest, FoldMovesEachSeeCounterToItsRunCounter) {
  core::HcaStats folded;
  folded.addSee(pinnedSeeStats());
  folded.addSee(pinnedSeeStats());
  std::vector<std::pair<std::string, std::int64_t>> expected;
  for (const char* key : kRunKeys) {
    std::int64_t value = 0;
    for (const SeePin& pin : kSeePins) {
      if (key == std::string(pin.runKey)) {
        value = std::string(pin.key) == "ap" ? pin.value : 2 * pin.value;
      }
    }
    expected.emplace_back(key, value);
  }
  EXPECT_EQ(reportedStats(folded), expected);
}

TEST(CounterTableTest, ReportAndHistoryCarryEveryRunCounter) {
  std::vector<std::pair<std::string, std::int64_t>> expected;
  std::map<std::string, std::int64_t> deterministic;
  for (std::size_t i = 0; i < std::size(kRunKeys); ++i) {
    const auto value = static_cast<std::int64_t>(i + 1);
    expected.emplace_back(kRunKeys[i], value);
    if (std::string(kRunKeys[i]) != "attemptsCancelled") {
      deterministic.emplace(kRunKeys[i], value);
    }
  }
  EXPECT_EQ(reportedStats(pinnedRunStats()), expected);
  EXPECT_EQ(core::deterministicCounters(pinnedRunStats()), deterministic);
}

TEST(CounterTableTest, RunMergeSumsAllButTheWinnersCounters) {
  core::HcaStats merged = pinnedRunStats();
  merged.merge(pinnedRunStats());
  std::vector<std::pair<std::string, std::int64_t>> expected;
  for (std::size_t i = 0; i < std::size(kRunKeys); ++i) {
    const std::string key = kRunKeys[i];
    const auto value = static_cast<std::int64_t>(i + 1);
    const bool keep = key == "achievedTargetIi" ||
                      key == "maxWirePressure" || key == "seeArenaBytesPeak";
    expected.emplace_back(key, keep ? value : 2 * value);
  }
  EXPECT_EQ(reportedStats(merged), expected);
}

TEST(CounterTableTest, CheckpointRoundTripKeepsEveryCounter) {
  const std::string bytes = core::serializeCheckpoint(everyCounterData());
  const CheckpointData back = core::parseCheckpoint(bytes);
  EXPECT_EQ(core::serializeCheckpoint(back), bytes);
  ASSERT_EQ(back.attempts.size(), 1u);
  std::vector<std::pair<std::string, std::int64_t>> expected;
  for (std::size_t i = 0; i < std::size(kRunKeys); ++i) {
    expected.emplace_back(kRunKeys[i], static_cast<std::int64_t>(i + 1));
  }
  EXPECT_EQ(reportedStats(back.attempts[0].stats), expected);
}

TEST(CounterTableTest, LevelMetricsAndLevelsRowCarryEverySeeCounter) {
  HcaResult result;
  const core::LevelMetrics level(result.metrics, 1);
  ++*level.seeProblems;
  level.addSee(pinnedSeeStats());
  for (const SeePin& pin : kSeePins) {
    if (*pin.metric == '\0') continue;
    EXPECT_EQ(result.metrics.counterValue(std::string(pin.metric) + ".L1"),
              pin.value)
        << pin.metric;
  }
  const JsonValue report = parsed(core::runReportJson(result));
  const JsonValue& levels = *report.find("levels");
  ASSERT_EQ(levels.array.size(), 1u);
  const auto row = intMembers(levels.array[0]);
  // level, name, problems, then the SEE counters.
  ASSERT_GE(row.size(), 3 + std::size(kLevelsKeys));
  for (std::size_t i = 0; i < std::size(kLevelsKeys); ++i) {
    EXPECT_EQ(row[3 + i].first, kLevelsKeys[i]);
    EXPECT_EQ(row[3 + i].second, pinForLevelsKey(kLevelsKeys[i]).value)
        << kLevelsKeys[i];
  }
  EXPECT_EQ(row[3 + std::size(kLevelsKeys)].first, "cacheHits");
}

// --- manager ---------------------------------------------------------------

TEST(CheckpointManagerTest, MissingFileMeansFreshStart) {
  CheckpointManager manager(tmpPath("never_written.ckpt"));
  EXPECT_FALSE(manager.loadForResume());
  EXPECT_EQ(manager.attemptsRecorded(), 0);
}

TEST(CheckpointManagerTest, ResumeAgainstDifferentRunRejected) {
  const std::string path = tmpPath("wrong_run.ckpt");
  removeFileIfExists(path);
  // Interrupt a fir2dim run so the file records fir2dim's fingerprint.
  (void)runWithCheckpoint(kernelNamed("fir2dim"), budgetedOptions(40), path,
                          /*cancelAfter=*/1);
  ASSERT_TRUE(fileExists(path));

  // Resuming it against a different kernel is a typed kWrongRun error.
  try {
    (void)runWithCheckpoint(kernelNamed("idcthor"), budgetedOptions(40),
                            path);
    FAIL() << "resume against a different DDG was accepted";
  } catch (const CheckpointError& e) {
    EXPECT_EQ(e.kind(), CheckpointError::Kind::kWrongRun);
  }

  // Same DDG but different result-affecting options: also a different run.
  try {
    (void)runWithCheckpoint(kernelNamed("fir2dim"), budgetedOptions(41),
                            path);
    FAIL() << "resume with different maxBeamSteps was accepted";
  } catch (const CheckpointError& e) {
    EXPECT_EQ(e.kind(), CheckpointError::Kind::kWrongRun);
  }
}

TEST(CheckpointManagerTest, ThreeRungLadderCheckpointRejected) {
  // f60da47e663e4acf is fir2dim's default-options fingerprint while the SEE
  // retry ladder had a third rung. Such a checkpoint holds SEE results and
  // counters of that ladder, so a default-options resume must refuse it
  // instead of mixing them into its own.
  const std::string path = tmpPath("three_rung_ladder.ckpt");
  removeFileIfExists(path);
  (void)runWithCheckpoint(kernelNamed("fir2dim"), budgetedOptions(40), path,
                          /*cancelAfter=*/1);
  CheckpointData data = core::parseCheckpoint(readFile(path));
  data.fingerprint = "f60da47e663e4acf";
  atomicWriteFile(path, core::serializeCheckpoint(data));
  try {
    (void)runWithCheckpoint(kernelNamed("fir2dim"), HcaOptions(), path);
    FAIL() << "resume of a three-rung-ladder checkpoint was accepted";
  } catch (const CheckpointError& e) {
    EXPECT_EQ(e.kind(), CheckpointError::Kind::kWrongRun);
  }
}

// --- resume identity (the tentpole) ----------------------------------------

/// Interrupts a run after `cancelAfter` recorded attempts, resumes it from
/// the file, and demands byte-identity with an uninterrupted run.
void checkResumeIdentity(const std::string& kernelName, int maxBeamSteps,
                         int cancelAfter) {
  SCOPED_TRACE(kernelName + " cancelAfter=" + std::to_string(cancelAfter));
  const ddg::Kernel& kernel = kernelNamed(kernelName);
  const std::string path = tmpPath("resume_" + kernelName + "_" +
                                   std::to_string(cancelAfter) + ".ckpt");
  removeFileIfExists(path);

  // A: the reference — never interrupted, no checkpointing at all.
  const HcaDriver plain(paperFabric(), budgetedOptions(maxBeamSteps));
  const HcaResult uninterrupted = plain.run(kernel.ddg);

  // B: interrupted at the attempt boundary. Must not have completed.
  const HcaResult interrupted = runWithCheckpoint(
      kernel, budgetedOptions(maxBeamSteps), path, cancelAfter);
  ASSERT_FALSE(interrupted.legal)
      << "interruption came too late to exercise resume";
  ASSERT_TRUE(fileExists(path));

  // C: resumed to completion. Byte-identical to A, including every stats
  // counter — the restored attempts contribute their recorded stats and the
  // re-run ones start from an empty cache, as they did in A.
  const HcaResult resumed =
      runWithCheckpoint(kernel, budgetedOptions(maxBeamSteps), path);
  expectIdenticalRun(uninterrupted, resumed);
}

// Budgets per kernel: small enough that the primary sweep fails several
// attempts (populating the checkpoint), large enough that the run ends in a
// legal mapping via the ladder — except idcthor/40, the all-attempts-fail
// case, which checks failure-path identity.
TEST(ResumeIdentityTest, Fir2dim) {
  checkResumeIdentity("fir2dim", /*maxBeamSteps=*/40, /*cancelAfter=*/1);
  checkResumeIdentity("fir2dim", /*maxBeamSteps=*/40, /*cancelAfter=*/7);
}

TEST(ResumeIdentityTest, Fir2dimInterruptedInsideDegradedLadder) {
  // 35 primary attempts fail before the degraded-bandwidth rung starts its
  // own sweep under its own phase scope; interrupting at 38 lands inside
  // the nested ladder and exercises the scoped attempt records.
  checkResumeIdentity("fir2dim", /*maxBeamSteps=*/40, /*cancelAfter=*/38);
}

TEST(ResumeIdentityTest, Idcthor) {
  checkResumeIdentity("idcthor", /*maxBeamSteps=*/100, /*cancelAfter=*/3);
}

TEST(ResumeIdentityTest, IdcthorFullFailureRun) {
  checkResumeIdentity("idcthor", /*maxBeamSteps=*/40, /*cancelAfter=*/9);
}

TEST(ResumeIdentityTest, Mpeg2inter) {
  checkResumeIdentity("mpeg2inter", /*maxBeamSteps=*/60, /*cancelAfter=*/5);
}

TEST(ResumeIdentityTest, H264deblocking) {
  checkResumeIdentity("h264deblocking", /*maxBeamSteps=*/60,
                      /*cancelAfter=*/5);
}

TEST(ResumeIdentityTest, DoubleInterruptionThenResume) {
  // Crash, resume, crash again, resume again: the second checkpoint is a
  // superset of the first, and the final run is still byte-identical.
  const ddg::Kernel& kernel = kernelNamed("idcthor");
  const std::string path = tmpPath("double_interrupt.ckpt");
  removeFileIfExists(path);
  const HcaDriver plain(paperFabric(), budgetedOptions(100));
  const HcaResult uninterrupted = plain.run(kernel.ddg);

  ASSERT_FALSE(
      runWithCheckpoint(kernel, budgetedOptions(100), path, 2).legal);
  ASSERT_FALSE(
      runWithCheckpoint(kernel, budgetedOptions(100), path, 6).legal);
  EXPECT_GE(core::parseCheckpoint(readFile(path)).attempts.size(), 6u);
  const HcaResult resumed =
      runWithCheckpoint(kernel, budgetedOptions(100), path);
  expectIdenticalRun(uninterrupted, resumed);
}

TEST(ResumeIdentityTest, ParallelSweepResumesToSameResult) {
  // Thread count is results-invisible (and excluded from the fingerprint):
  // a serial-interrupted run resumed with a 4-thread portfolio still lands
  // on the identical mapping. Effort counters are scheduling-dependent in
  // parallel sweeps, so only the result fields are compared here.
  const ddg::Kernel& kernel = kernelNamed("idcthor");
  const std::string path = tmpPath("parallel_resume.ckpt");
  removeFileIfExists(path);
  const HcaDriver plain(paperFabric(), budgetedOptions(100));
  const HcaResult uninterrupted = plain.run(kernel.ddg);

  ASSERT_FALSE(
      runWithCheckpoint(kernel, budgetedOptions(100), path, 3).legal);
  HcaOptions parallel = budgetedOptions(100);
  parallel.numThreads = 4;
  const HcaResult resumed = runWithCheckpoint(kernel, parallel, path);
  ASSERT_EQ(uninterrupted.legal, resumed.legal);
  EXPECT_EQ(uninterrupted.stats.achievedTargetIi,
            resumed.stats.achievedTargetIi);
  EXPECT_EQ(uninterrupted.fallbackUsed, resumed.fallbackUsed);
  ASSERT_EQ(uninterrupted.assignment.size(), resumed.assignment.size());
  for (std::size_t i = 0; i < uninterrupted.assignment.size(); ++i) {
    ASSERT_EQ(uninterrupted.assignment[i], resumed.assignment[i]);
  }
  EXPECT_EQ(uninterrupted.reconfig.toString(), resumed.reconfig.toString());
}

TEST(ResumeIdentityTest, NonPrefixResumeFailsLikeItsLastAttempt) {
  // A portfolio records attempts in completion order, so a checkpoint's
  // restored attempts need not be a prefix of the sweep. Resuming one
  // serially or in parallel must end on the same failure, taken whole from
  // the last attempt in sweep order: reason, wire pressure and failure
  // site. Here that attempt is restored, so the site comes from the file.
  const ddg::Kernel& kernel = kernelNamed("fir2dim");
  for (const auto policy :
       {core::FailurePolicy::kStrict, core::FailurePolicy::kDegrade}) {
    SCOPED_TRACE(policy == core::FailurePolicy::kStrict ? "strict"
                                                        : "degrade");
    HcaOptions options;
    options.see.maxBeamSteps = 1;
    options.targetIiSlack = 0;
    options.searchProfiles = 3;
    options.failurePolicy = policy;
    const std::string path = tmpPath("non_prefix_resume.ckpt");
    removeFileIfExists(path);
    const HcaResult uninterrupted = runWithCheckpoint(kernel, options, path);
    ASSERT_FALSE(uninterrupted.legal);

    // Drop attempt 0 of the primary sweep: the resume re-runs it and
    // restores attempts 1 and 2.
    CheckpointData data = core::parseCheckpoint(readFile(path));
    const auto firstAttempt = [](const CheckpointAttempt& a) {
      return a.phase == "sweep" && a.index == 0;
    };
    ASSERT_EQ(std::count_if(data.attempts.begin(), data.attempts.end(),
                            firstAttempt),
              1);
    std::erase_if(data.attempts, firstAttempt);
    const std::string trimmed = core::serializeCheckpoint(data);

    std::vector<HcaResult> resumed;
    for (const int threads : {1, 4}) {
      atomicWriteFile(path, trimmed);
      HcaOptions resume = options;
      resume.numThreads = threads;
      resume.allowOversubscribe = true;
      resumed.push_back(runWithCheckpoint(kernel, resume, path));
    }
    const HcaResult& serial = resumed[0];
    const HcaResult& parallel = resumed[1];
    ASSERT_EQ(serial.legal, parallel.legal);
    ASSERT_FALSE(serial.legal);
    EXPECT_EQ(serial.failureReason, parallel.failureReason);
    EXPECT_EQ(serial.stats.maxWirePressure, parallel.stats.maxWirePressure);
    for (const HcaResult* r : {&serial, &parallel}) {
      EXPECT_EQ(r->failureSite.level, uninterrupted.failureSite.level);
      EXPECT_EQ(r->failureSite.path, uninterrupted.failureSite.path);
    }
    if (policy == core::FailurePolicy::kDegrade) {
      ASSERT_NE(uninterrupted.failure, nullptr);
      ASSERT_NE(serial.failure, nullptr);
      ASSERT_NE(parallel.failure, nullptr);
      EXPECT_EQ(serial.failure->toString(), parallel.failure->toString());
      EXPECT_EQ(serial.failure->toString(), uninterrupted.failure->toString());
      for (const HcaResult* r : {&uninterrupted, &serial, &parallel}) {
        EXPECT_EQ(r->failure->site.level, 0);
        EXPECT_TRUE(r->failure->site.path.empty());
      }
    }
  }
}

// --- memory budgets --------------------------------------------------------

TEST(MemoryBudgetTest, TinyArenaBudgetFailsCleanlyNotOom) {
  HcaOptions options;
  options.memoryBudgetBytes = 2048;  // 1KB arena share: trips immediately
  options.targetIiSlack = 0;
  options.searchProfiles = 1;
  const HcaDriver driver(paperFabric(), options);
  const HcaResult result = driver.run(kernelNamed("fir2dim").ddg);
  ASSERT_FALSE(result.legal);
  EXPECT_NE(result.failureReason.find("memory budget exceeded"),
            std::string::npos)
      << result.failureReason;
}

TEST(MemoryBudgetTest, AmpleBudgetIsResultInvisible) {
  HcaOptions ample;
  ample.memoryBudgetBytes = std::int64_t{1} << 30;
  const HcaDriver budgeted(paperFabric(), ample);
  const HcaDriver unbudgeted(paperFabric(), HcaOptions{});
  const ddg::Kernel& kernel = kernelNamed("fir2dim");
  expectIdenticalRun(unbudgeted.run(kernel.ddg), budgeted.run(kernel.ddg));
}

TEST(MemoryBudgetTest, CacheShedsOldestUnderByteCeiling) {
  see::SeeResult result;
  result.failureReason = std::string(256, 'x');
  const std::int64_t perEntry =
      core::SubproblemCache::entryBytes("key-000", result);
  // Room for about three entries.
  core::SubproblemCache cache(/*maxBytes=*/3 * perEntry + 16);
  for (int i = 0; i < 8; ++i) {
    char key[16];
    std::snprintf(key, sizeof key, "key-%03d", i);
    (void)cache.insert(key, result);
  }
  EXPECT_LE(cache.bytesUsed(), 3 * perEntry + 16);
  EXPECT_LT(cache.entries(), 8);
  EXPECT_EQ(cache.evictions(), 8 - cache.entries());
  // Oldest-first: the first key is gone, the last one is resident.
  EXPECT_EQ(cache.lookup("key-000"), nullptr);
  EXPECT_NE(cache.lookup("key-007"), nullptr);
}

// --- trimmed cache entries --------------------------------------------------

TEST(CacheTrimTest, CachedEntriesHoldAtMostMaxAlternatives) {
  // The driver tries at most 12 states of a frontier (kMaxAlternatives), so
  // that is all an attempt's cache keeps of a result. The root sub-problem
  // of fir2dim under the driver's 16-wide beam returns more.
  constexpr std::size_t kMaxAlternatives = 12;
  const ddg::Ddg& ddg = kernelNamed("fir2dim").ddg;
  const machine::DspFabricModel model = paperFabric();
  const machine::PatternGraph pg = model.patternGraphAt({});
  see::SeeProblem problem;
  problem.ddg = &ddg;
  for (std::int32_t v = 0; v < ddg.numNodes(); ++v) {
    if (ddg::isInstruction(ddg.node(DdgNodeId(v)).op)) {
      problem.workingSet.emplace_back(v);
    }
  }
  problem.pg = &pg;
  problem.constraints = model.constraints(0);
  problem.latency = model.config().latency;
  problem.inWiresPerCluster = model.levelSpec(0).inWires;
  problem.outWiresPerCluster = model.levelSpec(0).outWires;
  const see::SeeResult fresh =
      see::SpaceExplorationEngine(HcaOptions().see).run(problem);
  ASSERT_TRUE(fresh.legal) << fresh.failureReason;
  ASSERT_GT(fresh.frontier.size(), kMaxAlternatives);

  core::SubproblemCache cache;
  const auto stored = cache.insert("root", fresh);
  ASSERT_EQ(stored->frontier.size(), kMaxAlternatives);
  for (std::size_t i = 0; i < kMaxAlternatives; ++i) {
    EXPECT_EQ(stored->frontier[i].state().objective(),
              fresh.frontier[i].state().objective());
  }
  EXPECT_EQ(cache.lookup("root"), stored);
  EXPECT_EQ(cache.bytesUsed(),
            core::SubproblemCache::entryBytes("root", *stored));
  EXPECT_LT(cache.bytesUsed(),
            core::SubproblemCache::entryBytes("root", fresh));
}

TEST(CacheTrimTest, CacheOnAndOffAgreeForEveryMaxAlternatives) {
  // fir2dim backtracks and hits the cache hundreds of times, so the
  // alternatives loop reads trimmed cached frontiers.
  const ddg::Kernel& kernel = kernelNamed("fir2dim");
  HcaOptions uncached;
  uncached.enableSubproblemCache = false;
  const HcaResult on = HcaDriver(paperFabric(), HcaOptions{}).run(kernel.ddg);
  const HcaResult off = HcaDriver(paperFabric(), uncached).run(kernel.ddg);
  expectIdenticalRun(on, off, /*cacheCounters=*/false);
  EXPECT_GT(on.stats.cacheHits, 0);
  EXPECT_GT(on.stats.backtrackAttempts, 0);
}

// --- batch driver ----------------------------------------------------------

TEST(BatchManifestTest, ParsesFullSchema) {
  const auto jobs = core::parseManifest(R"({"jobs": [
    {"name": "a", "kernel": "fir2dim", "deadline_ms": 250,
     "max_retries": 2, "backoff_base_ms": 5, "degrade_on_last_retry": false,
     "fail_first_attempts": 1, "checkpoint": "a.ckpt",
     "memory_budget_mb": 64, "threads": 2, "target_ii_slack": 3,
     "faults": "cn:3"},
    {"name": "b", "ddg": "b.ddg"}
  ]})");
  ASSERT_EQ(jobs.size(), 2u);
  EXPECT_EQ(jobs[0].kernel, "fir2dim");
  EXPECT_EQ(jobs[0].deadlineMs, 250);
  EXPECT_EQ(jobs[0].maxRetries, 2);
  EXPECT_EQ(jobs[0].backoffBaseMs, 5);
  EXPECT_FALSE(jobs[0].degradeOnLastRetry);
  EXPECT_EQ(jobs[0].failFirstAttempts, 1);
  EXPECT_EQ(jobs[0].checkpointPath, "a.ckpt");
  EXPECT_EQ(jobs[0].memoryBudgetBytes, std::int64_t{64} * 1024 * 1024);
  EXPECT_EQ(jobs[0].threads, 2);
  EXPECT_EQ(jobs[0].targetIiSlack, 3);
  EXPECT_EQ(jobs[0].faults, "cn:3");
  EXPECT_EQ(jobs[1].ddgPath, "b.ddg");
  EXPECT_TRUE(jobs[1].degradeOnLastRetry);  // default
}

TEST(BatchManifestTest, RejectsMalformedManifests) {
  EXPECT_THROW(core::parseManifest("not json"), InvalidArgumentError);
  EXPECT_THROW(core::parseManifest("{}"), InvalidArgumentError);
  EXPECT_THROW(core::parseManifest(R"({"jobs": []})"), InvalidArgumentError);
  // missing name
  EXPECT_THROW(core::parseManifest(R"({"jobs": [{"kernel": "fir2dim"}]})"),
               InvalidArgumentError);
  // name unsafe for a report filename
  EXPECT_THROW(core::parseManifest(
                   R"({"jobs": [{"name": "../x", "kernel": "fir2dim"}]})"),
               InvalidArgumentError);
  // duplicate names
  EXPECT_THROW(
      core::parseManifest(R"({"jobs": [{"name": "a", "kernel": "fir2dim"},
                                       {"name": "a", "kernel": "idcthor"}]})"),
      InvalidArgumentError);
  // both kernel and ddg
  EXPECT_THROW(core::parseManifest(
                   R"({"jobs": [{"name": "a", "kernel": "x", "ddg": "y"}]})"),
               InvalidArgumentError);
  // neither kernel nor ddg
  EXPECT_THROW(core::parseManifest(R"({"jobs": [{"name": "a"}]})"),
               InvalidArgumentError);
  // unknown member (typo-proofing)
  EXPECT_THROW(
      core::parseManifest(
          R"({"jobs": [{"name": "a", "kernel": "x", "deadline": 5}]})"),
      InvalidArgumentError);
  // negative budget
  EXPECT_THROW(
      core::parseManifest(
          R"({"jobs": [{"name": "a", "kernel": "x", "max_retries": -1}]})"),
      InvalidArgumentError);
  // unknown root member: a misspelled second list is not silently dropped
  try {
    (void)core::parseManifest(
        R"({"jobs": [{"name": "a", "kernel": "fir2dim"}],)"
        R"( "job": [{"name": "b", "kernel": "idcthor"}]})");
    ADD_FAILURE() << "a manifest with a 'job' member parsed";
  } catch (const InvalidArgumentError& e) {
    EXPECT_NE(std::string(e.what()).find(
                  "batch manifest: unknown member 'job'"),
              std::string::npos)
        << e.what();
  }
}

TEST(BatchBackoffTest, DeterministicExponentialWithJitterAndCap) {
  const std::int64_t first = core::backoffDelayMs("job", 2, 100);
  const std::int64_t second = core::backoffDelayMs("job", 3, 100);
  EXPECT_EQ(first, core::backoffDelayMs("job", 2, 100));  // deterministic
  EXPECT_GE(first, 100);
  EXPECT_LT(first, 200);  // base + jitter in [0, base)
  EXPECT_GE(second, 200);
  EXPECT_LT(second, 300);
  // Different jobs de-synchronize.
  EXPECT_NE(core::backoffDelayMs("job-a", 2, 1000),
            core::backoffDelayMs("job-b", 2, 1000));
  // The exponential is capped at 30s (plus jitter below base).
  EXPECT_LE(core::backoffDelayMs("job", 40, 10'000), 40'000);
}

TEST(BatchDriverTest, IsolationRetriesAndSummary) {
  core::BatchJob ok;
  ok.name = "ok";
  ok.kernel = "fir2dim";
  core::BatchJob doomed;
  doomed.name = "doomed";
  doomed.kernel = "fir2dim";
  doomed.maxRetries = 2;
  doomed.failFirstAttempts = 3;  // every try fails by injection
  doomed.degradeOnLastRetry = false;
  doomed.backoffBaseMs = 1;
  core::BatchJob invalid;
  invalid.name = "invalid";
  invalid.kernel = "no-such-kernel";
  invalid.maxRetries = 5;  // must NOT be retried: invalid is permanent

  core::BatchOptions options;
  std::vector<std::int64_t> delays;
  options.sleeper = [&delays](std::int64_t ms) { delays.push_back(ms); };
  std::vector<std::string> events;
  options.observer = [&events](const core::BatchJob& job, int tryNumber,
                               const std::string& event) {
    events.push_back(job.name + "/" + std::to_string(tryNumber) + "/" +
                     event);
  };

  const core::BatchSummary summary =
      core::runBatch({ok, doomed, invalid}, options);
  EXPECT_FALSE(summary.allOk());
  EXPECT_EQ(summary.ok, 1);
  EXPECT_EQ(summary.failed, 1);
  EXPECT_EQ(summary.invalid, 1);
  EXPECT_EQ(summary.cancelled, 0);
  ASSERT_EQ(summary.jobs.size(), 3u);
  EXPECT_EQ(summary.jobs[0].status, core::BatchJobStatus::kOk);
  EXPECT_EQ(summary.jobs[0].triesUsed, 1);
  EXPECT_EQ(summary.jobs[1].status, core::BatchJobStatus::kFailed);
  EXPECT_EQ(summary.jobs[1].triesUsed, 3);
  EXPECT_EQ(summary.jobs[2].status, core::BatchJobStatus::kInvalid);
  // Backoff before tries 2 and 3, with the documented deterministic delays.
  ASSERT_EQ(delays.size(), 2u);
  EXPECT_EQ(delays[0], core::backoffDelayMs("doomed", 2, 1));
  EXPECT_EQ(delays[1], core::backoffDelayMs("doomed", 3, 1));
  // The invalid job fails on load, before any try starts.
  EXPECT_TRUE(std::find(events.begin(), events.end(), "invalid/0/invalid") !=
              events.end());
}

TEST(BatchDriverTest, DegradeOnLastRetryProducesDegradedRun) {
  core::BatchJob job;
  job.name = "recovers";
  job.kernel = "fir2dim";
  job.maxRetries = 1;
  job.failFirstAttempts = 1;  // try 1 injected-fails, try 2 runs for real
  job.backoffBaseMs = 1;
  core::BatchOptions options;
  options.sleeper = [](std::int64_t) {};
  const core::BatchSummary summary = core::runBatch({job}, options);
  ASSERT_EQ(summary.jobs.size(), 1u);
  EXPECT_EQ(summary.jobs[0].status, core::BatchJobStatus::kOk);
  EXPECT_EQ(summary.jobs[0].triesUsed, 2);
  EXPECT_TRUE(summary.jobs[0].degraded);
  EXPECT_GT(summary.jobs[0].achievedTargetIi, 0);
}

TEST(BatchDriverTest, TrippedTokenCancelsRemainingJobs) {
  core::BatchJob a;
  a.name = "a";
  a.kernel = "fir2dim";
  core::BatchJob b = a;
  b.name = "b";
  CancellationToken stop;
  stop.cancel();
  core::BatchOptions options;
  options.cancel = &stop;
  const core::BatchSummary summary = core::runBatch({a, b}, options);
  EXPECT_EQ(summary.cancelled, 2);
  for (const auto& job : summary.jobs) {
    EXPECT_EQ(job.status, core::BatchJobStatus::kCancelled);
  }
}

TEST(BatchDriverTest, WritesPerJobReportsAndSummaryJson) {
  core::BatchJob job;
  job.name = "reported";
  job.kernel = "fir2dim";
  core::BatchOptions options;
  options.reportDir = ::testing::TempDir();
  const core::BatchSummary summary = core::runBatch({job}, options);
  ASSERT_EQ(summary.ok, 1);
  const std::string report =
      readFile(options.reportDir + "/reported.report.json");
  JsonValue parsedReport;
  std::string error;
  ASSERT_TRUE(parseJson(report, &parsedReport, &error)) << error;
  const JsonValue* legal = parsedReport.find("legal");
  ASSERT_NE(legal, nullptr);
  EXPECT_TRUE(legal->boolean);

  JsonValue parsedSummary;
  ASSERT_TRUE(parseJson(core::batchSummaryJson(summary), &parsedSummary,
                        &error))
      << error;
  ASSERT_NE(parsedSummary.find("jobs"), nullptr);
  EXPECT_TRUE(parsedSummary.find("all_ok")->boolean);
}

TEST(BatchDriverTest, DdgFileJobAndCheckpointCleanup) {
  // A job can name a DDG file instead of a built-in kernel, and a job that
  // ends legal deletes its checkpoint file (nothing left to resume).
  const std::string ddgPath = tmpPath("batch_job.ddg");
  atomicWriteFile(ddgPath, ddg::toText(kernelNamed("fir2dim").ddg));
  core::BatchJob job;
  job.name = "from-file";
  job.ddgPath = ddgPath;
  job.checkpointPath = tmpPath("batch_job.ckpt");
  removeFileIfExists(job.checkpointPath);
  const core::BatchSummary summary = core::runBatch({job}, {});
  EXPECT_EQ(summary.ok, 1);
  EXPECT_FALSE(fileExists(job.checkpointPath));
}

}  // namespace
}  // namespace hca
