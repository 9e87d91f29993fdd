// Cross-run observability tests (ctest label `obs`): provenance context,
// baseline history, differential run reports (hca/diff.hpp) and the batch
// progress heartbeat log — including seq continuity across kill-and-resume.

#include <gtest/gtest.h>

#include <cstdio>
#include <map>
#include <sstream>
#include <string>
#include <vector>

#include "ddg/kernels.hpp"
#include "hca/batch.hpp"
#include "hca/diff.hpp"
#include "hca/driver.hpp"
#include "hca/progress.hpp"
#include "hca/report.hpp"
#include "support/check.hpp"
#include "support/context.hpp"
#include "support/history.hpp"
#include "support/io.hpp"
#include "support/json.hpp"
#include "support/str.hpp"

namespace hca {
namespace {

std::string tmpPath(const std::string& name) {
  const std::string path = ::testing::TempDir() + name;
  removeFileIfExists(path);
  return path;
}

// --- provenance context -----------------------------------------------------

TEST(RunContextTest, JsonRoundTrips) {
  const RunContext original = RunContext::current("ci-1234");
  JsonValue doc;
  std::string error;
  ASSERT_TRUE(parseJson(original.toJson(), &doc, &error)) << error;
  const RunContext parsed = RunContext::fromJson(doc);
  EXPECT_EQ(parsed.schemaVersion, original.schemaVersion);
  EXPECT_EQ(parsed.gitSha, original.gitSha);
  EXPECT_EQ(parsed.buildType, original.buildType);
  EXPECT_EQ(parsed.ndebug, original.ndebug);
  EXPECT_EQ(parsed.hostname, original.hostname);
  EXPECT_EQ(parsed.hardwareConcurrency, original.hardwareConcurrency);
  EXPECT_EQ(parsed.runId, "ci-1234");
}

TEST(RunContextTest, CurrentIsDeterministicPerProcess) {
  // No wall-clock leaks in: two snapshots are byte-identical.
  EXPECT_EQ(RunContext::current("x").toJson(), RunContext::current("x").toJson());
}

TEST(RunContextTest, StrictParseRejectsUnknownAndMissingMembers) {
  JsonValue doc;
  std::string error;
  std::string text = RunContext::current().toJson();
  // Unknown member.
  text.insert(text.size() - 1, ",\"surprise\":1");
  ASSERT_TRUE(parseJson(text, &doc, &error)) << error;
  EXPECT_THROW((void)RunContext::fromJson(doc), InvalidArgumentError);
  // Missing member.
  JsonValue partial;
  ASSERT_TRUE(parseJson("{\"schema_version\":1}", &partial, &error)) << error;
  EXPECT_THROW((void)RunContext::fromJson(partial), InvalidArgumentError);
}

// --- baseline history -------------------------------------------------------

HistoryRecord sampleRecord(double wallUs, bool legal = true) {
  HistoryRecord record;
  record.context = RunContext::current("run-7");
  record.workload = "fir2dim";
  record.machine = "TestFabric[1]";
  record.legal = legal;
  record.wallUs = wallUs;
  record.counters = {{"outerAttempts", 2}, {"cacheHits", 409}};
  return record;
}

TEST(HistoryTest, LineRoundTripsThroughParse) {
  const HistoryRecord record = sampleRecord(1234.5);
  const auto parsed = parseHistory(historyLineJson(record) + "\n");
  ASSERT_EQ(parsed.size(), 1u);
  EXPECT_EQ(parsed[0].workload, "fir2dim");
  EXPECT_EQ(parsed[0].machine, "TestFabric[1]");
  EXPECT_TRUE(parsed[0].legal);
  EXPECT_DOUBLE_EQ(parsed[0].wallUs, 1234.5);
  EXPECT_EQ(parsed[0].counters.at("outerAttempts"), 2);
  EXPECT_EQ(parsed[0].context.runId, "run-7");
}

TEST(HistoryTest, AppendAndLoadAccumulates) {
  const std::string path = tmpPath("history_append.jsonl");
  appendHistoryLine(path, historyLineJson(sampleRecord(100.0)));
  appendHistoryLine(path, historyLineJson(sampleRecord(200.0)));
  const auto records = loadHistory(path);
  ASSERT_EQ(records.size(), 2u);
  EXPECT_DOUBLE_EQ(records[0].wallUs, 100.0);
  EXPECT_DOUBLE_EQ(records[1].wallUs, 200.0);
  removeFileIfExists(path);
}

TEST(HistoryTest, MissingFileIsEmptyHistory) {
  EXPECT_TRUE(loadHistory(tmpPath("no_such_history.jsonl")).empty());
}

TEST(HistoryTest, StrictParseNamesTheBadLine) {
  const std::string good = historyLineJson(sampleRecord(1.0));
  try {
    (void)parseHistory(good + "\n{\"not\": \"a record\"}\n");
    FAIL() << "expected InvalidArgumentError";
  } catch (const InvalidArgumentError& e) {
    EXPECT_NE(std::string(e.what()).find("line 2"), std::string::npos)
        << e.what();
  }
}

TEST(HistoryTest, BlankLinesAreTolerated) {
  const std::string good = historyLineJson(sampleRecord(1.0));
  EXPECT_EQ(parseHistory("\n" + good + "\n\n").size(), 1u);
}

TEST(HistoryTest, SeriesSelectAndExtract) {
  std::vector<HistoryRecord> records = {sampleRecord(10.0), sampleRecord(20.0),
                                        sampleRecord(999.0, /*legal=*/false)};
  records.push_back(sampleRecord(30.0));
  records.back().workload = "idcthor";

  EXPECT_EQ(selectHistory(records, "fir2dim").size(), 3u);
  EXPECT_EQ(selectHistory(records, "fir2dim", "OtherFabric").size(), 0u);
  // wallSeries keeps only legal runs (failed ones are deadline-bound).
  const auto wall = wallSeries(records, "fir2dim", "TestFabric[1]");
  ASSERT_EQ(wall.size(), 2u);
  EXPECT_DOUBLE_EQ(wall[0], 10.0);
  EXPECT_DOUBLE_EQ(wall[1], 20.0);
  const auto hits = counterSeries(records, "fir2dim", "cacheHits");
  EXPECT_EQ(hits.size(), 3u);
  EXPECT_TRUE(counterSeries(records, "fir2dim", "absent").empty());
}

// --- differential reports ---------------------------------------------------

/// A minimal synthetic run report with the full meta block — every value
/// under test control (real-driver reports are exercised separately below).
std::string syntheticReport(const std::string& workload, double wallUs,
                            std::int64_t outerAttempts,
                            bool includeExtraCounter = false) {
  std::ostringstream os;
  os << "{\"workload\":\"" << workload << "\","
     << "\"machine\":\"TestFabric[1]\",\"threads\":1,"
     << "\"context\":" << RunContext::current().toJson() << ","
     << "\"legal\":true,\"fallbackUsed\":\"\","
     << "\"stats\":{\"outerAttempts\":" << outerAttempts
     << ",\"cacheHits\":409,\"attemptsCancelled\":7},"
     << "\"metrics\":{\"counters\":{\"see.expansions.L1\":100,"
     << "\"pool.tasks\":55,\"mapper.wall_shim\":1"
     << (includeExtraCounter ? ",\"ladder.rung.flat\":1" : "") << "},"
     << "\"histograms\":{\"attempt.wall_us\":{\"count\":2,\"sum\":" << wallUs
     << "}}}}";
  return os.str();
}

TEST(DiffTest, IdenticalSyntheticReportsAreClean) {
  const std::string report = syntheticReport("fir2dim", 1000.0, 2);
  const core::ReportDiff diff = core::diffReportTexts(report, report);
  EXPECT_FALSE(diff.regression());
  // stats.outerAttempts, stats.cacheHits, metrics.see.expansions.L1 — the
  // pool counter, the wall-named counter and attemptsCancelled stay out of
  // the exact-compare set.
  EXPECT_EQ(diff.seriesCompared, 3);
  EXPECT_FALSE(diff.hasWallThreshold);
}

TEST(DiffTest, NonDeterministicRunCountersStayOutOfTheExactSet) {
  // The counter table, not a name list, decides: every RUN row marked
  // non-deterministic may differ between two reports without a mismatch.
  const std::string base = syntheticReport("fir2dim", 1000.0, 2);
  const std::string cancelled = "\"attemptsCancelled\":7";
  ASSERT_NE(base.find(cancelled), std::string::npos);
  int rows = 0;
  core::forEachRunCounter([&](const core::RunCounter& c) {
    if (c.deterministic) return;
    ++rows;
    const auto withValue = [&](int value) {
      std::string report = base;
      report.replace(report.find(cancelled), cancelled.size(),
                     strCat("\"", c.key, "\":", value));
      return report;
    };
    const core::ReportDiff diff =
        core::diffReportTexts(withValue(1), withValue(2));
    EXPECT_FALSE(diff.regression()) << c.key;
    EXPECT_TRUE(diff.mismatches.empty()) << c.key;
    EXPECT_EQ(diff.seriesCompared, 3) << c.key;
  });
  EXPECT_GT(rows, 0);
}

TEST(DiffTest, PerturbedCounterNamesTheRegressedSeries) {
  const core::ReportDiff diff =
      core::diffReportTexts(syntheticReport("fir2dim", 1000.0, 2),
                            syntheticReport("fir2dim", 1000.0, 9));
  ASSERT_TRUE(diff.regression());
  ASSERT_EQ(diff.mismatches.size(), 1u);
  EXPECT_EQ(diff.mismatches[0].series, "stats.outerAttempts");
  EXPECT_DOUBLE_EQ(diff.mismatches[0].oldValue, 2.0);
  EXPECT_DOUBLE_EQ(diff.mismatches[0].newValue, 9.0);
  // The verdict JSON carries the same series name for CI logs.
  EXPECT_NE(core::reportDiffJson(diff).find("stats.outerAttempts"),
            std::string::npos);
}

TEST(DiffTest, SeriesAbsentFromOneSideIsAMismatch) {
  const core::ReportDiff diff = core::diffReportTexts(
      syntheticReport("fir2dim", 1000.0, 2),
      syntheticReport("fir2dim", 1000.0, 2, /*includeExtraCounter=*/true));
  ASSERT_EQ(diff.mismatches.size(), 1u);
  EXPECT_EQ(diff.mismatches[0].series, "metrics.ladder.rung.flat");
  EXPECT_EQ(diff.mismatches[0].note, "absent from old report");
}

TEST(DiffTest, WorkloadMismatchIsInvalidInputNotARegression) {
  EXPECT_THROW((void)core::diffReportTexts(
                   syntheticReport("fir2dim", 1000.0, 2),
                   syntheticReport("idcthor", 1000.0, 2)),
               InvalidArgumentError);
}

TEST(DiffTest, MissingMetaBlockIsInvalidInput) {
  EXPECT_THROW(
      (void)core::diffReportTexts("{\"legal\":true}",
                                  syntheticReport("fir2dim", 1000.0, 2)),
      InvalidArgumentError);
}

TEST(DiffTest, WallGateArmsOnlyWithEnoughHistory) {
  core::DiffOptions options;
  options.wallSigma = 3.0;
  // 5 legal baseline runs around 1000us (stddev ~ 15.8).
  for (const double w : {980.0, 990.0, 1000.0, 1010.0, 1020.0}) {
    HistoryRecord record = sampleRecord(w);
    record.machine = "TestFabric[1]";
    options.history.push_back(record);
  }
  // A wall-clock blowup with identical counters: gated.
  core::ReportDiff slow =
      core::diffReportTexts(syntheticReport("fir2dim", 1000.0, 2),
                            syntheticReport("fir2dim", 5000.0, 2), options);
  EXPECT_TRUE(slow.hasWallThreshold);
  EXPECT_EQ(slow.historyRuns, 5);
  EXPECT_TRUE(slow.wall.regressed);
  EXPECT_TRUE(slow.regression());

  // Within threshold: clean.
  core::ReportDiff ok =
      core::diffReportTexts(syntheticReport("fir2dim", 1000.0, 2),
                            syntheticReport("fir2dim", 1005.0, 2), options);
  EXPECT_FALSE(ok.wall.regressed);
  EXPECT_FALSE(ok.regression());

  // Too little history: the same blowup is informational only.
  options.history.resize(2);
  core::ReportDiff unarmed =
      core::diffReportTexts(syntheticReport("fir2dim", 1000.0, 2),
                            syntheticReport("fir2dim", 5000.0, 2), options);
  EXPECT_FALSE(unarmed.hasWallThreshold);
  EXPECT_FALSE(unarmed.regression());
}

TEST(DiffTest, RealDriverReportsSelfCompareClean) {
  // End-to-end: two runs of the same deterministic search produce reports
  // that diff clean, and the history record extracted from them matches the
  // report's own counters.
  const auto kernels = ddg::table1Kernels();
  const ddg::Kernel* fir2dim = nullptr;
  for (const auto& kernel : kernels) {
    if (kernel.name == "fir2dim") fir2dim = &kernel;
  }
  ASSERT_NE(fir2dim, nullptr);
  machine::DspFabricConfig config;
  config.n = config.m = config.k = 8;  // the paper's best configuration
  const machine::DspFabricModel model(config);
  const core::HcaDriver driver(model);

  core::ReportMeta meta;
  meta.workload = "fir2dim";
  meta.machine = model.config().toString();
  meta.context = RunContext::current();

  const core::HcaResult a = driver.run(fir2dim->ddg);
  const core::HcaResult b = driver.run(fir2dim->ddg);
  const core::ReportDiff diff =
      core::diffReportTexts(core::runReportJson(a, &model, &meta),
                            core::runReportJson(b, &model, &meta));
  EXPECT_FALSE(diff.regression()) << core::reportDiffJson(diff);
  EXPECT_GT(diff.seriesCompared, 10);

  const HistoryRecord record = core::historyRecordFor(a, meta);
  EXPECT_EQ(record.counters.at("outerAttempts"),
            static_cast<std::int64_t>(a.stats.outerAttempts));
  EXPECT_EQ(record.counters.count("attemptsCancelled"), 0u);
  EXPECT_DOUBLE_EQ(record.wallUs, core::runWallUs(a));
}

// --- progress heartbeat log -------------------------------------------------

core::ProgressEvent heartbeatEvent(int jobsDone) {
  core::ProgressEvent event;
  event.event = "heartbeat";
  event.job = "j";
  event.phase = "compiling";
  event.jobsTotal = 3;
  event.jobsDone = jobsDone;
  event.elapsedMs = 50;
  return event;
}

std::vector<core::ProgressLine> readProgressLog(const std::string& path) {
  std::istringstream in(readFile(path));
  std::vector<core::ProgressLine> lines;
  std::string line;
  while (std::getline(in, line)) {
    if (!line.empty()) lines.push_back(core::parseProgressLine(line));
  }
  return lines;
}

TEST(ProgressLogTest, WriteParseRoundTripsAndSeqIncreases) {
  const std::string path = tmpPath("progress_roundtrip.jsonl");
  {
    core::ProgressLog log(path);
    EXPECT_FALSE(log.resumedLog());
    log.write(heartbeatEvent(0));
    log.write(heartbeatEvent(1));
  }
  const auto lines = readProgressLog(path);
  ASSERT_EQ(lines.size(), 2u);
  EXPECT_EQ(lines[0].seq, 0);
  EXPECT_EQ(lines[1].seq, 1);
  EXPECT_EQ(lines[1].event, "heartbeat");
  EXPECT_EQ(lines[1].jobsDone, 1);
  EXPECT_EQ(lines[1].etaMs, -1);  // serialized as null
  removeFileIfExists(path);
}

TEST(ProgressLogTest, SeqContinuesAcrossReopen) {
  const std::string path = tmpPath("progress_reopen.jsonl");
  {
    core::ProgressLog log(path);
    log.write(heartbeatEvent(0));
    log.write(heartbeatEvent(1));
  }
  {
    core::ProgressLog log(path);
    EXPECT_TRUE(log.resumedLog());
    log.write(heartbeatEvent(2));
  }
  const auto lines = readProgressLog(path);
  ASSERT_EQ(lines.size(), 3u);
  EXPECT_EQ(lines[2].seq, 2);
  removeFileIfExists(path);
}

TEST(ProgressLogTest, TornTailIsToleratedCorruptTailIsNot) {
  const std::string path = tmpPath("progress_torn.jsonl");
  {
    core::ProgressLog log(path);
    log.write(heartbeatEvent(0));
  }
  // A kill mid-write leaves a half line (no trailing newline): tolerated,
  // appends continue after it on a fresh line's worth of seq.
  {
    std::FILE* f = std::fopen(path.c_str(), "ab");
    ASSERT_NE(f, nullptr);
    std::fputs("{\"schema_version\":1,\"seq\":9,\"ev", f);
    std::fclose(f);
  }
  {
    core::ProgressLog log(path);
    log.write(heartbeatEvent(1));
  }
  // A corrupt *complete* line means the file is not ours: refuse.
  {
    std::FILE* f = std::fopen(path.c_str(), "ab");
    ASSERT_NE(f, nullptr);
    std::fputs("\nnot json at all\n", f);
    std::fclose(f);
  }
  EXPECT_THROW(core::ProgressLog bad(path), InvalidArgumentError);
  removeFileIfExists(path);
}

TEST(ProgressLogTest, ParseIsStrict) {
  EXPECT_THROW((void)core::parseProgressLine("{"), InvalidArgumentError);
  EXPECT_THROW((void)core::parseProgressLine("{\"seq\":1}"),
               InvalidArgumentError);
  EXPECT_THROW((void)core::parseProgressLine(
                   "{\"schema_version\":99,\"seq\":1,\"event\":\"heartbeat\"}"),
               InvalidArgumentError);
  EXPECT_THROW(
      (void)core::parseProgressLine(
          "{\"schema_version\":1,\"seq\":1,\"event\":\"party\"}"),
      InvalidArgumentError);
}

// --- batch integration: monotonic job-state order across kill-and-resume ----

/// Asserts the invariants an external monitor relies on: strictly
/// increasing seq across the whole file, done-counters non-decreasing
/// within one batch run (they are per-process and restart at batch-start).
void checkProgressInvariants(const std::vector<core::ProgressLine>& lines) {
  std::int64_t lastSeq = -1;
  int lastDone = 0;
  for (const auto& line : lines) {
    EXPECT_GT(line.seq, lastSeq);
    lastSeq = line.seq;
    if (line.event == "batch-start") lastDone = 0;
    EXPECT_GE(line.jobsDone, lastDone) << "seq " << line.seq;
    lastDone = line.jobsDone;
    EXPECT_LE(line.jobsDone, line.jobsTotal);
    EXPECT_LE(line.jobsOk + line.jobsFailed, line.jobsDone);
  }
}

TEST(ProgressBatchTest, TwoBatchRunsAppendOneHonestLog) {
  const std::string path = tmpPath("progress_batch.jsonl");
  // Jobs that terminate without a compile: invalid input (missing DDG
  // file) exercises the full start -> done pipeline in milliseconds.
  std::vector<core::BatchJob> jobs;
  for (const char* name : {"a", "b"}) {
    core::BatchJob job;
    job.name = name;
    job.ddgPath = tmpPath("no_such_kernel.ddg");
    jobs.push_back(job);
  }
  core::BatchOptions options;
  options.progressPath = path;
  options.heartbeatMs = 10'000;  // no heartbeat noise in this test

  const core::BatchSummary first = core::runBatch(jobs, options);
  EXPECT_EQ(first.invalid, 2);
  const std::size_t firstLines = readProgressLog(path).size();

  // "Resume": a second batch process appends to the same log.
  const core::BatchSummary second = core::runBatch(jobs, options);
  EXPECT_EQ(second.invalid, 2);

  const auto lines = readProgressLog(path);
  ASSERT_GT(lines.size(), firstLines);
  checkProgressInvariants(lines);

  // Both runs open with batch-start; the second knows it resumed the log.
  ASSERT_EQ(lines[0].event, "batch-start");
  EXPECT_FALSE(lines[0].resumed);
  EXPECT_EQ(lines[firstLines].event, "batch-start");
  EXPECT_TRUE(lines[firstLines].resumed);

  // One terminal "done" line per job per run, outcome recorded.
  int doneLines = 0;
  for (const auto& line : lines) {
    if (line.event == "job-state" && line.state == "done") {
      ++doneLines;
      EXPECT_EQ(line.outcome, "invalid");
    }
  }
  EXPECT_EQ(doneLines, 4);
  EXPECT_EQ(lines.back().event, "batch-end");
  removeFileIfExists(path);
}

// --- strict reads: ill-typed values are rejected, not coerced ---------------

/// `text` (a JSON object) with the scalar member `name` set to the JSON
/// text `value`.
std::string withMember(std::string text, const std::string& name,
                       const std::string& value) {
  const std::string key = "\"" + name + "\":";
  const std::size_t at = text.find(key);
  EXPECT_NE(at, std::string::npos) << name << " not in " << text;
  const std::size_t begin = at + key.size();
  const std::size_t end = text.find_first_of(",}", begin);
  return text.replace(begin, end - begin, value);
}

/// Expects `read` to throw InvalidArgumentError naming `member`.
template <class Read>
void expectRejects(Read read, const std::string& member) {
  try {
    read();
    ADD_FAILURE() << "ill-typed '" << member << "' was accepted";
  } catch (const InvalidArgumentError& e) {
    EXPECT_NE(std::string(e.what()).find("'" + member + "'"),
              std::string::npos)
        << e.what();
  }
}

TEST(StrictReadTest, ProgressLineIllTypedMembers) {
  const std::string good =
      strCat("{\"schema_version\":", RunContext::kSchemaVersion,
             ",\"seq\":1,\"event\":\"heartbeat\",\"job\":\"j\",\"try\":1}");
  ASSERT_NO_THROW((void)core::parseProgressLine(good));
  for (const auto& [member, value] :
       std::vector<std::pair<std::string, std::string>>{
           {"try", "1e300"},
           {"schema_version", "4294967297"},
           {"seq", "1.5"},
           {"job", "5"}}) {
    const std::string bad = withMember(good, member, value);
    expectRejects([&bad] { (void)core::parseProgressLine(bad); }, member);
  }
}

TEST(StrictReadTest, ContextHardwareConcurrencyOutOfIntRange) {
  JsonValue doc;
  ASSERT_TRUE(parseJson(withMember(RunContext::current().toJson(),
                                   "hardware_concurrency", "1e300"),
                        &doc));
  expectRejects([&doc] { (void)RunContext::fromJson(doc); },
                "hardware_concurrency");
}

TEST(StrictReadTest, HistoryCounterOutOfRange) {
  const std::string line =
      withMember(historyLineJson(sampleRecord(1.0)), "outerAttempts", "1e300");
  expectRejects([&line] { (void)parseHistory(line); }, "outerAttempts");
}

TEST(StrictReadTest, ComparedReportIllTypedIdentity) {
  const std::string good = syntheticReport("fir2dim", 1000.0, 2);
  for (const auto& [member, value] :
       std::vector<std::pair<std::string, std::string>>{
           {"threads", "1e300"}, {"workload", "5"}, {"legal", "\"yes\""}}) {
    const std::string bad = withMember(good, member, value);
    expectRejects([&] { (void)core::diffReportTexts(bad, good); }, member);
  }
}

}  // namespace
}  // namespace hca
