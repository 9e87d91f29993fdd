// Kind-confusion sweep over every JSON reader in src/.
//
// Each reader starts from a valid document the repo's own writer produced
// (a hand-written one where the repo writes none: the batch manifest and
// compile_commands.json). Every object member, at any depth, is replaced in
// turn by each of nine values of the wrong kind or out of range, and is
// deleted in turn. Every mutant must either parse or throw
// InvalidArgumentError — for the checkpoint reader, CheckpointError of kind
// kBadPayload. Nothing else may escape: no InternalError, no std:: exception
// and, under the sanitizer builds, no undefined behaviour. Values that are
// well-typed and in range but semantically wrong (a cluster id past the
// pattern graph) are outside this sweep.

#include <gtest/gtest.h>
#include <unistd.h>

#include <cinttypes>
#include <cstdio>
#include <functional>
#include <sstream>
#include <string>
#include <typeinfo>
#include <utility>
#include <vector>

#include "analysis/baseline.hpp"
#include "analysis/source_model.hpp"
#include "ddg/kernels.hpp"
#include "hca/batch.hpp"
#include "hca/checkpoint.hpp"
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

using core::CheckpointData;
using core::CheckpointError;

/// The nine replacement values, as JSON text.
const std::vector<std::string> kReplacements = {
    "\"x\"", "1.5", "1e300", "-1", "4294967296", "true", "null", "[]", "{}"};

JsonValue parsed(const std::string& text) {
  JsonValue value;
  std::string error;
  EXPECT_TRUE(parseJson(text, &value, &error)) << error << "\n" << text;
  return value;
}

void write(JsonWriter& json, const JsonValue& v) {
  switch (v.kind) {
    case JsonValue::Kind::kNull: json.null(); break;
    case JsonValue::Kind::kBool: json.value(v.boolean); break;
    case JsonValue::Kind::kNumber: json.value(v.number); break;
    case JsonValue::Kind::kString: json.value(v.string); break;
    case JsonValue::Kind::kArray:
      json.beginArray();
      for (const JsonValue& e : v.array) write(json, e);
      json.endArray();
      break;
    case JsonValue::Kind::kObject:
      json.beginObject();
      for (const auto& [key, member] : v.object) {
        json.key(key);
        write(json, member);
      }
      json.endObject();
      break;
  }
}

std::string toText(const JsonValue& v) {
  std::ostringstream os;
  JsonWriter json(os);
  write(json, v);
  return os.str();
}

/// Calls `check(label)` once per mutant of the document holding `node`:
/// the document is mutated in place for the call and restored after it.
void forEachMutant(JsonValue& node, const std::string& path,
                   const std::function<void(const std::string&)>& check) {
  for (std::size_t i = 0; i < node.array.size(); ++i) {
    forEachMutant(node.array[i], strCat(path, "[", i, "]"), check);
  }
  for (std::size_t i = 0; i < node.object.size(); ++i) {
    const std::string member = strCat(path, ".", node.object[i].first);
    forEachMutant(node.object[i].second, member, check);
    const JsonValue original = node.object[i].second;
    for (const std::string& text : kReplacements) {
      node.object[i].second = parsed(text);
      check(strCat(member, " = ", text));
    }
    node.object[i].second = original;
    std::pair<std::string, JsonValue> removed = std::move(node.object[i]);
    node.object.erase(node.object.begin() + static_cast<std::ptrdiff_t>(i));
    check(strCat("without ", member));
    node.object.insert(node.object.begin() + static_cast<std::ptrdiff_t>(i),
                       std::move(removed));
  }
}

/// Runs `read` on every mutant of `doc` (passed as the mutated document);
/// it must return or throw InvalidArgumentError.
void sweep(JsonValue doc, const std::function<void(const JsonValue&)>& read) {
  read(doc);  // the unmutated document reads cleanly
  int mutants = 0;
  int rejected = 0;
  forEachMutant(doc, "", [&](const std::string& label) {
    ++mutants;
    try {
      read(doc);
    } catch (const InvalidArgumentError&) {
      ++rejected;
    } catch (const std::exception& e) {
      ADD_FAILURE() << label << ": " << typeid(e).name() << ": " << e.what();
    }
  });
  EXPECT_GT(mutants, 0);
  EXPECT_GT(rejected, 0);
}

/// A run that leaves failed attempts behind: its checkpoint, report and
/// history line are the writer-produced documents of the sweeps below.
struct SampleRun {
  core::HcaResult result;
  CheckpointData checkpoint;
  core::ReportMeta meta;
};

const SampleRun& sampleRun() {
  static const SampleRun run = [] {
    SampleRun out;
    machine::DspFabricConfig config;
    config.n = config.m = config.k = 8;
    // ctest runs each case in its own process, so the path is per process.
    const std::string path =
        strCat(::testing::TempDir(), "fuzz_sample_", ::getpid(), ".ckpt");
    removeFileIfExists(path);
    core::CheckpointManager manager(path);
    core::HcaOptions options;
    options.see.maxBeamSteps = 40;  // early attempts fail: something to save
    options.checkpoint = &manager;
    const ddg::Kernel kernel = ddg::table1Kernels().front();
    out.result = core::HcaDriver(machine::DspFabricModel(config), options)
                     .run(kernel.ddg);
    out.checkpoint = core::parseCheckpoint(readFile(path));
    removeFileIfExists(path);
    out.meta.workload = kernel.name;
    out.meta.machine = config.toString();
    out.meta.context = RunContext::current("fuzz");
    return out;
  }();
  return run;
}

/// The sample checkpoint cut down to its first attempt.
CheckpointData smallCheckpoint() {
  CheckpointData small = sampleRun().checkpoint;
  EXPECT_FALSE(small.attempts.empty());
  small.attempts.resize(1);
  return small;
}

/// A checkpoint file around `payload`, with a header that matches it.
std::string framed(const std::string& payload) {
  char checksum[17];
  std::snprintf(checksum, sizeof(checksum), "%016" PRIx64,
                core::fnv1a64(payload));
  return strCat("HCACHK 2 ", checksum, " ", payload.size(), "\n", payload);
}

TEST(KindConfusionSweep, Checkpoint) {
  const std::string text = core::serializeCheckpoint(smallCheckpoint());
  const std::string payload = text.substr(text.find('\n') + 1);
  sweep(parsed(payload), [](const JsonValue& doc) {
    try {
      (void)core::parseCheckpoint(framed(toText(doc)));
    } catch (const CheckpointError& e) {
      EXPECT_EQ(e.kind(), CheckpointError::Kind::kBadPayload) << e.what();
      throw;
    } catch (const InvalidArgumentError& e) {
      ADD_FAILURE() << "not a CheckpointError: " << e.what();
    }
  });
}

TEST(KindConfusionSweep, BatchManifest) {
  const std::string manifest =
      R"({"jobs":[{"name":"a","kernel":"fir2dim","deadline_ms":100,)"
      R"("max_retries":1,"backoff_base_ms":5,"degrade_on_last_retry":true,)"
      R"("fail_first_attempts":0,"checkpoint":"a.ckpt",)"
      R"("memory_budget_mb":64,"threads":1,"target_ii_slack":2,)"
      R"("faults":"cn:3"},{"name":"b","ddg":"b.ddg"}]})";
  sweep(parsed(manifest), [](const JsonValue& doc) {
    (void)core::parseManifest(toText(doc));
  });
}

TEST(KindConfusionSweep, RunReport) {
  const SampleRun& run = sampleRun();
  const JsonValue report =
      parsed(core::runReportJson(run.result, nullptr, &run.meta));
  sweep(report, [&report](const JsonValue& doc) {
    (void)core::diffReports(doc, report);
  });
}

TEST(KindConfusionSweep, RunContext) {
  sweep(parsed(RunContext::current("fuzz").toJson()),
        [](const JsonValue& doc) { (void)RunContext::fromJson(doc); });
}

TEST(KindConfusionSweep, HistoryLine) {
  const SampleRun& run = sampleRun();
  sweep(parsed(historyLineJson(core::historyRecordFor(run.result, run.meta))),
        [](const JsonValue& doc) { (void)parseHistory(toText(doc)); });
}

TEST(KindConfusionSweep, ProgressLine) {
  const std::string path =
      strCat(::testing::TempDir(), "fuzz_progress_", ::getpid(), ".jsonl");
  removeFileIfExists(path);
  {
    core::ProgressLog log(path);
    core::ProgressEvent event;
    event.event = "job-state";
    event.job = "a";
    event.state = "running";
    event.tryNumber = 2;
    event.etaMs = 1500;
    log.write(event);
    event.event = "heartbeat";
    event.etaMs = -1;  // written as null
    log.write(event);
  }
  std::istringstream lines(readFile(path));
  removeFileIfExists(path);
  int read = 0;
  for (std::string line; std::getline(lines, line); ++read) {
    sweep(parsed(line), [](const JsonValue& doc) {
      (void)core::parseProgressLine(toText(doc));
    });
  }
  EXPECT_EQ(read, 2);
}

TEST(KindConfusionSweep, LintBaseline) {
  analysis::Baseline baseline;
  baseline.suppressions = {"rule-a:src/x.cpp:f", "rule-b:src/y.cpp:g"};
  sweep(parsed(analysis::formatBaseline(baseline)), [](const JsonValue& doc) {
    (void)analysis::parseBaseline(toText(doc));
  });
}

TEST(KindConfusionSweep, CompileCommands) {
  const std::string commands =
      R"([{"directory":"/src/build","command":"c++ -c ../a.cpp",)"
      R"("file":"../a.cpp","output":"a.o"},)"
      R"({"directory":"/src/build","file":"/src/b.cpp"}])";
  sweep(parsed(commands), [](const JsonValue& doc) {
    (void)analysis::parseCompileCommands(toText(doc));
  });
}

}  // namespace
}  // namespace hca
