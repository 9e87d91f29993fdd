// hcac — the HCA command-line driver.
//
// Reads a loop-body DDG (from a text file in the `ddg/serialize.hpp`
// format, or one of the built-in Table 1 kernels), clusterizes it onto a
// DSPFabric instance, and optionally schedules, simulates and emits DOT /
// reconfiguration output.
//
//   hcac --kernel idcthor --schedule --simulate
//   hcac --file loop.ddg --n 4 --m 4 --k 4 --dot-assignment out.dot
//   hcac --kernel fir2dim --emit-reconfig
//   hcac --kernel fir2dim --faults "cn:3 cn:17" --failure-policy degrade
//   hcac --kernel h264deblocking --checkpoint-out run.ckpt --resume
//   hcac --batch manifest.json --report-dir reports/
//
// Exit codes: 0 success, 1 schedule/simulation failure, 2 invalid input,
// 3 internal error, 4 no legal mapping (or jobs failed in --batch mode),
// 5 I/O failure writing an output artifact.
//
// SIGINT/SIGTERM trip the run's cancellation token: the search unwinds at
// its next poll, best-so-far artifacts (checkpoint, report, trace) are
// still written, and the process exits through the normal code paths. A
// second signal exits immediately.

#include <algorithm>
#include <cstdio>
#include <cstring>
#include <fstream>
#include <sstream>
#include <string>
#include <vector>

#include "ddg/kernels.hpp"
#include "ddg/serialize.hpp"
#include "machine/fault.hpp"
#include "verify/coherency.hpp"
#include "hca/batch.hpp"
#include "hca/checkpoint.hpp"
#include "hca/diff.hpp"
#include "hca/driver.hpp"
#include "hca/mii.hpp"
#include "hca/postprocess.hpp"
#include "hca/report.hpp"
#include "hca/visualize.hpp"
#include "sched/modulo.hpp"
#include "sched/regpressure.hpp"
#include "sim/dma.hpp"
#include "sim/simulator.hpp"
#include "support/check.hpp"
#include "support/context.hpp"
#include "support/history.hpp"
#include "support/io.hpp"
#include "support/signals.hpp"
#include "support/str.hpp"
#include "support/thread_pool.hpp"
#include "verify/verify.hpp"

using namespace hca;

namespace {

void usage() {
  std::printf(
      "usage: hcac [--kernel NAME | --file PATH] [options]\n"
      "  --kernel NAME        built-in kernel: fir2dim idcthor mpeg2inter\n"
      "                       h264deblocking\n"
      "  --file PATH          DDG in the text format of ddg/serialize.hpp\n"
      "  --n/--m/--k INT      MUX bandwidths (default 8/8/8)\n"
      "  --faults LIST        dead resources, e.g. \"cn:3 wire:2:out\"\n"
      "                       (see machine/fault.hpp for the syntax)\n"
      "  --failure-policy P   strict (default) or degrade: degrade never\n"
      "                       throws and walks the fallback ladder\n"
      "  --deadline-ms INT    wall-clock budget for the whole run (0 = off)\n"
      "  --max-beam-steps INT per-attempt SEE expansion budget (0 = off)\n"
      "  --threads INT        outer-sweep portfolio width (default 1;\n"
      "                       0 = hardware_concurrency). Clamped to the\n"
      "                       core count unless --oversubscribe is given\n"
      "  --oversubscribe      honor a --threads value above the core count\n"
      "  --verify-each        run every registered invariant check between\n"
      "                       pipeline stages and on the final result\n"
      "  --verify LIST        like --verify-each, restricted to a comma-\n"
      "                       separated check list (e.g.\n"
      "                       --verify=see-solution,ili-conservation)\n"
      "  --schedule           run the modulo scheduler after HCA\n"
      "  --simulate ITER      run the fabric simulator (built-in kernels)\n"
      "  --emit-reconfig      print the MUX reconfiguration program\n"
      "  --dot-tree PATH      write the problem tree as GraphViz DOT\n"
      "  --dot-assignment PATH  write the clusterized DDG as DOT\n"
      "  --trace-out PATH     write the run's span tree as Chrome\n"
      "                       trace_event JSON (chrome://tracing, perfetto)\n"
      "  --report-out PATH    write the structured run report as JSON\n"
      "  --stats              print the metrics registry after the run\n"
      "  --checkpoint-out PATH  crash-safe checkpoint file: the outer sweep\n"
      "                       rewrites it after every completed failed\n"
      "                       attempt (its reason, site and counters) so an\n"
      "                       interrupted run can be resumed without\n"
      "                       repeating work\n"
      "  --resume             resume from --checkpoint-out; a missing file\n"
      "                       starts fresh, a corrupt or foreign one is\n"
      "                       invalid input (exit 2). The resumed run's\n"
      "                       result and stats are byte-identical to an\n"
      "                       uninterrupted run\n"
      "  --memory-budget-mb INT  soft memory ceiling: bounds the sub-\n"
      "                       problem cache and the SEE arenas; an attempt\n"
      "                       that would blow it fails cleanly and the\n"
      "                       ladder re-plans (0 = unlimited)\n"
      "  --batch PATH         run a manifest of compile jobs with per-job\n"
      "                       isolation, deadlines and checkpoints, each\n"
      "                       job one compile under the degrade policy\n"
      "                       (see hca/batch.hpp for the JSON schema);\n"
      "                       prints a summary JSON, exit 0 only when\n"
      "                       every job produced a legal mapping\n"
      "  --report-dir DIR     batch mode: write one run report per job\n"
      "                       into DIR (atomic, best-so-far on failure)\n"
      "  --progress-out FILE  batch mode: append a JSONL progress heartbeat\n"
      "                       (job state transitions, periodic heartbeat,\n"
      "                       ETA; see hca/progress.hpp). Append-only across\n"
      "                       kill-and-resume: seq keeps increasing\n"
      "  --progress-tty       batch mode: also print a one-line progress\n"
      "                       summary per heartbeat\n"
      "  --heartbeat-ms INT   progress heartbeat period (default 1000)\n"
      "  --run-id ID          stamp ID into every report/history context\n"
      "                       block (e.g. a CI job id); never derived from\n"
      "                       the clock\n"
      "  --history-out FILE   append this run's baseline-history line\n"
      "                       (workload, machine, context, wall-clock,\n"
      "                       deterministic counters) to the JSONL FILE\n"
      "  --metrics-out FILE   write the run's metrics registry in\n"
      "                       OpenMetrics text format\n"
      "  --compare OLD NEW    diff two run reports (same workload/machine):\n"
      "                       deterministic counters compare exactly,\n"
      "                       wall-clock gates against a variance-aware\n"
      "                       threshold from --history. Exit 0 = no\n"
      "                       regression, 1 = regression, 2 = reports not\n"
      "                       comparable\n"
      "  --history FILE       compare mode: baseline history for the\n"
      "                       wall-clock threshold (mean + k*stddev)\n"
      "  --wall-sigma K       compare mode: threshold width k (default 3)\n"
      "  --diff-out FILE      compare mode: write the machine verdict JSON\n"
      "  --ignore-counters L  compare mode: comma-separated deterministic\n"
      "                       series (e.g. stats.seeOracleRejects) that\n"
      "                       never gate; differences become notes. A\n"
      "                       trailing '*' matches a prefix, e.g.\n"
      "                       metrics.see.oracle_rejects.*\n"
      "  (every VALUE flag also accepts --flag=VALUE)\n");
}

/// Integer flag parsing that reports bad values as invalid input (exit 2)
/// instead of an unhandled std::invalid_argument (exit 3).
int parseIntFlag(const std::string& flag, const std::string& text) {
  try {
    std::size_t pos = 0;
    const int value = std::stoi(text, &pos);
    HCA_REQUIRE(pos == text.size(), "trailing garbage");
    return value;
  } catch (const std::exception&) {
    throw InvalidArgumentError(
        "flag " + flag + " needs an integer, got '" + text + "'");
  }
}

/// Double flag parsing with the same exit-2 contract as parseIntFlag.
double parseDoubleFlag(const std::string& flag, const std::string& text) {
  try {
    std::size_t pos = 0;
    const double value = std::stod(text, &pos);
    HCA_REQUIRE(pos == text.size(), "trailing garbage");
    return value;
  } catch (const std::exception&) {
    throw InvalidArgumentError(
        "flag " + flag + " needs a number, got '" + text + "'");
  }
}

/// `hcac --compare OLD NEW`: diff two run reports, print the human table,
/// optionally write the machine verdict. Exit 0 = no regression, 1 =
/// regression; non-comparable reports throw (exit 2).
int runCompareTool(const std::string& oldPath, const std::string& newPath,
                   const std::string& historyPath, double wallSigma,
                   const std::string& diffOut,
                   const std::vector<std::string>& ignoreCounters) {
  HCA_REQUIRE(fileExists(oldPath),
              "report '" << oldPath << "' does not exist");
  HCA_REQUIRE(fileExists(newPath),
              "report '" << newPath << "' does not exist");
  core::DiffOptions options;
  options.wallSigma = wallSigma;
  options.ignoreCounters = ignoreCounters;
  if (!historyPath.empty()) options.history = loadHistory(historyPath);
  const core::ReportDiff diff =
      core::diffReportTexts(readFile(oldPath), readFile(newPath), options);
  std::ostringstream table;
  core::printReportDiff(table, diff);
  std::printf("%s", table.str().c_str());
  if (!diffOut.empty()) {
    atomicWriteFile(diffOut, core::reportDiffJson(diff) + "\n");
    std::printf("diff verdict written to %s\n", diffOut.c_str());
  }
  return diff.regression() ? 1 : 0;
}

/// `hcac --batch`: parse the manifest, run the jobs under the shutdown
/// token, print (and optionally write) the summary JSON.
int runBatchTool(const std::string& manifestPath, const std::string& reportDir,
                 const std::string& reportOut,
                 const core::BatchOptions& batchTemplate,
                 const core::HcaOptions& baseOptions) {
  // A missing/unreadable manifest is bad input (exit 2), not an artifact
  // write failure (exit 5).
  HCA_REQUIRE(fileExists(manifestPath),
              "batch manifest '" << manifestPath << "' does not exist");
  const auto jobs = core::parseManifest(readFile(manifestPath));
  core::BatchOptions batchOptions = batchTemplate;
  batchOptions.cancel = &shutdownToken();
  batchOptions.reportDir = reportDir;
  batchOptions.base = baseOptions;
  batchOptions.observer = [](const core::BatchJob& job,
                             const std::string& event) {
    std::printf("batch: %-20s %s\n", job.name.c_str(), event.c_str());
    std::fflush(stdout);
  };
  const core::BatchSummary summary = core::runBatch(jobs, batchOptions);
  const std::string json = core::batchSummaryJson(summary);
  std::printf("%s\n", json.c_str());
  if (!reportOut.empty()) {
    atomicWriteFile(reportOut, json + "\n");
    std::printf("batch summary written to %s\n", reportOut.c_str());
  }
  if (shutdownSignal() != 0) {
    std::fprintf(stderr, "hcac: batch interrupted by signal %d\n",
                 shutdownSignal());
  }
  return summary.allOk() ? 0 : 4;
}

int runTool(int argc, char** argv) {
  std::string kernelName;
  std::string filePath;
  int n = 8, m = 8, k = 8;
  std::string faultsText;
  std::string failurePolicy;  // "" = strict
  int deadlineMs = 0;
  int maxBeamSteps = 0;
  int numThreads = 1;
  bool oversubscribe = false;
  bool schedule = false;
  int simulateIterations = 0;
  bool emitReconfig = false;
  std::string dotTree, dotAssignment;
  std::string traceOut, reportOut;
  bool printStats = false;
  bool verifyEach = false;
  std::vector<std::string> verifyChecks;
  std::string checkpointOut;
  bool resume = false;
  int memoryBudgetMb = 0;
  std::string batchManifest;
  std::string reportDir;
  std::string progressOut;
  bool progressTty = false;
  int heartbeatMs = 1000;
  std::string runId;
  std::string historyOut;
  std::string metricsOut;
  std::string compareOld, compareNew;
  std::string historyIn;
  double wallSigma = 3.0;
  std::string diffOut;
  std::vector<std::string> ignoreCounters;

  for (int i = 1; i < argc; ++i) {
    std::string arg = argv[i];
    // Both `--flag value` and `--flag=value` are accepted.
    bool hasInline = false;
    std::string inlineValue;
    if (const std::size_t eq = arg.find('=');
        eq != std::string::npos && arg.rfind("--", 0) == 0) {
      hasInline = true;
      inlineValue = arg.substr(eq + 1);
      arg = arg.substr(0, eq);
    }
    const auto value = [&]() -> std::string {
      if (hasInline) return inlineValue;
      if (i + 1 >= argc) {
        throw InvalidArgumentError("missing value for " + arg);
      }
      return argv[++i];
    };
    if (arg == "--kernel") kernelName = value();
    else if (arg == "--file") filePath = value();
    else if (arg == "--n") n = parseIntFlag(arg, value());
    else if (arg == "--m") m = parseIntFlag(arg, value());
    else if (arg == "--k") k = parseIntFlag(arg, value());
    else if (arg == "--faults") faultsText = value();
    else if (arg == "--failure-policy") failurePolicy = value();
    else if (arg == "--deadline-ms") deadlineMs = parseIntFlag(arg, value());
    else if (arg == "--max-beam-steps")
      maxBeamSteps = parseIntFlag(arg, value());
    else if (arg == "--threads") numThreads = parseIntFlag(arg, value());
    else if (arg == "--oversubscribe") oversubscribe = true;
    else if (arg == "--verify-each") verifyEach = true;
    else if (arg == "--verify") {
      verifyEach = true;
      verifyChecks = verify::parseCheckList(value());  // bad name -> exit 2
    }
    else if (arg == "--schedule") schedule = true;
    else if (arg == "--simulate")
      simulateIterations = parseIntFlag(arg, value());
    else if (arg == "--emit-reconfig") emitReconfig = true;
    else if (arg == "--dot-tree") dotTree = value();
    else if (arg == "--dot-assignment") dotAssignment = value();
    else if (arg == "--trace-out") traceOut = value();
    else if (arg == "--report-out") reportOut = value();
    else if (arg == "--stats") printStats = true;
    else if (arg == "--checkpoint-out") checkpointOut = value();
    else if (arg == "--resume") resume = true;
    else if (arg == "--memory-budget-mb")
      memoryBudgetMb = parseIntFlag(arg, value());
    else if (arg == "--batch") batchManifest = value();
    else if (arg == "--report-dir") reportDir = value();
    else if (arg == "--progress-out") progressOut = value();
    else if (arg == "--progress-tty") progressTty = true;
    else if (arg == "--heartbeat-ms") heartbeatMs = parseIntFlag(arg, value());
    else if (arg == "--run-id") runId = value();
    else if (arg == "--history-out") historyOut = value();
    else if (arg == "--metrics-out") metricsOut = value();
    else if (arg == "--compare") {
      compareOld = value();
      if (i + 1 >= argc) {
        throw InvalidArgumentError("--compare needs two report paths");
      }
      compareNew = argv[++i];
    }
    else if (arg == "--history") historyIn = value();
    else if (arg == "--wall-sigma") wallSigma = parseDoubleFlag(arg, value());
    else if (arg == "--diff-out") diffOut = value();
    else if (arg == "--ignore-counters") {
      std::istringstream list(value());
      std::string name;
      while (std::getline(list, name, ',')) {
        if (!name.empty()) ignoreCounters.push_back(name);
      }
    }
    else {
      usage();
      return arg == "--help" || arg == "-h" ? 0 : 2;
    }
  }
  HCA_REQUIRE(failurePolicy.empty() || failurePolicy == "strict" ||
                  failurePolicy == "degrade",
              "--failure-policy must be 'strict' or 'degrade', got '"
                  << failurePolicy << "'");
  HCA_REQUIRE(!resume || !checkpointOut.empty(),
              "--resume needs --checkpoint-out (the file to resume from)");

  if (!compareOld.empty()) {
    HCA_REQUIRE(kernelName.empty() && filePath.empty() &&
                    batchManifest.empty(),
                "--compare is exclusive with --kernel/--file/--batch (it "
                "reads two existing reports)");
    return runCompareTool(compareOld, compareNew, historyIn, wallSigma,
                          diffOut, ignoreCounters);
  }

  installShutdownHandlers();

  if (!batchManifest.empty()) {
    HCA_REQUIRE(kernelName.empty() && filePath.empty(),
                "--batch is exclusive with --kernel/--file (jobs name their "
                "own inputs)");
    HCA_REQUIRE(failurePolicy.empty(),
                "--failure-policy does not apply to --batch: batch jobs "
                "always run the kDegrade ladder");
    core::HcaOptions base;
    base.see.maxBeamSteps = maxBeamSteps;
    base.verifyEach = verifyEach;
    base.verifyChecks = verifyChecks;
    core::BatchOptions batchTemplate;
    batchTemplate.progressPath = progressOut;
    batchTemplate.progressTty = progressTty;
    batchTemplate.heartbeatMs = heartbeatMs;
    batchTemplate.runId = runId;
    return runBatchTool(batchManifest, reportDir, reportOut, batchTemplate,
                        base);
  }
  if (kernelName.empty() == filePath.empty()) {
    usage();
    return 2;
  }

  // --- load the DDG -------------------------------------------------------
  ddg::Ddg ddg;
  const ddg::Kernel* kernel = nullptr;
  std::vector<ddg::Kernel> kernels;
  if (!kernelName.empty()) {
    kernels = ddg::table1Kernels();
    for (auto& candidate : kernels) {
      if (candidate.name == kernelName) kernel = &candidate;
    }
    if (kernel == nullptr) {
      std::fprintf(stderr, "unknown kernel '%s'\n", kernelName.c_str());
      return 2;
    }
    ddg = kernel->ddg;
  } else {
    std::ifstream in(filePath);
    if (!in) {
      std::fprintf(stderr, "cannot open '%s'\n", filePath.c_str());
      return 2;
    }
    std::ostringstream buffer;
    buffer << in.rdbuf();
    ddg = ddg::fromText(buffer.str());  // malformed input -> exit 2
  }
  const auto stats = ddg.stats();
  std::printf("DDG: %d instructions (%d memory ops)\n",
              stats.numInstructions, stats.numMemOps);

  // --- clusterize ----------------------------------------------------------
  machine::DspFabricConfig config;
  config.n = n;
  config.m = m;
  config.k = k;
  const machine::FaultSet faults = machine::FaultSet::parse(faultsText);
  const machine::DspFabricModel model(config, faults);
  std::printf("Machine: %s\n", config.toString().c_str());
  if (model.hasFaults()) {
    std::printf("Faults: %s (%d of %d CNs alive)\n",
                faults.toString().c_str(), model.aliveCns(),
                model.totalCns());
  }

  core::HcaOptions hcaOptions;
  if (failurePolicy == "degrade") {
    hcaOptions.failurePolicy = core::FailurePolicy::kDegrade;
  }
  hcaOptions.deadlineMs = deadlineMs;
  hcaOptions.see.maxBeamSteps = maxBeamSteps;
  hcaOptions.numThreads = numThreads;
  hcaOptions.allowOversubscribe = oversubscribe;
  hcaOptions.verifyEach = verifyEach;
  hcaOptions.verifyChecks = verifyChecks;
  hcaOptions.memoryBudgetBytes =
      static_cast<std::int64_t>(memoryBudgetMb) * 1024 * 1024;
  hcaOptions.externalCancel = &shutdownToken();
  std::unique_ptr<core::CheckpointManager> checkpoint;
  if (!checkpointOut.empty()) {
    checkpoint = std::make_unique<core::CheckpointManager>(checkpointOut);
    if (resume && checkpoint->loadForResume()) {
      // Corruption / wrong-run throws CheckpointError -> exit 2.
      std::printf("resuming from %s (%d recorded attempts)\n",
                  checkpointOut.c_str(), checkpoint->attemptsRecorded());
    }
    hcaOptions.checkpoint = checkpoint.get();
  }
  Tracer tracer(/*enabled=*/!traceOut.empty());
  if (!traceOut.empty()) hcaOptions.tracer = &tracer;
  const core::HcaDriver driver(model, hcaOptions);
  const auto result = driver.run(ddg);

  if (checkpoint != nullptr) {
    if (result.legal) {
      // A finished run has nothing to resume into.
      removeFileIfExists(checkpoint->path());
    } else {
      // Every completed failed attempt is already on disk, so `--resume`
      // (after a signal, deadline or plain failure) skips them all.
      std::printf("checkpoint written to %s (%d recorded attempts)\n",
                  checkpointOut.c_str(), checkpoint->attemptsRecorded());
    }
  }
  if (shutdownSignal() != 0) {
    std::fprintf(stderr,
                 "hcac: interrupted by signal %d — reporting best-so-far\n",
                 shutdownSignal());
  }

  // Observability artifacts are written for every *completed* run — legal
  // or not, the span tree and the metrics explain what the search did.
  // All of them go through the atomic write path: a crash mid-write never
  // leaves a truncated artifact, and an I/O failure is exit 5 (IoError).
  if (!traceOut.empty()) {
    std::ostringstream out;
    tracer.writeChromeJson(out);
    atomicWriteFile(traceOut, out.str());
    std::printf("trace written to %s (%zu spans)\n", traceOut.c_str(),
                tracer.spanCount());
  }
  core::ReportMeta meta;
  meta.workload = kernelName.empty() ? filePath : kernelName;
  meta.machine = config.toString();
  meta.threads = ThreadPool::effectiveThreads(numThreads, oversubscribe);
  meta.context = RunContext::current(runId);
  if (!reportOut.empty()) {
    atomicWriteFile(reportOut,
                    core::runReportJson(result, &model, &meta) + "\n");
    std::printf("report written to %s\n", reportOut.c_str());
  }
  if (!historyOut.empty()) {
    appendHistoryLine(historyOut,
                      historyLineJson(core::historyRecordFor(result, meta)));
    std::printf("history line appended to %s\n", historyOut.c_str());
  }
  if (!metricsOut.empty()) {
    std::ostringstream om;
    result.metrics.writeOpenMetrics(om);
    atomicWriteFile(metricsOut, om.str());
    std::printf("metrics written to %s (OpenMetrics)\n", metricsOut.c_str());
  }
  if (printStats) {
    std::ostringstream statsText;
    core::printRunStats(statsText, result);
    std::printf("%s", statsText.str().c_str());
  }

  if (!result.legal) {
    if (result.failure != nullptr) {
      std::fprintf(stderr, "hcac: no legal mapping: %s\n",
                   result.failure->toString().c_str());
      // Degrade-mode reports fold input/internal errors into the result;
      // surface them with the same exit codes the strict path uses.
      switch (result.failure->cause) {
        case core::FailureCause::kInvalidInput: return 2;
        case core::FailureCause::kInternalError: return 3;
        default: return 4;
      }
    }
    std::fprintf(stderr, "hcac: no legal mapping: %s\n",
                 result.failureReason.c_str());
    return 4;
  }
  if (!result.fallbackUsed.empty()) {
    std::printf("fallback used: %s\n", result.fallbackUsed.c_str());
  }
  const auto mii = core::computeMii(ddg, model, result);
  std::printf("legal clusterization — %s\n", mii.toString().c_str());
  const auto violations = core::checkCoherency(ddg, model, result);
  std::printf("coherency: %s\n", violations.empty() ? "clean" : "BROKEN");

  // With verification on, the driver already ran the checks between its
  // stages; this pass re-runs them per check id for a readable scoreboard,
  // now including the post-process checks against a built FinalMapping.
  if (verifyEach) {
    const auto verifyMapping = core::buildFinalMapping(ddg, model, result);
    verify::VerifyInput verifyInput;
    verifyInput.ddg = &ddg;
    verifyInput.model = &model;
    verifyInput.result = &result;
    verifyInput.mapping = &verifyMapping;
    const auto& registry = verify::CheckRegistry::builtin();
    bool broken = false;
    for (const verify::Check& check : registry.checks()) {
      if (!verifyChecks.empty() &&
          std::find(verifyChecks.begin(), verifyChecks.end(), check.id) ==
              verifyChecks.end()) {
        continue;
      }
      const auto diagnostics = registry.run(verifyInput, {check.id});
      std::printf("verify %-16s %s\n", check.id.c_str(),
                  diagnostics.empty()
                      ? "clean"
                      : strCat(diagnostics.size(), " violation(s)").c_str());
      for (const auto& diagnostic : diagnostics) {
        std::fprintf(stderr, "  %s\n", diagnostic.toString().c_str());
      }
      broken = broken || !diagnostics.empty();
    }
    if (broken) {
      std::fprintf(stderr, "hcac: invariant verification failed\n");
      return 3;
    }
  }

  if (emitReconfig) {
    std::printf("\nreconfiguration program (%zu settings):\n%s",
                result.reconfig.settings.size(),
                result.reconfig.toString().c_str());
  }
  if (!dotTree.empty()) {
    std::ofstream out(dotTree);
    core::problemTreeToDot(result, out);
    std::printf("problem tree written to %s\n", dotTree.c_str());
  }
  if (!dotAssignment.empty()) {
    std::ofstream out(dotAssignment);
    core::assignmentToDot(ddg, model, result, out);
    std::printf("assignment written to %s\n", dotAssignment.c_str());
  }

  // --- schedule / simulate -------------------------------------------------
  if (!schedule && simulateIterations == 0) return 0;
  const auto mapping = core::buildFinalMapping(ddg, model, result);
  const auto sched = sched::moduloSchedule(mapping, model, mii.finalMii);
  if (!sched.ok) {
    std::printf("scheduling failed: %s\n", sched.failureReason.c_str());
    return 1;
  }
  std::printf("modulo schedule: II=%d, length %d, %d stages\n",
              sched.schedule.ii, sched.schedule.length,
              sched.schedule.stages());
  const auto pressure =
      sched::analyzeRegisterPressure(mapping, model, sched.schedule);
  std::printf("register pressure: %s\n", pressure.toString().c_str());
  const auto dma = sim::profileDma(mapping, model, sched.schedule);
  std::printf("dma: %s (%s)\n", dma.toString().c_str(),
              dma.withinCapacity(model.config().dmaSlots)
                  ? "within capacity"
                  : "OVERRUN");

  if (simulateIterations > 0) {
    if (kernel == nullptr) {
      std::printf("--simulate needs a built-in kernel (memory layout)\n");
      return 2;
    }
    const int iterations =
        std::min(simulateIterations, kernel->safeIterations);
    sim::SimConfig simConfig;
    simConfig.iterations = iterations;
    simConfig.memory = ddg::kernelInterpConfig(*kernel, iterations).memory;
    std::string why;
    const bool match = sim::matchesReference(ddg, mapping, model,
                                             sched.schedule, simConfig,
                                             &why);
    std::printf("simulation (%d iterations): %s%s\n", iterations,
                match ? "matches reference" : "MISMATCH — ",
                match ? "" : why.c_str());
    return match ? 0 : 1;
  }
  return 0;
}

}  // namespace

int main(int argc, char** argv) {
  try {
    return runTool(argc, argv);
  } catch (const IoError& e) {
    std::fprintf(stderr, "hcac: i/o failure: %s\n", e.what());
    return 5;
  } catch (const InvalidArgumentError& e) {
    std::fprintf(stderr, "hcac: invalid input: %s\n", e.what());
    return 2;
  } catch (const Error& e) {
    std::fprintf(stderr, "hcac: internal error: %s\n", e.what());
    return 3;
  } catch (const std::exception& e) {
    std::fprintf(stderr, "hcac: internal error: %s\n", e.what());
    return 3;
  }
}
