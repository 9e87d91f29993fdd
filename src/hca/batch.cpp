#include "hca/batch.hpp"

#include <algorithm>
#include <chrono>
#include <cstdio>
#include <exception>
#include <memory>
#include <optional>
#include <set>
#include <sstream>
#include <thread>

#include "ddg/kernels.hpp"
#include "ddg/serialize.hpp"
#include "hca/checkpoint.hpp"
#include "hca/progress.hpp"
#include "hca/report.hpp"
#include "machine/fault.hpp"
#include "support/check.hpp"
#include "support/io.hpp"
#include "support/json.hpp"
#include "support/mutex.hpp"
#include "support/str.hpp"
#include "support/trace.hpp"

namespace hca::core {

namespace {

bool safeName(const std::string& name) {
  if (name.empty()) return false;
  for (const char c : name) {
    const bool ok = (c >= 'a' && c <= 'z') || (c >= 'A' && c <= 'Z') ||
                    (c >= '0' && c <= '9') || c == '.' || c == '_' || c == '-';
    if (!ok) return false;
  }
  return true;
}

/// A job's inputs. Anything wrong with them is bad input (kInvalid).
struct JobInputs {
  ddg::Ddg ddg;
  std::unique_ptr<machine::DspFabricModel> model;
  std::unique_ptr<CheckpointManager> checkpoint;
};

/// Loads the job's DDG, fabric and checkpoint; throws on bad input.
JobInputs loadInputs(const BatchJob& job) {
  JobInputs in;
  if (!job.kernel.empty()) {
    const std::vector<ddg::Kernel> kernels = ddg::table1Kernels();
    const auto it = std::find_if(
        kernels.begin(), kernels.end(),
        [&](const ddg::Kernel& k) { return k.name == job.kernel; });
    HCA_REQUIRE(it != kernels.end(),
                "unknown built-in kernel '" << job.kernel << "'");
    in.ddg = it->ddg;
  } else {
    in.ddg = ddg::fromText(readFile(job.ddgPath));
  }
  machine::DspFabricConfig config;
  machine::FaultSet faults;
  if (!job.faults.empty()) faults = machine::FaultSet::parse(job.faults);
  in.model = std::make_unique<machine::DspFabricModel>(config, faults);
  if (!job.checkpointPath.empty()) {
    in.checkpoint = std::make_unique<CheckpointManager>(job.checkpointPath);
    in.checkpoint->loadForResume();  // fresh start when the file is absent
  }
  return in;
}

/// Runs the job's one compile under kDegrade and folds its outcome into
/// `jr`. Returns the driver's result when it produced one (the per-job
/// report is written from it).
std::optional<HcaResult> compileJob(const BatchJob& job, const ddg::Ddg& ddg,
                                    const machine::DspFabricModel& model,
                                    CheckpointManager* checkpoint,
                                    const BatchOptions& batch,
                                    BatchJobResult& jr) {
  HcaOptions options = batch.base;
  options.failurePolicy = FailurePolicy::kDegrade;
  options.deadlineMs = job.deadlineMs;
  options.numThreads = job.threads;
  options.targetIiSlack = job.targetIiSlack;
  options.memoryBudgetBytes = job.memoryBudgetBytes;
  options.externalCancel = batch.cancel;
  options.checkpoint = checkpoint;
  std::optional<HcaResult> result;
  try {
    result = HcaDriver(model, options).run(ddg);
  } catch (const std::exception& e) {
    // kDegrade reports every search error in its result; what still
    // escapes (an allocation failure) must not take the batch down.
    jr.status = BatchJobStatus::kFailed;
    jr.failureReason = e.what();
    return result;
  }
  if (result->legal) {
    jr.status = BatchJobStatus::kOk;
    jr.fallbackUsed = result->fallbackUsed;
    jr.achievedTargetIi = result->stats.achievedTargetIi;
  } else if (result->failure != nullptr &&
             result->failure->cause == FailureCause::kInvalidInput) {
    // kDegrade folds invalid input into a structured report, not a throw.
    jr.status = BatchJobStatus::kInvalid;
    jr.failureReason = result->failureReason;
  } else {
    const bool cancelled =
        batch.cancel != nullptr && batch.cancel->cancelled();
    jr.status =
        cancelled ? BatchJobStatus::kCancelled : BatchJobStatus::kFailed;
    jr.failureReason = result->failureReason.empty()
                           ? "no legal mapping"
                           : result->failureReason;
  }
  return result;
}

void notify(const BatchOptions& batch, const BatchJob& job,
            const char* event) {
  if (batch.observer) batch.observer(job, event);
}

/// Live progress for one runBatch invocation: owns the heartbeat JSONL log
/// (when configured), the cumulative counters the heartbeat reports, and
/// the periodic heartbeat/TTY thread. All public methods are no-ops when
/// neither --progress-out nor the TTY summary is enabled, so the plain
/// batch path stays allocation- and thread-free.
class ProgressTracker {
 public:
  ProgressTracker(const BatchOptions& options, int jobsTotal)
      : options_(options),
        jobsTotal_(jobsTotal),
        started_(monotonicNow()) {
    if (!options.progressPath.empty()) {
      log_ = std::make_unique<ProgressLog>(options.progressPath);
    }
    if (!enabled()) return;
    ProgressEvent event;
    {
      MutexLock lock(mu_);
      event = baseLocked();
    }
    event.event = "batch-start";
    event.resumed = log_ != nullptr && log_->resumedLog();
    emit(event, /*tty=*/false);
    heartbeat_ = std::thread([this] { heartbeatLoop(); });
  }

  ~ProgressTracker() { stop(); }

  ProgressTracker(const ProgressTracker&) = delete;
  ProgressTracker& operator=(const ProgressTracker&) = delete;

  [[nodiscard]] bool enabled() const {
    return log_ != nullptr || options_.progressTty;
  }

  /// Emits the batch-end marker and joins the heartbeat thread.
  void stop() {
    {
      MutexLock lock(mu_);
      if (stopped_) return;
      stopped_ = true;
    }
    cv_.notify_all();
    if (heartbeat_.joinable()) heartbeat_.join();
    if (!enabled()) return;
    ProgressEvent event;
    {
      MutexLock lock(mu_);
      event = baseLocked();
    }
    event.event = "batch-end";
    emit(event, options_.progressTty);
  }

  /// The job's compile starts: it becomes the heartbeat's current job.
  void jobStart(const BatchJob& job) {
    if (!enabled()) return;
    ProgressEvent event;
    {
      MutexLock lock(mu_);
      currentJob_ = job.name;
      phase_ = "compiling";
      event = baseLocked();
    }
    event.event = "job-state";
    event.state = "start";
    emit(event, /*tty=*/false);
  }

  /// Terminal transition: folds the job into the cumulative counters (and
  /// the completed-duration pool the ETA is computed from) and emits the
  /// "done" line.
  void jobDone(const BatchJob& job, BatchJobStatus status,
               std::int64_t wallMs) {
    if (!enabled()) return;
    ProgressEvent event;
    {
      MutexLock lock(mu_);
      ++jobsDone_;
      if (status == BatchJobStatus::kOk) ++jobsOk_;
      if (status == BatchJobStatus::kFailed ||
          status == BatchJobStatus::kInvalid) {
        ++jobsFailed_;
      }
      completedWallMs_ += wallMs;
      currentJob_.clear();
      phase_ = "idle";
      event = baseLocked();
    }
    event.event = "job-state";
    event.job = job.name;
    event.state = "done";
    event.outcome = to_string(status);
    emit(event, /*tty=*/false);
  }

 private:
  /// Common fields of the next line, from the counters. Caller holds mu_.
  ProgressEvent baseLocked() HCA_REQUIRES(mu_) {
    ProgressEvent event;
    event.job = currentJob_;
    event.phase = phase_;
    event.jobsTotal = jobsTotal_;
    event.jobsDone = jobsDone_;
    event.jobsOk = jobsOk_;
    event.jobsFailed = jobsFailed_;
    event.elapsedMs = microsBetween(started_, monotonicNow()) / 1000;
    // ETA: mean completed-job duration times the jobs still to run. Honest
    // about what it is — an extrapolation that only exists once at least
    // one job finished in *this* process.
    if (jobsDone_ > 0 && jobsDone_ < jobsTotal_) {
      event.etaMs = completedWallMs_ / jobsDone_ *
                    (jobsTotal_ - jobsDone_);
    }
    return event;
  }

  void emit(const ProgressEvent& event, bool tty) {
    if (log_ != nullptr) log_->write(event);
    if (!tty) return;
    char eta[32];
    if (event.etaMs >= 0) {
      std::snprintf(eta, sizeof(eta), "%.1fs",
                    static_cast<double>(event.etaMs) / 1000.0);
    } else {
      std::snprintf(eta, sizeof(eta), "?");
    }
    std::printf("batch progress: [%d/%d] ok=%d failed=%d%s%s%s%s "
                "elapsed=%.1fs eta=%s\n",
                event.jobsDone, event.jobsTotal, event.jobsOk,
                event.jobsFailed, event.job.empty() ? "" : " job=",
                event.job.c_str(), event.phase.empty() ? "" : " ",
                event.phase.c_str(),
                static_cast<double>(event.elapsedMs) / 1000.0, eta);
    std::fflush(stdout);
  }

  void heartbeatLoop() {
    MutexLock lock(mu_);
    while (!stopped_) {
      cv_.wait_for(lock,
                   std::chrono::milliseconds(std::max(1, options_.heartbeatMs)));
      if (stopped_) break;
      ProgressEvent event = baseLocked();
      event.event = "heartbeat";
      // ProgressLog has its own lock and never calls back into the
      // tracker, so emitting under mu_ cannot deadlock.
      emit(event, options_.progressTty);
    }
  }

  const BatchOptions& options_;
  const int jobsTotal_;
  const MonotonicTime started_;
  std::unique_ptr<ProgressLog> log_;
  Mutex mu_;
  CondVar cv_;
  bool stopped_ HCA_GUARDED_BY(mu_) = false;
  int jobsDone_ HCA_GUARDED_BY(mu_) = 0;
  int jobsOk_ HCA_GUARDED_BY(mu_) = 0;
  int jobsFailed_ HCA_GUARDED_BY(mu_) = 0;
  std::int64_t completedWallMs_ HCA_GUARDED_BY(mu_) = 0;
  std::string currentJob_ HCA_GUARDED_BY(mu_);
  std::string phase_ HCA_GUARDED_BY(mu_);
  std::thread heartbeat_;
};

}  // namespace

const char* to_string(BatchJobStatus status) {
  switch (status) {
    case BatchJobStatus::kOk: return "ok";
    case BatchJobStatus::kFailed: return "failed";
    case BatchJobStatus::kInvalid: return "invalid";
    case BatchJobStatus::kCancelled: return "cancelled";
  }
  return "unknown";
}

std::vector<BatchJob> parseManifest(const std::string& text) {
  const JsonReader reader("batch manifest");
  const JsonValue doc = reader.parse(text);
  const JsonField root = reader.root(doc);
  root.closed({"jobs"});
  const JsonField jobs = root.member("jobs");
  HCA_REQUIRE(!jobs.array().empty(), "batch manifest: 'jobs' is empty");

  std::set<std::string> names;
  return jobs.elements([&names](const JsonField& j) {
    j.closed({"name", "kernel", "ddg", "deadline_ms", "checkpoint",
              "memory_budget_mb", "threads", "target_ii_slack", "faults"});
    BatchJob job;
    if (const auto f = j.find("name")) job.name = f->string();
    if (const auto f = j.find("kernel")) job.kernel = f->string();
    if (const auto f = j.find("ddg")) job.ddgPath = f->string();
    if (const auto f = j.find("deadline_ms")) job.deadlineMs = f->int32();
    if (const auto f = j.find("checkpoint")) job.checkpointPath = f->string();
    if (const auto f = j.find("memory_budget_mb")) {
      job.memoryBudgetBytes = std::int64_t{f->int32()} * 1024 * 1024;
    }
    if (const auto f = j.find("threads")) job.threads = f->int32();
    if (const auto f = j.find("target_ii_slack")) {
      job.targetIiSlack = f->int32();
    }
    if (const auto f = j.find("faults")) job.faults = f->string();
    HCA_REQUIRE(safeName(job.name),
                "batch manifest: job name '"
                    << job.name
                    << "' must be non-empty [A-Za-z0-9._-] (it names report "
                       "files)");
    HCA_REQUIRE(names.insert(job.name).second,
                "batch manifest: duplicate job name '" << job.name << "'");
    HCA_REQUIRE(job.kernel.empty() != job.ddgPath.empty(),
                "batch manifest: job '" << job.name
                                        << "' needs exactly one of 'kernel' "
                                           "or 'ddg'");
    HCA_REQUIRE(job.deadlineMs >= 0,
                "batch manifest: job '" << job.name
                                        << "' has a negative deadline_ms");
    return job;
  });
}

BatchSummary runBatch(const std::vector<BatchJob>& jobs,
                      const BatchOptions& options) {
  BatchSummary summary;
  ProgressTracker progress(options, static_cast<int>(jobs.size()));
  for (const BatchJob& job : jobs) {
    BatchJobResult jr;
    jr.name = job.name;
    const auto started = monotonicNow();
    std::optional<JobInputs> inputs;
    std::optional<HcaResult> result;
    if (options.cancel != nullptr && options.cancel->cancelled()) {
      jr.status = BatchJobStatus::kCancelled;
      jr.failureReason = "batch shutdown before the job started";
    } else {
      try {
        inputs.emplace(loadInputs(job));
      } catch (const std::exception& e) {
        jr.status = BatchJobStatus::kInvalid;
        jr.failureReason = e.what();
      }
    }
    if (inputs.has_value()) {
      notify(options, job, "start");
      progress.jobStart(job);
      result = compileJob(job, inputs->ddg, *inputs->model,
                          inputs->checkpoint.get(), options, jr);
      // A finished job has nothing to resume into.
      if (jr.status == BatchJobStatus::kOk && inputs->checkpoint != nullptr) {
        removeFileIfExists(inputs->checkpoint->path());
      }
    }
    jr.wallMs = microsBetween(started, monotonicNow()) / 1000;
    notify(options, job, to_string(jr.status));
    progress.jobDone(job, jr.status, jr.wallMs);
    switch (jr.status) {
      case BatchJobStatus::kOk: ++summary.ok; break;
      case BatchJobStatus::kFailed: ++summary.failed; break;
      case BatchJobStatus::kInvalid: ++summary.invalid; break;
      case BatchJobStatus::kCancelled: ++summary.cancelled; break;
    }

    // Best-so-far run report, even for failed/cancelled jobs (an IoError
    // here is an infrastructure failure and propagates to the caller —
    // job isolation covers compile failures, not a broken report disk).
    if (!options.reportDir.empty() && result.has_value()) {
      ReportMeta meta;
      meta.workload = job.kernel.empty() ? job.ddgPath : job.kernel;
      meta.machine = inputs->model->config().toString();
      meta.threads = job.threads;
      meta.context = RunContext::current(options.runId);
      atomicWriteFile(
          strCat(options.reportDir, "/", job.name, ".report.json"),
          runReportJson(*result, inputs->model.get(), &meta) + "\n");
    }
    summary.jobs.push_back(std::move(jr));
  }
  progress.stop();
  return summary;
}

std::string batchSummaryJson(const BatchSummary& summary) {
  std::ostringstream os;
  JsonWriter json(os);
  json.beginObject();
  json.key("ok").value(summary.ok);
  json.key("failed").value(summary.failed);
  json.key("invalid").value(summary.invalid);
  json.key("cancelled").value(summary.cancelled);
  json.key("all_ok").value(summary.allOk());
  json.key("jobs").beginArray();
  for (const BatchJobResult& jr : summary.jobs) {
    json.beginObject();
    json.key("name").value(jr.name);
    json.key("status").value(to_string(jr.status));
    json.key("fallback_used").value(jr.fallbackUsed);
    json.key("failure_reason").value(jr.failureReason);
    json.key("achieved_target_ii").value(jr.achievedTargetIi);
    json.key("wall_ms").value(jr.wallMs);
    json.endObject();
  }
  json.endArray();
  json.endObject();
  return os.str();
}

}  // namespace hca::core
