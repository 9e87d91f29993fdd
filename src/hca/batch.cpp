#include "hca/batch.hpp"

#include <algorithm>
#include <chrono>
#include <cstdio>
#include <exception>
#include <memory>
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
#include "support/rng.hpp"
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

/// One try's outcome, separated from the retry loop so the loop body stays
/// a pure state machine.
struct TryOutcome {
  enum class Kind { kOk, kFailed, kInvalid, kCancelled } kind = Kind::kFailed;
  std::string failureReason;
  std::string fallbackUsed;
  int achievedTargetIi = 0;
  bool haveResult = false;
  HcaResult result;
};

TryOutcome runOneTry(const BatchJob& job, const ddg::Ddg& ddg,
                     const machine::DspFabricModel& model,
                     CheckpointManager* checkpoint, bool lastTry,
                     const BatchOptions& batch) {
  TryOutcome out;
  HcaOptions options = batch.base;
  options.deadlineMs = job.deadlineMs;
  options.numThreads = job.threads;
  options.targetIiSlack = job.targetIiSlack;
  options.memoryBudgetBytes = job.memoryBudgetBytes;
  options.externalCancel = batch.cancel;
  options.checkpoint = checkpoint;
  if (lastTry && job.degradeOnLastRetry) {
    // Degrade-on-last-retry: the final try arms the full escalation ladder
    // (widened beam, then degraded bandwidth) instead of failing on
    // the primary sweep alone.
    options.failurePolicy = FailurePolicy::kDegrade;
  }
  try {
    const HcaDriver driver(model, options);
    out.result = driver.run(ddg);
    out.haveResult = true;
  } catch (const InvalidArgumentError& e) {
    // Permanent: the same input fails the same way on every retry.
    out.kind = TryOutcome::Kind::kInvalid;
    out.failureReason = e.what();
    return out;
  } catch (const std::exception& e) {
    // Isolation: an internal error in one job must not take the batch
    // down. It is retriable — a later try runs a different policy.
    out.kind = TryOutcome::Kind::kFailed;
    out.failureReason = e.what();
    return out;
  }
  if (out.result.legal) {
    out.kind = TryOutcome::Kind::kOk;
    out.fallbackUsed = out.result.fallbackUsed;
    out.achievedTargetIi = out.result.stats.achievedTargetIi;
    return out;
  }
  // kDegrade folds invalid input into a structured report instead of a
  // throw; keep the permanence semantics identical across policies.
  if (out.result.failure != nullptr &&
      out.result.failure->cause == FailureCause::kInvalidInput) {
    out.kind = TryOutcome::Kind::kInvalid;
    out.failureReason = out.result.failureReason;
    return out;
  }
  const bool cancelled = batch.cancel != nullptr && batch.cancel->cancelled();
  out.kind = cancelled ? TryOutcome::Kind::kCancelled
                       : TryOutcome::Kind::kFailed;
  out.failureReason = out.result.failureReason.empty()
                          ? "no legal mapping"
                          : out.result.failureReason;
  return out;
}

/// Cancellable backoff sleep: 10ms slices, aborted when the shutdown token
/// trips (the pending retry is then pointless).
void backoffSleep(std::int64_t delayMs, const BatchOptions& batch) {
  if (batch.sleeper) {
    batch.sleeper(delayMs);
    return;
  }
  const auto until = monotonicNow() + std::chrono::milliseconds(delayMs);
  while (monotonicNow() < until) {
    if (batch.cancel != nullptr && batch.cancel->cancelled()) return;
    std::this_thread::sleep_for(std::chrono::milliseconds(10));
  }
}

void notify(const BatchOptions& batch, const BatchJob& job, int tryNumber,
            const char* event) {
  if (batch.observer) batch.observer(job, tryNumber, event);
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

  /// One job state transition (start / retry-wait / injected-failure /
  /// try-failed). `phase` becomes the heartbeat's current-phase label.
  void jobState(const BatchJob& job, const char* state, int tryNumber,
                const std::string& phase) {
    if (!enabled()) return;
    ProgressEvent event;
    {
      MutexLock lock(mu_);
      currentJob_ = job.name;
      currentTry_ = tryNumber;
      phase_ = phase;
      event = baseLocked();
    }
    event.event = "job-state";
    event.job = job.name;
    event.state = state;
    event.tryNumber = tryNumber;
    emit(event, /*tty=*/false);
  }

  /// Terminal transition: folds the job into the cumulative counters (and
  /// the completed-duration pool the ETA is computed from) and emits the
  /// "done" line.
  void jobDone(const BatchJob& job, BatchJobStatus status, int tryNumber,
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
      currentTry_ = 0;
      phase_ = "idle";
      event = baseLocked();
    }
    event.event = "job-state";
    event.job = job.name;
    event.state = "done";
    event.outcome = to_string(status);
    event.tryNumber = tryNumber;
    emit(event, /*tty=*/false);
  }

 private:
  /// Common fields of the next line, from the counters. Caller holds mu_.
  ProgressEvent baseLocked() HCA_REQUIRES(mu_) {
    ProgressEvent event;
    event.job = currentJob_;
    event.tryNumber = currentTry_;
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
  int currentTry_ HCA_GUARDED_BY(mu_) = 0;
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
    j.closed({"name", "kernel", "ddg", "deadline_ms", "max_retries",
              "backoff_base_ms", "degrade_on_last_retry",
              "fail_first_attempts", "checkpoint", "memory_budget_mb",
              "threads", "target_ii_slack", "faults"});
    BatchJob job;
    if (const auto f = j.find("name")) job.name = f->string();
    if (const auto f = j.find("kernel")) job.kernel = f->string();
    if (const auto f = j.find("ddg")) job.ddgPath = f->string();
    if (const auto f = j.find("deadline_ms")) job.deadlineMs = f->int32();
    if (const auto f = j.find("max_retries")) job.maxRetries = f->int32();
    if (const auto f = j.find("backoff_base_ms")) {
      job.backoffBaseMs = f->int32();
    }
    if (const auto f = j.find("degrade_on_last_retry")) {
      job.degradeOnLastRetry = f->boolean();
    }
    if (const auto f = j.find("fail_first_attempts")) {
      job.failFirstAttempts = f->int32();
    }
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
    HCA_REQUIRE(job.deadlineMs >= 0 && job.maxRetries >= 0 &&
                    job.backoffBaseMs >= 1 && job.failFirstAttempts >= 0,
                "batch manifest: job '" << job.name
                                        << "' has a negative budget field");
    return job;
  });
}

std::int64_t backoffDelayMs(const std::string& jobName, int tryNumber,
                            int backoffBaseMs) {
  HCA_REQUIRE(tryNumber >= 2, "backoff precedes retries only (try >= 2)");
  const int exponent = std::min(tryNumber - 2, 16);
  const std::int64_t base =
      std::min<std::int64_t>(static_cast<std::int64_t>(backoffBaseMs)
                                 << exponent,
                             30'000);
  // Deterministic jitter: seeded from (job, try), so a retry schedule is
  // reproducible in tests yet de-synchronized across jobs and processes.
  Rng rng(fnv1a64(jobName) ^ (static_cast<std::uint64_t>(tryNumber) << 32));
  const std::int64_t jitter = static_cast<std::int64_t>(
      rng.below(static_cast<std::uint64_t>(std::max(1, backoffBaseMs))));
  return base + jitter;
}

BatchSummary runBatch(const std::vector<BatchJob>& jobs,
                      const BatchOptions& options) {
  BatchSummary summary;
  ProgressTracker progress(options, static_cast<int>(jobs.size()));
  for (const BatchJob& job : jobs) {
    BatchJobResult jr;
    jr.name = job.name;
    const auto started = monotonicNow();

    const bool shuttingDown =
        options.cancel != nullptr && options.cancel->cancelled();
    if (shuttingDown) {
      jr.status = BatchJobStatus::kCancelled;
      jr.failureReason = "batch shutdown before the job started";
      notify(options, job, 0, "cancelled");
      progress.jobDone(job, BatchJobStatus::kCancelled, 0, 0);
      summary.jobs.push_back(std::move(jr));
      ++summary.cancelled;
      continue;
    }

    // --- Load inputs. Anything wrong here is permanent (kInvalid). --------
    ddg::Ddg ddg;
    std::unique_ptr<machine::DspFabricModel> model;
    std::unique_ptr<CheckpointManager> checkpoint;
    std::string loadError;
    try {
      if (!job.kernel.empty()) {
        const std::vector<ddg::Kernel> kernels = ddg::table1Kernels();
        const auto it = std::find_if(
            kernels.begin(), kernels.end(),
            [&](const ddg::Kernel& k) { return k.name == job.kernel; });
        HCA_REQUIRE(it != kernels.end(),
                    "unknown built-in kernel '" << job.kernel << "'");
        ddg = it->ddg;
      } else {
        ddg = ddg::fromText(readFile(job.ddgPath));
      }
      machine::DspFabricConfig config;
      machine::FaultSet faults;
      if (!job.faults.empty()) faults = machine::FaultSet::parse(job.faults);
      model = std::make_unique<machine::DspFabricModel>(config, faults);
      if (!job.checkpointPath.empty()) {
        checkpoint = std::make_unique<CheckpointManager>(job.checkpointPath);
        checkpoint->loadForResume();  // fresh start when the file is absent
      }
    } catch (const std::exception& e) {
      loadError = e.what();
    }
    if (!loadError.empty()) {
      jr.status = BatchJobStatus::kInvalid;
      jr.failureReason = loadError;
      notify(options, job, 0, "invalid");
      jr.wallMs = microsBetween(started, monotonicNow()) / 1000;
      progress.jobDone(job, BatchJobStatus::kInvalid, 0, jr.wallMs);
      summary.jobs.push_back(std::move(jr));
      ++summary.invalid;
      continue;
    }

    // --- Retry loop. ------------------------------------------------------
    const int maxTries = 1 + std::max(0, job.maxRetries);
    TryOutcome outcome;
    for (int tryNumber = 1; tryNumber <= maxTries; ++tryNumber) {
      if (options.cancel != nullptr && options.cancel->cancelled()) {
        outcome.kind = TryOutcome::Kind::kCancelled;
        outcome.failureReason = "batch shutdown during retry backoff";
        break;
      }
      if (tryNumber >= 2) {
        notify(options, job, tryNumber, "retry-wait");
        progress.jobState(job, "retry-wait", tryNumber,
                          strCat("retry-wait before try ", tryNumber, "/",
                                 maxTries));
        backoffSleep(backoffDelayMs(job.name, tryNumber, job.backoffBaseMs),
                     options);
        if (options.cancel != nullptr && options.cancel->cancelled()) {
          outcome.kind = TryOutcome::Kind::kCancelled;
          outcome.failureReason = "batch shutdown during retry backoff";
          break;
        }
      }
      jr.triesUsed = tryNumber;
      if (tryNumber <= job.failFirstAttempts) {
        // Deterministic fault injection (tests, CI): this try fails
        // outright, exercising the retry/backoff path without a flaky
        // dependency on search behaviour.
        notify(options, job, tryNumber, "injected-failure");
        progress.jobState(job, "injected-failure", tryNumber,
                          strCat("injected failure on try ", tryNumber, "/",
                                 maxTries));
        outcome.kind = TryOutcome::Kind::kFailed;
        outcome.failureReason =
            strCat("injected failure (fail_first_attempts=",
                   job.failFirstAttempts, ")");
        continue;
      }
      const bool lastTry = tryNumber == maxTries;
      notify(options, job, tryNumber, "start");
      jr.degraded = lastTry && job.degradeOnLastRetry;
      progress.jobState(job, "start", tryNumber,
                        strCat("compiling (try ", tryNumber, "/", maxTries,
                               jr.degraded ? ", degraded)" : ")"));
      outcome = runOneTry(job, ddg, *model, checkpoint.get(), lastTry,
                          options);
      if (outcome.kind == TryOutcome::Kind::kOk ||
          outcome.kind == TryOutcome::Kind::kInvalid ||
          outcome.kind == TryOutcome::Kind::kCancelled) {
        break;
      }
      notify(options, job, tryNumber, "failed");
      progress.jobState(job, "try-failed", tryNumber,
                        strCat("try ", tryNumber, "/", maxTries, " failed"));
    }

    // --- Fold the final outcome into the summary. -------------------------
    switch (outcome.kind) {
      case TryOutcome::Kind::kOk:
        jr.status = BatchJobStatus::kOk;
        jr.fallbackUsed = outcome.fallbackUsed;
        jr.achievedTargetIi = outcome.achievedTargetIi;
        // A finished job has nothing to resume into.
        if (checkpoint != nullptr) removeFileIfExists(checkpoint->path());
        ++summary.ok;
        notify(options, job, jr.triesUsed, "ok");
        break;
      case TryOutcome::Kind::kFailed:
        jr.status = BatchJobStatus::kFailed;
        jr.failureReason = outcome.failureReason;
        ++summary.failed;
        break;
      case TryOutcome::Kind::kInvalid:
        jr.status = BatchJobStatus::kInvalid;
        jr.failureReason = outcome.failureReason;
        ++summary.invalid;
        notify(options, job, jr.triesUsed, "invalid");
        break;
      case TryOutcome::Kind::kCancelled:
        jr.status = BatchJobStatus::kCancelled;
        jr.failureReason = outcome.failureReason;
        ++summary.cancelled;
        notify(options, job, jr.triesUsed, "cancelled");
        break;
    }
    jr.wallMs = microsBetween(started, monotonicNow()) / 1000;
    progress.jobDone(job, jr.status, jr.triesUsed, jr.wallMs);

    // Best-so-far run report, even for failed/cancelled jobs (an IoError
    // here is an infrastructure failure and propagates to the caller —
    // job isolation covers compile failures, not a broken report disk).
    if (!options.reportDir.empty() && outcome.haveResult) {
      ReportMeta meta;
      meta.workload = job.kernel.empty() ? job.ddgPath : job.kernel;
      meta.machine = model->config().toString();
      meta.threads = job.threads;
      meta.context = RunContext::current(options.runId);
      atomicWriteFile(strCat(options.reportDir, "/", job.name,
                             ".report.json"),
                      runReportJson(outcome.result, model.get(), &meta) +
                          "\n");
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
    json.key("tries_used").value(jr.triesUsed);
    json.key("degraded").value(jr.degraded);
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
