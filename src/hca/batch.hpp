#pragma once

#include <cstdint>
#include <functional>
#include <string>
#include <vector>

#include "hca/driver.hpp"
#include "support/thread_pool.hpp"

/// Fault-isolated batch compilation (`hcac --batch manifest.json`).
///
/// A manifest names a list of compile jobs (built-in kernel or DDG file,
/// per-job deadline, retry policy). The batch driver runs them in order
/// with hard isolation: one job throwing, timing out or failing to map
/// never takes the rest of the batch down. Failed jobs are retried with
/// exponential backoff plus deterministic jitter (seeded from the job
/// name, so two batch processes started together do not retry in
/// lockstep); the last retry can optionally flip the job to the kDegrade
/// failure policy, which arms the escalation ladder (widened beam, then
/// degraded bandwidth) before giving up. Invalid inputs are
/// permanent — they are never retried.
///
/// Shutdown: the batch observes an external CancellationToken (the CLI
/// wires SIGINT/SIGTERM to it). A tripped token cancels the in-flight
/// job's search at its next poll — its checkpoint already holds every
/// attempt it completed, so a later `--resume` continues where it stopped —
/// and marks the remaining jobs cancelled instead of running them.
///
/// Manifest format (strict JSON):
///   {"jobs": [
///     {"name": "fir",                 // required, unique
///      "kernel": "fir2dim",           // exactly one of kernel | ddg
///      "ddg": "path/to/kernel.ddg",   // ddg/serialize text format
///      "deadline_ms": 2000,           // 0 = unlimited (default)
///      "max_retries": 2,              // retries after the first try
///      "backoff_base_ms": 100,        // backoff unit (default 100)
///      "degrade_on_last_retry": true, // default true
///      "fail_first_attempts": 0,      // deterministic fault injection:
///                                     // fail the first N tries outright
///      "checkpoint": "fir.ckpt",      // per-job checkpoint/resume file
///      "memory_budget_mb": 0,         // HcaOptions::memoryBudgetBytes
///      "threads": 1,                  // HcaOptions::numThreads
///      "target_ii_slack": 6,          // HcaOptions::targetIiSlack
///      "faults": "cn:3 cn:17"}        // machine::FaultSet::parse syntax
///   ]}
namespace hca::core {

struct BatchJob {
  std::string name;
  std::string kernel;   ///< built-in Table 1 kernel name…
  std::string ddgPath;  ///< …or a ddg text file (exactly one set)
  int deadlineMs = 0;
  int maxRetries = 0;
  int backoffBaseMs = 100;
  bool degradeOnLastRetry = true;
  int failFirstAttempts = 0;
  std::string checkpointPath;
  std::int64_t memoryBudgetBytes = 0;
  int threads = 1;
  int targetIiSlack = 6;
  std::string faults;
};

enum class BatchJobStatus {
  kOk,         ///< a legal mapping was produced
  kFailed,     ///< all tries exhausted without a legal mapping
  kInvalid,    ///< bad input (DDG, faults, checkpoint) — never retried
  kCancelled,  ///< shutdown tripped before/while the job ran
};

[[nodiscard]] const char* to_string(BatchJobStatus status);

struct BatchJobResult {
  std::string name;
  BatchJobStatus status = BatchJobStatus::kCancelled;
  /// Tries actually started (1 = no retry was needed).
  int triesUsed = 0;
  /// True when the final try ran under FailurePolicy::kDegrade.
  bool degraded = false;
  /// Ladder rung that produced a legal result ("" = primary sweep).
  std::string fallbackUsed;
  std::string failureReason;
  int achievedTargetIi = 0;
  std::int64_t wallMs = 0;
};

struct BatchSummary {
  std::vector<BatchJobResult> jobs;
  int ok = 0;
  int failed = 0;
  int invalid = 0;
  int cancelled = 0;
  [[nodiscard]] bool allOk() const {
    return failed == 0 && invalid == 0 && cancelled == 0;
  }
};

struct BatchOptions {
  /// Shutdown token (may be null). See the header comment.
  const CancellationToken* cancel = nullptr;
  /// When non-empty, a heartbeat JSONL progress log (hca/progress.hpp) is
  /// appended to this path: every job state transition, a periodic
  /// heartbeat while a job runs, and batch start/end markers, each line
  /// flushed before the driver proceeds. Append-only across restarts: a
  /// killed-and-resumed batch continues the same file with a strictly
  /// increasing `seq`, so monitors see one honest cumulative log.
  std::string progressPath;
  /// When true, the heartbeat thread also prints a one-line progress
  /// summary (jobs done/ok/failed, current job + phase, ETA) to stdout.
  bool progressTty = false;
  /// Heartbeat period for the progress log / TTY summary.
  int heartbeatMs = 1000;
  /// When non-empty, a best-so-far run report (hca/report.hpp) is written
  /// atomically to `<dir>/<job>.report.json` after every job — including
  /// failed and cancelled ones. Each report carries a cross-run meta block
  /// (workload = the job's kernel/ddg, machine, context), so it feeds
  /// `hcac --compare` directly.
  std::string reportDir;
  /// Run identifier stamped into each per-job report's context block
  /// (`hcac --run-id`); empty = unset.
  std::string runId;
  /// Base HcaOptions every job starts from (per-job manifest fields are
  /// layered on top).
  HcaOptions base;
  /// Progress observer (may be empty): called with the job, the 1-based
  /// try number and a short event string ("start", "ok", "retry", ...).
  std::function<void(const BatchJob&, int tryNumber, const std::string&)>
      observer;
  /// Test seam: when set, replaces the real backoff sleep (receives the
  /// computed delay). Production leaves it empty and sleeps in small
  /// cancellable slices.
  std::function<void(std::int64_t delayMs)> sleeper;
};

/// Parses a manifest document. Throws InvalidArgumentError (with a
/// field-naming message) on syntax errors, duplicate names, unknown
/// members or a job naming neither/both of kernel and ddg.
[[nodiscard]] std::vector<BatchJob> parseManifest(const std::string& text);

/// Deterministic retry delay before try `tryNumber` (2-based: the delay
/// precedes the first retry): backoffBaseMs * 2^(tryNumber-2), capped at
/// 30s, plus jitter in [0, base) seeded from the job name and try.
[[nodiscard]] std::int64_t backoffDelayMs(const std::string& jobName,
                                          int tryNumber, int backoffBaseMs);

/// Runs the jobs in manifest order. Never throws on job failure — every
/// outcome is folded into the summary.
[[nodiscard]] BatchSummary runBatch(const std::vector<BatchJob>& jobs,
                                    const BatchOptions& options);

/// Structured summary JSON (the CLI prints it and writes it atomically
/// next to the manifest when --report-out is given).
[[nodiscard]] std::string batchSummaryJson(const BatchSummary& summary);

}  // namespace hca::core
