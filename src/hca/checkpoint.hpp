#pragma once

#include <cstdint>
#include <functional>
#include <map>
#include <string>
#include <string_view>
#include <vector>

#include "ddg/ddg.hpp"
#include "hca/driver.hpp"
#include "hca/records.hpp"
#include "support/check.hpp"
#include "support/mutex.hpp"
#include "support/thread_annotations.hpp"

/// Crash-safe checkpoint/resume of the outer hierarchical search.
///
/// The outer portfolio sweep is a sequence of independent, deterministic
/// (target II, profile) attempts; the unit of saved work is one *completed,
/// failed* attempt. A checkpoint records, per attempt: its phase-qualified
/// identity (ladder rung + index), its failure reason and site, and its
/// HcaStats — nothing else. Every attempt starts with an empty sub-problem
/// cache of its own (subproblem_cache.hpp), so there is no cache state to
/// carry over. On resume the driver skips every restored attempt (merging
/// its recorded stats instead of re-searching) and re-runs the rest from
/// scratch. That is the identity guarantee: the resumed run's FinalMapping
/// and HcaStats are byte-identical to an uninterrupted run with the same
/// inputs (wall-clock, metrics and trace spans excepted — they describe
/// the actual execution).
///
/// Two things are deliberately *never* checkpointed:
///  - attempts cut short by a deadline or shutdown signal (their partial
///    stats would poison the identity guarantee; they simply re-run), and
///  - legal attempts (a legal attempt completes the run — there is nothing
///    left to resume into).
///
/// File format: a one-line header `HCACHK <version> <fnv1a64-hex> <bytes>\n`
/// followed by a JSON payload of exactly `<bytes>` bytes. Version 2 holds
/// the attempt records only; version 1 also held sub-problem cache
/// snapshots and is refused (kBadVersion). The checksum is
/// `fnv1a64` over the payload (its offset basis is not FNV's standard one;
/// see below); the length catches truncation, the checksum
/// catches corruption, the version catches format drift, and a run identity
/// fingerprint inside the payload catches "resumed against different
/// inputs". Files are written via support/io.hpp's atomic path (temp +
/// fsync + rename), so a crash mid-write leaves the previous checkpoint
/// intact.
namespace hca::core {

/// Structured checkpoint failure. Derives from InvalidArgumentError so the
/// kDegrade policy and the CLI fold it into the invalid-input exit path —
/// a bad checkpoint file is bad input, never an internal error.
class CheckpointError : public InvalidArgumentError {
 public:
  enum class Kind {
    kBadMagic,     ///< not a checkpoint file at all
    kBadVersion,   ///< a future/unknown format version
    kTruncated,    ///< payload shorter than the header promises
    kBadChecksum,  ///< payload bytes do not hash to the header checksum
    kBadPayload,   ///< JSON parse/shape error inside a verified payload
    kWrongRun,     ///< identity fingerprint does not match this run
  };

  CheckpointError(Kind kind, const std::string& message)
      : InvalidArgumentError(message), kind_(kind) {}

  [[nodiscard]] Kind kind() const { return kind_; }

 private:
  Kind kind_;
};

[[nodiscard]] const char* to_string(CheckpointError::Kind kind);

/// FNV-1a 64-bit with prime 1099511628211 but offset basis
/// 1469598103934665603, not the standard 14695981039346656037 (the repo's
/// content hash; also used by the SEE frontier signatures). A tool that
/// re-frames a payload must hash it with this basis, or the header is
/// refused. Exposed for the corruption tests.
[[nodiscard]] std::uint64_t fnv1a64(std::string_view data);

/// One completed, failed outer attempt.
struct CheckpointAttempt {
  /// Ladder-rung qualified sweep label ("sweep", "beam-backoff",
  /// "degraded-bandwidth/sweep", ...). Rungs reuse attempt indices 0..N,
  /// so the phase disambiguates them.
  std::string phase;
  /// Index of the attempt within its sweep's (target asc, profile asc)
  /// enumeration order.
  int index = 0;
  int target = 0;
  int profile = 0;
  std::string failureReason;
  FailureSite failureSite;
  HcaStats stats;
};

/// The full persisted state.
struct CheckpointData {
  /// Run identity: fnv1a64 over the DDG text form, the machine config and
  /// fault set, and every result-affecting HcaOption (hex string).
  std::string fingerprint;
  int iniMii = 0;
  std::vector<CheckpointAttempt> attempts;
};

/// Serializes to header + payload (the exact bytes of the file).
[[nodiscard]] std::string serializeCheckpoint(const CheckpointData& data);

/// Strict inverse; throws CheckpointError on any corruption, including two
/// records of one (phase, index) attempt (kBadPayload).
[[nodiscard]] CheckpointData parseCheckpoint(const std::string& text);

/// The run identity fingerprint (see CheckpointData::fingerprint).
/// Results-invisible options — deadlineMs, numThreads, allowOversubscribe,
/// tracing, verification — are excluded: interrupting a run and resuming it
/// with a longer deadline or different thread count is the point.
[[nodiscard]] std::string runFingerprint(const ddg::Ddg& ddg,
                                         const machine::DspFabricModel& model,
                                         const HcaOptions& options);

/// The driver-facing manager: owns the checkpoint file path and the
/// restored state (when resuming). Thread-safe — the parallel sweep's
/// attempts call noteAttempt() concurrently.
class CheckpointManager {
 public:
  explicit CheckpointManager(std::string path);

  CheckpointManager(const CheckpointManager&) = delete;
  CheckpointManager& operator=(const CheckpointManager&) = delete;

  [[nodiscard]] const std::string& path() const { return path_; }

  /// Loads `path()` for resume. Returns false when the file does not exist
  /// (fresh start); throws CheckpointError on corruption or IoError on a
  /// read failure.
  bool loadForResume();

  /// Called by the driver once per run (runChecked) before the ladder
  /// starts. Verifies the restored state (if any) belongs to this exact
  /// run — throws CheckpointError(kWrongRun) otherwise — and arms the
  /// manager for recording. A manager serves one run: a second call
  /// throws InternalError.
  void bindRun(const std::string& fingerprint, int iniMii);

  /// The restored attempt at (phase, index), or nullptr when that attempt
  /// must (re-)run.
  [[nodiscard]] const CheckpointAttempt* restoredAttempt(
      const std::string& phase, int index) const;

  /// Records one completed, failed attempt and rewrites the checkpoint
  /// file: every attempt recorded so far, restored ones included.
  void noteAttempt(CheckpointAttempt attempt);

  [[nodiscard]] int attemptsRecorded() const;

  /// Test seam: invoked (outside the lock) after every recorded attempt
  /// with the total number recorded so far. The kill-at-checkpoint tests
  /// use it to cancel the run at a precise attempt boundary.
  std::function<void(int)> onAttemptRecorded;

 private:
  const std::string path_;

  mutable Mutex mutex_;
  bool bound_ HCA_GUARDED_BY(mutex_) = false;
  std::string fingerprint_ HCA_GUARDED_BY(mutex_);
  int iniMii_ HCA_GUARDED_BY(mutex_) = 0;
  /// Restored state (resume); keyed by "phase\n<index>".
  std::map<std::string, CheckpointAttempt> restored_ HCA_GUARDED_BY(mutex_);
  /// Attempts recorded this run (includes re-persisted restored ones).
  std::vector<CheckpointAttempt> recorded_ HCA_GUARDED_BY(mutex_);
};

}  // namespace hca::core
