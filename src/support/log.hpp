#pragma once

#include <optional>
#include <sstream>
#include <string>

#include "support/mutex.hpp"
#include "support/thread_annotations.hpp"

/// Minimal leveled logger.
///
/// The assignment passes are long-running searches; being able to turn on a
/// trace without recompiling is worth more than a fancy logging framework.
/// Output goes to stderr, serialized by a global mutex so multi-threaded
/// benchmark sweeps interleave cleanly. Every line carries an ISO-8601 UTC
/// timestamp and a small per-process thread id, so interleaved fault-sweep
/// output stays attributable; the `HCA_LOG_LEVEL` environment variable
/// (trace|debug|info|warn|off, or 0-4) overrides the default level without
/// recompiling.
namespace hca {

enum class LogLevel { kTrace = 0, kDebug = 1, kInfo = 2, kWarn = 3, kOff = 4 };

/// Parses a level name (trace|debug|info|warn|warning|off|none, or 0-4,
/// case-insensitive); nullopt on anything else.
[[nodiscard]] std::optional<LogLevel> logLevelFromString(
    const std::string& text);

class Logger {
 public:
  static Logger& instance();

  [[nodiscard]] LogLevel level() const { return level_; }
  [[nodiscard]] bool enabled(LogLevel level) const { return level >= level_; }

  /// The exact line `write` emits (sans trailing newline):
  /// `[<ISO-8601 UTC ms> hca:<LEVEL> t<tid>] <message>`. Split out so the
  /// format is testable without capturing stderr.
  [[nodiscard]] static std::string formatLine(LogLevel level,
                                              const std::string& message);

  void write(LogLevel level, const std::string& message) HCA_EXCLUDES(mutex_);

 private:
  Logger();
  LogLevel level_ = LogLevel::kWarn;
  /// Serializes the stderr stream itself (no data member is guarded; the
  /// level is read from `HCA_LOG_LEVEL` once, at construction).
  Mutex mutex_;
};

namespace detail {
struct LogLine {
  LogLevel level;
  std::ostringstream os;
  explicit LogLine(LogLevel lv) : level(lv) {}
  ~LogLine() { Logger::instance().write(level, os.str()); }
};
}  // namespace detail

}  // namespace hca

#define HCA_LOG(level_enum, expr)                                       \
  do {                                                                  \
    if (::hca::Logger::instance().enabled(level_enum)) {                \
      ::hca::detail::LogLine hca_line_(level_enum);                     \
      hca_line_.os << expr; /* NOLINT */                                \
    }                                                                   \
  } while (false)

#define HCA_TRACE(expr) HCA_LOG(::hca::LogLevel::kTrace, expr)
#define HCA_DEBUG(expr) HCA_LOG(::hca::LogLevel::kDebug, expr)
#define HCA_INFO(expr) HCA_LOG(::hca::LogLevel::kInfo, expr)
#define HCA_WARN(expr) HCA_LOG(::hca::LogLevel::kWarn, expr)
