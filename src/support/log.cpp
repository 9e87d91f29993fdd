#include "support/log.hpp"

#include <atomic>
#include <cctype>
#include <cstdio>
#include <cstdlib>
#include <ctime>
#include <iostream>

#include "support/trace.hpp"

namespace hca {

namespace {

/// Small, sequential per-process thread ids: stable within a run and far
/// easier to correlate across a fault sweep's interleaved lines than the
/// opaque pthread handles std::this_thread::get_id() prints.
int threadLogId() {
  static std::atomic<int> next{0};
  thread_local const int id = next.fetch_add(1, std::memory_order_relaxed);
  return id;
}

}  // namespace

std::optional<LogLevel> logLevelFromString(const std::string& name) {
  std::string text = name;
  for (char& c : text) c = static_cast<char>(std::tolower(static_cast<unsigned char>(c)));
  if (text == "trace" || text == "0") return LogLevel::kTrace;
  if (text == "debug" || text == "1") return LogLevel::kDebug;
  if (text == "info" || text == "2") return LogLevel::kInfo;
  if (text == "warn" || text == "warning" || text == "3") return LogLevel::kWarn;
  if (text == "off" || text == "none" || text == "4") return LogLevel::kOff;
  return std::nullopt;
}

Logger& Logger::instance() {
  static Logger logger;
  return logger;
}

Logger::Logger() {
  // HCA_LOG_LEVEL overrides the compiled-in default so a multi-threaded
  // fault sweep can be made chatty (or silent) without recompiling.
  if (const char* env = std::getenv("HCA_LOG_LEVEL")) {
    if (const auto level = logLevelFromString(env)) level_ = *level;
  }
}

std::string Logger::formatLine(LogLevel level, const std::string& message) {
  static const char* const kNames[] = {"TRACE", "DEBUG", "INFO", "WARN"};
  const WallClockSample now = wallClockNow();
  std::tm tm{};
  gmtime_r(&now.seconds, &tm);
  // Sized for eight ints of any value, so nothing can be truncated.
  char prefix[128];
  std::snprintf(prefix, sizeof(prefix),
                "[%04d-%02d-%02dT%02d:%02d:%02d.%03dZ hca:%s t%d] ",
                tm.tm_year + 1900, tm.tm_mon + 1, tm.tm_mday, tm.tm_hour,
                tm.tm_min, tm.tm_sec, now.millis,
                kNames[static_cast<int>(level)], threadLogId());
  return prefix + message;
}

void Logger::write(LogLevel level, const std::string& message) {
  const std::string line = formatLine(level, message);
  MutexLock lock(mutex_);
  std::cerr << line << '\n';
}

}  // namespace hca
