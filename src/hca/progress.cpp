#include "hca/progress.hpp"

#include <cerrno>
#include <cstring>
#include <sstream>

#include "support/check.hpp"
#include "support/context.hpp"
#include "support/io.hpp"
#include "support/json.hpp"
#include "support/str.hpp"

namespace hca::core {

namespace {

std::string eventLineJson(const ProgressEvent& event, std::int64_t seq) {
  std::ostringstream os;
  JsonWriter json(os);
  json.beginObject();
  json.key("schema_version").value(RunContext::kSchemaVersion);
  json.key("seq").value(seq);
  json.key("event").value(event.event);
  json.key("job").value(event.job);
  json.key("state").value(event.state);
  json.key("outcome").value(event.outcome);
  json.key("try").value(event.tryNumber);
  json.key("phase").value(event.phase);
  json.key("jobs_total").value(event.jobsTotal);
  json.key("jobs_done").value(event.jobsDone);
  json.key("jobs_ok").value(event.jobsOk);
  json.key("jobs_failed").value(event.jobsFailed);
  json.key("elapsed_ms").value(event.elapsedMs);
  json.key("eta_ms");
  if (event.etaMs >= 0) {
    json.value(event.etaMs);
  } else {
    json.null();
  }
  json.key("resumed").value(event.resumed);
  json.endObject();
  return os.str();
}

/// The last *complete* line of `text` (ends in '\n'), or "" when none.
std::string lastCompleteLine(const std::string& text) {
  const std::size_t lastNewline = text.rfind('\n');
  if (lastNewline == std::string::npos) return "";
  const std::size_t prev = text.rfind('\n', lastNewline - 1);
  const std::size_t begin = prev == std::string::npos ? 0 : prev + 1;
  if (lastNewline == 0) return "";
  return text.substr(begin, lastNewline - begin);
}

}  // namespace

ProgressLog::ProgressLog(std::string path) : path_(std::move(path)) {
  std::int64_t lastSeq = -1;
  if (fileExists(path_)) {
    const std::string existing = readFile(path_);
    const std::string tail = lastCompleteLine(existing);
    if (!tail.empty()) {
      // A corrupt *complete* line means the file is not ours — refuse to
      // extend it rather than emit a log that no longer strict-parses.
      lastSeq = parseProgressLine(tail).seq;
      resumed_ = true;
    }
  }
  file_ = std::fopen(path_.c_str(), "ab");
  if (file_ == nullptr) {
    throw IoError(strCat("progress: cannot open '", path_,
                         "' for append: ", std::strerror(errno)));
  }
  MutexLock lock(mu_);
  seq_ = lastSeq + 1;
}

ProgressLog::~ProgressLog() {
  MutexLock lock(mu_);
  if (file_ != nullptr) std::fclose(file_);
}

void ProgressLog::write(const ProgressEvent& event) {
  MutexLock lock(mu_);
  const std::string line = eventLineJson(event, seq_++) + "\n";
  const bool ok = file_ != nullptr &&
                  std::fwrite(line.data(), 1, line.size(), file_) ==
                      line.size() &&
                  std::fflush(file_) == 0;
  if (!ok) {
    throw IoError(strCat("progress: short write to '", path_, "'"));
  }
}

ProgressLine parseProgressLine(const std::string& line) {
  const JsonReader reader("progress line");
  const JsonValue doc = reader.parse(line);
  const JsonField root = reader.root(doc);
  root.closed({"schema_version", "seq", "event", "job", "state", "outcome",
               "try", "phase", "jobs_total", "jobs_done", "jobs_ok",
               "jobs_failed", "elapsed_ms", "eta_ms", "resumed"});
  if (root.member("schema_version").int32() != RunContext::kSchemaVersion) {
    reader.fail("unsupported schema_version");
  }
  ProgressLine out;
  out.seq = root.member("seq").exactInt();
  out.event = root.member("event").string();
  if (const auto f = root.find("job")) out.job = f->string();
  if (const auto f = root.find("state")) out.state = f->string();
  if (const auto f = root.find("outcome")) out.outcome = f->string();
  if (const auto f = root.find("try")) out.tryNumber = f->int32();
  if (const auto f = root.find("phase")) out.phase = f->string();
  if (const auto f = root.find("jobs_total")) out.jobsTotal = f->int32();
  if (const auto f = root.find("jobs_done")) out.jobsDone = f->int32();
  if (const auto f = root.find("jobs_ok")) out.jobsOk = f->int32();
  if (const auto f = root.find("jobs_failed")) out.jobsFailed = f->int32();
  if (const auto f = root.find("elapsed_ms")) out.elapsedMs = f->exactInt();
  if (const auto f = root.find("eta_ms")) {
    out.etaMs = f->isNull() ? -1 : f->exactInt();
  }
  if (const auto f = root.find("resumed")) out.resumed = f->boolean();
  const bool knownEvent = out.event == "batch-start" ||
                          out.event == "job-state" ||
                          out.event == "heartbeat" || out.event == "batch-end";
  if (!knownEvent) reader.fail(strCat("unknown event '", out.event, "'"));
  return out;
}

}  // namespace hca::core
