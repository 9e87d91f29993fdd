#include "support/context.hpp"

#include <unistd.h>

#include <cstdio>
#include <sstream>
#include <thread>

#include "support/json.hpp"

#ifndef HCA_GIT_SHA
#define HCA_GIT_SHA "unknown"
#endif
#ifndef HCA_CMAKE_BUILD_TYPE
#define HCA_CMAKE_BUILD_TYPE ""
#endif

namespace hca {

namespace {

std::string currentHostname() {
  char buf[256] = {};
  if (gethostname(buf, sizeof(buf) - 1) != 0) return "unknown";
  return buf[0] != '\0' ? std::string(buf) : std::string("unknown");
}

}  // namespace

RunContext RunContext::current(std::string runId) {
  RunContext ctx;
  ctx.gitSha = HCA_GIT_SHA;
  ctx.buildType = HCA_CMAKE_BUILD_TYPE;
#ifdef NDEBUG
  ctx.ndebug = true;
#else
  ctx.ndebug = false;
#endif
  ctx.hostname = currentHostname();
  ctx.hardwareConcurrency =
      static_cast<int>(std::thread::hardware_concurrency());
  ctx.runId = std::move(runId);
  return ctx;
}

void RunContext::writeJson(JsonWriter& json) const {
  json.beginObject();
  json.key("schema_version").value(schemaVersion);
  json.key("git_sha").value(gitSha);
  json.key("build_type").value(buildType);
  json.key("ndebug").value(ndebug);
  json.key("hostname").value(hostname);
  json.key("hardware_concurrency").value(hardwareConcurrency);
  json.key("run_id").value(runId);
  json.endObject();
}

std::string RunContext::toJson() const {
  std::ostringstream os;
  JsonWriter json(os);
  writeJson(json);
  return os.str();
}

RunContext RunContext::fromJson(const JsonValue& value) {
  const JsonReader reader("context");
  const JsonField root = reader.root(value);
  root.closed({"schema_version", "git_sha", "build_type", "ndebug", "hostname",
               "hardware_concurrency", "run_id"});
  RunContext ctx;
  ctx.schemaVersion = root.member("schema_version").int32();
  ctx.gitSha = root.member("git_sha").string();
  ctx.buildType = root.member("build_type").string();
  ctx.ndebug = root.member("ndebug").boolean();
  ctx.hostname = root.member("hostname").string();
  ctx.hardwareConcurrency = root.member("hardware_concurrency").int32();
  ctx.runId = root.member("run_id").string();
  return ctx;
}

bool warnIfDebugBuild(const char* tool) {
  const RunContext ctx = RunContext::current();
  if (ctx.isOptimizedBuild()) return false;
  std::fprintf(
      stderr,
      "\n"
      "*** %s: DEBUG BUILD — timing numbers are NOT comparable. ***\n"
      "*** Configure with -DCMAKE_BUILD_TYPE=Release before trusting ***\n"
      "*** or committing any measurement (build_type='%s').          ***\n"
      "\n",
      tool, ctx.buildType.c_str());
  return true;
}

}  // namespace hca
