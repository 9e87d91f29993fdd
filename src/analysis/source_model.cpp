#include "analysis/source_model.hpp"

#include <algorithm>
#include <deque>
#include <filesystem>
#include <set>
#include <utility>

#include "support/io.hpp"
#include "support/json.hpp"

namespace hca::analysis {
namespace {

namespace fs = std::filesystem;

[[nodiscard]] std::string normalizeSlashes(std::string path) {
  std::replace(path.begin(), path.end(), '\\', '/');
  return path;
}

/// Lexically normalizes and returns the path of `p` relative to `root`, or
/// an empty string when `p` does not live under `root`.
[[nodiscard]] std::string relativeToRoot(const fs::path& root,
                                         const fs::path& p) {
  const fs::path normal = p.lexically_normal();
  const fs::path rel = normal.lexically_relative(root);
  if (rel.empty() || rel.native().rfind("..", 0) == 0) return {};
  return normalizeSlashes(rel.generic_string());
}

}  // namespace

std::vector<CompileCommand> parseCompileCommands(const std::string& json) {
  const JsonReader reader("compile_commands.json");
  const JsonValue doc = reader.parse(json);
  return reader.root(doc).elements([](const JsonField& entry) {
    CompileCommand command;
    command.directory = entry.member("directory").string();
    fs::path filePath(entry.member("file").string());
    if (filePath.is_relative()) {
      filePath = fs::path(command.directory) / filePath;
    }
    command.file = normalizeSlashes(filePath.lexically_normal().string());
    return command;
  });
}

ModuleInfo classifyModule(const std::string& relPath) {
  // First path component for top-level trees, second for src/<module>/.
  std::string module;
  const std::size_t slash = relPath.find('/');
  const std::string top =
      slash == std::string::npos ? relPath : relPath.substr(0, slash);
  if (top == "src" && slash != std::string::npos) {
    const std::size_t next = relPath.find('/', slash + 1);
    if (next != std::string::npos) {
      module = relPath.substr(slash + 1, next - slash - 1);
    }
  } else {
    module = top;
  }

  static const std::map<std::string, int> kRanks = {
      {"support", 0},  {"graph", 1},    {"ddg", 2},     {"machine", 2},
      {"see", 3},      {"mapper", 3},   {"sched", 3},   {"baseline", 3},
      {"sim", 3},      {"hca", 4},      {"verify", 5},  {"analysis", 6},
      {"tools", 7},    {"bench", 7},    {"tests", 7},   {"examples", 7},
  };
  const auto it = kRanks.find(module);
  if (it == kRanks.end()) return ModuleInfo{std::move(module), -1};
  return ModuleInfo{it->first, it->second};
}

SourceModel SourceModel::load(const std::string& root,
                              const std::vector<CompileCommand>& commands) {
  // Compile-command paths are absolute, so a relative root (`--root .`) is
  // made absolute before they are matched against it.
  const fs::path rootPath = fs::absolute(root).lexically_normal();
  SourceModel model;
  std::set<std::string> loaded;
  std::deque<std::string> pending;  // repo-relative paths

  for (const CompileCommand& command : commands) {
    const std::string rel = relativeToRoot(rootPath, fs::path(command.file));
    if (!rel.empty() && loaded.insert(rel).second) pending.push_back(rel);
  }

  while (!pending.empty()) {
    const std::string rel = pending.front();
    pending.pop_front();
    const fs::path abs = rootPath / fs::path(rel);
    std::string contents;
    try {
      contents = readFile(abs.string());
    } catch (const IoError&) {
      continue;  // stale compile db entry or deleted header; skip quietly
    }

    SourceFile file;
    file.relPath = rel;
    file.module = classifyModule(rel);
    file.lexed = lex(contents);

    // Resolve quoted includes: includer's directory, then <root>/src, then
    // <root> — the same order the build's -I flags imply.
    const fs::path relDir = fs::path(rel).parent_path();
    for (const IncludeDirective& inc : file.lexed.includes) {
      if (inc.angled) continue;
      const fs::path incPath(normalizeSlashes(inc.path));
      std::string resolved;
      for (const fs::path& base :
           {rootPath / relDir, rootPath / "src", rootPath}) {
        const fs::path candidate = (base / incPath).lexically_normal();
        if (fileExists(candidate.string())) {
          resolved = relativeToRoot(rootPath, candidate);
          break;
        }
      }
      if (resolved.empty()) continue;
      file.repoIncludes.emplace_back(resolved, inc);
      if (loaded.insert(resolved).second) pending.push_back(resolved);
    }
    model.files_.push_back(std::move(file));
  }

  std::sort(model.files_.begin(), model.files_.end(),
            [](const SourceFile& a, const SourceFile& b) {
              return a.relPath < b.relPath;
            });
  return model;
}

SourceModel SourceModel::loadFromMemory(
    const std::map<std::string, std::string>& files) {
  SourceModel model;
  for (const auto& [rel, contents] : files) {
    SourceFile file;
    file.relPath = normalizeSlashes(rel);
    file.module = classifyModule(file.relPath);
    file.lexed = lex(contents);
    const fs::path relDir = fs::path(file.relPath).parent_path();
    for (const IncludeDirective& inc : file.lexed.includes) {
      if (inc.angled) continue;
      const fs::path incPath(normalizeSlashes(inc.path));
      for (const fs::path& base : {relDir, fs::path("src"), fs::path()}) {
        const std::string candidate =
            normalizeSlashes((base / incPath).lexically_normal()
                                 .generic_string());
        if (files.count(candidate) != 0) {
          file.repoIncludes.emplace_back(candidate, inc);
          break;
        }
      }
    }
    model.files_.push_back(std::move(file));
  }
  std::sort(model.files_.begin(), model.files_.end(),
            [](const SourceFile& a, const SourceFile& b) {
              return a.relPath < b.relPath;
            });
  return model;
}

const SourceFile* SourceModel::find(const std::string& relPath) const {
  const auto it = std::lower_bound(
      files_.begin(), files_.end(), relPath,
      [](const SourceFile& f, const std::string& p) { return f.relPath < p; });
  if (it == files_.end() || it->relPath != relPath) return nullptr;
  return &*it;
}

}  // namespace hca::analysis
