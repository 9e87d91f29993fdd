#include "support/history.hpp"

#include <cerrno>
#include <cstdio>
#include <cstring>
#include <sstream>

#include "support/check.hpp"
#include "support/io.hpp"
#include "support/json.hpp"
#include "support/str.hpp"

namespace hca {

namespace {

HistoryRecord recordFromJson(const JsonReader& reader,
                             const JsonValue& value) {
  const JsonField root = reader.root(value);
  root.closed({"context", "workload", "machine", "legal", "wall_us",
               "counters"});
  HistoryRecord record;
  record.context = RunContext::fromJson(root.member("context").value());
  record.workload = root.member("workload").string();
  record.machine = root.member("machine").string();
  record.legal = root.member("legal").boolean();
  record.wallUs = root.member("wall_us").number();
  for (const auto& [name, counter] : root.member("counters").members()) {
    record.counters[name] = reader.field(counter, name).exactInt();
  }
  if (record.context.schemaVersion != RunContext::kSchemaVersion) {
    reader.fail(strCat("schema version ", record.context.schemaVersion,
                       " (this build reads ", RunContext::kSchemaVersion,
                       ")"));
  }
  return record;
}

}  // namespace

std::string historyLineJson(const HistoryRecord& record) {
  std::ostringstream os;
  JsonWriter json(os);
  json.beginObject();
  json.key("context");
  record.context.writeJson(json);
  json.key("workload").value(record.workload);
  json.key("machine").value(record.machine);
  json.key("legal").value(record.legal);
  json.key("wall_us").value(record.wallUs);
  json.key("counters").beginObject();
  for (const auto& [name, counter] : record.counters) {
    json.key(name).value(counter);
  }
  json.endObject();
  json.endObject();
  return os.str();
}

void appendHistoryLine(const std::string& path, const std::string& line) {
  // Plain O_APPEND semantics, not atomicWriteFile: history is append-only
  // by design, and replacing the file would race a concurrent appender.
  std::FILE* f = std::fopen(path.c_str(), "ab");
  if (f == nullptr) {
    throw IoError(strCat("history: cannot open '", path,
                         "' for append: ", std::strerror(errno)));
  }
  const std::string withNewline = line + "\n";
  const bool ok =
      std::fwrite(withNewline.data(), 1, withNewline.size(), f) ==
          withNewline.size() &&
      std::fflush(f) == 0;
  const int savedErrno = errno;
  std::fclose(f);
  if (!ok) {
    throw IoError(strCat("history: short write to '", path,
                         "': ", std::strerror(savedErrno)));
  }
}

std::vector<HistoryRecord> parseHistory(const std::string& text) {
  std::vector<HistoryRecord> records;
  std::size_t lineNo = 0;
  std::size_t pos = 0;
  while (pos <= text.size()) {
    const std::size_t eol = text.find('\n', pos);
    const std::string line = text.substr(
        pos, eol == std::string::npos ? std::string::npos : eol - pos);
    ++lineNo;
    pos = eol == std::string::npos ? text.size() + 1 : eol + 1;
    if (line.find_first_not_of(" \t\r") == std::string::npos) continue;
    const JsonReader reader(strCat("history line ", lineNo));
    records.push_back(recordFromJson(reader, reader.parse(line)));
  }
  return records;
}

std::vector<HistoryRecord> loadHistory(const std::string& path) {
  if (!fileExists(path)) return {};
  return parseHistory(readFile(path));
}

std::vector<HistoryRecord> selectHistory(
    const std::vector<HistoryRecord>& records, const std::string& workload,
    const std::string& machine) {
  std::vector<HistoryRecord> out;
  for (const HistoryRecord& record : records) {
    if (record.workload != workload) continue;
    if (!machine.empty() && record.machine != machine) continue;
    out.push_back(record);
  }
  return out;
}

std::vector<double> wallSeries(const std::vector<HistoryRecord>& records,
                               const std::string& workload,
                               const std::string& machine) {
  std::vector<double> out;
  for (const HistoryRecord& record :
       selectHistory(records, workload, machine)) {
    // Failed runs are typically deadline-bound; mixing them into the series
    // would inflate any variance threshold computed from it.
    if (record.legal) out.push_back(record.wallUs);
  }
  return out;
}

std::vector<double> counterSeries(const std::vector<HistoryRecord>& records,
                                  const std::string& workload,
                                  const std::string& counter,
                                  const std::string& machine) {
  std::vector<double> out;
  for (const HistoryRecord& record :
       selectHistory(records, workload, machine)) {
    const auto it = record.counters.find(counter);
    if (it != record.counters.end()) {
      out.push_back(static_cast<double>(it->second));
    }
  }
  return out;
}

}  // namespace hca
