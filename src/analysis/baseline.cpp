#include "analysis/baseline.hpp"

#include <sstream>

#include "support/json.hpp"
#include "support/str.hpp"

namespace hca::analysis {

Baseline parseBaseline(const std::string& json) {
  const JsonReader reader("lint baseline");
  const JsonValue doc = reader.parse(json);
  const JsonField root = reader.root(doc);
  const std::int64_t version = root.member("version").exactInt();
  if (version != 1) reader.fail(strCat("unsupported version ", version));
  const std::vector<std::string> suppressions = root.member("suppressions")
      .elements([](const JsonField& e) { return e.string(); });
  Baseline baseline;
  baseline.suppressions.insert(suppressions.begin(), suppressions.end());
  return baseline;
}

std::string formatBaseline(const Baseline& baseline) {
  std::ostringstream os;
  JsonWriter writer(os);
  writer.beginObject();
  writer.key("version").value(1);
  writer.key("suppressions").beginArray();
  for (const std::string& key : baseline.suppressions) {
    writer.value(key);
  }
  writer.endArray();
  writer.endObject();
  os << "\n";
  return os.str();
}

Baseline baselineFromDiagnostics(const std::vector<Diagnostic>& diagnostics) {
  Baseline baseline;
  for (const Diagnostic& d : diagnostics) {
    baseline.suppressions.insert(d.suppressionKey);
  }
  return baseline;
}

BaselineSplit splitAgainstBaseline(const Baseline& baseline,
                                   const std::vector<Diagnostic>& diagnostics) {
  BaselineSplit split;
  std::set<std::string> used;
  for (const Diagnostic& d : diagnostics) {
    if (baseline.suppressions.count(d.suppressionKey) != 0) {
      used.insert(d.suppressionKey);
      split.baselined.push_back(d);
    } else {
      split.fresh.push_back(d);
    }
  }
  for (const std::string& key : baseline.suppressions) {
    if (used.count(key) == 0) split.stale.push_back(key);
  }
  return split;
}

}  // namespace hca::analysis
