#include "hca/diff.hpp"

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <map>
#include <set>
#include <sstream>

#include "hca/records.hpp"
#include "support/check.hpp"
#include "support/stats.hpp"
#include "support/str.hpp"

namespace hca::core {

namespace {

/// Everything the differ needs from one parsed report.
struct ReportView {
  RunContext context;
  std::string workload;
  std::string machine;
  int threads = 1;
  bool legal = false;
  std::string fallbackUsed;
  /// Deterministic series, keyed "stats.<name>" / "metrics.<name>".
  std::map<std::string, double> series;
  double wallUs = 0.0;
};

/// The HcaStats counters HCA_COUNTER_TABLE marks non-deterministic (they
/// depend on scheduling or the wall clock).
std::set<std::string> nonDeterministicStats() {
  std::set<std::string> names;
  forEachRunCounter([&names](const RunCounter& c) {
    if (!c.deterministic) names.insert(c.key);
  });
  return names;
}

/// Timing-dependent series never enter the exact-compare set: pool
/// behaviour depends on scheduling, and anything wall-based is noise.
bool deterministicMetricName(const std::string& name) {
  if (name.rfind("pool.", 0) == 0) return false;
  if (name.find("wall") != std::string::npos) return false;
  return true;
}

ReportView viewOf(const JsonValue& report, const char* which) {
  const JsonReader reader(strCat("compare: ", which, " report"));
  const JsonField root = reader.root(report);
  if (!root.find("context")) {
    reader.fail("no 'context' member — was it written with a meta block "
                "(hcac --report-out)?");
  }
  ReportView view;
  view.context = RunContext::fromJson(root.member("context").value());
  view.workload = root.member("workload").string();
  view.machine = root.member("machine").string();
  view.threads = root.member("threads").int32();
  view.legal = root.member("legal").boolean();
  if (const auto f = root.find("fallbackUsed")) view.fallbackUsed = f->string();

  const std::set<std::string> skipped = nonDeterministicStats();
  for (const auto& [name, value] : root.member("stats").members()) {
    if (skipped.count(name) != 0) continue;
    view.series["stats." + name] = reader.field(value, name).number();
  }

  const JsonField metrics = root.member("metrics");
  for (const auto& [name, value] : metrics.member("counters").members()) {
    if (!deterministicMetricName(name)) continue;
    view.series["metrics." + name] = reader.field(value, name).number();
  }

  if (const auto histograms = metrics.find("histograms")) {
    if (const auto wall = histograms->find("attempt.wall_us")) {
      if (const auto sum = wall->find("sum")) view.wallUs = sum->number();
    }
  }
  return view;
}

std::string fmtValue(double v) {
  char buf[32];
  if (v == std::floor(v) && std::fabs(v) < 1e15) {
    std::snprintf(buf, sizeof(buf), "%lld", static_cast<long long>(v));
  } else {
    std::snprintf(buf, sizeof(buf), "%.1f", v);
  }
  return buf;
}

}  // namespace

ReportDiff diffReports(const JsonValue& oldReport, const JsonValue& newReport,
                       const DiffOptions& options) {
  const ReportView oldView = viewOf(oldReport, "old");
  const ReportView newView = viewOf(newReport, "new");

  // Identity gate: a cross-workload or cross-schema diff is user error,
  // not a regression verdict.
  HCA_REQUIRE(oldView.context.schemaVersion == newView.context.schemaVersion,
              "compare: schema version mismatch (old "
                  << oldView.context.schemaVersion << ", new "
                  << newView.context.schemaVersion << ")");
  HCA_REQUIRE(oldView.workload == newView.workload,
              "compare: workload mismatch (old '" << oldView.workload
                                                  << "', new '"
                                                  << newView.workload << "')");
  HCA_REQUIRE(oldView.machine == newView.machine,
              "compare: machine mismatch (old '" << oldView.machine
                                                 << "', new '"
                                                 << newView.machine << "')");

  ReportDiff diff;
  diff.workload = newView.workload;
  diff.machine = newView.machine;

  // Provenance observations: never gate, always surface.
  if (!oldView.context.ndebug || !newView.context.ndebug) {
    diff.notes.push_back(
        "at least one report comes from a debug build — wall-clock is not "
        "meaningful");
  }
  if (oldView.context.gitSha != newView.context.gitSha) {
    diff.notes.push_back(strCat("comparing commits ", oldView.context.gitSha,
                                " -> ", newView.context.gitSha));
  }
  if (oldView.context.hostname != newView.context.hostname) {
    diff.notes.push_back(strCat("reports come from different hosts (",
                                oldView.context.hostname, " vs ",
                                newView.context.hostname,
                                ") — wall-clock comparison is unreliable"));
  }
  if (oldView.threads != 1 || newView.threads != 1) {
    diff.notes.push_back(
        "at least one report used a parallel outer sweep — cache and "
        "outer-attempt counters may legitimately differ");
  }

  // Outcome series first: a legality or fallback-rung change outranks any
  // counter delta.
  if (oldView.legal != newView.legal) {
    SeriesDiff d;
    d.series = "legal";
    d.oldValue = oldView.legal ? 1.0 : 0.0;
    d.newValue = newView.legal ? 1.0 : 0.0;
    d.regressed = true;
    d.note = "legality changed";
    diff.mismatches.push_back(std::move(d));
  }
  if (oldView.fallbackUsed != newView.fallbackUsed) {
    SeriesDiff d;
    d.series = "fallbackUsed";
    d.regressed = true;
    d.note = strCat("'", oldView.fallbackUsed, "' -> '", newView.fallbackUsed,
                    "'");
    diff.mismatches.push_back(std::move(d));
  }

  // Exact compare over the union of deterministic series.
  std::set<std::string> names;
  for (const auto& [name, value] : oldView.series) {
    (void)value;
    names.insert(name);
  }
  for (const auto& [name, value] : newView.series) {
    (void)value;
    names.insert(name);
  }
  for (const std::string& name : names) {
    // An entry ending in '*' ignores every series with that prefix — the
    // per-level metric families (see.oracle_rejects.L0, .L1, ...) have a
    // workload-dependent level count no caller can enumerate up front.
    const bool ignored = std::any_of(
        options.ignoreCounters.begin(), options.ignoreCounters.end(),
        [&](const std::string& pat) {
          if (!pat.empty() && pat.back() == '*') {
            return name.compare(0, pat.size() - 1, pat, 0, pat.size() - 1) ==
                   0;
          }
          return name == pat;
        });
    const auto oldIt = oldView.series.find(name);
    const auto newIt = newView.series.find(name);
    if (ignored) {
      // Ignored series never gate; a differing or one-sided value is
      // surfaced as a note so the verdict stays honest.
      const double ov = oldIt != oldView.series.end() ? oldIt->second : 0.0;
      const double nv = newIt != newView.series.end() ? newIt->second : 0.0;
      if (ov != nv) {
        diff.notes.push_back(strCat("ignored series ", name, ": ",
                                    fmtValue(ov), " -> ",
                                    fmtValue(nv)));
      }
      continue;
    }
    if (oldIt != oldView.series.end() && newIt != newView.series.end()) {
      ++diff.seriesCompared;
      if (oldIt->second == newIt->second) continue;
      SeriesDiff d;
      d.series = name;
      d.oldValue = oldIt->second;
      d.newValue = newIt->second;
      d.regressed = true;
      diff.mismatches.push_back(std::move(d));
    } else {
      SeriesDiff d;
      d.series = name;
      d.oldValue = oldIt != oldView.series.end() ? oldIt->second : 0.0;
      d.newValue = newIt != newView.series.end() ? newIt->second : 0.0;
      d.regressed = true;
      d.note = oldIt != oldView.series.end() ? "absent from new report"
                                             : "absent from old report";
      diff.mismatches.push_back(std::move(d));
    }
  }

  // Wall-clock: gated only by a history-derived threshold.
  diff.wall.series = "wall_us";
  diff.wall.oldValue = oldView.wallUs;
  diff.wall.newValue = newView.wallUs;
  const std::vector<double> wallHistory =
      wallSeries(options.history, diff.workload, diff.machine);
  diff.historyRuns = static_cast<int>(wallHistory.size());
  if (diff.historyRuns >= options.minHistoryRuns) {
    RunningStats stats;
    for (const double w : wallHistory) stats.add(w);
    diff.hasWallThreshold = true;
    diff.wallThresholdUs =
        stats.mean() + options.wallSigma * stats.stddev();
    if (newView.wallUs > diff.wallThresholdUs) {
      diff.wall.regressed = true;
      diff.wall.note = strCat("exceeds history mean + ", options.wallSigma,
                              "*stddev over ", diff.historyRuns, " runs");
    } else {
      diff.wall.note = strCat("within history threshold (", diff.historyRuns,
                              " runs)");
    }
  } else if (diff.historyRuns > 0) {
    diff.wall.note = strCat("only ", diff.historyRuns,
                            " matching history runs (need ",
                            options.minHistoryRuns, ") — informational");
  } else {
    diff.wall.note = "no run history — informational";
  }
  return diff;
}

ReportDiff diffReportTexts(const std::string& oldText,
                           const std::string& newText,
                           const DiffOptions& options) {
  return diffReports(JsonReader("compare: old report").parse(oldText),
                     JsonReader("compare: new report").parse(newText),
                     options);
}

std::string reportDiffJson(const ReportDiff& diff) {
  std::ostringstream os;
  JsonWriter json(os);
  json.beginObject();
  json.key("workload").value(diff.workload);
  json.key("machine").value(diff.machine);
  json.key("regression").value(diff.regression());
  json.key("series_compared").value(diff.seriesCompared);
  json.key("mismatches").beginArray();
  for (const SeriesDiff& d : diff.mismatches) {
    json.beginObject();
    json.key("series").value(d.series);
    json.key("old").value(d.oldValue);
    json.key("new").value(d.newValue);
    json.key("note").value(d.note);
    json.endObject();
  }
  json.endArray();
  json.key("wall").beginObject();
  json.key("old_us").value(diff.wall.oldValue);
  json.key("new_us").value(diff.wall.newValue);
  json.key("regressed").value(diff.wall.regressed);
  json.key("history_runs").value(diff.historyRuns);
  json.key("threshold_us");
  if (diff.hasWallThreshold) {
    json.value(diff.wallThresholdUs);
  } else {
    json.null();
  }
  json.key("note").value(diff.wall.note);
  json.endObject();
  json.key("notes").beginArray();
  for (const std::string& note : diff.notes) json.value(note);
  json.endArray();
  json.endObject();
  return os.str();
}

void printReportDiff(std::ostream& os, const ReportDiff& diff) {
  os << "=== run report diff: " << diff.workload << " on " << diff.machine
     << " ===\n";
  for (const std::string& note : diff.notes) {
    os << "note: " << note << "\n";
  }
  std::size_t width = 12;
  for (const SeriesDiff& d : diff.mismatches) {
    width = std::max(width, d.series.size());
  }
  char buf[512];
  if (diff.mismatches.empty()) {
    os << "deterministic series: " << diff.seriesCompared
       << " compared, all identical\n";
  } else {
    os << "deterministic series: " << diff.seriesCompared << " compared, "
       << diff.mismatches.size() << " MISMATCH(ES)\n";
    std::snprintf(buf, sizeof(buf), "  %-*s %14s %14s  %s\n",
                  static_cast<int>(width), "series", "old", "new", "note");
    os << buf;
    for (const SeriesDiff& d : diff.mismatches) {
      std::snprintf(buf, sizeof(buf), "  %-*s %14s %14s  %s\n",
                    static_cast<int>(width), d.series.c_str(),
                    fmtValue(d.oldValue).c_str(), fmtValue(d.newValue).c_str(),
                    d.note.c_str());
      os << buf;
    }
  }
  std::snprintf(buf, sizeof(buf),
                "wall-clock: %.0f us -> %.0f us (%+.1f%%)%s\n",
                diff.wall.oldValue, diff.wall.newValue,
                diff.wall.oldValue > 0.0
                    ? 100.0 * (diff.wall.newValue - diff.wall.oldValue) /
                          diff.wall.oldValue
                    : 0.0,
                diff.wall.regressed ? "  REGRESSION" : "");
  os << buf;
  if (diff.hasWallThreshold) {
    std::snprintf(buf, sizeof(buf),
                  "  history threshold: %.0f us over %d matching runs — %s\n",
                  diff.wallThresholdUs, diff.historyRuns,
                  diff.wall.note.c_str());
  } else {
    std::snprintf(buf, sizeof(buf), "  %s\n", diff.wall.note.c_str());
  }
  os << buf;
  os << "verdict: " << (diff.regression() ? "REGRESSION" : "ok") << "\n";
}

}  // namespace hca::core
