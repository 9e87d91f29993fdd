#include "hca/report.hpp"

#include <algorithm>
#include <sstream>
#include <vector>

#include "support/json.hpp"
#include "support/str.hpp"

namespace hca::core {

namespace {

std::string lvl(const char* base, int level) {
  return strCat(base, ".L", level);
}

/// Hierarchy levels that actually solved sub-problems in this run: the
/// driver emits one `see.problems.L<n>` counter per visited level, so the
/// report needs no model to know the tree depth (the degraded-bandwidth
/// rung even reuses the same depth).
std::vector<int> levelsPresent(const MetricsRegistry& metrics) {
  std::vector<int> levels;
  for (int level = 0; level < 64; ++level) {
    if (metrics.counterValue(lvl("see.problems", level)) > 0) {
      levels.push_back(level);
    }
  }
  return levels;
}

/// The SEE counters reported per level, in `levels[]` key order.
std::vector<const see::SeeCounter*> seeLevelsColumns() {
  std::vector<const see::SeeCounter*> columns;
  for (const see::SeeCounter& c : see::kSeeCounters) {
    if (c.levelsKey != nullptr) columns.push_back(&c);
  }
  std::sort(columns.begin(), columns.end(),
            [](const see::SeeCounter* a, const see::SeeCounter* b) {
              return a->levelsSlot < b->levelsSlot;
            });
  return columns;
}

void writeHistogramSummary(JsonWriter& json, const Histogram* h) {
  if (h == nullptr || h->stats().count() == 0) {
    json.null();
    return;
  }
  json.beginObject();
  json.key("count").value(h->stats().count());
  json.key("mean").value(h->stats().mean());
  json.key("min").value(h->stats().min());
  json.key("max").value(h->stats().max());
  json.key("p50").value(h->quantile(0.5));
  json.key("p90").value(h->quantile(0.9));
  json.endObject();
}

void writeFailure(JsonWriter& json, const HcaFailureReport& failure) {
  json.beginObject();
  json.key("cause").value(to_string(failure.cause));
  json.key("level").value(failure.site.level);
  json.key("subproblemPath").beginArray();
  for (const int p : failure.site.path) json.value(p);
  json.endArray();
  json.key("message").value(failure.message);
  json.key("escalationsTried").beginArray();
  for (const std::string& e : failure.escalationsTried) json.value(e);
  json.endArray();
  json.endObject();
}

}  // namespace

std::string runReportJson(const HcaResult& result,
                          const machine::DspFabricModel* model,
                          const ReportMeta* meta) {
  std::ostringstream os;
  JsonWriter json(os);
  writeRunReport(json, result, model, meta);
  return os.str();
}

void writeRunReport(JsonWriter& json, const HcaResult& result,
                    const machine::DspFabricModel* model,
                    const ReportMeta* meta) {
  json.beginObject();

  if (meta != nullptr) {
    json.key("workload").value(meta->workload);
    json.key("machine").value(meta->machine);
    json.key("threads").value(meta->threads);
    json.key("context");
    meta->context.writeJson(json);
  }

  json.key("legal").value(result.legal);
  json.key("fallbackUsed").value(result.fallbackUsed);
  json.key("failureReason").value(result.failureReason);
  json.key("failure");
  if (result.failure != nullptr) {
    writeFailure(json, *result.failure);
  } else {
    json.null();
  }

  json.key("stats");
  writeStatsJson(json, result.stats);

  // Per-level breakdown: the `.L<n>` series of the registry, one row per
  // hierarchy level that solved at least one sub-problem.
  const MetricsRegistry& m = result.metrics;
  const std::vector<const see::SeeCounter*> seeColumns = seeLevelsColumns();
  json.key("levels").beginArray();
  for (const int level : levelsPresent(m)) {
    json.beginObject();
    json.key("level").value(level);
    json.key("name").value(model != nullptr && level < model->numLevels()
                               ? model->levelName(level)
                               : strCat("L", level));
    json.key("problems").value(m.counterValue(lvl("see.problems", level)));
    for (const see::SeeCounter* c : seeColumns) {
      json.key(c->levelsKey).value(m.counterValue(lvl(c->metric, level)));
    }
    json.key("cacheHits").value(m.counterValue(lvl("cache.hits", level)));
    json.key("cacheMisses").value(m.counterValue(lvl("cache.misses", level)));
    json.key("backtracks").value(m.counterValue(lvl("hca.backtracks", level)));
    json.key("mapperFailures")
        .value(m.counterValue(lvl("mapper.failures", level)));
    json.key("wireUtilization");
    writeHistogramSummary(json,
                          m.findHistogram(lvl("mapper.wire_utilization", level)));
    json.key("copiesPerIli");
    writeHistogramSummary(json,
                          m.findHistogram(lvl("mapper.copies_per_ili", level)));
    json.key("maxValuesPerWire");
    writeHistogramSummary(
        json, m.findHistogram(lvl("mapper.max_values_per_wire", level)));
    json.endObject();
  }
  json.endArray();

  json.key("metrics");
  m.writeJson(json);

  json.key("records").beginObject();
  json.key("count").value(static_cast<std::int64_t>(result.records.size()));
  json.key("relays").value(static_cast<std::int64_t>(result.relays.size()));
  json.key("reconfigSettings")
      .value(static_cast<std::int64_t>(result.reconfig.settings.size()));
  json.endObject();

  json.endObject();
}

void writeStatsJson(JsonWriter& json, const HcaStats& stats) {
  json.beginObject();
  forEachRunCounter(
      [&json](const RunCounter& c, const auto& value) {
        json.key(c.key).value(value);
      },
      stats);
  json.endObject();
}

std::map<std::string, std::int64_t> deterministicCounters(
    const HcaStats& stats) {
  std::map<std::string, std::int64_t> counters;
  forEachRunCounter(
      [&counters](const RunCounter& c, const auto& value) {
        if (c.deterministic) counters.emplace(c.key, value);
      },
      stats);
  return counters;
}

double runWallUs(const HcaResult& result) {
  const Histogram* wall = result.metrics.findHistogram("attempt.wall_us");
  return wall != nullptr && wall->stats().count() > 0 ? wall->stats().sum()
                                                      : 0.0;
}

HistoryRecord historyRecordFor(const HcaResult& result,
                               const ReportMeta& meta) {
  HistoryRecord record;
  record.context = meta.context;
  record.workload = meta.workload;
  record.machine = meta.machine;
  record.legal = result.legal;
  record.wallUs = runWallUs(result);
  record.counters = deterministicCounters(result.stats);
  return record;
}

void printRunStats(std::ostream& os, const HcaResult& result) {
  os << "=== HCA run stats ===\n";
  if (result.legal) {
    os << "outcome: legal ("
       << (result.fallbackUsed.empty() ? "primary sweep"
                                       : strCat("fallback rung: ",
                                                result.fallbackUsed))
       << ")\n";
  } else {
    os << "outcome: no legal mapping";
    if (result.failure != nullptr) {
      os << " [" << to_string(result.failure->cause) << "]";
    }
    os << "\n";
    if (!result.failureReason.empty()) {
      os << "reason:  " << result.failureReason << "\n";
    }
  }
  const HcaStats& s = result.stats;
  os << "target II achieved: " << s.achievedTargetIi
     << "  outer attempts: " << s.outerAttempts
     << "  cancelled: " << s.attemptsCancelled << "\n";
  os << "problems solved: " << s.problemsSolved
     << "  backtracks: " << s.backtrackAttempts
     << "  max wire pressure: " << s.maxWirePressure << "\n";
  os << "states explored: " << s.statesExplored
     << "  candidates: " << s.candidatesEvaluated
     << "  cache h/m: " << s.cacheHits << "/" << s.cacheMisses << "\n";
  os << "copies avoided: " << s.seeCopiesAvoided
     << "  snapshots: " << s.seeSnapshotsMaterialized
     << "  arena peak: " << s.seeArenaBytesPeak << " B\n";
  os << "oracle rejects: " << s.seeOracleRejects
     << "  route memo hits: " << s.seeRouteMemoHits
     << "  dominance pruned: " << s.seeDominancePruned << "\n";
  if (!result.metrics.empty()) {
    os << "--- metrics registry ---\n";
    result.metrics.printTable(os);
  }
}

}  // namespace hca::core
