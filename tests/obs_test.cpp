// Observability-layer tests (ctest label `obs`): span tracing, metrics
// registry, JSON round-trips and the per-run report.

#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <cmath>
#include <cstdlib>
#include <map>
#include <new>
#include <sstream>
#include <string>
#include <vector>

#include "ddg/kernels.hpp"
#include "hca/driver.hpp"
#include "hca/report.hpp"
#include "hca/subproblem_cache.hpp"
#include "support/json.hpp"
#include "support/metrics.hpp"
#include "support/str.hpp"
#include "support/trace.hpp"

// --- global allocation counter ---------------------------------------------
// Replaces the global allocation functions for this test binary so the
// zero-allocation guarantee of disabled tracing is checkable, not just
// claimed. Counting is the only side effect.
namespace {
std::atomic<std::int64_t> gAllocations{0};
}  // namespace

void* operator new(std::size_t size) {
  gAllocations.fetch_add(1, std::memory_order_relaxed);
  if (void* p = std::malloc(size > 0 ? size : 1)) return p;
  throw std::bad_alloc();
}

void* operator new[](std::size_t size) {
  gAllocations.fetch_add(1, std::memory_order_relaxed);
  if (void* p = std::malloc(size > 0 ? size : 1)) return p;
  throw std::bad_alloc();
}

// Not inlined: at an inlined call site the compiler would see std::free
// applied to the result of operator new (-Wmismatched-new-delete), though
// the two are a malloc/free pair by construction.
[[gnu::noinline]] void operator delete(void* p) noexcept { std::free(p); }
[[gnu::noinline]] void operator delete[](void* p) noexcept { std::free(p); }
[[gnu::noinline]] void operator delete(void* p, std::size_t) noexcept {
  std::free(p);
}
[[gnu::noinline]] void operator delete[](void* p, std::size_t) noexcept {
  std::free(p);
}

namespace hca {
namespace {

// --- tracer basics ----------------------------------------------------------

TEST(TracerTest, RecordsNestedSpansWithParentIds) {
  Tracer tracer;
  {
    TraceSpan outer(&tracer, "test", "outer");
    {
      TraceSpan inner(&tracer, "test", "inner");
      inner.arg("k", "v");
    }
    TraceSpan sibling(&tracer, "test", "sibling");
  }
  const auto spans = tracer.spans();
  ASSERT_EQ(spans.size(), 3u);
  // Completion order: inner, sibling, outer.
  EXPECT_STREQ(spans[0].name, "inner");
  EXPECT_STREQ(spans[1].name, "sibling");
  EXPECT_STREQ(spans[2].name, "outer");
  EXPECT_EQ(spans[0].parentId, spans[2].id);
  EXPECT_EQ(spans[1].parentId, spans[2].id);
  EXPECT_EQ(spans[2].parentId, -1);
  ASSERT_EQ(spans[0].args.size(), 1u);
  EXPECT_EQ(spans[0].args[0].first, "k");
  EXPECT_EQ(spans[0].args[0].second, "v");
}

TEST(TracerTest, MaxSpansDropsAndCounts) {
  Tracer tracer(/*enabled=*/true, /*maxSpans=*/2);
  for (int i = 0; i < 5; ++i) {
    TraceSpan span(&tracer, "test", "s");
  }
  EXPECT_EQ(tracer.spanCount(), 2u);
  EXPECT_EQ(tracer.droppedSpans(), 3);
}

TEST(TracerTest, DisabledTracerAllocatesNothing) {
  Tracer disabled(/*enabled=*/false);
  Tracer* null = nullptr;
  // Warm up the thread-local machinery outside the measured window.
  { TraceSpan warm(&disabled, "test", "warm"); }
  const std::int64_t before = gAllocations.load(std::memory_order_relaxed);
  for (int i = 0; i < 1000; ++i) {
    TraceSpan a(null, "test", "null-tracer");
    TraceSpan b(&disabled, "test", "disabled-tracer");
    if (a.active()) a.arg("k", std::string(100, 'x'));
    if (b.active()) b.arg("k", std::string(100, 'x'));
  }
  const std::int64_t after = gAllocations.load(std::memory_order_relaxed);
  EXPECT_EQ(after, before);
  EXPECT_EQ(disabled.spanCount(), 0u);
}

TEST(TracerTest, ChromeJsonRoundTrips) {
  Tracer tracer;
  {
    TraceSpan outer(&tracer, "test", "outer");
    TraceSpan inner(&tracer, "test", "inner");
    inner.arg("quote", "a\"b\\c\n");
  }
  std::ostringstream os;
  tracer.writeChromeJson(os);
  JsonValue doc;
  std::string error;
  ASSERT_TRUE(parseJson(os.str(), &doc, &error)) << error;
  const JsonValue* events = doc.find("traceEvents");
  ASSERT_NE(events, nullptr);
  ASSERT_TRUE(events->isArray());
  ASSERT_EQ(events->array.size(), 2u);
  for (const JsonValue& event : events->array) {
    EXPECT_EQ(event.find("ph")->string, "X");
    EXPECT_NE(event.find("name"), nullptr);
    EXPECT_NE(event.find("ts"), nullptr);
    EXPECT_NE(event.find("dur"), nullptr);
    EXPECT_NE(event.find("args")->find("id"), nullptr);
  }
  // The escaped arg survived the round trip intact.
  EXPECT_EQ(events->array[0].find("args")->find("quote")->string, "a\"b\\c\n");
  const JsonValue* other = doc.find("otherData");
  ASSERT_NE(other, nullptr);
  EXPECT_EQ(other->find("droppedSpans")->number, 0.0);
}

// --- metrics registry -------------------------------------------------------

TEST(MetricsTest, CountersAccumulateAndMerge) {
  MetricsRegistry a, b;
  a.add("x", 2);
  a.add("x", 3);
  b.add("x", 10);
  b.add("y", 1);
  a.merge(b);
  EXPECT_EQ(a.counterValue("x"), 15);
  EXPECT_EQ(a.counterValue("y"), 1);
  EXPECT_EQ(a.counterValue("absent"), 0);
}

TEST(MetricsTest, HistogramMomentsAndQuantiles) {
  MetricsRegistry m;
  for (int i = 1; i <= 100; ++i) m.observe("h", static_cast<double>(i));
  const Histogram* h = m.findHistogram("h");
  ASSERT_NE(h, nullptr);
  EXPECT_EQ(h->stats().count(), 100);
  EXPECT_DOUBLE_EQ(h->stats().min(), 1.0);
  EXPECT_DOUBLE_EQ(h->stats().max(), 100.0);
  EXPECT_DOUBLE_EQ(h->stats().mean(), 50.5);
  // Power-of-two buckets give coarse quantiles; they must be ordered,
  // within the observed range, and roughly in the right region.
  const double p50 = h->quantile(0.5);
  const double p90 = h->quantile(0.9);
  EXPECT_GE(p50, 1.0);
  EXPECT_LE(p50, 100.0);
  EXPECT_LE(p50, p90);
  EXPECT_GE(p90, 50.0);
}

TEST(MetricsTest, HistogramMergeMatchesCombinedStream) {
  Histogram whole, left, right;
  for (int i = 0; i < 64; ++i) {
    const double x = static_cast<double>(i * 7 % 50);
    whole.add(x);
    (i % 2 == 0 ? left : right).add(x);
  }
  left.merge(right);
  EXPECT_EQ(left.stats().count(), whole.stats().count());
  EXPECT_DOUBLE_EQ(left.stats().min(), whole.stats().min());
  EXPECT_DOUBLE_EQ(left.stats().max(), whole.stats().max());
  EXPECT_NEAR(left.stats().mean(), whole.stats().mean(), 1e-12);
  EXPECT_DOUBLE_EQ(left.quantile(0.5), whole.quantile(0.5));
}

TEST(MetricsTest, EmptyHistogramQuantileIsNaN) {
  Histogram h;
  EXPECT_TRUE(std::isnan(h.quantile(0.5)));
  EXPECT_TRUE(std::isnan(h.quantile(0.0)));
  EXPECT_TRUE(std::isnan(h.quantile(1.0)));
}

TEST(MetricsTest, SingleSampleQuantileIsTheSample) {
  Histogram h;
  h.add(42.0);
  // With one observation every quantile is that observation — the estimate
  // is clamped to the exact observed [min, max].
  EXPECT_DOUBLE_EQ(h.quantile(0.0), 42.0);
  EXPECT_DOUBLE_EQ(h.quantile(0.5), 42.0);
  EXPECT_DOUBLE_EQ(h.quantile(0.99), 42.0);
  EXPECT_DOUBLE_EQ(h.quantile(1.0), 42.0);
}

TEST(MetricsTest, AllEqualSamplesCollapseEveryQuantile) {
  Histogram h;
  for (int i = 0; i < 1000; ++i) h.add(7.5);
  EXPECT_DOUBLE_EQ(h.quantile(0.0), 7.5);
  EXPECT_DOUBLE_EQ(h.quantile(0.5), 7.5);
  EXPECT_DOUBLE_EQ(h.quantile(0.9), 7.5);
  EXPECT_DOUBLE_EQ(h.quantile(1.0), 7.5);
}

TEST(MetricsTest, ExtremeQuantilesClampToObservedRange) {
  Histogram h;
  for (int i = 1; i <= 100; ++i) h.add(static_cast<double>(i));
  // q=0 / q=1 never extrapolate past the exact min/max, regardless of the
  // power-of-two bucket the extreme samples landed in.
  EXPECT_DOUBLE_EQ(h.quantile(0.0), 1.0);
  EXPECT_DOUBLE_EQ(h.quantile(1.0), 100.0);
  // Every interior quantile stays inside the range too.
  for (const double q : {0.01, 0.25, 0.5, 0.75, 0.99}) {
    EXPECT_GE(h.quantile(q), 1.0) << "q=" << q;
    EXPECT_LE(h.quantile(q), 100.0) << "q=" << q;
  }
}

TEST(MetricsTest, JsonRoundTrips) {
  MetricsRegistry m;
  m.add("counter.one", 7);
  m.observe("hist.one", 3.0);
  m.observe("hist.one", 5.0);
  std::ostringstream os;
  JsonWriter json(os);
  m.writeJson(json);
  JsonValue doc;
  std::string error;
  ASSERT_TRUE(parseJson(os.str(), &doc, &error)) << error;
  EXPECT_EQ(doc.find("counters")->find("counter.one")->number, 7.0);
  const JsonValue* hist = doc.find("histograms")->find("hist.one");
  ASSERT_NE(hist, nullptr);
  EXPECT_EQ(hist->find("count")->number, 2.0);
  EXPECT_EQ(hist->find("mean")->number, 4.0);
}

// Minimal OpenMetrics text parse: "name{labels} value" / "name value"
// sample lines into a map, ignoring '#' comment lines. Enough to verify
// the exposition round-trips the registry's numbers.
std::map<std::string, double> parseOpenMetricsSamples(const std::string& text) {
  std::map<std::string, double> samples;
  std::istringstream in(text);
  std::string line;
  while (std::getline(in, line)) {
    if (line.empty() || line[0] == '#') continue;
    const std::size_t space = line.rfind(' ');
    EXPECT_NE(space, std::string::npos) << "bad sample line: " << line;
    samples[line.substr(0, space)] = std::stod(line.substr(space + 1));
  }
  return samples;
}

TEST(MetricsTest, OpenMetricsExpositionRoundTrips) {
  MetricsRegistry m;
  m.add("see.expansions.L0", 100);
  m.add("see.expansions.L1", 23);
  m.add("see.oracle_rejects.L0", 41);
  m.add("see.oracle_rejects.L2", 9);
  m.add("hca.backtracks", 7);
  for (int i = 1; i <= 4; ++i) m.observe("attempt.wall_us", i * 10.0);

  std::ostringstream os;
  m.writeOpenMetrics(os);
  const std::string text = os.str();

  // Spec shape: TYPE lines for every family, EOF terminator last.
  EXPECT_NE(text.find("# TYPE hca_see_expansions counter"),
            std::string::npos);
  EXPECT_NE(text.find("# TYPE hca_attempt_wall_us summary"),
            std::string::npos);
  EXPECT_EQ(text.rfind("# EOF\n"), text.size() - 6);

  const auto samples = parseOpenMetricsSamples(text);
  // .L<level> suffixes are lifted into level labels of one family.
  EXPECT_EQ(samples.at("hca_see_expansions_total{level=\"0\"}"), 100.0);
  EXPECT_EQ(samples.at("hca_see_expansions_total{level=\"1\"}"), 23.0);
  EXPECT_EQ(samples.at("hca_see_oracle_rejects_total{level=\"0\"}"), 41.0);
  EXPECT_EQ(samples.at("hca_see_oracle_rejects_total{level=\"2\"}"), 9.0);
  EXPECT_EQ(samples.at("hca_hca_backtracks_total"), 7.0);
  // Summary count/sum reproduce the histogram's exact moments.
  EXPECT_EQ(samples.at("hca_attempt_wall_us_count"), 4.0);
  EXPECT_EQ(samples.at("hca_attempt_wall_us_sum"), 100.0);
  EXPECT_EQ(samples.count("hca_attempt_wall_us{quantile=\"0.5\"}"), 1u);
}

TEST(MetricsTest, PrintTableListsEveryName) {
  MetricsRegistry m;
  m.add("alpha", 1);
  m.observe("beta", 2.0);
  std::ostringstream os;
  m.printTable(os);
  EXPECT_NE(os.str().find("alpha"), std::string::npos);
  EXPECT_NE(os.str().find("beta"), std::string::npos);
}

// --- sub-problem cache counters ----------------------------------------------

TEST(CacheStatsTest, CountsHitsMissesPerShard) {
  core::SubproblemCache cache;
  see::SeeResult result;
  result.legal = true;
  EXPECT_EQ(cache.lookup("k1"), nullptr);
  cache.insert("k1", result);
  EXPECT_NE(cache.lookup("k1"), nullptr);
  EXPECT_NE(cache.lookup("k1"), nullptr);
  EXPECT_EQ(cache.hits(), 2);
  EXPECT_EQ(cache.misses(), 1);
  EXPECT_EQ(cache.evictions(), 0);
  EXPECT_EQ(cache.entries(), 1);
}

TEST(CacheStatsTest, BoundedCacheEvictsOldestFirst) {
  see::SeeResult result;
  // A byte ceiling with room for exactly two entries of equal size.
  core::SubproblemCache cache(
      /*maxBytes=*/2 * core::SubproblemCache::entryBytes("a", result));
  cache.insert("a", result);
  cache.insert("b", result);
  cache.insert("c", result);  // evicts "a"
  EXPECT_EQ(cache.lookup("a"), nullptr);
  EXPECT_NE(cache.lookup("b"), nullptr);
  EXPECT_NE(cache.lookup("c"), nullptr);
  EXPECT_EQ(cache.evictions(), 1);
  EXPECT_EQ(cache.entries(), 2);
}

TEST(CacheStatsTest, DroppedEntriesFreeTheirBytesAndKeepTheCounters) {
  // The driver frees an attempt's cache when the attempt returns, after
  // adding its counters to the attempt's metrics. An entry a solve frame
  // still holds outlives both an eviction and the cache itself.
  see::SeeResult result;
  result.failureReason = "no candidates";
  std::shared_ptr<const see::SeeResult> held;
  {
    core::SubproblemCache cache(
        /*maxBytes=*/core::SubproblemCache::entryBytes("k1", result));
    held = cache.insert("k1", result);
    EXPECT_NE(cache.lookup("k1"), nullptr);
    EXPECT_EQ(cache.lookup("k2"), nullptr);
    EXPECT_EQ(cache.bytesUsed(),
              core::SubproblemCache::entryBytes("k1", result));
    EXPECT_EQ(held.use_count(), 2);
    cache.insert("k2", result);  // evicts "k1"
    EXPECT_EQ(cache.lookup("k1"), nullptr);
    EXPECT_EQ(cache.entries(), 1);
    EXPECT_EQ(cache.bytesUsed(),
              core::SubproblemCache::entryBytes("k2", result));
    EXPECT_EQ(cache.hits(), 1);
    EXPECT_EQ(cache.misses(), 2);
    EXPECT_EQ(cache.evictions(), 1);
  }
  ASSERT_EQ(held.use_count(), 1);
  EXPECT_EQ(held->failureReason, "no candidates");
}

// --- driver integration -----------------------------------------------------

struct SolveSpanInfo {
  std::string path;
  std::string parentPath;  // path of the nearest enclosing solve span
  int level = 0;
};

/// Extracts the solve spans with their parent-solve paths, in completion
/// order, from a traced run.
std::vector<SolveSpanInfo> solveTree(const Tracer& tracer) {
  const auto spans = tracer.spans();
  std::map<std::int64_t, const Tracer::SpanRecord*> byId;
  for (const auto& span : spans) byId[span.id] = &span;
  const auto argOf = [](const Tracer::SpanRecord& span, const char* key) {
    for (const auto& [k, v] : span.args) {
      if (k == key) return v;
    }
    return std::string();
  };
  std::vector<SolveSpanInfo> out;
  for (const auto& span : spans) {
    if (std::string(span.name) != "solve") continue;
    SolveSpanInfo info;
    info.path = argOf(span, "path");
    info.level = std::stoi(argOf(span, "level"));
    std::int64_t parent = span.parentId;
    while (parent >= 0) {
      const auto it = byId.find(parent);
      if (it == byId.end()) break;
      if (std::string(it->second->name) == "solve") {
        info.parentPath = argOf(*it->second, "path");
        break;
      }
      parent = it->second->parentId;
    }
    out.push_back(info);
  }
  return out;
}

core::HcaResult tracedRun(Tracer* tracer) {
  const auto kernels = ddg::table1Kernels();
  const ddg::Kernel* fir2dim = nullptr;
  for (const auto& kernel : kernels) {
    if (kernel.name == "fir2dim") fir2dim = &kernel;
  }
  EXPECT_NE(fir2dim, nullptr);
  machine::DspFabricModel model{machine::DspFabricConfig{}};
  core::HcaOptions options;
  options.tracer = tracer;
  const core::HcaDriver driver(model, options);
  return driver.run(fir2dim->ddg);
}

TEST(DriverTraceTest, OneSolveSpanPerSubproblemNestedByPath) {
  Tracer tracer;
  const core::HcaResult result = tracedRun(&tracer);
  ASSERT_TRUE(result.legal);
  const auto tree = solveTree(tracer);
  // One solve span per SEE sub-problem the driver visited.
  EXPECT_EQ(static_cast<int>(tree.size()), result.stats.problemsSolved);
  for (const auto& info : tree) {
    if (info.path.empty()) {
      EXPECT_EQ(info.level, 0);
      EXPECT_EQ(info.parentPath, "");
      continue;
    }
    // `a.b.c` nests under `a.b` (the root's path is empty).
    const std::size_t dot = info.path.rfind('.');
    const std::string expectedParent =
        dot == std::string::npos ? "" : info.path.substr(0, dot);
    EXPECT_EQ(info.parentPath, expectedParent) << "path " << info.path;
    EXPECT_EQ(info.level,
              1 + static_cast<int>(std::count(info.path.begin(),
                                              info.path.end(), '.')));
  }
}

TEST(DriverTraceTest, SpanTreeIsDeterministic) {
  Tracer first, second;
  const core::HcaResult a = tracedRun(&first);
  const core::HcaResult b = tracedRun(&second);
  ASSERT_TRUE(a.legal);
  ASSERT_TRUE(b.legal);
  const auto treeA = solveTree(first);
  const auto treeB = solveTree(second);
  ASSERT_EQ(treeA.size(), treeB.size());
  for (std::size_t i = 0; i < treeA.size(); ++i) {
    EXPECT_EQ(treeA[i].path, treeB[i].path);
    EXPECT_EQ(treeA[i].parentPath, treeB[i].parentPath);
    EXPECT_EQ(treeA[i].level, treeB[i].level);
  }
  // Same span-name census, too.
  const auto census = [](const Tracer& tracer) {
    std::map<std::string, int> counts;
    for (const auto& span : tracer.spans()) ++counts[span.name];
    return counts;
  };
  EXPECT_EQ(census(first), census(second));
}

TEST(DriverTraceTest, UntracedRunCollectsMetricsOnly) {
  const core::HcaResult result = tracedRun(nullptr);
  ASSERT_TRUE(result.legal);
  EXPECT_FALSE(result.metrics.empty());
  EXPECT_EQ(result.metrics.counterValue("ladder.rung.primary"), 1);
  // The per-level SEE series mirror the aggregate HcaStats counters.
  std::int64_t expansions = 0;
  for (int level = 0; level < 3; ++level) {
    expansions += result.metrics.counterValue(
        strCat("see.expansions.L", level));
  }
  EXPECT_EQ(expansions, result.stats.statesExplored);
  std::int64_t hits = 0;
  std::int64_t misses = 0;
  for (int level = 0; level < 3; ++level) {
    hits += result.metrics.counterValue(strCat("cache.hits.L", level));
    misses += result.metrics.counterValue(strCat("cache.misses.L", level));
  }
  EXPECT_EQ(hits, result.stats.cacheHits);
  EXPECT_EQ(misses, result.stats.cacheMisses);
  // One resident-bytes sample per attempt, taken as its cache is freed.
  const Histogram* bytes = result.metrics.findHistogram("cache.bytes");
  ASSERT_NE(bytes, nullptr);
  EXPECT_EQ(bytes->stats().count(), result.stats.outerAttempts);
  EXPECT_GT(bytes->stats().sum(), 0.0);
}

TEST(DriverTraceTest, DroppedLadderCacheStillReportsItsEntries) {
  // Under a tight beam budget fir2dim falls back to the degraded-bandwidth
  // rung. Every attempt of either ladder frees its cache when it returns;
  // the cache.* metrics must still count the entries it held: without
  // evictions every miss inserted one entry.
  const auto kernels = ddg::table1Kernels();
  machine::DspFabricConfig config;
  config.n = config.m = config.k = 8;
  core::HcaOptions options;
  options.see.maxBeamSteps = 40;
  const core::HcaResult result =
      core::HcaDriver(machine::DspFabricModel(config), options)
          .run(kernels[0].ddg);
  ASSERT_EQ(kernels[0].name, "fir2dim");
  ASSERT_EQ(result.fallbackUsed, "degraded-bandwidth");
  EXPECT_GT(result.metrics.counterValue("cache.entries"), 0);
  EXPECT_EQ(result.metrics.counterValue("cache.entries"),
            result.metrics.counterValue("cache.misses"));
  EXPECT_EQ(result.metrics.counterValue("cache.misses"),
            result.stats.cacheMisses);
  EXPECT_EQ(result.metrics.counterValue("cache.evictions"), 0);
  const Histogram* bytes = result.metrics.findHistogram("cache.bytes");
  ASSERT_NE(bytes, nullptr);
  EXPECT_EQ(bytes->stats().count(), result.stats.outerAttempts);
}

TEST(DriverTraceTest, AttemptCachesHarvestTheRunsCacheCounters) {
  // Each attempt owns its cache and adds its counters to the run's metrics
  // when it frees it. Summed over every attempt of either ladder (the
  // degrade runs reach the nested degraded-bandwidth ladder), they are the
  // run's cache counters, and without evictions every miss left one entry.
  const auto kernels = ddg::table1Kernels();
  machine::DspFabricConfig config;
  config.n = config.m = config.k = 3;
  for (const std::size_t k : {std::size_t{0}, std::size_t{3}}) {
    for (const auto policy :
         {core::FailurePolicy::kStrict, core::FailurePolicy::kDegrade}) {
      SCOPED_TRACE(strCat(kernels[k].name, policy == core::FailurePolicy::kStrict
                                               ? " strict"
                                               : " degrade"));
      core::HcaOptions options;
      options.failurePolicy = policy;
      const core::HcaResult result =
          core::HcaDriver(machine::DspFabricModel(config), options)
              .run(kernels[k].ddg);
      const auto counter = [&](const char* name) {
        return result.metrics.counterValue(name);
      };
      EXPECT_GT(counter("cache.hits"), 0);
      EXPECT_EQ(counter("cache.hits"), result.stats.cacheHits);
      EXPECT_EQ(counter("cache.misses"), result.stats.cacheMisses);
      EXPECT_EQ(counter("cache.entries"),
                counter("cache.misses") - counter("cache.evictions"));
    }
  }
}

TEST(ReportTest, RunReportJsonIsValidAndComplete) {
  const core::HcaResult result = tracedRun(nullptr);
  ASSERT_TRUE(result.legal);
  machine::DspFabricModel model{machine::DspFabricConfig{}};
  const std::string text = core::runReportJson(result, &model);
  JsonValue doc;
  std::string error;
  ASSERT_TRUE(parseJson(text, &doc, &error)) << error;
  EXPECT_TRUE(doc.find("legal")->boolean);
  EXPECT_EQ(doc.find("failure")->kind, JsonValue::Kind::kNull);
  EXPECT_EQ(doc.find("stats")->find("problemsSolved")->number,
            static_cast<double>(result.stats.problemsSolved));
  const JsonValue* levels = doc.find("levels");
  ASSERT_NE(levels, nullptr);
  ASSERT_EQ(levels->array.size(), 3u);  // the default fabric has 3 levels
  EXPECT_EQ(levels->array[0].find("name")->string, "cluster-sets");
  EXPECT_EQ(levels->array[2].find("name")->string, "leaf-crossbars");
  for (const JsonValue& level : levels->array) {
    EXPECT_GT(level.find("problems")->number, 0.0);
    EXPECT_NE(level.find("cacheHits"), nullptr);
    EXPECT_NE(level.find("wireUtilization"), nullptr);
  }
  EXPECT_NE(doc.find("metrics")->find("counters"), nullptr);
}

}  // namespace
}  // namespace hca
