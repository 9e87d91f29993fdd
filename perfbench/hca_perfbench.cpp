// Benchmark program: compiles one workload's inputs in a closed loop and
// prints the raw measurements as one JSON object on stdout. perfbench/run.py
// builds this program, runs it and turns the raw samples into the metrics
// named in BENCHMARK.json (see perfbench/README.md for the definitions).
//
//   hca_perfbench --workload <name> --seed <n> --seconds <s> --trace <0|1>
//
// Load shape: one process, one thread (HcaOptions::numThreads = 1, the
// deterministic serial sweep). Each round compiles every input once, in
// input order, after one untimed warm-up round. The timed region of one
// compile is HcaDriver construction + run + computeMii + buildFinalMapping
// (runFlatIca on flat-ica); output checks run outside it.
//
// With --trace 1 the rounds alternate between untraced and traced, and the
// traced compiles carry a benchmark-owned Tracer whose spans are folded into
// per-layer self times.
//
// Every timed phase (set-up, untraced and traced compiles) is sampled by the
// host-speed gauge below; run.py scales the phase's times to reference host
// speed with the median of its gauge samples.

#include <signal.h>
#include <sys/resource.h>
#include <sys/syscall.h>
#include <sys/time.h>
#include <unistd.h>

#include <algorithm>
#include <atomic>
#include <cerrno>
#include <chrono>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <iostream>
#include <map>
#include <memory>
#include <set>
#include <stdexcept>
#include <sstream>
#include <string>
#include <utility>
#include <vector>

#include "baseline/flat_ica.hpp"
#include "ddg/interp.hpp"
#include "ddg/kernels.hpp"
#include "ddg/serialize.hpp"
#include "hca/driver.hpp"
#include "hca/mii.hpp"
#include "hca/postprocess.hpp"
#include "machine/fault_inject.hpp"
#include "sched/modulo.hpp"
#include "sim/simulator.hpp"
#include "support/context.hpp"
#include "support/json.hpp"
#include "support/rng.hpp"
#include "support/trace.hpp"
#include "verify/verify.hpp"

using namespace hca;

namespace {

constexpr int kLevels = 3;  // {4,4,4} fabric: L0 cluster sets, L1, L2 leaves
constexpr int kSimIterations = 8;
// Set-up is repeated until this much time has passed (and at least
// kMinSetupReps times) so that setup_s is a median of many repetitions.
constexpr double kSetupSeconds = 1.0;
constexpr int kMinSetupReps = 5;
constexpr int kMaxSetupReps = 1000;

double secondsSince(MonotonicTime from) {
  return std::chrono::duration<double>(monotonicNow() - from).count();
}

// ---- Host-speed gauge ------------------------------------------------------
//
// The benchmark runs on shared hosts whose speed for this program swings by
// up to 1.8x, for seconds to minutes at a time, while other tenants load the
// same physical cores. A run's medians then follow the host, not the
// compiler, and neither a median nor a minimum over the run fixes that. The
// gauge is a fixed reference workload that slows with the host: eight
// independent integer chains held in registers, which need the core's full
// issue width. It touches no memory, so the compiler's own cache footprint
// cannot change it. A wall-clock timer runs one gauge sample on the
// benchmark's own thread every kGaugePeriodUs, interleaved with the work it
// calibrates. Each sample is filed under the phase that was running, and its
// time is taken out of that phase's timed regions (Stopwatch).

enum Phase : int { kIdle, kSetup, kUntraced, kTraced, kNumPhases };

constexpr int kGaugePeriodUs = 20000;
constexpr std::uint64_t kGaugeSteps = 200000;
constexpr std::size_t kMaxGaugeSamples = std::size_t{1} << 16;

struct Gauge {
  long tid = 0;
  std::atomic<int> phase{kIdle};
  std::atomic<std::int64_t> busyNs{0};
  std::vector<double> samples[kNumPhases];  // reserved; never reallocated
  volatile std::uint64_t sink = 0;
};

Gauge gauge;

std::uint64_t gaugeWork() {
  std::uint64_t a = 1, b = 2, c = 3, d = 4, e = 5, f = 6, x = 7, y = 8;
  for (std::uint64_t i = 0; i < kGaugeSteps; ++i) {
    a += i ^ b;
    b ^= a << 1;
    c += d ^ i;
    d ^= c >> 2;
    e += f ^ i;
    f ^= e << 3;
    x += y ^ i;
    y ^= x >> 1;
    // Keeps the chains in registers, unvectorised and unfolded.
    __asm__ volatile("" : "+r"(a), "+r"(b), "+r"(c), "+r"(d), "+r"(e),
                     "+r"(f), "+r"(x), "+r"(y));
  }
  return a ^ b ^ c ^ d ^ e ^ f ^ x ^ y;
}

// SIGALRM handler; it allocates nothing (samples are reserved up front).
void onGaugeTimer(int) {
  const int phase = gauge.phase.load(std::memory_order_relaxed);
  if (phase == kIdle || syscall(SYS_gettid) != gauge.tid) return;
  const int savedErrno = errno;
  const auto start = monotonicNow();
  gauge.sink = gauge.sink + gaugeWork();
  const std::int64_t ns =
      std::chrono::duration_cast<std::chrono::nanoseconds>(monotonicNow() -
                                                           start)
          .count();
  gauge.busyNs.fetch_add(ns, std::memory_order_relaxed);
  std::vector<double>& samples = gauge.samples[phase];
  if (samples.size() < samples.capacity()) {
    samples.push_back(static_cast<double>(ns) * 1e-9);
  }
  errno = savedErrno;
}

void startGauge() {
  for (auto& samples : gauge.samples) samples.reserve(kMaxGaugeSamples);
  gauge.tid = syscall(SYS_gettid);
  struct sigaction action {};
  action.sa_handler = onGaugeTimer;
  action.sa_flags = SA_RESTART;
  sigemptyset(&action.sa_mask);
  sigaction(SIGALRM, &action, nullptr);
  struct itimerval period {};
  period.it_interval.tv_usec = kGaugePeriodUs;
  period.it_value.tv_usec = kGaugePeriodUs;
  setitimer(ITIMER_REAL, &period, nullptr);
}

void stopGauge() {
  const struct itimerval off {};
  setitimer(ITIMER_REAL, &off, nullptr);
  gauge.phase = kIdle;
}

// Elapsed time of a region, minus the gauge samples taken inside it.
class Stopwatch {
 public:
  Stopwatch() : start_(monotonicNow()), busyNs_(gauge.busyNs.load()) {}
  double seconds() const {
    return secondsSince(start_) -
           static_cast<double>(gauge.busyNs.load() - busyNs_) * 1e-9;
  }

 private:
  MonotonicTime start_;
  std::int64_t busyNs_;
};

struct Workload {
  std::vector<std::string> kernels;
  bool flat = false;
  bool faults = false;
};

Workload workloadNamed(const std::string& name) {
  if (name == "table1-direct") return {{"fir2dim", "idcthor", "mpeg2inter"}};
  if (name == "h264-ladder") return {{"h264deblocking"}};
  if (name == "flat-ica") {
    return {{"fir2dim", "idcthor", "mpeg2inter", "h264deblocking"}, true};
  }
  if (name == "faults-verify") {
    return {{"fir2dim", "idcthor", "mpeg2inter"}, false, true};
  }
  return {};
}

ddg::Kernel buildKernel(const std::string& name) {
  if (name == "fir2dim") return ddg::buildFir2Dim();
  if (name == "idcthor") return ddg::buildIdctHor();
  if (name == "mpeg2inter") return ddg::buildMpeg2Inter();
  return ddg::buildH264Deblocking();
}

machine::DspFabricConfig fabricConfig() {
  machine::DspFabricConfig config;
  config.n = config.m = config.k = 8;  // the paper's Table 1 configuration
  return config;
}

// faults-verify compiles each kernel against kFaultSets fault sets of one
// dead CN, one dead wire and one dead lane each. Heavier sets (two dead CNs)
// swing a kernel's compile time by up to 30x from one draw to the next, and
// fewer sets let the geomean, II and peak RSS follow the seed rather than
// the compiler.
constexpr int kFaultSets = 8;

machine::FaultInjectParams faultParams() {
  machine::FaultInjectParams params;
  params.deadCns = 1;
  params.deadWires = 1;
  params.deadLanes = 1;
  return params;
}

struct Input {
  std::string name;
  ddg::Ddg ddg;  // after the text round trip
  std::shared_ptr<const machine::DspFabricModel> model;
  ddg::InterpConfig interp;
  ddg::InterpResult reference;
  int faults = 0;
};

struct SetupTimes {
  double total = 0;
  double machine = 0;
  double parse = 0;
  double interp = 0;
};

// Everything before the warm-up: machine model(s) with their fault pattern
// graphs and viability checks, the kernel DDGs, the DDG text round trip and
// the reference interpretation used by the output check.
std::vector<Input> setUp(const Workload& workload, std::uint64_t seed,
                         SetupTimes& times) {
  const Stopwatch start;
  std::vector<Input> inputs;
  Stopwatch t;
  const auto shared =
      std::make_shared<const machine::DspFabricModel>(fabricConfig());
  times.machine += t.seconds();
  const std::size_t sets = workload.faults ? kFaultSets : 1;
  for (std::size_t i = 0; i < workload.kernels.size() * sets; ++i) {
    const ddg::Kernel kernel =
        buildKernel(workload.kernels[i % workload.kernels.size()]);
    Input in;
    in.name = kernel.name;
    if (workload.faults) {
      in.name += "/f" + std::to_string(i / workload.kernels.size());
    }
    in.model = shared;
    if (workload.faults) {
      t = Stopwatch();
      Rng rng(seed * 1000003u + i);
      machine::FaultSet faults =
          machine::injectRandomFaults(rng, *shared, faultParams());
      in.faults = faults.totalFaults();
      auto model = std::make_shared<const machine::DspFabricModel>(
          fabricConfig(), std::move(faults));
      const std::string viability = model->faultViabilityError();
      if (!viability.empty()) {
        throw std::runtime_error("fault set not viable: " + viability);
      }
      // The fault-aware pattern graph of every sub-problem of the tree.
      std::vector<std::vector<int>> frontier{{}};
      while (!frontier.empty()) {
        std::vector<int> path = std::move(frontier.back());
        frontier.pop_back();
        (void)model->patternGraphAt(path);
        if (static_cast<int>(path.size()) + 1 >= model->numLevels()) continue;
        for (int c = 0; c < model->levelSpec(static_cast<int>(path.size()))
                                .children;
             ++c) {
          auto child = path;
          child.push_back(c);
          frontier.push_back(std::move(child));
        }
      }
      in.model = std::move(model);
      times.machine += t.seconds();
    }
    t = Stopwatch();
    in.ddg = ddg::fromText(ddg::toText(kernel.ddg));
    times.parse += t.seconds();
    t = Stopwatch();
    in.interp = ddg::kernelInterpConfig(
        kernel, std::min(kernel.safeIterations, kSimIterations), seed);
    in.reference = ddg::interpret(in.ddg, in.interp);
    times.interp += t.seconds();
    inputs.push_back(std::move(in));
  }
  times.total += start.seconds();
  return inputs;
}

// ---- One compile -----------------------------------------------------------

struct Compiled {
  core::HcaResult hca;
  core::MiiReport mii;
  mapper::FinalMapping mapping;
  baseline::FlatIcaResult flat;
};

core::HcaOptions hcaOptions(const Workload& workload, Tracer* tracer) {
  core::HcaOptions options;
  options.numThreads = 1;
  options.tracer = tracer;
  if (workload.faults) {
    options.failurePolicy = core::FailurePolicy::kDegrade;
    options.verifyEach = true;
  }
  return options;
}

// The timed region. Spans are recorded around the calls into each module.
Compiled compile(const Workload& workload, const Input& in, Tracer* tracer) {
  Compiled out;
  TraceSpan root(tracer, "bench", "compile");
  if (workload.flat) {
    TraceSpan span(tracer, "bench", "flat-ica");
    out.flat = baseline::runFlatIca(in.ddg, *in.model);
    return out;
  }
  {
    TraceSpan span(tracer, "bench", "driver");
    const core::HcaDriver driver(*in.model, hcaOptions(workload, tracer));
    out.hca = driver.run(in.ddg);
  }
  if (!out.hca.legal) return out;
  {
    TraceSpan span(tracer, "bench", "mii");
    out.mii = core::computeMii(in.ddg, *in.model, out.hca);
  }
  {
    TraceSpan span(tracer, "bench", "final-mapping");
    out.mapping = core::buildFinalMapping(in.ddg, *in.model, out.hca);
  }
  return out;
}

// ---- Summary, determinism fingerprint and output check ---------------------

using Counts = std::map<std::string, std::int64_t>;

std::string lvl(const char* name, int level) {
  return std::string(name) + ".L" + std::to_string(level);
}

// Inter-CN (value, consumer CN) copies a flat assignment needs.
int flatRecvs(const ddg::Ddg& ddg, const std::vector<CnId>& assignment) {
  std::set<std::pair<std::int32_t, std::int32_t>> copies;
  for (std::int32_t v = 0; v < ddg.numNodes(); ++v) {
    const ddg::DdgNode& node = ddg.node(DdgNodeId(v));
    if (!ddg::isInstruction(node.op)) continue;
    const CnId cn = assignment[static_cast<std::size_t>(v)];
    for (const ddg::Operand& op : node.operands) {
      if (!ddg::isInstruction(ddg.node(op.src).op)) continue;
      if (assignment[op.src.index()] != cn) {
        copies.emplace(op.src.value(), cn.value());
      }
    }
  }
  return static_cast<int>(copies.size());
}

// Deterministic outcome of one compile: what the end-to-end metrics read
// and every counter the run exposes. Equal across rounds by contract.
struct Summary {
  bool legal = false;
  int ii = 0;
  int recvs = 0;
  int rung = 0;  // 1 primary sweep .. 4 flat ICA
  Counts counts;
  std::string fingerprint;
};

int rungOf(const std::string& fallbackUsed) {
  if (fallbackUsed.empty()) return 1;
  if (fallbackUsed == "beam-backoff") return 2;
  if (fallbackUsed == "degraded-bandwidth") return 3;
  return 4;
}

Summary summarize(const Workload& workload, const Input& in,
                  const Compiled& out) {
  Summary s;
  std::ostringstream fp;
  Counts& c = s.counts;
  if (workload.flat) {
    const baseline::FlatIcaResult& f = out.flat;
    s.legal = f.assignmentLegal;
    s.ii = f.maxCnPressure;
    s.recvs = f.assignmentLegal ? flatRecvs(in.ddg, f.assignment) : 0;
    s.rung = 4;
    const see::SeeStats& see = f.seeStats;
    c["see.states_expanded"] = see.statesExplored;
    c["see.candidates"] = see.candidatesEvaluated;
    c["see.pruned"] = see.statesPruned;
    c["see.route_invocations"] = see.routeInvocations;
    c["see.route_failures"] = see.routeFailures;
    c["see.routed_operands"] = see.routedOperands;
    c["see.oracle_rejects"] = see.oracleRejects;
    c["see.route_memo_hits"] = see.routeMemoHits;
    c["see.dominance_pruned"] = see.dominancePruned;
    c["see.snapshots"] = see.snapshotsMaterialized;
    c["see.copies_avoided"] = see.copiesAvoided;
    c["see.arena_bytes_peak"] = see.arenaBytesPeak;
    c["see.calls"] = 1;
    c["baseline.assignment_legal"] = f.assignmentLegal ? 1 : 0;
    c["baseline.hierarchy_legal"] = f.hierarchyLegal ? 1 : 0;
    fp << f.hierarchy.problemsChecked << ';' << f.hierarchy.maxWirePressure
       << ';';
    for (const CnId cn : f.assignment) fp << cn.value() << ',';
  } else {
    const core::HcaResult& r = out.hca;
    const core::HcaStats& st = r.stats;
    s.legal = r.legal;
    s.ii = r.legal ? out.mii.finalMii : 0;
    s.recvs = r.legal ? static_cast<int>(out.mapping.recvs.size()) : 0;
    s.rung = rungOf(r.fallbackUsed);
    c["hca.outer_attempts"] = st.outerAttempts;
    c["hca.legal_attempts"] = r.metrics.counterValue("attempt.legal");
    c["hca.backtracks"] = st.backtrackAttempts;
    c["hca.solves"] = st.problemsSolved;
    c["hca.cache_hits"] = st.cacheHits;
    c["hca.cache_misses"] = st.cacheMisses;
    c["hca.fallback"] = r.fallbackUsed.empty() ? 0 : 1;
    c["see.states_expanded"] = st.statesExplored;
    c["see.candidates"] = st.candidatesEvaluated;
    c["see.route_invocations"] = st.routeInvocations;
    c["see.oracle_rejects"] = st.seeOracleRejects;
    c["see.route_memo_hits"] = st.seeRouteMemoHits;
    c["see.dominance_pruned"] = st.seeDominancePruned;
    c["see.snapshots"] = st.seeSnapshotsMaterialized;
    c["see.copies_avoided"] = st.seeCopiesAvoided;
    c["see.arena_bytes_peak"] = st.seeArenaBytesPeak;
    for (int l = 0; l < kLevels; ++l) {
      const auto m = [&](const char* name) {
        return r.metrics.counterValue(lvl(name, l));
      };
      c[lvl("hca.backtracks", l)] = m("hca.backtracks");
      c[lvl("hca.cache_hits", l)] = m("cache.hits");
      c[lvl("hca.cache_misses", l)] = m("cache.misses");
      c[lvl("see.route_failures", l)] = m("see.route_failures");
      c[lvl("mapper.failures", l)] = m("mapper.failures");
      c["see.pruned"] += m("see.pruned");
      c["see.route_failures"] += m("see.route_failures");
      c["see.routed_operands"] += m("see.routed_operands");
      c["mapper.failures"] += m("mapper.failures");
    }
    for (const auto& [name, value] : r.metrics.counters()) {
      fp << name << '=' << value << ';';
    }
    for (const CnId cn : r.assignment) fp << cn.value() << ',';
    for (const auto& relay : r.relays) {
      fp << relay.value.value() << '@' << relay.cn.value() << ',';
    }
    fp << r.fallbackUsed << ';' << st.maxWirePressure << ';'
       << st.achievedTargetIi << ';' << st.attemptsCancelled << ';';
  }
  fp << s.legal << ';' << s.ii << ';' << s.recvs << ';';
  for (const auto& [name, value] : c) fp << name << '=' << value << ';';
  s.fingerprint = fp.str();
  return s;
}

struct CheckTimes {
  double modulo = 0;
  double sim = 0;
};

// Independent output check of one result; returns "" when it passes.
std::string checkOutput(const Workload& workload, const Input& in,
                        const Compiled& out, CheckTimes& times) {
  if (workload.flat) {
    // Every instruction sits on an alive CN, and no CN holds more
    // instructions plus direct receives than the reported flat MII.
    const baseline::FlatIcaResult& f = out.flat;
    if (!f.assignmentLegal) return "flat assignment illegal: " + f.failureReason;
    const int cns = in.model->totalCns();
    std::vector<int> load(static_cast<std::size_t>(cns), 0);
    std::set<std::pair<std::int32_t, std::int32_t>> recvs;
    for (std::int32_t v = 0; v < in.ddg.numNodes(); ++v) {
      const ddg::DdgNode& node = in.ddg.node(DdgNodeId(v));
      if (!ddg::isInstruction(node.op)) continue;
      const CnId cn = f.assignment[static_cast<std::size_t>(v)];
      if (!cn.valid() || cn.value() >= cns || !in.model->cnAlive(cn)) {
        return "instruction " + std::to_string(v) + " not on an alive CN";
      }
      ++load[cn.index()];
      for (const ddg::Operand& op : node.operands) {
        if (!ddg::isInstruction(in.ddg.node(op.src).op)) continue;
        if (f.assignment[op.src.index()] != cn &&
            recvs.emplace(op.src.value(), cn.value()).second) {
          ++load[cn.index()];
        }
      }
    }
    const int peak = *std::max_element(load.begin(), load.end());
    if (peak > f.maxCnPressure) {
      return "CN capacity exceeded: " + std::to_string(peak) + " > " +
             std::to_string(f.maxCnPressure);
    }
    return {};
  }
  const core::HcaResult& r = out.hca;
  if (!r.legal) return "illegal: " + r.failureReason;
  auto t = monotonicNow();
  const sched::ModuloResult sched =
      sched::moduloSchedule(out.mapping, *in.model, out.mii.finalMii);
  times.modulo += secondsSince(t);
  if (!sched.ok) return "modulo scheduling failed";
  t = monotonicNow();
  verify::VerifyInput vin;
  vin.ddg = &in.ddg;
  vin.model = in.model.get();
  vin.result = &r;
  vin.mapping = &out.mapping;
  const auto diagnostics = verify::CheckRegistry::builtin().run(vin);
  sim::SimConfig simConfig;
  simConfig.iterations = in.interp.iterations;
  simConfig.memory = in.interp.memory;
  const sim::SimResult simulated =
      sim::simulate(out.mapping, *in.model, sched.schedule, simConfig);
  times.sim += secondsSince(t);
  if (!diagnostics.empty()) {
    return "verify: " + verify::formatDiagnostics(diagnostics);
  }
  if (simulated.memory != in.reference.memory) {
    return "simulated memory differs from ddg::interpret";
  }
  return {};
}

// ---- Span folding ----------------------------------------------------------

using Times = std::map<std::string, double>;

// Folds one traced compile's spans into per-layer self times (seconds) and
// span-derived counts. A span's self time is its duration minus the
// durations of its direct children.
void foldSpans(const Tracer& tracer, Times& times, Counts& counts) {
  const auto spans = tracer.spans();
  std::map<std::int64_t, const Tracer::SpanRecord*> byId;
  std::map<std::int64_t, std::int64_t> childUs;
  for (const auto& s : spans) {
    byId[s.id] = &s;
    childUs[s.parentId] += s.durUs;
  }
  const auto argOf = [](const Tracer::SpanRecord& s, const char* key) {
    for (const auto& [k, v] : s.args) {
      if (k == key) return v;
    }
    return std::string();
  };
  const auto levelOf = [&](const Tracer::SpanRecord& s) {
    const Tracer::SpanRecord* solve = &s;
    if (std::strcmp(s.name, "solve") != 0) {
      const auto it = byId.find(s.parentId);
      if (it == byId.end()) return std::string();
      solve = it->second;
    }
    const std::string level = argOf(*solve, "level");
    return level.empty() ? level : ".L" + level;
  };
  for (const auto& s : spans) {
    const double self =
        static_cast<double>(s.durUs - childUs[s.id]) * 1e-6;
    const double dur = static_cast<double>(s.durUs) * 1e-6;
    const std::string name = s.name;
    const auto parent = byId.find(s.parentId);
    const std::string parentName =
        parent == byId.end() ? "" : parent->second->name;
    if (name == "compile") {
      times["trace.compile_s"] += dur;
      times["trace.unattributed_s"] += self;
    } else if (name == "driver" || name == "run" || name == "attempt" ||
               name.rfind("rung:", 0) == 0) {
      times["hca.run_self_s"] += self;
      if (name == "rung:primary-sweep" && parentName == "run") {
        times["hca.primary_sweep_s"] += dur;
      }
      if (name == "rung:degraded-bandwidth") {
        times["hca.rung_degraded_s"] += dur;
      }
    } else if (name == "solve") {
      times["hca.solve_self_s"] += self;
      times["hca.solve_self_s" + levelOf(s)] += self;
    } else if (name == "see") {
      const std::string level = levelOf(s);
      times["see.self_s"] += self;
      times["see.self_s" + level] += self;
      ++counts["see.calls"];
      ++counts["see.calls" + level];
      counts["see.fresh_states"] += std::atoll(argOf(s, "states").c_str());
    } else if (name == "mapper") {
      times["mapper.self_s"] += self;
      ++counts["mapper.calls"];
    } else if (name == "verify-record" || name == "verify-result") {
      times["verify.self_s"] += self;
      ++counts["verify.calls"];
    } else if (name == "mii") {
      times["post.mii_s"] += self;
    } else if (name == "final-mapping") {
      times["post.final_mapping_s"] += self;
    } else if (name == "flat-ica") {
      times["baseline.flat_ica_s"] += self;
    } else {
      times["trace.unknown_s"] += self;
    }
  }
  counts["trace.dropped_spans"] += tracer.droppedSpans();
}

// ---- Main loop -------------------------------------------------------------

struct InputRecord {
  std::vector<double> untraced;
  std::vector<double> traced;
  Summary reference;  // the warm-up compile's outcome
  std::string error;  // output check failure, "" = passed
  Counts spanCounts;  // from the first traced compile
  Times layerTimes;   // summed over traced compiles
  int compiles = 0;
  int failed = 0;     // compiles whose outcome diverged or failed the check
};

struct Args {
  std::string workload;
  std::uint64_t seed = 1;
  double seconds = 10;
  bool trace = false;
};

bool parseArgs(int argc, char** argv, Args& args) {
  for (int i = 1; i + 1 < argc; i += 2) {
    const std::string key = argv[i];
    const std::string value = argv[i + 1];
    if (key == "--workload") {
      args.workload = value;
    } else if (key == "--seed") {
      args.seed = std::strtoull(value.c_str(), nullptr, 10);
    } else if (key == "--seconds") {
      args.seconds = std::atof(value.c_str());
    } else if (key == "--trace") {
      args.trace = value == "1";
    } else {
      return false;
    }
  }
  return argc % 2 == 1 && !args.workload.empty() && args.seconds > 0;
}

void writeDoubles(JsonWriter& json, const std::vector<double>& values) {
  json.beginArray();
  for (const double v : values) json.value(v);
  json.endArray();
}

}  // namespace

int main(int argc, char** argv) {
  Args args;
  if (!parseArgs(argc, argv, args)) {
    std::fprintf(stderr,
                 "usage: hca_perfbench --workload <name> --seed <n> "
                 "--seconds <s> --trace <0|1>\n");
    return 2;
  }
  const Workload workload = workloadNamed(args.workload);
  if (workload.kernels.empty()) {
    std::fprintf(stderr, "unknown workload '%s'\n", args.workload.c_str());
    return 2;
  }
  // Timing numbers from a build with assertions on are not comparable.
  if (warnIfDebugBuild("hca_perfbench")) return 3;
  startGauge();

  // Set-up, repeated; the last repetition's inputs are the ones compiled.
  std::vector<double> setupSamples;
  SetupTimes setupTimes;
  std::vector<Input> inputs;
  gauge.phase = kSetup;
  const auto setupStart = monotonicNow();
  while (static_cast<int>(setupSamples.size()) < kMinSetupReps ||
         (secondsSince(setupStart) < kSetupSeconds &&
          static_cast<int>(setupSamples.size()) < kMaxSetupReps)) {
    const double before = setupTimes.total;
    inputs = setUp(workload, args.seed, setupTimes);
    setupSamples.push_back(setupTimes.total - before);
  }
  gauge.phase = kIdle;
  const double reps = static_cast<double>(setupSamples.size());

  std::vector<InputRecord> records(inputs.size());
  CheckTimes checkTimes;
  // Warm-up round: untimed; its outcome is checked and becomes the
  // reference every timed compile must reproduce exactly.
  for (std::size_t i = 0; i < inputs.size(); ++i) {
    const Compiled out = compile(workload, inputs[i], nullptr);
    records[i].reference = summarize(workload, inputs[i], out);
    records[i].error = checkOutput(workload, inputs[i], out, checkTimes);
  }

  const auto timedRound = [&](bool traced) {
    for (std::size_t i = 0; i < inputs.size(); ++i) {
      InputRecord& rec = records[i];
      std::unique_ptr<Tracer> tracer;
      if (traced) tracer = std::make_unique<Tracer>();
      gauge.phase = traced ? kTraced : kUntraced;
      const Stopwatch timer;
      const Compiled out = compile(workload, inputs[i], tracer.get());
      const double seconds = timer.seconds();
      gauge.phase = kIdle;
      (traced ? rec.traced : rec.untraced).push_back(seconds);
      ++rec.compiles;
      const Summary s = summarize(workload, inputs[i], out);
      bool ok = rec.error.empty() &&
                s.fingerprint == rec.reference.fingerprint;
      if (!ok && rec.error.empty()) {
        rec.error = "outcome differs from the warm-up compile";
      }
      if (traced) {
        Counts counts;
        foldSpans(*tracer, rec.layerTimes, counts);
        if (rec.traced.size() == 1) {
          rec.spanCounts = counts;
        } else if (counts != rec.spanCounts) {
          ok = false;
          rec.error = "span counts differ between traced compiles";
        }
      }
      if (!ok) ++rec.failed;
    }
  };

  // Rounds run until --seconds have passed; a round that starts always
  // finishes, so a run measures at least one round and may overshoot by one.
  const auto measureStart = monotonicNow();
  int rounds = 0;
  do {
    timedRound(false);
    if (args.trace) timedRound(true);
    ++rounds;
  } while (secondsSince(measureStart) < args.seconds);
  stopGauge();

  struct rusage usage {};
  getrusage(RUSAGE_SELF, &usage);

  const RunContext context = RunContext::current();
  std::ostringstream os;
  JsonWriter json(os);
  json.beginObject();
  json.key("workload").value(args.workload);
  json.key("seed").value(static_cast<std::int64_t>(args.seed));
  json.key("trace").value(args.trace);
  json.key("context");
  context.writeJson(json);
  json.key("nproc").value(static_cast<std::int64_t>(sysconf(_SC_NPROCESSORS_ONLN)));
  json.key("driver_threads").value(1);
  json.key("rounds").value(rounds);
  json.key("setup_s");
  writeDoubles(json, setupSamples);
  json.key("gauge_s").beginObject();
  json.key("setup");
  writeDoubles(json, gauge.samples[kSetup]);
  json.key("untraced");
  writeDoubles(json, gauge.samples[kUntraced]);
  json.key("traced");
  writeDoubles(json, gauge.samples[kTraced]);
  json.endObject();
  json.key("setup_layers").beginObject();
  json.key("machine.model_build_s").value(setupTimes.machine / reps);
  json.key("ddg.parse_s").value(setupTimes.parse / reps);
  json.key("ddg.interp_s").value(setupTimes.interp / reps);
  json.endObject();
  json.key("check_layers").beginObject();
  json.key("sched.modulo_s").value(checkTimes.modulo);
  json.key("sim.check_s").value(checkTimes.sim);
  json.endObject();
  json.key("peak_rss_mb")
      .value(static_cast<double>(usage.ru_maxrss) / 1024.0);
  json.key("inputs").beginArray();
  for (std::size_t i = 0; i < inputs.size(); ++i) {
    const InputRecord& rec = records[i];
    json.beginObject();
    json.key("name").value(inputs[i].name);
    json.key("faults").value(inputs[i].faults);
    json.key("compile_s");
    writeDoubles(json, rec.untraced);
    json.key("traced_compile_s");
    writeDoubles(json, rec.traced);
    json.key("compiles").value(rec.compiles);
    json.key("failed").value(rec.failed);
    json.key("error").value(rec.error);
    json.key("legal").value(rec.reference.legal);
    json.key("ii").value(rec.reference.ii);
    json.key("recvs").value(rec.reference.recvs);
    json.key("rung").value(rec.reference.rung);
    Counts counts = rec.reference.counts;
    counts.insert(rec.spanCounts.begin(), rec.spanCounts.end());
    json.key("counts").beginObject();
    for (const auto& [name, value] : counts) json.key(name).value(value);
    json.endObject();
    json.key("layer_s").beginObject();
    const double traced = static_cast<double>(rec.traced.size());
    for (const auto& [name, value] : rec.layerTimes) {
      json.key(name).value(value / traced);
    }
    json.endObject();
    json.endObject();
  }
  json.endArray();
  json.endObject();
  std::cout << os.str() << "\n";
  return 0;
}
