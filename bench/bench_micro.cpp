// E6: google-benchmark micro-benchmarks of the tool-chain components:
// recurrence-MII computation, the reference interpreter, one SEE run, the
// route BFS and flat ICA on the 64-CN fabric, the Mapper, the full HCA
// pipeline, the modulo scheduler, plus the arena-vs-heap allocation
// comparison.
//
// Emits BENCH_micro.json (google-benchmark JSON) unless the caller passes
// an explicit --benchmark_out flag.

#include <benchmark/benchmark.h>

#include <algorithm>
#include <cstring>
#include <memory>
#include <string>
#include <vector>

#include "baseline/flat_ica.hpp"
#include "ddg/interp.hpp"
#include "ddg/kernels.hpp"
#include "hca/driver.hpp"
#include "hca/mii.hpp"
#include "hca/postprocess.hpp"
#include "machine/rcp.hpp"
#include "mapper/mapper.hpp"
#include "sched/modulo.hpp"
#include "see/engine.hpp"
#include "see/route_allocator.hpp"
#include "see/snapshot.hpp"
#include "support/arena.hpp"
#include "support/context.hpp"

namespace {

using namespace hca;

machine::DspFabricModel paperFabric() {
  machine::DspFabricConfig config;
  config.n = config.m = config.k = 8;
  return machine::DspFabricModel(config);
}

/// Owns the kernel + pattern graph that a SeeProblem points into, so the
/// single-level SEE benchmarks can share one setup.
struct SeeFixture {
  ddg::Kernel kernel = ddg::buildFir2Dim();
  machine::RcpConfig config;
  machine::PatternGraph pg;
  see::SeeProblem problem;

  SeeFixture() {
    config.clusters = 8;
    config.inputPorts = 4;
    config.memClusterStride = 1;
    pg = machine::rcpPatternGraph(config);
    problem.ddg = &kernel.ddg;
    for (std::int32_t v = 0; v < kernel.ddg.numNodes(); ++v) {
      if (ddg::isInstruction(kernel.ddg.node(DdgNodeId(v)).op)) {
        problem.workingSet.emplace_back(v);
      }
    }
    problem.pg = &pg;
    problem.constraints = machine::rcpConstraints(config);
    problem.inWiresPerCluster = config.inputPorts;
    problem.outWiresPerCluster = config.inputPorts;
  }
};

void BM_MiiRec(benchmark::State& state) {
  const auto kernel =
      ddg::table1Kernels()[static_cast<std::size_t>(state.range(0))];
  const ddg::LatencyModel lat;
  for (auto _ : state) {
    benchmark::DoNotOptimize(kernel.ddg.miiRec(lat));
  }
}
BENCHMARK(BM_MiiRec)->DenseRange(0, 3);

void BM_Interpreter(benchmark::State& state) {
  const auto kernel = ddg::buildIdctHor();
  const auto config = ddg::kernelInterpConfig(kernel, 16);
  for (auto _ : state) {
    benchmark::DoNotOptimize(ddg::interpret(kernel.ddg, config));
  }
}
BENCHMARK(BM_Interpreter);

void BM_SeeSingleLevel(benchmark::State& state) {
  // One RCP assignment: the paper's single-level framework workload, on
  // the copy-on-write delta beam.
  const SeeFixture fx;
  see::SeeOptions options;
  options.weights.targetIi = 8;
  const see::SpaceExplorationEngine engine(options);
  for (auto _ : state) {
    benchmark::DoNotOptimize(engine.run(fx.problem));
  }
  const auto result = engine.run(fx.problem);
  state.counters["copies_avoided"] =
      static_cast<double>(result.stats.copiesAvoided);
  state.counters["snapshots"] =
      static_cast<double>(result.stats.snapshotsMaterialized);
  state.counters["arena_peak_bytes"] =
      static_cast<double>(result.stats.arenaBytesPeak);
}
BENCHMARK(BM_SeeSingleLevel);

void BM_RouteBfsK64(benchmark::State& state) {
  // findPathT on the flat-ICA fabric (64 single-CN clusters, in-neighbor
  // cap 2) in blocks of eight clusters: d = 8b is fed by f = 8b+1 and 8b+2,
  // which are fed by g = 8b+3 and 8b+4. From g the route to d is g, f, d;
  // from 8b+5 it needs two relays, so with one it fails after the whole
  // depth-1 ring is queued. Every query is one the direct copy refuses.
  machine::PatternGraph pg;
  for (int i = 0; i < 64; ++i) {
    pg.addCluster(machine::ResourceTable::computationNode());
  }
  pg.connectClustersCompletely();
  const ddg::Ddg empty;
  see::SeeProblem problem;
  problem.ddg = &empty;
  problem.pg = &pg;
  problem.constraints.maxInNeighbors = 2;
  const see::PreparedProblem prepared(problem, see::SeeOptions{});
  MonotonicArena arena;
  see::DeltaSolution sol;
  sol.init(prepared);
  sol.reset(see::FlatSolution::initial(prepared, arena));
  const auto copy = [&](int src, int dst) {
    const ClusterId s(src);
    const ClusterId d(dst);
    sol.addFlowCopy(*pg.arcBetween(s, d), s, d, ValueId(0));
  };
  for (int b = 0; b < 64; b += 8) {
    for (const int f : {b + 1, b + 2}) {
      copy(f, b);
      copy(b + 3, f);
      copy(b + 4, f);
    }
  }
  see::RouteScratch scratch;
  std::int64_t found = 0;
  for (auto _ : state) {
    for (int b = 0; b < 64; b += 8) {
      found += see::findPathT(prepared, sol, ClusterId(b + 3), ClusterId(b),
                              ValueId(1), 3, scratch);
      found += see::findPathT(prepared, sol, ClusterId(b + 5), ClusterId(b),
                              ValueId(1), 1, scratch);
    }
  }
  state.counters["found_frac"] =
      static_cast<double>(found) /
      static_cast<double>(std::max<std::int64_t>(1, 16 * state.iterations()));
}
BENCHMARK(BM_RouteBfsK64);

void BM_FlatIca(benchmark::State& state) {
  // The flat-ICA baseline on h264deblocking: one 64-cluster SEE call
  // through all three rungs, then the hierarchy check.
  const auto kernel = ddg::buildH264Deblocking();
  const auto model = paperFabric();
  for (auto _ : state) {
    benchmark::DoNotOptimize(baseline::runFlatIca(kernel.ddg, model));
  }
}
BENCHMARK(BM_FlatIca)->Unit(benchmark::kMillisecond);

void BM_ArenaAlloc(benchmark::State& state) {
  // Steady-state beam-step allocation pattern: a burst of small blocks,
  // then a wholesale reset. After warm-up the arena performs zero heap
  // allocations per iteration (reset keeps the chunks).
  const int blocks = static_cast<int>(state.range(0));
  MonotonicArena arena;
  for (auto _ : state) {
    for (int i = 0; i < blocks; ++i) {
      void* p = arena.allocate(64, 8);
      benchmark::DoNotOptimize(p);
    }
    arena.reset();
  }
  state.counters["reserved_bytes"] =
      static_cast<double>(arena.bytesReserved());
  state.SetItemsProcessed(state.iterations() * blocks);
}
BENCHMARK(BM_ArenaAlloc)->Arg(64)->Arg(1024)->ArgName("blocks");

void BM_HeapAlloc(benchmark::State& state) {
  // The same burst served by operator new: one malloc + one free per
  // block, every iteration. Baseline for BM_ArenaAlloc.
  const int blocks = static_cast<int>(state.range(0));
  std::vector<std::unique_ptr<char[]>> live;
  live.reserve(static_cast<std::size_t>(blocks));
  for (auto _ : state) {
    for (int i = 0; i < blocks; ++i) {
      live.emplace_back(new char[64]);
      benchmark::DoNotOptimize(live.back().get());
    }
    live.clear();
  }
  state.SetItemsProcessed(state.iterations() * blocks);
}
BENCHMARK(BM_HeapAlloc)->Arg(64)->Arg(1024)->ArgName("blocks");

void BM_Mapper(benchmark::State& state) {
  machine::PatternGraph pg;
  for (int i = 0; i < 4; ++i) {
    pg.addCluster(machine::ResourceTable(4, 4));
  }
  pg.connectClustersCompletely();
  machine::CopyFlow flow(pg);
  int v = 0;
  for (int s = 0; s < 4; ++s) {
    for (int d = 0; d < 4; ++d) {
      if (s == d) continue;
      flow.addCopy(*pg.arcBetween(ClusterId(s), ClusterId(d)), ValueId(v++));
      flow.addCopy(*pg.arcBetween(ClusterId(s), ClusterId(d)), ValueId(v++));
    }
  }
  mapper::MapperInput input;
  input.pg = &pg;
  input.flow = &flow;
  input.inWiresPerChild = 8;
  input.outWiresPerChild = 8;
  const mapper::Mapper mapperPass;
  for (auto _ : state) {
    benchmark::DoNotOptimize(mapperPass.map(input));
  }
}
BENCHMARK(BM_Mapper);

void BM_HcaFullPipeline(benchmark::State& state) {
  const auto kernel =
      ddg::table1Kernels()[static_cast<std::size_t>(state.range(0))];
  const auto model = paperFabric();
  const core::HcaDriver driver(model);
  for (auto _ : state) {
    benchmark::DoNotOptimize(driver.run(kernel.ddg));
  }
}
BENCHMARK(BM_HcaFullPipeline)->DenseRange(0, 2)->Unit(benchmark::kMillisecond);

void BM_ModuloScheduler(benchmark::State& state) {
  const auto kernel = ddg::buildFir2Dim();
  const auto model = paperFabric();
  const core::HcaDriver driver(model);
  const auto hca = driver.run(kernel.ddg);
  if (!hca.legal) {
    state.SkipWithError("clusterization failed");
    return;
  }
  const auto mapping = core::buildFinalMapping(kernel.ddg, model, hca);
  const auto mii = core::computeMii(kernel.ddg, model, hca);
  for (auto _ : state) {
    benchmark::DoNotOptimize(
        sched::moduloSchedule(mapping, model, mii.finalMii));
  }
}
BENCHMARK(BM_ModuloScheduler);

}  // namespace

// Like BENCHMARK_MAIN(), but defaults --benchmark_out to BENCH_micro.json
// so every run leaves a machine-readable record next to the binary, and
// stamps the library's build provenance into the output context (the
// committed BENCH_micro.json was once generated from a debug build and
// nothing noticed). `--strict-build` makes a debug-grade build a hard
// error instead of a warning — CI regenerating a committed baseline
// passes it.
int main(int argc, char** argv) {
  std::vector<char*> args;
  args.reserve(static_cast<std::size_t>(argc) + 2);
  bool hasOut = false;
  bool strictBuild = false;
  for (int i = 0; i < argc; ++i) {
    if (std::strncmp(argv[i], "--benchmark_out", 15) == 0) hasOut = true;
    if (std::strcmp(argv[i], "--strict-build") == 0) {
      strictBuild = true;
      continue;  // ours, not google-benchmark's
    }
    args.push_back(argv[i]);
  }
  const bool debugBuild = hca::warnIfDebugBuild("bench_micro");
  if (debugBuild && strictBuild) return 1;
  const hca::RunContext context = hca::RunContext::current();
  benchmark::AddCustomContext("hca_git_sha", context.gitSha);
  benchmark::AddCustomContext("hca_cmake_build_type", context.buildType);
  // Named apart from google-benchmark's own "library_build_type" (which
  // reports the *benchmark* library's build and cannot be overridden).
  benchmark::AddCustomContext("hca_library_build_type",
                              context.ndebug ? "release" : "debug");
  std::string outFlag = "--benchmark_out=BENCH_micro.json";
  std::string fmtFlag = "--benchmark_out_format=json";
  if (!hasOut) {
    args.push_back(outFlag.data());
    args.push_back(fmtFlag.data());
  }
  int numArgs = static_cast<int>(args.size());
  benchmark::Initialize(&numArgs, args.data());
  if (benchmark::ReportUnrecognizedArguments(numArgs, args.data())) return 1;
  benchmark::RunSpecifiedBenchmarks();
  benchmark::Shutdown();
  return 0;
}
