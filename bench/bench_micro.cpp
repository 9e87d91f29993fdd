// E6: google-benchmark micro-benchmarks of the tool-chain components:
// recurrence-MII computation, the reference interpreter, one SEE run, the
// Mapper, the full HCA pipeline, the modulo scheduler, plus the
// arena-vs-heap allocation comparison.
//
// Emits BENCH_micro.json (google-benchmark JSON) unless the caller passes
// an explicit --benchmark_out flag.

#include <benchmark/benchmark.h>

#include <cstring>
#include <memory>
#include <string>
#include <vector>

#include "ddg/interp.hpp"
#include "ddg/kernels.hpp"
#include "hca/driver.hpp"
#include "hca/mii.hpp"
#include "hca/postprocess.hpp"
#include "machine/rcp.hpp"
#include "mapper/mapper.hpp"
#include "sched/modulo.hpp"
#include "see/engine.hpp"
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
