#!/usr/bin/env python3
"""Benchmark of the HCA compiler: compile time, II and per-layer split.

    python3 perfbench/run.py --workload <name> --seed <n> --seconds <s> --trace <0|1>
    python3 perfbench/run.py --steadiness <k> [--workloads a,b] [--seconds s]

The first form builds perfbench/hca_perfbench from the repository sources
(into $CARGO_TARGET_DIR, default .bench_build), runs one workload and prints
a human summary followed, as the last line, by one JSON object:
{"correct", "attempted", "failed", "metrics"}. With --trace 0 the metrics are
the end-to-end metrics of BENCHMARK.json, with --trace 1 its per-layer
metrics. It exits non-zero when any output check fails.

The second form runs every workload k times with seeds 1..k and prints, for
each end-to-end metric, the median, the quartiles, the quartile spread as a
share of the median and the metric's bound; it names every metric whose
spread exceeds its bound. See perfbench/README.md.
"""

import argparse
import json
import os
import shutil
import subprocess
import sys
from pathlib import Path

sys.dont_write_bytecode = True
sys.path.insert(0, str(Path(__file__).resolve().parent))
import stats  # noqa: E402

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
LEVELS = range(3)
RUN_TIMEOUT_S = 170
# About the median gauge sample (hca_perfbench.cpp, "Host-speed gauge") of a
# run in a fast, uncontended spell on the host the bounds were set on (4-vCPU
# KVM guest, Xeon Sapphire Rapids). Every reported time is scaled to this
# host speed.
GAUGE_REFERENCE_S = 0.00045


def fail(message):
    print(f"perfbench: {message}", file=sys.stderr)
    sys.exit(1)


def load_spec():
    path = ROOT / "BENCHMARK.json"
    if not path.is_file():
        fail(f"{path.name} not found next to perfbench/")
    return json.loads(path.read_text())


def build():
    """Configures (once) and builds hca_perfbench; returns the binary path."""
    if not (ROOT / "src" / "hca" / "driver.cpp").is_file():
        fail("repository sources (src/) not found; nothing to benchmark")
    build_dir = ROOT / os.environ.get("CARGO_TARGET_DIR", ".bench_build") / "perfbench"
    log = sys.stderr
    if not (build_dir / "CMakeCache.txt").is_file():
        cmd = ["cmake", "-S", str(BENCH_DIR), "-B", str(build_dir),
               "-DCMAKE_BUILD_TYPE=Release"]
        if shutil.which("ninja"):
            cmd += ["-G", "Ninja"]
        if subprocess.run(cmd, stdout=log, stderr=log).returncode != 0:
            fail("cmake configure failed")
    cmd = ["cmake", "--build", str(build_dir), "-j", "4"]
    if subprocess.run(cmd, stdout=log, stderr=log).returncode != 0:
        fail("build failed")
    return build_dir / "hca_perfbench"


def run_program(binary, workload, seed, seconds, trace):
    cmd = [str(binary), "--workload", workload, "--seed", str(seed),
           "--seconds", str(seconds), "--trace", "1" if trace else "0"]
    try:
        proc = subprocess.run(cmd, stdout=subprocess.PIPE, text=True,
                              timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        fail(f"{workload} did not finish within {RUN_TIMEOUT_S} s")
    if proc.returncode != 0:
        fail(f"hca_perfbench exited with {proc.returncode}")
    return json.loads(proc.stdout)


# ---- Metrics ---------------------------------------------------------------

def total(inputs, key):
    return sum(i["counts"].get(key, 0) for i in inputs)


def layer(inputs, key):
    return sum(i["layer_s"].get(key, 0.0) for i in inputs)


def ratio(num, den):
    return num / den if den else 0.0


def speed(raw, phase):
    """Host speed during one phase of the run (see perfbench/README.md)."""
    samples = raw["gauge_s"][phase]
    if not samples:
        fail(f"no host-speed gauge samples in the {phase} phase")
    return stats.host_speed(samples, GAUGE_REFERENCE_S)


def end_to_end(raw):
    """The end-to-end metrics of one run, from the raw record of hca_perfbench.
    Times are at reference host speed."""
    inputs = raw["inputs"]
    samples = [i["compile_s"] for i in inputs]
    compiles = sum(len(s) for s in samples)
    legal = [i for i in inputs if i["legal"]]
    untraced = speed(raw, "untraced")
    return {
        "compile_s.geomean": stats.geomean_of_medians(samples) * untraced,
        "compiles_per_s": stats.compiles_per_s(samples) / untraced,
        "ii.geomean": stats.geomean([i["ii"] for i in legal]) if legal else 0.0,
        "recvs.geomean": stats.geomean([i["recvs"] for i in legal]) if legal else 0.0,
        "legal_frac": ratio(sum(len(i["compile_s"]) for i in legal), compiles),
        "output_ok_frac": ratio(
            sum(len(i["compile_s"]) for i in inputs if not i["error"]), compiles),
        "ladder_rung.mean": ratio(
            sum(i["rung"] * len(i["compile_s"]) for i in inputs), compiles),
        "setup_s": stats.median(raw["setup_s"]) * speed(raw, "setup"),
        "peak_rss_mb": raw["peak_rss_mb"],
    }


def per_layer(raw):
    """The per-layer metrics of one traced run, per round (one compile of
    every input): times are means over the traced compiles at reference host
    speed, counts are deterministic."""
    inputs = raw["inputs"]
    n = len(inputs)
    traced_speed = speed(raw, "traced")

    def timed(key):
        return layer(inputs, key) * traced_speed

    m = {}
    m["hca.outer_attempts"] = total(inputs, "hca.outer_attempts")
    m["hca.attempt_yield"] = ratio(total(inputs, "hca.legal_attempts"),
                                   m["hca.outer_attempts"])
    m["hca.fallback_frac"] = ratio(total(inputs, "hca.fallback"), n)
    m["hca.solves"] = total(inputs, "hca.solves")
    for suffix in [""] + [f".L{level}" for level in LEVELS]:
        m["hca.backtracks" + suffix] = total(inputs, "hca.backtracks" + suffix)
        hits = total(inputs, "hca.cache_hits" + suffix)
        misses = total(inputs, "hca.cache_misses" + suffix)
        m["hca.cache_hit_frac" + suffix] = ratio(hits, hits + misses)
        m["hca.solve_self_s" + suffix] = timed("hca.solve_self_s" + suffix)
        m["see.self_s" + suffix] = timed("see.self_s" + suffix)
        m["see.calls" + suffix] = total(inputs, "see.calls" + suffix)
        m["see.route_failures" + suffix] = total(inputs, "see.route_failures" + suffix)
        m["mapper.failures" + suffix] = total(inputs, "mapper.failures" + suffix)
    for key in ("hca.primary_sweep_s", "hca.rung_degraded_s", "hca.run_self_s",
                "mapper.self_s", "verify.self_s", "baseline.flat_ica_s",
                "post.final_mapping_s", "post.mii_s"):
        m[key] = timed(key)
    for key in ("see.states_expanded", "see.candidates", "see.pruned",
                "see.route_invocations", "see.oracle_rejects",
                "see.route_memo_hits", "see.dominance_pruned", "see.snapshots",
                "see.copies_avoided", "mapper.calls", "verify.calls",
                "trace.dropped_spans"):
        m[key] = total(inputs, key)
    m["see.arena_bytes_peak"] = max(
        i["counts"].get("see.arena_bytes_peak", 0) for i in inputs)
    routed = total(inputs, "see.routed_operands")
    m["see.route_yield"] = ratio(routed, routed + m["see.route_failures"])
    m["see.us_per_state"] = 1e6 * ratio(m["see.self_s"],
                                        total(inputs, "see.fresh_states"))
    m["baseline.assignment_legal_frac"] = ratio(
        total(inputs, "baseline.assignment_legal"), n)
    m["baseline.hierarchy_legal_frac"] = ratio(
        total(inputs, "baseline.hierarchy_legal"), n)
    m["machine.faults"] = sum(i["faults"] for i in inputs)
    setup_speed = speed(raw, "setup")
    m.update({k: v * setup_speed for k, v in raw["setup_layers"].items()})
    m.update(raw["check_layers"])
    wall = stats.geomean_of_medians([i["compile_s"] for i in inputs])
    traced = stats.geomean_of_medians([i["traced_compile_s"] for i in inputs])
    untraced_speed = speed(raw, "untraced")
    m["trace.overhead_frac"] = (traced * traced_speed) / (wall * untraced_speed) - 1.0
    m["bench.host_speed"] = untraced_speed
    m["bench.compile_wall_s.geomean"] = wall
    m["trace.unattributed_frac"] = ratio(
        layer(inputs, "trace.unattributed_s") + layer(inputs, "trace.unknown_s"),
        layer(inputs, "trace.compile_s"))
    return m


def select(values, declared):
    """Orders the computed values as BENCHMARK.json declares them."""
    missing = [d["name"] for d in declared if d["name"] not in values]
    if missing:
        fail("metrics not computed: " + ", ".join(missing))
    return {d["name"]: {"value": values[d["name"]], "unit": d["unit"]}
            for d in declared}


def measure(spec, workload, seed, seconds, trace, binary=None):
    """Runs one workload; returns (result object, raw record)."""
    binary = binary or build()
    raw = run_program(binary, workload, seed, seconds, trace)
    attempted = sum(i["compiles"] for i in raw["inputs"])
    failed = sum(i["failed"] for i in raw["inputs"])
    bad = [i for i in raw["inputs"] if i["error"]]
    values = per_layer(raw) if trace else end_to_end(raw)
    declared = spec["per_layer"] if trace else spec["end_to_end"]
    result = {
        "correct": failed == 0 and not bad,
        "attempted": attempted,
        "failed": failed,
        "metrics": select(values, declared),
    }
    return result, raw


def print_summary(raw, result):
    ctx = raw["context"]
    print(f"workload {raw['workload']} seed {raw['seed']} trace {int(raw['trace'])}"
          f" | build {ctx.get('build_type')} ndebug {ctx.get('ndebug')}"
          f" sha {ctx.get('git_sha')} host {ctx.get('hostname')}"
          f" | nproc {raw['nproc']} driver threads {raw['driver_threads']}"
          f" | rounds {raw['rounds']}"
          f" | host speed {speed(raw, 'untraced'):.3f}")
    for i in raw["inputs"]:
        med = stats.median(i["compile_s"])
        status = "ok" if not i["error"] else "FAILED: " + i["error"]
        print(f"  {i['name']:<18} wall {med:.4f} s (n={len(i['compile_s'])})"
              f" ii {i['ii']} recvs {i['recvs']} rung {i['rung']} {status}")
    for name, metric in result["metrics"].items():
        print(f"  {name:<32} {metric['value']:.6g} {metric['unit']}")


# ---- Steadiness ------------------------------------------------------------

def steadiness(spec, workloads, runs, seconds):
    binary = build()
    bounds = {m["name"]: m["bound"] for m in spec["end_to_end"]}
    exceeded = []
    for workload in workloads:
        values = {name: [] for name in bounds}
        for seed in range(1, runs + 1):
            result, _ = measure(spec, workload, seed, seconds, False, binary)
            if not result["correct"]:
                fail(f"{workload} seed {seed}: an output check failed")
            for name, metric in result["metrics"].items():
                values[name].append(metric["value"])
        print(f"{workload}: {runs} runs, seeds 1..{runs}, {seconds} s each")
        print(f"  {'metric':<20} {'median':>12} {'q1':>12} {'q3':>12}"
              f" {'spread':>8} {'bound':>6}")
        for name, vals in values.items():
            q1, q3 = stats.quartiles(vals)
            sp = stats.spread(vals)
            flag = ""
            if sp > bounds[name]:
                flag = "EXCEEDS BOUND"
                if name != "setup_s":
                    exceeded.append(f"{workload}/{name} ({sp:.3f})")
            elif sp > bounds[name] / 3:
                flag = "above a third of the bound"
            print(f"  {name:<20} {stats.median(vals):>12.6g} {q1:>12.6g}"
                  f" {q3:>12.6g} {sp:>8.4f} {bounds[name]:>6} {flag}")
            print("    runs: " + " ".join(f"{v:.6g}" for v in vals))
    if exceeded:
        print("spread beyond the bound: " + "; ".join(exceeded))
        return 1
    print("every end-to-end spread is within its bound")
    return 0


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload")
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=int)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--steadiness", type=int, metavar="K")
    parser.add_argument("--workloads", help="comma-separated (steadiness)")
    args = parser.parse_args()
    spec = load_spec()
    names = [w["name"] for w in spec["workloads"]]
    seconds = args.seconds or spec["run_seconds"]
    if args.steadiness:
        chosen = args.workloads.split(",") if args.workloads else names
        return steadiness(spec, chosen, args.steadiness, seconds)
    if args.workload not in names:
        fail(f"--workload must be one of {', '.join(names)}")
    result, raw = measure(spec, args.workload, args.seed, seconds,
                          bool(args.trace))
    print_summary(raw, result)
    print(json.dumps(result))
    return 0 if result["correct"] else 1


if __name__ == "__main__":
    sys.exit(main())
