#!/usr/bin/env bash
# The repo's CI entry point (also runnable locally): tier-1 tests, the
# thread-safety-analysis build, and the clang-tidy profile.
#
# The ThreadSanitizer sweep runs as its own CI job (the `tsan` job of
# .github/workflows/ci.yml), not here: tools/run_tsan_tier1.sh builds a
# -DHCA_SANITIZE=thread tree (build-tsan/) and runs `ctest -L tsan`.
#
#   1. tier-1   — cmake + build (-Werror) + full ctest suite (the
#                 acceptance bar every change must keep green); it runs the
#                 four examples/ programs too (ctest label `example`)
#   2. tsa      — a clang build with -Wthread-safety -Werror=thread-safety
#                 verifying the HCA_GUARDED_BY/HCA_REQUIRES annotations;
#                 skipped with a notice when clang is not installed (GCC has
#                 no thread-safety analysis)
#   3. lint     — tools/run_clang_tidy.sh over src/tools/examples and
#                 tests/support; skips itself when clang-tidy is missing
#   3b. hca-lint — the in-repo contract checker (determinism, layering,
#                 locking, exit contract) against tools/lint_baseline.json;
#                 any diagnostic not in the baseline fails the stage naming
#                 the rule. Skips with a notice when compile_commands.json
#                 is absent (e.g. a build tree configured by a generator
#                 that does not export it)
#   3c. dead-symbols — tools/dead_symbols.sh: builds every non-test
#                 executable (perfbench's included) at -O0 with
#                 --gc-sections and fails on an hca:: library function no
#                 executable keeps that tools/dead_symbols_allowlist.txt
#                 does not name. Skips with a notice without GNU nm / ld
#   4. perf     — a Release build running the bench_micro suite once (tiny
#                 repetitions, --strict-build so a debug-grade binary is a
#                 hard error). This is a smoke test: it fails on crash,
#                 assertion, or sanitizer abort inside the benchmarked
#                 paths, never on timing. It also runs the memory tripwire:
#                 a Release `hcac --kernel h264deblocking` must peak under
#                 25 MB of RSS, with and without --checkpoint-out
#                 (tools/peak_rss.py)
#   4a. perfbench — the benchmark's helper unit tests, then short
#                 table1-direct and flat-ica runs of perfbench/run.py as
#                 smokes (flat-ica puts the 64-cluster route BFS under its
#                 output check). It fails when the benchmark cannot build or
#                 run or an output check reports "correct": false, never on
#                 timing
#   5. robust   — kill-and-resume identity (SIGTERM mid-search, then --resume
#                 must complete legally, and its --report-out must
#                 `hcac --compare` clean against an uninterrupted run's,
#                 with metrics.* excused: the metrics registry is not
#                 checkpointed, so a resumed run's registry only covers
#                 the attempts it re-ran) and a 3-job batch manifest with
#                 one deliberately failing job (retry/backoff/isolation
#                 must run, the summary must be non-zero-exit and still
#                 report the two good jobs ok)
#   6. regress  — two-commit regression smoke: compile one Table 1 kernel
#                 twice with --report-out/--history-out, then
#                 `hcac --compare` must exit 0 (the search is
#                 deterministic), and a perturbed counter must flip it to
#                 exit 1 naming the regressed series. Then thread-count
#                 identity on the Release hcac from stage 4: fir2dim and
#                 idcthor compiled with --threads 1 and with --threads 4
#                 --oversubscribe must write byte-equal --dot-assignment
#                 files (the one outer sweep's inline and pool dispatchers
#                 pick the same winner)
#
# Usage: tools/ci.sh [jobs]
set -euo pipefail

root="$(cd "$(dirname "$0")/.." && pwd)"
jobs="${1:-$(nproc)}"

echo "=== ci: tier-1 build + tests ==="
# -Werror: the default GCC build is warning-free. Release trees stay
# without it (libstdc++ warns -Wrestrict inside std::string there).
cmake -B "${root}/build" -S "${root}" -DHCA_WERROR=ON
cmake --build "${root}/build" -j "${jobs}"
(cd "${root}/build" && ctest --output-on-failure -j "${jobs}")

echo "=== ci: thread-safety analysis build ==="
if command -v clang++ >/dev/null 2>&1; then
  cmake -B "${root}/build-tsa" -S "${root}" \
    -DCMAKE_CXX_COMPILER=clang++ -DHCA_WERROR=ON
  cmake --build "${root}/build-tsa" -j "${jobs}"
  echo "ci: thread-safety build clean"
else
  echo "ci: clang++ not found; skipping the thread-safety analysis build"
fi

echo "=== ci: clang-tidy ==="
"${root}/tools/run_clang_tidy.sh" "${root}/build"

echo "=== ci: hca-lint (determinism / layering / locking / exit contract) ==="
if [[ -s "${root}/build/compile_commands.json" ]]; then
  cmake --build "${root}/build" -j "${jobs}" --target hca_lint
  # Exit 1 here means a NEW diagnostic (stderr names the rule); known debt
  # lives in tools/lint_baseline.json. lint_report.json is the machine-
  # readable artifact CI uploads on failure.
  "${root}/build/tools/hca_lint" \
    --compile-commands "${root}/build/compile_commands.json" \
    --root "${root}" \
    --baseline "${root}/tools/lint_baseline.json" \
    --json "${root}/build/lint_report.json"
  echo "ci: hca-lint clean against baseline"
else
  echo "ci: compile_commands.json not found; skipping hca-lint"
fi

echo "=== ci: dead symbols (library functions no executable links) ==="
"${root}/tools/dead_symbols.sh" "${jobs}"

echo "=== ci: perf smoke (Release bench_micro) ==="
cmake -B "${root}/build-perf" -S "${root}" -DCMAKE_BUILD_TYPE=Release
cmake --build "${root}/build-perf" -j "${jobs}" --target bench_micro hcac
# One pass over every benchmark with minimal timing effort. Exit status is
# the verdict — crashes/aborts in the CoW beam search, the arena, or any
# other benchmarked component fail CI; wall-clock numbers are informational.
# --strict-build is the default for every bench target CI runs: a
# debug-grade binary silently producing a committed baseline is exactly
# the mistake the flag exists to catch.
(cd "${root}/build-perf/bench" &&
  ./bench_micro --strict-build \
    --benchmark_min_time=0.01 --benchmark_repetitions=1)
# Memory tripwire: h264deblocking's peak RSS must stay under 25 MB, also
# when checkpointing (each attempt frees its own sub-problem cache, and a
# checkpoint holds attempt records only; the run peaks near 14 MB).
python3 "${root}/tools/peak_rss.py" --max-mb 25 -- \
  "${root}/build-perf/tools/hcac" --kernel h264deblocking
perf_ckpt="$(mktemp)"
python3 "${root}/tools/peak_rss.py" --max-mb 25 -- \
  "${root}/build-perf/tools/hcac" --kernel h264deblocking \
  --checkpoint-out "${perf_ckpt}"
rm -f "${perf_ckpt}"
echo "ci: perf smoke passed (timings informational; BENCH_micro.json written)"

echo "=== ci: perfbench (helper tests + table1-direct and flat-ica smokes) ==="
(cd "${root}" && python3 -m unittest discover -s perfbench -p 'test_*.py')
# Two seconds per workload: enough for the warm-up round's output checks
# and one timed round. The verdict is the "correct" field of the result
# line (the last line on stdout; build output goes to stderr); the timings
# are not looked at.
for workload in table1-direct flat-ica; do
  perf_log="$(mktemp)"
  (cd "${root}" && python3 perfbench/run.py --workload "${workload}" \
    --seed 1 --seconds 2 --trace 0) >"${perf_log}" || {
      echo "ci: perfbench ${workload} smoke failed to run"
      cat "${perf_log}"; rm -f "${perf_log}"; exit 1; }
  tail -n 1 "${perf_log}" | python3 -c \
    'import json, sys; sys.exit(0 if json.load(sys.stdin)["correct"] else 1)' || {
      echo "ci: perfbench ${workload} smoke reported \"correct\": false"
      cat "${perf_log}"; rm -f "${perf_log}"; exit 1; }
  rm -f "${perf_log}"
done
echo "ci: perfbench smokes passed (timings not checked)"

echo "=== ci: robustness smoke (kill/resume + batch isolation) ==="
hcac="${root}/build/tools/hcac"
work="$(mktemp -d)"
trap 'rm -rf "${work}"' EXIT

# Kill-and-resume: SIGTERM a checkpointing run mid-search, then resume it.
# The interrupted run must exit through the graceful path (not a crash) and
# leave a loadable checkpoint; the resumed run must complete legally. The
# kill delay scales up until at least one attempt boundary was reached.
# --foreground makes timeout signal hcac alone: without it, timeout also
# signals its whole process group, hcac gets a second SIGTERM, and the
# handler takes that as "unwind too slow" and exits 143 (support/signals).
for delay in 2 5 10 30; do
  set +e
  timeout --foreground --preserve-status --signal=TERM "${delay}" \
    "${hcac}" --kernel h264deblocking --n 3 --m 3 --k 3 \
    --checkpoint-out "${work}/resume.ckpt" >"${work}/interrupted.log" 2>&1
  interrupted_rc=$?
  set -e
  if [[ "${interrupted_rc}" -ne 4 ]]; then
    echo "ci: interrupted run exited ${interrupted_rc}, expected graceful 4"
    cat "${work}/interrupted.log"
    exit 1
  fi
  [[ -s "${work}/resume.ckpt" ]] && break
done
[[ -s "${work}/resume.ckpt" ]] || { echo "ci: no checkpoint written"; exit 1; }
# A checkpoint holds attempt records only: a few KB, never megabytes.
ckpt_bytes="$(stat -c %s "${work}/resume.ckpt")"
if (( ckpt_bytes > 1048576 )); then
  echo "ci: checkpoint is ${ckpt_bytes} bytes, over the 1 MB bound"
  exit 1
fi
"${hcac}" --kernel h264deblocking --n 3 --m 3 --k 3 \
  --checkpoint-out "${work}/resume.ckpt" --resume \
  --report-out "${work}/resumed.json" >"${work}/resumed.log" 2>&1
grep -q "resuming from" "${work}/resumed.log" || {
  echo "ci: resumed run did not load the checkpoint"
  cat "${work}/resumed.log"; exit 1; }
# Resume identity: the resumed run's stats must equal an uninterrupted
# run's. metrics.* is excused because the metrics registry is not
# checkpointed (hca/checkpoint.hpp): a resumed run's registry only covers
# the attempts it re-ran.
"${hcac}" --kernel h264deblocking --n 3 --m 3 --k 3 \
  --report-out "${work}/uninterrupted.json" >"${work}/uninterrupted.log" 2>&1
"${hcac}" --compare "${work}/uninterrupted.json" "${work}/resumed.json" \
  --ignore-counters 'metrics.*' >"${work}/resume_compare.log" 2>&1 || {
    echo "ci: resumed run differs from the uninterrupted run"
    cat "${work}/resume_compare.log"; exit 1; }
echo "ci: kill-and-resume identity passed"

# Batch isolation: three jobs, the middle one fails every try by injection.
# The batch must exit non-zero, retry the bad job with backoff, and still
# compile the two good jobs.
cat >"${work}/manifest.json" <<'MANIFEST'
{"jobs": [
  {"name": "fir", "kernel": "fir2dim"},
  {"name": "doomed", "kernel": "idcthor", "max_retries": 2,
   "backoff_base_ms": 1, "fail_first_attempts": 3,
   "degrade_on_last_retry": false},
  {"name": "idct", "kernel": "idcthor"}
]}
MANIFEST
mkdir -p "${work}/reports"
set +e
"${hcac}" --batch "${work}/manifest.json" --report-dir "${work}/reports" \
  --report-out "${work}/summary.json" >"${work}/batch.log" 2>&1
batch_rc=$?
set -e
if [[ "${batch_rc}" -ne 4 ]]; then
  echo "ci: batch with a failing job exited ${batch_rc}, expected 4"
  cat "${work}/batch.log"
  exit 1
fi
grep -q '"ok":2' "${work}/summary.json" || {
  echo "ci: batch summary does not report 2 ok jobs"
  cat "${work}/summary.json"; exit 1; }
grep -q '"failed":1' "${work}/summary.json" || {
  echo "ci: batch summary does not report the failing job"
  cat "${work}/summary.json"; exit 1; }
grep -q '"tries_used":3' "${work}/summary.json" || {
  echo "ci: the failing job was not retried to exhaustion"
  cat "${work}/summary.json"; exit 1; }
[[ -s "${work}/reports/fir.report.json" && -s "${work}/reports/idct.report.json" ]] || {
  echo "ci: per-job reports missing"; exit 1; }
echo "ci: batch isolation smoke passed"

echo "=== ci: regression gate smoke (hcac --compare) ==="
# Two runs of the same deterministic compile must diff clean: every
# deterministic counter identical, exit 0. This is the gate a change's CI
# run uses against a baseline report from the target branch.
"${hcac}" --kernel fir2dim --report-out "${work}/base.json" \
  --history-out "${work}/history.jsonl" --run-id ci-base \
  >"${work}/compare.log" 2>&1
"${hcac}" --kernel fir2dim --report-out "${work}/new.json" \
  --history-out "${work}/history.jsonl" --run-id ci-new \
  >>"${work}/compare.log" 2>&1
"${hcac}" --compare "${work}/base.json" "${work}/new.json" \
  --history "${work}/history.jsonl" --diff-out "${work}/verdict.json" \
  >>"${work}/compare.log" 2>&1 || {
    echo "ci: self-compare of a deterministic compile reported a regression"
    cat "${work}/compare.log" "${work}/verdict.json"; exit 1; }
grep -q '"regression":false' "${work}/verdict.json" || {
  echo "ci: verdict JSON does not record a clean comparison"
  cat "${work}/verdict.json"; exit 1; }
# Sanity-check the gate actually gates: a perturbed deterministic counter
# must exit 1 and name the regressed series.
sed 's/"outerAttempts":[0-9]*/"outerAttempts":999999/' \
  "${work}/new.json" >"${work}/perturbed.json"
set +e
"${hcac}" --compare "${work}/base.json" "${work}/perturbed.json" \
  >"${work}/perturbed.log" 2>&1
perturbed_rc=$?
set -e
if [[ "${perturbed_rc}" -ne 1 ]]; then
  echo "ci: perturbed compare exited ${perturbed_rc}, expected 1"
  cat "${work}/perturbed.log"
  exit 1
fi
grep -q "stats.outerAttempts" "${work}/perturbed.log" || {
  echo "ci: perturbed compare did not name the regressed series"
  cat "${work}/perturbed.log"; exit 1; }
echo "ci: regression gate smoke passed"

# Thread-count identity on the Release binary: the sweep's winner must not
# depend on how many workers ran it.
release_hcac="${root}/build-perf/tools/hcac"
for kernel in fir2dim idcthor; do
  "${release_hcac}" --kernel "${kernel}" --threads 1 \
    --dot-assignment "${work}/${kernel}.t1.dot" >"${work}/threads.log" 2>&1
  "${release_hcac}" --kernel "${kernel}" --threads 4 --oversubscribe \
    --dot-assignment "${work}/${kernel}.t4.dot" >>"${work}/threads.log" 2>&1
  cmp "${work}/${kernel}.t1.dot" "${work}/${kernel}.t4.dot" || {
    echo "ci: ${kernel} assignment differs between --threads 1 and 4"
    cat "${work}/threads.log"; exit 1; }
done
echo "ci: thread-count identity passed"

echo "=== ci: all stages passed ==="
