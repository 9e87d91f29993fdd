#!/usr/bin/env bash
# Run the `tsan`-labelled tests under ThreadSanitizer.
#
# Builds into a separate tree (build-tsan/) so the instrumented binaries
# never pollute the regular build directory, then runs `ctest -L tsan`:
# the portfolio-search suite (parallel_test) and delta_identity_test, whose
# four-thread delta sweeps must match the serial reference. A data race on
# the sub-problem cache, the thread pool or a per-attempt delta pool or
# arena fails the test that hit it.
#
# Usage: tools/run_tsan_tier1.sh [extra ctest args...]
set -euo pipefail

root="$(cd "$(dirname "$0")/.." && pwd)"
build="${root}/build-tsan"

cmake -B "${build}" -S "${root}" -DHCA_SANITIZE=thread
cmake --build "${build}" -j "$(nproc)"

# halt_on_error: the first race report fails its test instead of being
# buried under the reports that follow it.
export TSAN_OPTIONS="${TSAN_OPTIONS:-halt_on_error=1:second_deadlock_stack=1}"

cd "${build}"
ctest -L tsan --output-on-failure -j "$(nproc)" "$@"
