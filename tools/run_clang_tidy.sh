#!/usr/bin/env bash
# Run clang-tidy (profile: .clang-tidy) over the main sources and the
# test-support library.
#
# Needs a compile_commands.json, which the top-level CMakeLists exports by
# default; pass a build directory as $1 (default: build). Exits 0 with a
# notice when clang-tidy is not installed, so CI images without the LLVM
# toolchain (the GCC-only container included) still pass the lint stage —
# the profile then only gates machines that can actually run it.
#
# Usage: tools/run_clang_tidy.sh [build-dir] [extra clang-tidy args...]
set -euo pipefail

root="$(cd "$(dirname "$0")/.." && pwd)"
build="${1:-${root}/build}"
shift $(( $# > 0 ? 1 : 0 ))

tidy="${CLANG_TIDY:-clang-tidy}"
if ! command -v "${tidy}" >/dev/null 2>&1; then
  echo "run_clang_tidy: ${tidy} not found; skipping lint (install LLVM to enable)"
  exit 0
fi

if [ ! -f "${build}/compile_commands.json" ]; then
  echo "run_clang_tidy: ${build}/compile_commands.json missing." >&2
  echo "run_clang_tidy: configure first: cmake -B ${build} -S ${root}" >&2
  exit 1
fi

# Main sources plus the test-support library (the deep-copy reference
# search the SEE tests compare against): third-party-free by construction.
# The test bodies stay out — their deliberate corruptions
# (tests/verify_test.cpp) would trip bugprone checks.
mapfile -t sources < <(cd "${root}" && find src tools examples tests/support -name '*.cpp' | sort)

echo "run_clang_tidy: $(${tidy} --version | head -1)"
echo "run_clang_tidy: linting ${#sources[@]} files against ${build}/compile_commands.json"

cd "${root}"
"${tidy}" -p "${build}" --quiet "$@" "${sources[@]}"
echo "run_clang_tidy: clean"
