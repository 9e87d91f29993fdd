#!/usr/bin/env bash
# Dead-symbol audit: lists the hca:: library functions that no executable
# keeps, and fails when one of them is not in tools/dead_symbols_allowlist.txt.
#
# Every non-test executable is built at -O0 with -ffunction-sections and
# linked with --gc-sections, so the linker drops each function no binary
# reaches: hcac, hca_lint, the bench/ and examples/ programs (the targets
# declared in tools/, bench/ and examples/CMakeLists.txt) and perfbench's
# hca_perfbench, which compiles the library sources itself. A defined text
# symbol of a libhca_*.a that none of those binaries keeps is dead. Lambdas,
# anonymous-namespace helpers, std:: instantiations and function template
# instantiations are filtered out: only named functions in namespace hca
# are listed.
#
# The allowlist names, one demangled signature per line, the test-support
# functions kept on purpose although no program links them. An allowlisted
# symbol that is no longer dead is reported as a notice, not a failure.
#
# Skips with a notice when GNU nm, GNU ld or c++filt is missing.
#
# Usage: tools/dead_symbols.sh [jobs]
# Build trees: build-deadsym/ and build-deadsym-perfbench/.
set -euo pipefail
export LC_ALL=C  # one collation for sort and comm

root="$(cd "$(dirname "$0")/.." && pwd)"
jobs="${1:-$(nproc)}"
allowlist="${root}/tools/dead_symbols_allowlist.txt"
tree="${root}/build-deadsym"
perf_tree="${root}/build-deadsym-perfbench"

is_gnu() { "$1" --version 2>/dev/null | head -n 1 | grep -q 'GNU'; }
if ! is_gnu nm || ! is_gnu ld || ! command -v c++filt >/dev/null 2>&1; then
  echo "dead-symbols: GNU nm, GNU ld or c++filt not found; skipping the audit"
  exit 0
fi

gc_flags=(-DCMAKE_BUILD_TYPE=Debug -DCMAKE_CXX_FLAGS_DEBUG=-O0
          -DCMAKE_CXX_FLAGS=-ffunction-sections
          -DCMAKE_EXE_LINKER_FLAGS=-Wl,--gc-sections)

# Executable targets: every add_executable / hca_add_bench / hca_add_example
# call with a literal name in the non-test directories.
mapfile -t targets < <(
  grep -ohE '^(add_executable|hca_add_bench|hca_add_example)\([A-Za-z0-9_]+' \
    "${root}/tools/CMakeLists.txt" "${root}/bench/CMakeLists.txt" \
    "${root}/examples/CMakeLists.txt" | sed 's/.*(//' | sort -u)

cmake -B "${tree}" -S "${root}" "${gc_flags[@]}" >/dev/null
cmake --build "${tree}" -j "${jobs}" --target "${targets[@]}" >/dev/null
cmake -B "${perf_tree}" -S "${root}/perfbench" "${gc_flags[@]}" >/dev/null
cmake --build "${perf_tree}" -j "${jobs}" --target hca_perfbench >/dev/null

binaries=("${perf_tree}/hca_perfbench")
for t in "${targets[@]}"; do
  for dir in tools bench examples; do
    if [[ -x "${tree}/${dir}/${t}" ]]; then binaries+=("${tree}/${dir}/${t}"); fi
  done
done
if (( ${#binaries[@]} != ${#targets[@]} + 1 )); then
  echo "dead-symbols: expected $(( ${#targets[@]} + 1 )) binaries, found ${#binaries[@]}"
  exit 1
fi
mapfile -t libraries < <(find "${tree}/src" -name 'libhca_*.a' | sort)

# Mangled names of defined functions in namespace hca (const/ref-qualified
# members included), minus anonymous-namespace ones.
hca_functions() {
  nm --defined-only "$@" |
    awk 'NF == 3 && $2 ~ /^[TtWw]$/ && $3 ~ /^_ZN[KVRO]*3hca/ &&
         $3 !~ /_GLOBAL__N/ { print $3 }' | sort -u
}

work="$(mktemp -d)"
trap 'rm -rf "${work}"' EXIT
hca_functions "${libraries[@]}" >"${work}/defined"
hca_functions "${binaries[@]}" >"${work}/kept"
# A demangled name that does not start with "hca::" carries a return type:
# an instantiation of a function template, dead only because its callers
# are. Its callers are listed instead.
comm -23 "${work}/defined" "${work}/kept" | c++filt |
  awk '/^hca::/ && !/\{lambda/' | sort -u >"${work}/dead"
awk '!/^#/ && NF' "${allowlist}" | sort -u >"${work}/allowed"

comm -23 "${work}/dead" "${work}/allowed" >"${work}/unlisted"
comm -13 "${work}/dead" "${work}/allowed" >"${work}/stale"
if [[ -s "${work}/stale" ]]; then
  echo "dead-symbols: notice: allowlisted but no longer dead (remove them):"
  sed 's/^/  /' "${work}/stale"
fi
if [[ -s "${work}/unlisted" ]]; then
  echo "dead-symbols: library functions no executable links:"
  sed 's/^/  /' "${work}/unlisted"
  echo "dead-symbols: delete them, or allowlist a test-support function in"
  echo "  tools/dead_symbols_allowlist.txt"
  exit 1
fi
echo "dead-symbols: clean ($(wc -l <"${work}/dead") allowlisted of" \
  "$(wc -l <"${work}/defined") hca:: functions, ${#binaries[@]} binaries)"
