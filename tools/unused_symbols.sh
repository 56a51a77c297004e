#!/usr/bin/env bash
# Unused-function scan: every function a src/ library defines must be linked
# by some shipped program — the CLI (tools/), the bench programs (bench/),
# the examples and perfbench. Tests are not callers: a function only a test
# reaches is dead code (DESIGN.md §3 "One option rule").
#
# Builds those programs without tests at -O0 (no inlining hides a call)
# with one section per function and --gc-sections, so a binary keeps exactly
# the functions it can reach. A global text symbol of a src/ static library
# that no binary defines is unused. The scan fails, naming each, unless
# tools/unused_symbols.allow lists its demangled name with a reason.
#
# Usage: tools/unused_symbols.sh [jobs]   (build trees: build-scan/,
# build-scan-perfbench/)
set -euo pipefail

root="$(cd "$(dirname "$0")/.." && pwd)"
jobs="${1:-$(nproc)}"
scan="$root/build-scan"
allow="$root/tools/unused_symbols.allow"
flags=(-DCMAKE_BUILD_TYPE=None "-DCMAKE_CXX_FLAGS=-O0 -ffunction-sections"
  "-DCMAKE_EXE_LINKER_FLAGS=-Wl,--gc-sections")

cmake -B "$scan" -S "$root" "${flags[@]}" -DADAFLOW_BUILD_TESTS=OFF > /dev/null
cmake --build "$scan" -j "$jobs" > /dev/null
cmake -B "$scan-perfbench" -S "$root/perfbench" "${flags[@]}" > /dev/null
cmake --build "$scan-perfbench" -j "$jobs" --target perfbench > /dev/null

binaries=("$scan/tools/adaflow" "$scan/bench/bench_adaflow" "$scan/bench/bench_microbench"
  "$scan-perfbench/perfbench")
for src in "$root"/examples/*.cpp; do
  binaries+=("$scan/examples/$(basename "$src" .cpp)")
done

tmp="$(mktemp -d)"
trap 'rm -rf "$tmp"' EXIT
# Mangled names: one word each, so the set operations stay line-based.
find "$scan/src" -name 'libadaflow_*.a' -exec nm --defined-only {} + 2> /dev/null |
  awk '$2 == "T" { print $3 }' | sort -u > "$tmp/defined"
for bin in "${binaries[@]}"; do
  nm --defined-only "$bin"
done | awk 'NF == 3 { print $3 }' | sort -u > "$tmp/linked"
comm -23 "$tmp/defined" "$tmp/linked" | c++filt | sort > "$tmp/unused"
# Allowlist lines: "<demangled name>  # <reason>"; blank and '#' lines skipped.
awk '!/^[[:space:]]*(#|$)/ { sub(/  # .*$/, ""); print }' "$allow" | sort > "$tmp/allowed"

status=0
while IFS= read -r name; do
  echo "unused_symbols: $name is defined in src/ but no shipped program links it" >&2
  status=1
done < <(comm -23 "$tmp/unused" "$tmp/allowed")
while IFS= read -r name; do
  echo "unused_symbols: allowlisted $name is linked (or gone): drop it from $allow" >&2
  status=1
done < <(comm -13 "$tmp/unused" "$tmp/allowed")
if [[ $status -eq 0 ]]; then
  echo "unused_symbols: every src/ function is linked by a shipped program" \
    "($(wc -l < "$tmp/allowed") allowlisted)"
fi
exit $status
