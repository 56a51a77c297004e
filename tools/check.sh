#!/usr/bin/env bash
# Full local gate: tier-1 release build (-Werror) + full test suite, the fast
# suites again under AddressSanitizer + UndefinedBehaviorSanitizer
# (ADAFLOW_SANITIZE=ON), and the concurrency-bearing suites under
# ThreadSanitizer (ADAFLOW_TSAN=ON). Tier 1 includes the bench group, which
# gates every simulation family against the committed baselines in
# bench/baselines/. After tier 1 the perfbench program (perfbench/, its own
# CMake project over src/) is built in build-perfbench/, so an src/ API
# change that breaks the benchmark fails here.
#
# Usage: tools/check.sh [jobs] [group...]
#
# With no group, runs tiers 1-3; every test runs once in tier 1. Naming one
# or more groups instead builds tier 1 and runs only those groups, for
# iterating on one layer: nn (GEMM/conv/BatchNorm/MaxPool oracles, Trainer +
# golden pin), sim (event-queue oracle + statistics), fleet, chaos, forecast,
# dse, ingest, tenant, shard (incl. the FieldTables tests of every metrics
# field table), integrity, graph, detect (each with its CLI validation and its
# bench gate), cli (every subcommand's short run + flag error paths), bench
# (every simulation family's full run diffed against bench/baselines/ by
# tools/bench_diff.py, plus that script's tests) and golden (every
# GoldenReplay pin: fleet, shard, single-device, tenant and ingest replay
# pins, metrics_fingerprint and the reference hasher).
set -euo pipefail

groups_known="nn sim fleet chaos forecast dse ingest tenant shard integrity graph detect cli bench golden"
jobs="$(nproc)"
if [[ $# -gt 0 && "$1" =~ ^[0-9]+$ ]]; then
  jobs="$1"
  shift
fi
for group in "$@"; do
  if [[ " $groups_known " != *" $group "* ]]; then
    echo "check.sh: unknown group '$group' (valid: $groups_known)" >&2
    exit 2
  fi
done
root="$(cd "$(dirname "$0")/.." && pwd)"

echo "== tier 1: release build (-Werror) =="
cmake -B "$root/build" -S "$root" -DADAFLOW_WERROR=ON
cmake --build "$root/build" -j "$jobs"

build_perfbench() {
  echo "== perfbench build (build-perfbench/) =="
  cmake -B "$root/build-perfbench" -S "$root/perfbench"
  cmake --build "$root/build-perfbench" -j "$jobs" --target perfbench
}

if [[ $# -gt 0 ]]; then
  for group in "$@"; do
    if [[ "$group" == golden ]]; then
      echo "== golden replay group (ctest -R '^GoldenReplay') =="
      ctest --test-dir "$root/build" -R '^GoldenReplay' --output-on-failure -j "$jobs"
    else
      echo "== $group group (ctest -L $group) =="
      ctest --test-dir "$root/build" -L "$group" --output-on-failure -j "$jobs"
    fi
  done
  build_perfbench
  echo "== named groups passed =="
  exit 0
fi

echo "== tier 1: full test suite =="
ctest --test-dir "$root/build" --output-on-failure -j "$jobs"
build_perfbench

echo "== tier 2: ASan+UBSan unit tests (incl. Parallel.NestedCallRunsInline* and the shard group's FieldTables tests) =="
cmake -B "$root/build-asan" -S "$root" -DADAFLOW_SANITIZE=ON \
  -DADAFLOW_BUILD_BENCH=OFF -DADAFLOW_BUILD_EXAMPLES=OFF
cmake --build "$root/build-asan" -j "$jobs" --target adaflow_unit_tests \
  --target adaflow_nn_tests --target adaflow_sim_tests --target adaflow_fleet_tests \
  --target adaflow_chaos_tests --target adaflow_forecast_tests --target adaflow_dse_tests \
  --target adaflow_ingest_tests --target adaflow_tenant_tests \
  --target adaflow_shard_tests --target adaflow_integrity_tests \
  --target adaflow_graph_tests --target adaflow_detect_tests --target adaflow_cli
ctest --test-dir "$root/build-asan" -L 'unit|nn|sim|fleet|chaos|forecast|dse|ingest|tenant|shard|integrity|graph|detect|cli' --output-on-failure -j "$jobs"

# The concurrency surface lives in common/parallel (worker pool), the shard
# engine (window barriers + mailboxes) and the fleet paths the shards drive,
# so TSan covers exactly those groups; the nn-training-heavy unit suite is
# narrowed to its Parallel.* tests to keep the tier's runtime sane, and the nn
# group to the Conv2d oracle, which runs the panelled passes (each worker on
# its own scratch buffers) and the batched weight-gradient NT (its column
# chunks as tasks of the same parallel_for) at 1, 2 and 4 workers, to the
# batched-NT GEMM oracle, whose A^T packing runs one task per sample, and to
# the MaxPool2d oracle, whose planes run in parallel blocks.
echo "== tier 3: ThreadSanitizer shard/fleet/common tests (incl. FieldTables and the nested parallel_for test) =="
cmake -B "$root/build-tsan" -S "$root" -DADAFLOW_TSAN=ON \
  -DADAFLOW_BUILD_BENCH=OFF -DADAFLOW_BUILD_EXAMPLES=OFF
cmake --build "$root/build-tsan" -j "$jobs" --target adaflow_unit_tests \
  --target adaflow_nn_tests --target adaflow_fleet_tests --target adaflow_shard_tests \
  --target adaflow_cli
ctest --test-dir "$root/build-tsan" -L 'shard|fleet' --output-on-failure -j "$jobs"
ctest --test-dir "$root/build-tsan" -L unit -R '^Parallel\.' --output-on-failure -j "$jobs"
ctest --test-dir "$root/build-tsan" -L nn -R '^(Conv2dOracle\.|GemmOracle\.NTBatch|MaxPool2dOracle\.)' --output-on-failure -j "$jobs"

echo "== all checks passed =="
