#!/usr/bin/env bash
# Full local gate: tier-1 release build (-Werror) + full test suite, fast
# label groups for iterating on src/nn, src/sim, src/fleet, the resilience
# layer, src/forecast, src/dse, src/ingest, src/tenant, src/shard, src/graph,
# src/detect and the CLI, every golden replay pin as one group, the fast
# suites again under AddressSanitizer + UndefinedBehaviorSanitizer
# (ADAFLOW_SANITIZE=ON), and the concurrency-bearing suites under
# ThreadSanitizer (ADAFLOW_TSAN=ON). The bench group gates every simulation
# family against the committed baselines in bench/baselines/.
#
# Usage: tools/check.sh [jobs]
set -euo pipefail

jobs="${1:-$(nproc)}"
root="$(cd "$(dirname "$0")/.." && pwd)"

echo "== tier 1: release build (-Werror) + full test suite =="
cmake -B "$root/build" -S "$root" -DADAFLOW_WERROR=ON
cmake --build "$root/build" -j "$jobs"
ctest --test-dir "$root/build" --output-on-failure -j "$jobs"

# Label groups, for iterating on one layer: nn (GEMM/conv/BatchNorm/MaxPool
# oracles, Trainer + golden pin), sim (event-queue oracle + statistics),
# fleet, chaos, forecast, dse, ingest, tenant, shard (incl. the FieldTables
# tests of every metrics field table), integrity, graph, detect (each with
# its CLI validation and its bench gate), cli (every subcommand's short run +
# flag error paths) and bench (every simulation family's full run diffed
# against bench/baselines/ by tools/bench_diff.py, plus that script's tests).
for group in nn sim fleet chaos forecast dse ingest tenant shard integrity graph detect cli bench; do
  echo "== $group group (ctest -L $group) =="
  ctest --test-dir "$root/build" -L "$group" --output-on-failure -j "$jobs"
done

echo "== golden replay group (ctest -R '^GoldenReplay': fleet, shard, single-device, tenant and ingest (RunIngestFingerprintIsPinned) replay pins, metrics_fingerprint and reference-hasher) =="
ctest --test-dir "$root/build" -R '^GoldenReplay' --output-on-failure -j "$jobs"

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
