#!/usr/bin/env bash
# Full local gate: tier-1 release build (-Werror) + full test suite, fast
# label groups for iterating on src/nn, src/sim, src/fleet, the resilience
# layer, src/forecast, src/dse, src/ingest, src/tenant, src/shard, src/graph,
# src/detect and the CLI, every golden replay pin as one group, the fast
# suites again under AddressSanitizer + UndefinedBehaviorSanitizer
# (ADAFLOW_SANITIZE=ON), the concurrency-bearing suites under
# ThreadSanitizer (ADAFLOW_TSAN=ON), and a bench smoke tier gated against
# the committed baselines in bench/baselines/.
#
# Usage: tools/check.sh [jobs]
set -euo pipefail

jobs="${1:-$(nproc)}"
root="$(cd "$(dirname "$0")/.." && pwd)"

echo "== tier 1: release build (-Werror) + full test suite =="
cmake -B "$root/build" -S "$root" -DADAFLOW_WERROR=ON
cmake --build "$root/build" -j "$jobs"
ctest --test-dir "$root/build" --output-on-failure -j "$jobs"

echo "== nn group (ctest -L nn: GEMM oracle per ISA variant incl. strided NT views, the batched NT and write-mode NN/TN/NT, conv oracle (stride/pad/odd and pruned widths, 1/2/4 workers), BatchNorm lane-chain oracle, MaxPool2d 2x2-vs-generic oracle, Trainer + golden pin) =="
ctest --test-dir "$root/build" -L nn --output-on-failure -j "$jobs"

echo "== sim group (ctest -L sim: event-queue oracle + statistics tests) =="
ctest --test-dir "$root/build" -L sim --output-on-failure -j "$jobs"

echo "== fleet group (ctest -L fleet: cluster tests + bench_fleet smoke) =="
ctest --test-dir "$root/build" -L fleet --output-on-failure -j "$jobs"

echo "== chaos group (ctest -L chaos: resilience tests + bench_chaos smoke) =="
ctest --test-dir "$root/build" -L chaos --output-on-failure -j "$jobs"

echo "== forecast group (ctest -L forecast: forecasting tests + bench_forecast smoke) =="
ctest --test-dir "$root/build" -L forecast --output-on-failure -j "$jobs"

echo "== dse group (ctest -L dse: folding auto-tuner + bench_dse smoke) =="
ctest --test-dir "$root/build" -L dse --output-on-failure -j "$jobs"

echo "== ingest group (ctest -L ingest: pipeline tests + CLI validation + bench_ingest smoke) =="
ctest --test-dir "$root/build" -L ingest --output-on-failure -j "$jobs"

echo "== tenant group (ctest -L tenant: multi-tenant tests + CLI validation + bench_tenant smoke) =="
ctest --test-dir "$root/build" -L tenant --output-on-failure -j "$jobs"

echo "== shard group (ctest -L shard: sharded-engine tests, the FieldTables perturbation/identity/associativity tests of every metrics field table + CLI validation + bench_shard smoke) =="
ctest --test-dir "$root/build" -L shard --output-on-failure -j "$jobs"

echo "== integrity group (ctest -L integrity: silent-corruption tests + CLI validation + bench_integrity smoke) =="
ctest --test-dir "$root/build" -L integrity --output-on-failure -j "$jobs"

echo "== graph group (ctest -L graph: graph-IR tests + CLI validation) =="
ctest --test-dir "$root/build" -L graph --output-on-failure -j "$jobs"

echo "== detect group (ctest -L detect: detection tests + CLI validation + bench_detect smoke) =="
ctest --test-dir "$root/build" -L detect --output-on-failure -j "$jobs"

echo "== cli group (ctest -L cli: every subcommand's smoke run + flag error paths) =="
ctest --test-dir "$root/build" -L cli --output-on-failure -j "$jobs"

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

# Every simulation bench is deterministic in its quality metrics (loss, QoE,
# conservation counters), so a --smoke run compared against the committed
# baseline catches behavioural regressions; wall-clock metrics are neutral
# in bench_diff.py and only inform.
echo "== tier 4: bench smoke runs gated against bench/baselines =="
bench_gate="$root/build/bench-gate"
rm -rf "$bench_gate"
mkdir -p "$bench_gate"
for b in fleet chaos forecast ingest tenant shard integrity detect; do
  echo "-- bench_$b --smoke"
  (cd "$bench_gate" && "$root/build/bench/bench_$b" --smoke > "bench_$b.log" 2>&1) || {
    cat "$bench_gate/bench_$b.log"
    echo "bench_$b --smoke failed"
    exit 1
  }
  python3 "$root/tools/bench_diff.py" \
    "$root/bench/baselines/BENCH_$b.json" "$bench_gate/BENCH_$b.json"
done

echo "== all checks passed =="
