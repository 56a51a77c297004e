/// `bench_adaflow shard`: the sharded parallel fleet engine (src/shard) — scaling and
/// determinism. This is the perf trajectory anchor for the "1000+ devices"
/// ROADMAP goal.
///
/// Part A sweeps shards x threads over a fixed 256-device fleet and reports
/// wall-clock per configuration plus the speedup of the widest
/// configuration over 1-shard/1-thread. The >= 4x acceptance bar for
/// 8 shards / 8 threads is only enforceable on a machine with >= 8 hardware
/// threads; on smaller hosts the sweep still runs (the numbers are still
/// published) and the assertion is skipped with a visible notice.
///
/// Part B runs a 1000-device chaos-style scenario — health monitoring on,
/// every 37th device on a flaky fault schedule — across 8 shards and checks
/// it completes with sane books (flow conservation, faults manifested).
///
/// Part C pins the determinism contract: at fixed (seed, shards, window) the
/// merged-metrics fingerprint must be identical at 1, 4, and
/// hardware_concurrency worker threads. Always enforced, on any host.

#include <cstdio>
#include <string>
#include <thread>
#include <vector>

#include "adaflow/common/parallel.hpp"
#include "adaflow/common/strings.hpp"
#include "adaflow/common/table.hpp"
#include "adaflow/core/library.hpp"
#include "adaflow/faults/fault_injector.hpp"
#include "adaflow/fleet/fleet.hpp"
#include "adaflow/shard/sharded_engine.hpp"
#include "common.hpp"

namespace adaflow::bench {
namespace {

fleet::FleetConfig homogeneous_fleet(const core::AcceleratorLibrary& lib, int devices) {
  fleet::FleetConfig config;
  config.devices = fleet::homogeneous_devices(lib, core::RuntimeManagerConfig{}, devices);
  config.ingress_capacity = 16 * static_cast<std::int64_t>(devices);
  return config;
}

}  // namespace

void shard_bench(Report& report) {
  auto& [check, json] = report;
  bench::print_banner("Sharded engine scaling",
                      "conservative-window parallel fleet: shards x threads sweep, "
                      "1000-device chaos scenario, thread-count determinism");

  const core::AcceleratorLibrary lib = core::synthetic_library();
  const unsigned hw = std::thread::hardware_concurrency();

  // --- Part A: shards x threads scaling sweep -----------------------------
  const int sweep_devices = 256;
  const double sweep_duration = 20.0;
  const fleet::FleetConfig sweep_fleet = homogeneous_fleet(lib, sweep_devices);
  // ~50 FPS of traffic per device: enough events for the wall-clock to mean
  // something, few enough that the gate stays quick.
  const edge::WorkloadTrace sweep_trace(
      bench::stream(50.0 * static_cast<double>(sweep_devices), 0.7, 0.5, sweep_duration), 17);

  // Each sweep point runs as many worker threads as shards.
  TextTable sweep({"shards", "threads", "wall[s]", "speedup", "frame_loss", "handoffs"});
  double wall_serial = 0.0;
  double wall_widest = 0.0;
  for (const int n : {1, 2, 4, 8}) {
    const shard::ShardedMetrics m = shard::run_sharded_fleet(
        sweep_trace, lib, sweep_fleet, shard::ShardConfig{.shards = n, .threads = n},
        "least-loaded", 42);
    if (n == 1) {
      wall_serial = m.stats.wall_seconds;
    }
    wall_widest = m.stats.wall_seconds;
    const double speedup = m.stats.wall_seconds > 0.0 ? wall_serial / m.stats.wall_seconds : 0.0;
    sweep.add_row({std::to_string(n), std::to_string(n), format_double(m.stats.wall_seconds, 3),
                   format_double(speedup, 2), format_percent(m.fleet.frame_loss(), 2),
                   std::to_string(m.stats.handoffs)});
    const std::string scenario = "sweep_s" + std::to_string(n) + "_t" + std::to_string(n);
    json.set(scenario, "wall_s", m.stats.wall_seconds, Better::kInfo);
    json.set(scenario, "frame_loss", m.fleet.frame_loss(), Better::kLower);
    json.set(scenario, "qoe", m.fleet.qoe(), Better::kHigher);
    json.set(scenario, "handoffs", m.stats.handoffs, Better::kInfo);
    check(fleet::conserves_flow(m.fleet), "frame conservation at " + scenario);
  }
  std::printf("%d-device scaling sweep (%.0f s trace, %u hardware threads):\n%s\n", sweep_devices,
              sweep_duration, hw, sweep.render().c_str());
  const double widest_speedup = wall_widest > 0.0 ? wall_serial / wall_widest : 0.0;
  json.set("sweep_summary", "speedup_x", widest_speedup, Better::kInfo);
  if (hw >= 8) {
    check(widest_speedup >= 4.0, "8-shard/8-thread run >= 4x faster than 1-shard/1-thread");
  } else {
    std::printf("check shard/8-shard/8-thread >= 4x speedup: SKIP (host has < 8 hardware "
                "threads)\n");
  }

  // --- Part B: 1000-device chaos-style scenario ---------------------------
  const int chaos_devices = 1000;
  const double chaos_duration = 10.0;
  fleet::FleetConfig chaos_fleet = homogeneous_fleet(lib, chaos_devices);
  chaos_fleet.health.enabled = true;
  for (std::size_t i = 0; i < chaos_fleet.devices.size(); i += 37) {
    chaos_fleet.devices[i].fault_schedule = faults::flaky_edge_schedule(chaos_duration);
  }
  const edge::WorkloadTrace chaos_trace(
      bench::stream(30.0 * static_cast<double>(chaos_devices), 0.7, 0.5, chaos_duration), 23);
  const int all_threads = static_cast<int>(hw == 0 ? 1 : hw);
  const shard::ShardedMetrics chaos = shard::run_sharded_fleet(
      chaos_trace, lib, chaos_fleet, shard::ShardConfig{.shards = 8, .threads = all_threads},
      "least-loaded", 1337);
  std::printf(
      "1000-device chaos scenario: wall %.2f s, %lld windows, arrived %lld, processed %lld, "
      "loss %.2f%%, handoffs %lld, faults injected %lld\n\n",
      chaos.stats.wall_seconds, static_cast<long long>(chaos.stats.windows),
      static_cast<long long>(chaos.fleet.arrived), static_cast<long long>(chaos.fleet.processed),
      100.0 * chaos.fleet.frame_loss(), static_cast<long long>(chaos.stats.handoffs),
      static_cast<long long>(chaos.fleet.faults.total_injected()));
  json.set("chaos_1000", "wall_s", chaos.stats.wall_seconds, Better::kInfo);
  json.set("chaos_1000", "frame_loss", chaos.fleet.frame_loss(), Better::kLower);
  json.set("chaos_1000", "qoe", chaos.fleet.qoe(), Better::kHigher);
  json.set("chaos_1000", "handoffs", chaos.stats.handoffs, Better::kInfo);
  check(chaos.fleet.arrived > 0 && chaos.fleet.processed > 0,
        "1000-device scenario completes with traffic served");
  check(fleet::conserves_flow(chaos.fleet), "1000-device frame conservation");
  check(chaos.fleet.faults.total_injected() > 0, "the chaos schedules actually injected faults");
  check(chaos.fleet.devices.size() == 1000, "all 1000 devices accounted for");

  // --- Part C: thread-count determinism -----------------------------------
  const fleet::FleetConfig det_fleet = homogeneous_fleet(lib, 16);
  const edge::WorkloadTrace det_trace(bench::stream(800.0, 0.7, 0.5, 8.0), 31);
  std::string expected;
  bool identical = true;
  for (const int threads : {1, 4, all_threads}) {
    const shard::ShardedMetrics m = shard::run_sharded_fleet(
        det_trace, lib, det_fleet, shard::ShardConfig{.shards = 4, .threads = threads},
        "least-loaded", 7);
    const std::string fp = shard::metrics_fingerprint(m.fleet);
    std::printf("fingerprint @ %d thread(s): %s\n", threads, fp.c_str());
    if (expected.empty()) {
      expected = fp;
    }
    identical = identical && fp == expected;
  }
  check(identical, "metrics bit-identical across thread counts at fixed (seed, shards)");
}

}  // namespace adaflow::bench
