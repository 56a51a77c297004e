// Golden replay pins for the simulator hot path. The strings below were
// recorded before the event queue and the dispatcher were made
// allocation-free; any change to the discrete-event core, the dispatcher or
// the router's inputs that moves a single simulated outcome moves them.
// A deliberate behaviour change re-records them, with the reason in its
// commit message; a speed-up never does.

#include <gtest/gtest.h>

#include <string>

#include "adaflow/core/library.hpp"
#include "adaflow/edge/workload.hpp"
#include "adaflow/faults/fault_injector.hpp"
#include "adaflow/fleet/fleet.hpp"
#include "adaflow/fleet/routing.hpp"
#include "adaflow/shard/sharded_engine.hpp"

namespace adaflow::shard {
namespace {

constexpr double kDurationS = 6.0;

/// A bursty trace near the fleet's capacity: 16 devices, ~700 FPS each,
/// redrawn +-70% every 0.5 s, so devices switch and the ingress fills.
edge::WorkloadTrace golden_trace(int devices, std::uint64_t seed) {
  edge::WorkloadConfig c;
  c.devices = devices;
  c.fps_per_device = 700.0;
  c.phases = {edge::WorkloadPhase{0.7, 0.5, kDurationS}};
  return edge::WorkloadTrace(c, seed);
}

/// 16 AdaFlow devices, health monitoring on, device 5 flaky.
fleet::FleetConfig golden_fleet(const core::AcceleratorLibrary& lib) {
  fleet::FleetConfig config;
  config.devices = fleet::homogeneous_devices(lib, core::RuntimeManagerConfig{}, 16);
  config.ingress_capacity = 256;
  config.health.enabled = true;
  config.devices[5].fault_schedule = faults::flaky_edge_schedule(kDurationS);
  return config;
}

ShardedMetrics run_golden_sharded(int shards) {
  const core::AcceleratorLibrary lib = core::synthetic_library();
  const fleet::FleetConfig config = golden_fleet(lib);
  const edge::WorkloadTrace trace = golden_trace(16, 3);
  ShardConfig shard_cfg;
  shard_cfg.shards = shards;
  return run_sharded_fleet(trace, lib, config, shard_cfg, "least-loaded", 11);
}

TEST(GoldenReplay, ShardedOneShardFingerprintIsPinned) {
  const ShardedMetrics m = run_golden_sharded(1);
  EXPECT_EQ(metrics_fingerprint(m.fleet), "95618b9dfda8fca1");
  // The pin is only worth something if the run exercises the hot path's
  // branches: mode switches, a full ingress, and the fault layer.
  EXPECT_GT(m.fleet.model_switches, 0);
  EXPECT_GT(m.fleet.ingress_lost, 0);
  EXPECT_GT(m.fleet.faults.stalls_injected, 0);
}

TEST(GoldenReplay, ShardedFourShardsFingerprintIsPinned) {
  const ShardedMetrics m = run_golden_sharded(4);
  EXPECT_EQ(metrics_fingerprint(m.fleet), "ba330a27abc9e8ff");
  EXPECT_GT(m.stats.handoffs, 0);
}

TEST(GoldenReplay, RunFleetWithCoordinatorFingerprintIsPinned) {
  const core::AcceleratorLibrary lib = core::synthetic_library();
  fleet::FleetConfig config = golden_fleet(lib);
  config.coordinator.enabled = true;
  const edge::WorkloadTrace trace = golden_trace(16, 5);
  auto router = fleet::make_router("least-loaded");
  const fleet::FleetMetrics m = fleet::run_fleet(trace, lib, config, *router, 23);
  EXPECT_EQ(metrics_fingerprint(m), "51ededc7c6e7261d");
  EXPECT_GT(m.reconfigurations, 0);
}

}  // namespace
}  // namespace adaflow::shard
