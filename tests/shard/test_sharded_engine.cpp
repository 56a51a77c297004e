#include "adaflow/shard/sharded_engine.hpp"

#include <gtest/gtest.h>

#include <string>

#include "adaflow/common/error.hpp"
#include "adaflow/common/parallel.hpp"
#include "adaflow/core/library.hpp"
#include "adaflow/edge/workload.hpp"
#include "adaflow/faults/fault_injector.hpp"
#include "adaflow/fleet/fleet.hpp"

namespace adaflow::shard {
namespace {

edge::WorkloadConfig bursty_workload(double rate, double duration_s) {
  edge::WorkloadConfig c;
  c.devices = 1;
  c.fps_per_device = rate;
  c.phases = {edge::WorkloadPhase{0.7, 0.5, duration_s}};
  return c;
}

fleet::FleetConfig fleet_of(const core::AcceleratorLibrary& lib, int devices) {
  fleet::FleetConfig config;
  config.devices = fleet::homogeneous_devices(lib, core::RuntimeManagerConfig{}, devices);
  return config;
}

void expect_conservation(const fleet::FleetMetrics& m) {
  EXPECT_EQ(m.arrived + m.redispatched, m.dispatched + m.ingress_lost + m.ingress_backlog);
}

TEST(ShardSeed, ShardZeroKeepsTheFleetSeed) {
  EXPECT_EQ(shard_seed(42, 0), 42u);
  EXPECT_EQ(shard_seed(0xdeadbeef, 0), 0xdeadbeefULL);
  EXPECT_NE(shard_seed(42, 1), 42u);
  EXPECT_NE(shard_seed(42, 1), shard_seed(42, 2));
  EXPECT_NE(shard_seed(42, 2), shard_seed(42, 3));
}

TEST(ShardConfigValidate, RejectsBadFields) {
  ShardConfig c;
  c.shards = 0;
  EXPECT_THROW(c.validate(4), ConfigError);
  c.shards = 5;
  EXPECT_THROW(c.validate(4), ConfigError);  // more shards than devices
  c.shards = 2;
  c.window_s = 0.0;
  EXPECT_THROW(c.validate(4), ConfigError);
  c.window_s = 0.25;
  c.max_hops = -1;
  EXPECT_THROW(c.validate(4), ConfigError);
  c.max_hops = 2;
  c.threads = -1;
  EXPECT_THROW(c.validate(4), ConfigError);
  c.threads = 0;
  EXPECT_NO_THROW(c.validate(4));
}

TEST(ShardedEngine, EveryShardRunsTheFleetWideLayers) {
  // Each shard's config is the whole FleetConfig with its own device subset
  // and ingress share, so a fleet-wide layer (here the integrity canaries)
  // runs on every device of every shard.
  const core::AcceleratorLibrary lib = core::synthetic_library();
  fleet::FleetConfig config = fleet_of(lib, 3);
  config.devices[1].fault_schedule = faults::config_upset_storm(1.0, 10.0, 0.8);
  config.integrity.enabled = true;
  config.integrity.canary_interval_s = 0.25;
  // Health stays off, so a detection reloads the device without quarantine.
  edge::WorkloadTrace trace(bursty_workload(1300.0, 12.0), 19);

  ShardConfig shard_cfg;
  shard_cfg.shards = 3;
  const ShardedMetrics m = run_sharded_fleet(trace, lib, config, shard_cfg, "least-loaded", 17);

  ASSERT_EQ(m.fleet.devices.size(), 3u);
  for (const fleet::FleetDeviceResult& d : m.fleet.devices) {
    EXPECT_GT(d.metrics.integrity.canaries_sent, 0) << d.name;
  }
  EXPECT_GT(m.fleet.integrity.upsets_injected, 0);
  expect_conservation(m.fleet);
}

TEST(ShardedEngine, MetricsAreBitIdenticalAcrossThreadCounts) {
  // The tentpole determinism contract: at a fixed (seed, shards, window),
  // the worker count must not leak into the results — threads only decide
  // which core advances which shard inside a window, and shards share
  // nothing there.
  const core::AcceleratorLibrary lib = core::synthetic_library();
  const fleet::FleetConfig config = fleet_of(lib, 8);
  edge::WorkloadTrace trace(bursty_workload(2400.0, 10.0), 21);

  std::string expected;
  const int hw = default_worker_count();
  for (int threads : {1, 4, hw}) {
    ShardConfig shard_cfg;
    shard_cfg.shards = 4;
    shard_cfg.threads = threads;
    const ShardedMetrics m = run_sharded_fleet(trace, lib, config, shard_cfg, "least-loaded", 7);
    const std::string fp = metrics_fingerprint(m.fleet);
    if (expected.empty()) {
      expected = fp;
    }
    EXPECT_EQ(fp, expected) << "thread count " << threads << " changed the simulation";
    expect_conservation(m.fleet);
  }
}

TEST(ShardedEngine, SameSeedReplaysBitIdentically) {
  const core::AcceleratorLibrary lib = core::synthetic_library();
  fleet::FleetConfig config = fleet_of(lib, 6);
  config.devices[2].fault_schedule = faults::flaky_edge_schedule(9.0);
  edge::WorkloadTrace trace(bursty_workload(2000.0, 8.0), 5);
  ShardConfig shard_cfg;
  shard_cfg.shards = 3;
  const ShardedMetrics a = run_sharded_fleet(trace, lib, config, shard_cfg, "round-robin", 99);
  const ShardedMetrics b = run_sharded_fleet(trace, lib, config, shard_cfg, "round-robin", 99);
  EXPECT_EQ(metrics_fingerprint(a.fleet), metrics_fingerprint(b.fleet));
  EXPECT_EQ(a.stats.handoffs, b.stats.handoffs);
  EXPECT_EQ(a.stats.windows, b.stats.windows);
}

TEST(ShardedEngine, OverloadForwardsSheddingAcrossShardsAndConservesFrames) {
  // Starve the fleet (tiny device queues + tiny per-shard ingress under
  // heavy traffic) so shards shed; sheds must travel the mailbox ring
  // instead of silently dying, and the merged books must still balance.
  const core::AcceleratorLibrary lib = core::synthetic_library();
  fleet::FleetConfig config = fleet_of(lib, 4);
  config.ingress_capacity = 4;
  for (auto& d : config.devices) {
    d.server.queue_capacity = 3;
  }
  edge::WorkloadTrace trace(bursty_workload(6000.0, 6.0), 3);
  ShardConfig shard_cfg;
  shard_cfg.shards = 2;
  shard_cfg.max_hops = 2;
  const ShardedMetrics m = run_sharded_fleet(trace, lib, config, shard_cfg, "least-loaded", 13);

  EXPECT_GT(m.stats.handoffs, 0);
  EXPECT_GT(m.fleet.ingress_lost, 0);
  EXPECT_LE(m.stats.handoff_lost, m.stats.handoffs);
  expect_conservation(m.fleet);
  ASSERT_EQ(m.fleet.devices.size(), 4u);
  EXPECT_EQ(m.stats.windows, 24);  // 6 s / 0.25 s

  // The arrival stream is one global process: frame counts are invariant to
  // the shard count (each unique frame is booked exactly once).
  ShardConfig one;
  one.shards = 1;
  const ShardedMetrics single = run_sharded_fleet(trace, lib, config, one, "least-loaded", 13);
  EXPECT_EQ(m.fleet.arrived, single.fleet.arrived);
}

TEST(ShardedEngine, MaxHopsZeroDisablesForwarding) {
  const core::AcceleratorLibrary lib = core::synthetic_library();
  fleet::FleetConfig config = fleet_of(lib, 4);
  config.ingress_capacity = 4;
  for (auto& d : config.devices) {
    d.server.queue_capacity = 3;
  }
  edge::WorkloadTrace trace(bursty_workload(6000.0, 5.0), 17);
  ShardConfig shard_cfg;
  shard_cfg.shards = 2;
  shard_cfg.max_hops = 0;
  const ShardedMetrics m = run_sharded_fleet(trace, lib, config, shard_cfg, "least-loaded", 13);
  EXPECT_EQ(m.stats.handoffs, 0);
  EXPECT_EQ(m.stats.handoff_lost, 0);
  expect_conservation(m.fleet);
}

TEST(ShardedEngine, DevicesPartitionRoundRobinAcrossShards) {
  const core::AcceleratorLibrary lib = core::synthetic_library();
  const fleet::FleetConfig config = fleet_of(lib, 5);
  edge::WorkloadTrace trace(bursty_workload(1000.0, 4.0), 29);
  ShardConfig shard_cfg;
  shard_cfg.shards = 2;
  const ShardedMetrics m = run_sharded_fleet(trace, lib, config, shard_cfg, "round-robin", 3);
  // Shard 0 owns devices 0, 2, 4; shard 1 owns 1, 3 — merged in shard order.
  ASSERT_EQ(m.fleet.devices.size(), 5u);
  EXPECT_EQ(m.fleet.devices[0].name, "dev0");
  EXPECT_EQ(m.fleet.devices[1].name, "dev2");
  EXPECT_EQ(m.fleet.devices[2].name, "dev4");
  EXPECT_EQ(m.fleet.devices[3].name, "dev1");
  EXPECT_EQ(m.fleet.devices[4].name, "dev3");
}

}  // namespace
}  // namespace adaflow::shard
