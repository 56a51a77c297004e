#include "adaflow/fleet/fleet.hpp"

#include "adaflow/common/error.hpp"
#include "adaflow/core/library.hpp"
#include "adaflow/edge/workload.hpp"
#include "adaflow/shard/sharded_engine.hpp"

#include <gtest/gtest.h>

#include <string>
#include <vector>

namespace adaflow::fleet {
namespace {

edge::WorkloadConfig constant_workload(double rate, double duration_s) {
  edge::WorkloadConfig c;
  c.devices = 1;
  c.fps_per_device = rate;
  c.phases = {edge::WorkloadPhase{0.0, duration_s, duration_s}};  // no deviation
  return c;
}

edge::WorkloadConfig bursty_workload(double rate, double duration_s) {
  edge::WorkloadConfig c;
  c.devices = 1;
  c.fps_per_device = rate;
  c.phases = {edge::WorkloadPhase{0.7, 0.5, duration_s}};  // scenario-2 style
  return c;
}

void expect_conservation(const FleetMetrics& m) {
  // Every frame offered to the ingress — plus every frame pulled back out of
  // a sick queue and offered again — ends up dispatched, shed, or waiting.
  EXPECT_EQ(m.arrived + m.redispatched, m.dispatched + m.ingress_lost + m.ingress_backlog);
  std::int64_t device_arrived = 0;
  for (const FleetDeviceResult& d : m.devices) {
    device_arrived += d.metrics.arrived;
  }
  EXPECT_EQ(device_arrived, m.dispatched);
  EXPECT_LE(m.processed + m.device_lost, m.dispatched);
  EXPECT_LE(m.hedged, m.redispatched);
}

TEST(Fleet, FrameConservationAcrossDispatcherAndDevices) {
  const core::AcceleratorLibrary lib = core::synthetic_library();
  FleetConfig config;
  config.devices = homogeneous_devices(lib, core::RuntimeManagerConfig{}, 3);
  edge::WorkloadTrace trace(bursty_workload(1200.0, 15.0), 3);
  FleetMetrics m = shard::run_sharded_fleet(trace, lib, config, {}, "least-loaded", 42).fleet;
  EXPECT_GT(m.arrived, 0);
  EXPECT_GT(m.processed, 0);
  expect_conservation(m);
  ASSERT_EQ(m.devices.size(), 3u);
  EXPECT_EQ(m.devices[0].name, "dev0");
  EXPECT_EQ(m.devices[2].name, "dev2");
}

TEST(Fleet, SeriesLengthsMatchDurationAndCadence) {
  const core::AcceleratorLibrary lib = core::synthetic_library();
  FleetConfig config;
  config.devices = homogeneous_devices(lib, core::RuntimeManagerConfig{}, 2);
  config.sample_interval_s = 0.5;
  edge::WorkloadTrace trace(constant_workload(600.0, 10.0), 5);
  FleetMetrics m = shard::run_sharded_fleet(trace, lib, config, {}, "round-robin", 7).fleet;
  EXPECT_EQ(m.workload_series.values.size(), 20u);  // 10 s / 0.5 s
  EXPECT_EQ(m.loss_series.values.size(), 20u);
  EXPECT_EQ(m.qoe_series.values.size(), 20u);
  EXPECT_EQ(m.backlog_series.values.size(), 20u);
  EXPECT_NEAR(m.duration_s, 10.0, 1e-9);
}

TEST(Fleet, SameSeedReplaysBitIdentically) {
  const core::AcceleratorLibrary lib = core::synthetic_library();
  FleetConfig config;
  config.devices = homogeneous_devices(lib, core::RuntimeManagerConfig{}, 3);
  config.devices[1].fault_schedule = faults::flaky_edge_schedule(12.0);
  config.coordinator.enabled = true;
  edge::WorkloadTrace trace(bursty_workload(1300.0, 12.0), 11);

  auto run_once = [&] {
    return shard::run_sharded_fleet(trace, lib, config, {}, "least-loaded", 1234).fleet;
  };
  const FleetMetrics a = run_once();
  const FleetMetrics b = run_once();

  EXPECT_TRUE(sim::identical(a, b));
}

TEST(Fleet, LeastLoadedBeatsRoundRobinOnAHeterogeneousFleet) {
  // Three pinned devices at 0.5x / 1.0x / 2.0x of the same library under a
  // bursty aggregate near the 1750-FPS total capacity. Round robin keeps the
  // 250-FPS device's queue pegged full, so every burst starts with most of
  // the fleet's buffering already spent; join-shortest-queue weights by
  // drain time and enters bursts with empty queues and a short tail.
  const core::AcceleratorLibrary base = core::synthetic_library();
  const core::AcceleratorLibrary slow = core::scale_library_fps(base, 0.5);
  const core::AcceleratorLibrary fast = core::scale_library_fps(base, 2.0);
  FleetConfig config;
  config.devices = {pinned_device("slow", slow, 0), pinned_device("mid", base, 0),
                    pinned_device("fast", fast, 0)};
  edge::WorkloadTrace trace(bursty_workload(1600.0, 20.0), 17);

  auto run_with = [&](const std::string& router_name) {
    FleetMetrics m = shard::run_sharded_fleet(trace, base, config, {}, router_name, 99).fleet;
    expect_conservation(m);
    return m;
  };
  const FleetMetrics rr = run_with("round-robin");
  const FleetMetrics ll = run_with("least-loaded");
  EXPECT_GT(rr.frame_loss(), ll.frame_loss());
  // Under saturation both routers eventually peg the slow queue (the p95
  // backlog caps at its full-queue drain time), so the tail can tie at the
  // cap but must never be worse for the load-aware router.
  EXPECT_GE(rr.tail_latency_p95_s, ll.tail_latency_p95_s);
  // The typical (median) backlog, though, shows the routing difference.
  EXPECT_GE(sim::percentile(rr.backlog_series.values, 0.5),
            sim::percentile(ll.backlog_series.values, 0.5));
}

TEST(Fleet, AccuracyAwareRoutingLiftsQoeUnderLightLoad) {
  // dev0 runs the accurate slow version, dev1 a pruned fast one. At 300 FPS
  // both have headroom, so the accuracy-aware router should concentrate
  // traffic on the accurate model; round robin averages the two.
  const core::AcceleratorLibrary lib = core::synthetic_library();
  FleetConfig config;
  config.devices = {pinned_device("accurate", lib, 0), pinned_device("fast", lib, 2)};
  edge::WorkloadTrace trace(constant_workload(300.0, 15.0), 23);

  auto qoe_with = [&](const std::string& router_name) {
    return shard::run_sharded_fleet(trace, lib, config, {}, router_name, 5).fleet.qoe();
  };
  const double rr_qoe = qoe_with("round-robin");
  const double aa_qoe = qoe_with("accuracy-aware");
  EXPECT_GT(aa_qoe, rr_qoe + 0.01);
}

TEST(Fleet, CoordinatorRepartitionsAnOverloadedFleet) {
  // Two devices pinned to the 500-FPS unpruned version face a 1600-FPS
  // aggregate: the coordinator must drain-and-reconfigure each to a faster
  // version (one at a time), roughly halving the loss.
  const core::AcceleratorLibrary lib = core::synthetic_library();
  FleetConfig config;
  config.devices = {pinned_device("a", lib, 0), pinned_device("b", lib, 0)};
  edge::WorkloadTrace trace(constant_workload(1600.0, 25.0), 31);
  auto run_with = [&](bool coordinated) {
    FleetConfig c = config;
    c.coordinator.enabled = coordinated;
    return shard::run_sharded_fleet(trace, lib, c, {}, "least-loaded", 77).fleet;
  };

  const FleetMetrics off = run_with(false);
  const FleetMetrics on = run_with(true);
  EXPECT_EQ(off.repartitions, 0);
  EXPECT_EQ(off.reconfigurations, 0);
  EXPECT_GE(on.repartitions, 2);  // both devices moved to a faster version
  EXPECT_GE(on.reconfigurations, 2);
  EXPECT_LT(on.frame_loss(), off.frame_loss() - 0.10);
  EXPECT_GT(on.qoe(), off.qoe());
  expect_conservation(on);
}

TEST(Fleet, FaultScheduleDegradesOnlyTheInjectedDevice) {
  // Accelerator stalls on dev0 only: its watchdog drops frames while the
  // dispatcher shifts traffic to the healthy dev1.
  const core::AcceleratorLibrary lib = core::synthetic_library();
  faults::FaultSchedule stalls;
  stalls.faults = {faults::FaultSpec{faults::FaultKind::kAcceleratorStall, 2.0, 6.0,
                                     /*probability=*/1.0, /*magnitude=*/1.0}};
  FleetConfig config;
  config.devices = {pinned_device("faulty", lib, 2), pinned_device("healthy", lib, 2)};
  config.devices[0].fault_schedule = stalls;
  edge::WorkloadTrace trace(constant_workload(600.0, 10.0), 41);
  FleetMetrics m = shard::run_sharded_fleet(trace, lib, config, {}, "least-loaded", 43).fleet;

  ASSERT_EQ(m.devices.size(), 2u);
  const edge::RunMetrics& faulty = m.devices[0].metrics;
  const edge::RunMetrics& healthy = m.devices[1].metrics;
  EXPECT_GT(faulty.faults.stalls_injected, 0);
  EXPECT_GT(faulty.faults.stalls_recovered, 0);
  EXPECT_EQ(healthy.faults.total_injected(), 0);
  EXPECT_EQ(healthy.lost, 0);
  // The router steers around the stalling device...
  EXPECT_GT(healthy.processed, faulty.processed);
  // ... so the cluster as a whole barely notices.
  EXPECT_LT(m.frame_loss(), 0.05);
  expect_conservation(m);
}

TEST(Fleet, BoundedIngressShedsOnlyPastItsCapacity) {
  const core::AcceleratorLibrary lib = core::synthetic_library();
  FleetConfig config;
  config.devices = {pinned_device("only", lib, 0)};  // 500 FPS vs 1500 FPS offered
  config.devices[0].server.queue_capacity = 8;
  config.ingress_capacity = 10;
  edge::WorkloadTrace trace(constant_workload(1500.0, 5.0), 51);
  FleetMetrics m = shard::run_sharded_fleet(trace, lib, config, {}, "round-robin", 53).fleet;
  EXPECT_GT(m.ingress_lost, 0);
  EXPECT_LE(m.ingress_backlog, 10);
  expect_conservation(m);
}

TEST(Fleet, ZeroIngressCapacityDropsImmediatelyWhenDevicesAreFull) {
  const core::AcceleratorLibrary lib = core::synthetic_library();
  FleetConfig config;
  config.devices = {pinned_device("only", lib, 0)};
  config.devices[0].server.queue_capacity = 4;
  config.ingress_capacity = 0;
  edge::WorkloadTrace trace(constant_workload(1500.0, 5.0), 51);
  FleetMetrics m = shard::run_sharded_fleet(trace, lib, config, {}, "round-robin", 53).fleet;
  EXPECT_GT(m.ingress_lost, 0);
  EXPECT_EQ(m.ingress_backlog, 0);
  EXPECT_EQ(m.arrived, m.dispatched + m.ingress_lost);
}

TEST(Fleet, InvalidConfigsAreRejectedWithTheDeviceNamed) {
  const core::AcceleratorLibrary lib = core::synthetic_library();
  edge::WorkloadTrace trace(constant_workload(100.0, 1.0), 1);

  FleetConfig empty;
  EXPECT_THROW(shard::run_sharded_fleet(trace, lib, empty, {}, "round-robin", 1), ConfigError);

  FleetConfig no_factory;
  no_factory.devices.push_back(FleetDevice{});
  no_factory.devices[0].name = "broken";
  try {
    shard::run_sharded_fleet(trace, lib, no_factory, {}, "round-robin", 1);
    FAIL() << "expected ConfigError";
  } catch (const ConfigError& e) {
    EXPECT_NE(std::string(e.what()).find("broken"), std::string::npos);
  }

  FleetConfig bad_interval;
  bad_interval.devices = {pinned_device("ok", lib, 0)};
  bad_interval.sample_interval_s = 0.0;
  EXPECT_THROW(shard::run_sharded_fleet(trace, lib, bad_interval, {}, "round-robin", 1),
               ConfigError);

  FleetConfig bad_poll;
  bad_poll.devices = {pinned_device("slow", lib, 0)};
  bad_poll.devices[0].server.poll_interval_s = 0.0;
  try {
    shard::run_sharded_fleet(trace, lib, bad_poll, {}, "round-robin", 1);
    FAIL() << "expected ConfigError";
  } catch (const ConfigError& e) {
    EXPECT_NE(std::string(e.what()).find("fleet device 0 ('slow'): server.poll_interval_s"),
              std::string::npos)
        << e.what();
  }

  FleetConfig bad_ingress;
  bad_ingress.devices = {pinned_device("ok", lib, 0)};
  bad_ingress.ingress_capacity = -1;
  EXPECT_THROW(shard::run_sharded_fleet(trace, lib, bad_ingress, {}, "round-robin", 1),
               ConfigError);
}

TEST(Fleet, PinnedPolicyRejectsAnOutOfRangeVersion) {
  const core::AcceleratorLibrary lib = core::synthetic_library(4);
  EXPECT_THROW(PinnedPolicy(lib, 4), ConfigError);
}

}  // namespace
}  // namespace adaflow::fleet
