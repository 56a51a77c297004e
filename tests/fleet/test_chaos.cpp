/// Fleet-level chaos invariants: the health-monitored dispatcher under
/// seeded whole-device crash / hang / degrade windows. These are the SLO
/// assertions from the chaos harness in unit-test form — short traces, the
/// same shape checks as `bench_adaflow chaos`.

#include "adaflow/fleet/fleet.hpp"

#include "adaflow/core/library.hpp"
#include "adaflow/edge/workload.hpp"
#include "adaflow/faults/fault_injector.hpp"
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
  c.phases = {edge::WorkloadPhase{0.7, 0.5, duration_s}};
  return c;
}

HealthConfig fast_health(double hedge_budget_s = 0.0) {
  HealthConfig h;
  h.enabled = true;
  h.tick_interval_s = 0.25;
  h.suspect_timeout_s = 0.75;
  h.quarantine_timeout_s = 0.75;
  h.probe_interval_s = 0.75;
  h.probe_timeout_s = 0.75;
  h.rejoin_probes = 2;
  h.hedge_budget_s = hedge_budget_s;
  return h;
}

/// The `bench_adaflow chaos` scenario at test scale: four pinned version-0 devices
/// behind the coordinator, device 0 carrying \p schedule. The flat workload
/// sits just above three devices' version-0 capacity, so losing a device
/// without re-partitioning means sustained overload.
FleetConfig chaos_fleet(const core::AcceleratorLibrary& lib,
                        const faults::FaultSchedule& schedule, bool health,
                        double hedge_budget_s = 0.0) {
  FleetConfig config;
  for (int i = 0; i < 4; ++i) {
    config.devices.push_back(pinned_device("dev" + std::to_string(i), lib, 0));
  }
  config.devices[0].fault_schedule = schedule;
  config.coordinator.enabled = true;
  config.coordinator.poll_interval_s = 0.25;
  config.coordinator.warmup_s = 0.5;
  config.coordinator.estimate_window_s = 0.5;
  config.coordinator.drain_timeout_s = 0.5;
  config.coordinator.switch_interval_factor = 10.0 / 4.0;
  if (health) {
    config.health = fast_health(hedge_budget_s);
  }
  return config;
}

FleetMetrics run(const edge::WorkloadTrace& trace, const core::AcceleratorLibrary& lib,
                 const FleetConfig& config, std::uint64_t seed) {
  return shard::run_sharded_fleet(trace, lib, config, {}, "least-loaded", seed).fleet;
}

void expect_conservation(const FleetMetrics& m) {
  EXPECT_EQ(m.arrived + m.redispatched, m.dispatched + m.ingress_lost + m.ingress_backlog);
  std::int64_t device_arrived = 0;
  for (const FleetDeviceResult& d : m.devices) {
    device_arrived += d.metrics.arrived;
  }
  EXPECT_EQ(device_arrived, m.dispatched);
  EXPECT_LE(m.hedged, m.redispatched);
}

TEST(Chaos, MonitoredFleetLosesFewerFramesThanBaselineUnderCrash) {
  const core::AcceleratorLibrary lib = core::synthetic_library();
  const faults::FaultSchedule crash = faults::device_crash_window(3.0, 9.0);
  edge::WorkloadTrace trace(constant_workload(1600.0, 14.0), 17);

  const FleetMetrics baseline = run(trace, lib, chaos_fleet(lib, crash, false), 42);
  const FleetMetrics monitored = run(trace, lib, chaos_fleet(lib, crash, true), 42);

  // The baseline coordinator keeps counting the corpse as capacity; the
  // monitor quarantines it and re-partitions the survivors.
  EXPECT_LT(monitored.lost(), baseline.lost());
  EXPECT_GE(monitored.quarantines, 1);
  EXPECT_GE(monitored.rejoins, 1);
  EXPECT_EQ(monitored.faults.device_crashes, 1);
  for (const FleetDeviceResult& d : monitored.devices) {
    EXPECT_EQ(d.final_health, HealthState::kHealthy) << d.name;
  }
  expect_conservation(baseline);
  expect_conservation(monitored);
}

TEST(Chaos, HungDeviceKeepsAtMostOneFrameWhileOutOfRotation) {
  // The hang never releases within the run: frames a hung device swallowed
  // before quarantine are pulled back out, and after that only a single
  // in-flight probe may sit on its queue at any time.
  const core::AcceleratorLibrary lib = core::synthetic_library();
  const faults::FaultSchedule hang = faults::device_hang_window(3.0, 100.0);
  edge::WorkloadTrace trace(constant_workload(1600.0, 12.0), 17);

  const FleetMetrics m = run(trace, lib, chaos_fleet(lib, hang, true), 42);
  EXPECT_GE(m.quarantines, 1);
  ASSERT_EQ(m.devices.size(), 4u);
  EXPECT_NE(m.devices[0].final_health, HealthState::kHealthy);
  EXPECT_LE(m.devices[0].queued_at_end, 1);
  EXPECT_GT(m.redispatched, 0);  // the drained frames went back through routing
  expect_conservation(m);
}

TEST(Chaos, HedgingRescuesFramesStuckBehindASlowDevice) {
  const core::AcceleratorLibrary lib = core::synthetic_library();
  const faults::FaultSchedule degrade =
      faults::device_degrade_window(3.0, 9.0, /*latency_factor=*/6.0, /*accuracy_penalty=*/0.15);
  edge::WorkloadTrace trace(constant_workload(1600.0, 12.0), 17);

  const FleetMetrics hedged = run(trace, lib, chaos_fleet(lib, degrade, true, 0.5), 42);
  EXPECT_GT(hedged.hedged, 0);
  EXPECT_LE(hedged.hedged, hedged.redispatched);
  expect_conservation(hedged);
}

TEST(Chaos, ReplayWithSameSeedIsBitIdenticalIncludingResilienceCounters) {
  const core::AcceleratorLibrary lib = core::synthetic_library();
  const faults::FaultSchedule crash = faults::device_crash_window(3.0, 8.0);
  edge::WorkloadTrace trace(bursty_workload(1400.0, 12.0), 11);
  const FleetConfig config = chaos_fleet(lib, crash, true, 0.5);

  const FleetMetrics a = run(trace, lib, config, 777);
  const FleetMetrics b = run(trace, lib, config, 777);

  EXPECT_TRUE(sim::identical(a, b));
}

TEST(Chaos, QuarantineDrainReportsRedispatchNotIngressLoss) {
  // Regression for the fleet accounting fix: frames pulled off a
  // quarantined device's queue are re-dispatched, not lost. At a rate the
  // survivor can absorb, the crash must produce redispatched > 0 while
  // ingress_lost stays at zero — a blind reading of "frames left the device"
  // as loss would conflate the two.
  const core::AcceleratorLibrary lib = core::synthetic_library();
  FleetConfig config;
  for (int i = 0; i < 2; ++i) {
    config.devices.push_back(pinned_device("dev" + std::to_string(i), lib, 0));
  }
  config.devices[0].fault_schedule = faults::device_crash_window(2.0, 7.0);
  config.health = fast_health();
  // Bursty load well under the survivor's capacity: queues form during the
  // bursts (so the crash strands frames on dev0), but dev1 absorbs the
  // re-dispatched frames without the ingress ever overflowing.
  edge::WorkloadTrace trace(bursty_workload(350.0, 10.0), 3);

  const FleetMetrics m = run(trace, lib, config, 42);
  EXPECT_GE(m.quarantines, 1);
  EXPECT_GT(m.redispatched, 0);
  EXPECT_EQ(m.ingress_lost, 0);
  expect_conservation(m);
}

TEST(Chaos, FaultStatsAggregationSumsPerDeviceCountersIncludingDeviceClasses) {
  // Satellite: per-device FaultStats must roll up exactly into the fleet
  // totals under concurrent injection of the whole-device classes alongside
  // the frame-level flaky schedule.
  const core::AcceleratorLibrary lib = core::synthetic_library();
  FleetConfig config;
  for (int i = 0; i < 4; ++i) {
    config.devices.push_back(pinned_device("dev" + std::to_string(i), lib, 0));
  }
  config.devices[0].fault_schedule = faults::device_crash_window(2.0, 5.0);
  config.devices[1].fault_schedule = faults::device_hang_window(3.0, 6.0);
  config.devices[2].fault_schedule =
      faults::device_degrade_window(2.0, 8.0, /*latency_factor=*/3.0, /*accuracy_penalty=*/0.1);
  config.devices[3].fault_schedule = faults::flaky_edge_schedule(10.0);
  config.health = fast_health();
  edge::WorkloadTrace trace(bursty_workload(1400.0, 10.0), 7);

  const FleetMetrics m = run(trace, lib, config, 99);
  sim::FaultStats sum;
  for (const FleetDeviceResult& d : m.devices) {
    sim::merge(sum, d.metrics.faults);
  }
  EXPECT_TRUE(sim::identical(sum, m.faults));
  EXPECT_EQ(m.faults.device_crashes, 1);
  EXPECT_EQ(m.faults.device_hangs, 1);
  EXPECT_EQ(m.faults.degrade_windows, 1);
  EXPECT_GT(m.faults.total_injected(), 3);  // the flaky schedule fired too
  expect_conservation(m);
}

TEST(Chaos, QuarantinedDeviceIsExcludedFromRepartitionTargets) {
  // While dev0 is down, re-partitioning must spread the aggregate over the
  // three survivors only; the corpse keeps its pre-crash mode until rejoin.
  const core::AcceleratorLibrary lib = core::synthetic_library();
  const faults::FaultSchedule crash = faults::device_crash_window(3.0, 100.0);  // never recovers
  edge::WorkloadTrace trace(constant_workload(1600.0, 12.0), 17);

  const FleetMetrics m = run(trace, lib, chaos_fleet(lib, crash, true), 42);
  EXPECT_GE(m.quarantines, 1);
  EXPECT_EQ(m.rejoins, 0);  // no recovery scheduled inside the run
  EXPECT_GE(m.repartitions, 1);
  // Survivors got re-balanced onto a faster version; the fleet still clears
  // most of the load with a quarter of its capacity gone for 3/4 of the run.
  EXPECT_LT(m.frame_loss(), 0.10);
  expect_conservation(m);
}

}  // namespace
}  // namespace adaflow::fleet
