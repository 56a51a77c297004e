#include "adaflow/fleet/fleet.hpp"

#include <gtest/gtest.h>

#include <vector>

#include "adaflow/common/error.hpp"
#include "adaflow/core/library.hpp"
#include "adaflow/edge/workload.hpp"
#include "adaflow/faults/fault_injector.hpp"
#include "adaflow/shard/sharded_engine.hpp"

namespace adaflow::fleet {
namespace {

edge::WorkloadConfig bursty_workload(double rate, double duration_s) {
  edge::WorkloadConfig c;
  c.devices = 1;
  c.fps_per_device = rate;
  c.phases = {edge::WorkloadPhase{0.7, 0.5, duration_s}};
  return c;
}

void expect_conservation(const FleetMetrics& m) {
  EXPECT_EQ(m.arrived + m.redispatched, m.dispatched + m.ingress_lost + m.ingress_backlog);
  std::int64_t device_arrived = 0;
  for (const FleetDeviceResult& d : m.devices) {
    device_arrived += d.metrics.arrived;
  }
  EXPECT_EQ(device_arrived, m.dispatched);
  EXPECT_LE(m.processed + m.device_lost, m.dispatched);
}

FleetConfig integrity_fleet(const core::AcceleratorLibrary& lib, std::size_t n) {
  FleetConfig config;
  config.devices = homogeneous_devices(lib, core::RuntimeManagerConfig{}, n);
  config.health.enabled = true;
  config.integrity.enabled = true;
  config.integrity.canary_interval_s = 0.25;
  return config;
}

TEST(FleetIntegrity, DetectionQuarantinesOnlyWhenHealthIsOn) {
  // The same upset storm on device 1, with and without the health monitor.
  const core::AcceleratorLibrary lib = core::synthetic_library();
  FleetConfig config = integrity_fleet(lib, 3);
  config.devices[1].fault_schedule = faults::config_upset_storm(2.0, 14.0, 1.0);
  edge::WorkloadTrace trace(bursty_workload(1200.0, 16.0), 7);
  auto run = [&] {
    return shard::run_sharded_fleet(trace, lib, config, {}, "least-loaded", 99).fleet;
  };

  // Health off: the corrupt device is detected and reloaded, but it never
  // leaves rotation, and no frame is pulled back for re-dispatch.
  config.health.enabled = false;
  const FleetMetrics off = run();
  EXPECT_GE(off.integrity.detections, 1);
  EXPECT_GE(off.integrity.repairs, 1);
  EXPECT_EQ(off.quarantines, 0);
  EXPECT_EQ(off.devices[1].quarantines, 0);
  EXPECT_EQ(off.redispatched, 0);
  expect_conservation(off);

  // Health on: the same storm quarantines the device.
  config.health.enabled = true;
  const FleetMetrics on = run();
  EXPECT_GE(on.integrity.detections, 1);
  EXPECT_GE(on.devices[1].quarantines, 1);
  expect_conservation(on);
}

TEST(FleetIntegrity, CleanFleetPaysTheCanaryTaxWithoutAlarms) {
  const core::AcceleratorLibrary lib = core::synthetic_library();
  FleetConfig config = integrity_fleet(lib, 3);
  edge::WorkloadTrace trace(bursty_workload(1200.0, 12.0), 3);
  const FleetMetrics m = shard::run_sharded_fleet(trace, lib, config, {}, "least-loaded", 42).fleet;

  // Probing is live on every device, and costs real service slots...
  EXPECT_GT(m.integrity.canaries_sent, 0);
  EXPECT_GT(m.integrity.canary_overhead(m.processed), 0.0);
  // ...but with no upsets scheduled there is nothing to see: no mismatched
  // canaries, no trips, no reloads, and no device leaves rotation.
  EXPECT_EQ(m.integrity.upsets_injected, 0);
  EXPECT_EQ(m.integrity.wrong_frames, 0);
  EXPECT_EQ(m.integrity.canaries_failed, 0);
  EXPECT_EQ(m.integrity.detections, 0);
  EXPECT_EQ(m.integrity.false_alarms, 0);
  EXPECT_EQ(m.integrity.repairs, 0);
  EXPECT_EQ(m.quarantines, 0);
  expect_conservation(m);
}

TEST(FleetIntegrity, UpsetStormIsDetectedRepairedAndQuarantined) {
  const core::AcceleratorLibrary lib = core::synthetic_library();
  FleetConfig config = integrity_fleet(lib, 3);
  // Device 1 takes a sustained upset storm; the other two stay clean.
  config.devices[1].fault_schedule = faults::config_upset_storm(2.0, 14.0, 1.0);
  edge::WorkloadTrace trace(bursty_workload(1200.0, 16.0), 7);
  const FleetMetrics m = shard::run_sharded_fleet(trace, lib, config, {}, "least-loaded", 99).fleet;

  EXPECT_GT(m.integrity.upsets_injected, 0);
  EXPECT_GT(m.integrity.wrong_frames, 0);
  EXPECT_GT(m.integrity.canaries_failed, 0);
  // The per-device drift detector trips on the corrupted canary stream, the
  // confirmed-corrupt device gets a reload and leaves rotation.
  EXPECT_GE(m.integrity.detections, 1);
  EXPECT_GE(m.integrity.repairs, 1);
  EXPECT_GT(m.integrity.mean_detection_latency_s(), 0.0);
  EXPECT_GE(m.quarantines, 1);
  // The storm hit only device 1 — the clean devices never fail a canary.
  EXPECT_EQ(m.devices[0].metrics.integrity.canaries_failed, 0);
  EXPECT_EQ(m.devices[2].metrics.integrity.canaries_failed, 0);
  EXPECT_GT(m.devices[1].metrics.integrity.detections, 0);
  // Quarantine drains re-enter the ingress: conservation must still hold.
  expect_conservation(m);
}

TEST(FleetIntegrity, StormReplayIsBitIdentical) {
  const core::AcceleratorLibrary lib = core::synthetic_library();
  FleetConfig config = integrity_fleet(lib, 3);
  config.devices[1].fault_schedule = faults::config_upset_storm(1.0, 12.0, 0.8);
  edge::WorkloadTrace trace(bursty_workload(1300.0, 14.0), 11);

  auto run_once = [&] {
    return shard::run_sharded_fleet(trace, lib, config, {}, "least-loaded", 1234).fleet;
  };
  const FleetMetrics a = run_once();
  const FleetMetrics b = run_once();

  EXPECT_TRUE(sim::identical(a, b));
}

TEST(FleetIntegrity, StatsAccumulateAndDivideRoundTrip) {
  sim::IntegrityStats a;
  a.upsets_injected = 6;
  a.wrong_frames = 120;
  a.corrupt_time_s = 3.5;
  a.canaries_sent = 40;
  a.canaries_failed = 9;
  a.detections = 3;
  a.false_alarms = 1;
  a.detection_latency_sum_s = 1.2;
  a.scrubs = 4;
  a.repairs = 5;

  sim::IntegrityStats sum;
  sim::merge(sum, a);
  sim::merge(sum, a);
  EXPECT_EQ(sum.upsets_injected, 12);
  EXPECT_EQ(sum.wrong_frames, 240);
  EXPECT_DOUBLE_EQ(sum.corrupt_time_s, 7.0);
  EXPECT_EQ(sum.canaries_sent, 80);
  EXPECT_EQ(sum.canaries_failed, 18);
  EXPECT_EQ(sum.detections, 6);
  EXPECT_EQ(sum.false_alarms, 2);
  EXPECT_DOUBLE_EQ(sum.detection_latency_sum_s, 2.4);
  EXPECT_EQ(sum.scrubs, 8);
  EXPECT_EQ(sum.repairs, 10);

  // The per-run mean of two equal runs is that run.
  const sim::IntegrityStats avg = sim::mean(std::vector<sim::IntegrityStats>{a, a});
  EXPECT_TRUE(sim::identical(avg, a));
  EXPECT_DOUBLE_EQ(avg.wrong_fraction(240), 0.5);
  EXPECT_DOUBLE_EQ(avg.canary_overhead(400), 0.1);
  EXPECT_DOUBLE_EQ(avg.mean_detection_latency_s(), 0.4);
}

}  // namespace
}  // namespace adaflow::fleet
