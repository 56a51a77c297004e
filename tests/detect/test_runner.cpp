/// End-to-end detection serving battery: run_detection determinism and its
/// detection-QoE accounting, the scored-vs-processed contract of the service
/// model, the static Flexible baseline, and fleet integration through
/// FleetDevice::configure (per-device workload streams, aggregated
/// FleetMetrics::detection, bit-identical replay).

#include "adaflow/detect/runner.hpp"

#include <gtest/gtest.h>

#include "adaflow/common/error.hpp"
#include "adaflow/core/runtime_manager.hpp"
#include "adaflow/detect/yolo.hpp"
#include "adaflow/edge/device_sim.hpp"
#include "adaflow/fleet/fleet.hpp"
#include "adaflow/fpga/device.hpp"
#include "adaflow/shard/sharded_engine.hpp"

namespace adaflow::detect {
namespace {

const core::AcceleratorLibrary& library() {
  static const core::AcceleratorLibrary lib = detection_library(fpga::zcu104());
  return lib;
}

SceneTrace test_scene() {
  return rush_hour_scene(2.0, 9.0, 4.0, 3.0, 5.0, 16.0, 0.5, 0.05, 7);
}

TEST(RunDetection, PopulatesTheDetectionLedger) {
  core::RuntimeManagerConfig manager;
  manager.accuracy_threshold = 0.15;
  core::RuntimeManager policy(library(), manager);
  const edge::RunMetrics m = run_detection(test_scene(), policy, 42);
  EXPECT_GT(m.arrived, 0);
  EXPECT_GT(m.processed, 0);
  EXPECT_GT(m.detection.frames_scored, 0);
  EXPECT_GT(m.detection.nms_pairs_total, 0);
  EXPECT_GT(m.detection.map_proxy_sum, 0.0);
  EXPECT_EQ(m.detection.true_positives + m.detection.missed_objects,
            m.detection.objects_total);
  // The frame in service at t_end is scored but never finishes.
  const std::int64_t lead =
      m.detection.frames_scored - static_cast<std::int64_t>(m.processed);
  EXPECT_GE(lead, 0);
  EXPECT_LE(lead, 1);
  // Detection QoE: mean mAP proxy x processed fraction, so it can never
  // exceed the mean per-frame quality.
  EXPECT_GT(m.qoe(), 0.0);
  EXPECT_LE(m.qoe(), m.detection.mean_map_proxy() + 1e-12);
}

TEST(RunDetection, SameSeedReplaysBitIdentically) {
  core::RuntimeManagerConfig manager;
  manager.accuracy_threshold = 0.15;
  core::RuntimeManager a(library(), manager);
  core::RuntimeManager b(library(), manager);
  const edge::RunMetrics x = run_detection(test_scene(), a, 42);
  const edge::RunMetrics y = run_detection(test_scene(), b, 42);
  EXPECT_TRUE(sim::identical(x, y));
}

TEST(StaticFlexible, ServesOneVersionAndBoundsTheIndex) {
  StaticFlexiblePolicy policy(library(), 1);
  const edge::ServingMode mode = policy.initial_mode();
  EXPECT_EQ(mode.accelerator, "Flexible");
  EXPECT_EQ(mode.model_version, library().versions[1].version);
  EXPECT_DOUBLE_EQ(mode.fps, library().versions[1].fps_flexible);
  EXPECT_THROW(StaticFlexiblePolicy(library(), 99), ConfigError);
}

TEST(FleetIntegration, ConfigureHookAttachesPerDeviceWorkloads) {
  const SceneTrace scene = test_scene();
  DetectionWorkload workload(scene, DetectorModel{}, 1234);
  core::RuntimeManagerConfig manager;
  manager.accuracy_threshold = 0.15;

  auto run_once = [&] {
    fleet::FleetConfig config;
    config.devices = fleet::homogeneous_devices(library(), manager, 2);
    for (fleet::FleetDevice& d : config.devices) {
      d.configure = [&workload](edge::DeviceSim& dev, std::size_t index) {
        workload.attach(dev, index);
      };
    }
    const edge::WorkloadTrace trace = workload_from_scene(scene, 400.0, 240.0);
    return shard::run_sharded_fleet(trace, library(), config, {}, "least-loaded", 42).fleet;
  };

  const fleet::FleetMetrics m = run_once();
  EXPECT_GT(m.processed, 0);
  EXPECT_GT(m.detection.frames_scored, 0);
  EXPECT_GT(m.detection.map_proxy_sum, 0.0);
  // The fleet aggregate is exactly the sum of the per-device ledgers.
  std::int64_t per_device_scored = 0;
  std::int64_t per_device_pairs = 0;
  for (const fleet::FleetDeviceResult& d : m.devices) {
    per_device_scored += d.metrics.detection.frames_scored;
    per_device_pairs += d.metrics.detection.nms_pairs_total;
    EXPECT_EQ(d.metrics.detection.true_positives + d.metrics.detection.missed_objects,
              d.metrics.detection.objects_total)
        << d.name;
  }
  EXPECT_EQ(m.detection.frames_scored, per_device_scored);
  EXPECT_EQ(m.detection.nms_pairs_total, per_device_pairs);

  // Same config + seed replays bit-identically even with the hooks installed.
  const fleet::FleetMetrics again = run_once();
  EXPECT_TRUE(sim::identical(again, m));
}

}  // namespace
}  // namespace adaflow::detect
