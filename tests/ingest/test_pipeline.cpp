#include "adaflow/ingest/pipeline.hpp"

#include <gtest/gtest.h>

#include <string>

#include "adaflow/common/error.hpp"
#include "adaflow/core/library.hpp"

namespace adaflow::ingest {
namespace {

/// Small, comfortably-provisioned pipeline: 2 cameras at 20 FPS against two
/// pinned devices that each sustain 500 FPS.
IngestConfig small_config(const core::AcceleratorLibrary& lib) {
  IngestConfig config;
  config.cameras = 2;
  config.duration_s = 5.0;
  config.camera.fps = 20.0;
  config.camera.mean_uptime_s = 0.0;
  config.network.loss_p = 0.01;
  config.network.jitter_s = 0.005;
  for (int i = 0; i < 2; ++i) {
    config.fleet.devices.push_back(fleet::pinned_device("dev" + std::to_string(i), lib, 0));
  }
  return config;
}

/// 2x sustained overload, as in `bench_adaflow ingest` but shrunk: eight cameras at
/// 250 FPS against two pinned 500-FPS devices.
IngestConfig overload_config(const core::AcceleratorLibrary& lib, BrownoutMode mode) {
  IngestConfig config;
  config.cameras = 8;
  config.duration_s = 8.0;
  config.camera.fps = 250.0;
  config.camera.mean_uptime_s = 0.0;
  config.network.base_delay_s = 0.01;
  config.network.jitter_s = 0.005;
  config.network.loss_p = 0.005;
  config.decode.cost_s = 0.0005;
  config.decode.workers = 4;
  config.brownout.mode = mode;
  config.brownout.downgrade_steps = 2;
  config.brownout.tier1_latency_s = 0.06;
  config.brownout.tier2_latency_s = 0.10;
  config.brownout.min_dwell_s = 5.0;
  config.brownout.release_fraction = 0.2;
  for (int i = 0; i < 2; ++i) {
    config.fleet.devices.push_back(fleet::pinned_device("dev" + std::to_string(i), lib, 0));
  }
  return config;
}

IngestMetrics run(const IngestConfig& config, const core::AcceleratorLibrary& lib,
                  std::uint64_t seed) {
  auto router = fleet::make_router("least-loaded");
  return run_ingest(config, lib, *router, seed);
}

TEST(IngestPipeline, RejectsInvalidConfig) {
  const core::AcceleratorLibrary lib = core::synthetic_library();
  IngestConfig bad = small_config(lib);
  bad.cameras = 0;
  EXPECT_THROW(bad.validate(), ConfigError);
  bad = small_config(lib);
  bad.decode.workers = 0;
  EXPECT_THROW(bad.validate(), ConfigError);
  bad = small_config(lib);
  bad.decode.session_queue_capacity = 0;
  EXPECT_THROW(bad.validate(), ConfigError);
}

TEST(IngestPipeline, HealthyRunConservesFlowAndDeliversMostFrames) {
  const core::AcceleratorLibrary lib = core::synthetic_library();
  const IngestMetrics m = run(small_config(lib), lib, 7);
  EXPECT_EQ(m.conservation_error(), 0);
  EXPECT_GT(m.captured, 150);
  EXPECT_GT(m.delivered, 0);
  // Every delivered frame contributes exactly one latency sample.
  EXPECT_EQ(m.e2e_latency.count(), m.delivered);
  // Provisioned 50x over: nothing is shed, thinned, or overflowed.
  EXPECT_EQ(m.thinned, 0);
  EXPECT_EQ(m.queue_drops, 0);
  EXPECT_EQ(m.fleet_shed, 0);
  EXPECT_GT(m.delivered_fraction(), 0.9);
}

TEST(IngestPipeline, SameSeedReplaysBitIdentically) {
  const core::AcceleratorLibrary lib = core::synthetic_library();
  const IngestConfig config = small_config(lib);
  const IngestMetrics a = run(config, lib, 42);
  const IngestMetrics b = run(config, lib, 42);
  EXPECT_TRUE(sim::identical(a, b));
}

TEST(IngestPipeline, DifferentSeedsDiverge) {
  const core::AcceleratorLibrary lib = core::synthetic_library();
  const IngestConfig config = small_config(lib);
  const IngestMetrics a = run(config, lib, 42);
  const IngestMetrics b = run(config, lib, 43);
  EXPECT_FALSE(sim::identical(a, b));
}

TEST(IngestPipeline, LadderEscalatesToTierTwoUnderOverload) {
  const core::AcceleratorLibrary lib = core::synthetic_library();
  const IngestMetrics m = run(overload_config(lib, BrownoutMode::kLadder), lib, 42);
  EXPECT_EQ(m.conservation_error(), 0);
  EXPECT_GE(m.brownout.tier1_engagements, 1);
  EXPECT_GE(m.brownout.tier2_engagements, 1);
  EXPECT_GT(m.thinned, 0);            // tier 1 thinned while it held
  EXPECT_GT(m.degraded_delivered, 0); // tier 2 served on the downgraded variant
}

TEST(IngestPipeline, DropAllModeShedsAtAdmission) {
  const core::AcceleratorLibrary lib = core::synthetic_library();
  const IngestMetrics m = run(overload_config(lib, BrownoutMode::kDropAll), lib, 42);
  EXPECT_EQ(m.conservation_error(), 0);
  EXPECT_GT(m.dropall_shed, 0);
  EXPECT_EQ(m.thinned, 0);
  EXPECT_EQ(m.degraded_delivered, 0);
}

TEST(IngestPipeline, BackpressureHoldsFramesUpstreamInsteadOfSheddingAtTheFleet) {
  // A near-zero backpressure threshold forces decode to pause the moment the
  // fleet ingress has any backlog: overflow then happens in the bounded
  // session queues (a counted, deliberate drop) and never as a fleet-side
  // shed of an already-decoded frame.
  const core::AcceleratorLibrary lib = core::synthetic_library();
  IngestConfig config = overload_config(lib, BrownoutMode::kOff);
  config.decode.backpressure_threshold = 1;
  const IngestMetrics m = run(config, lib, 42);
  EXPECT_EQ(m.conservation_error(), 0);
  EXPECT_EQ(m.fleet_shed, 0);
  EXPECT_GT(m.queue_drops, 0);
}

}  // namespace
}  // namespace adaflow::ingest
