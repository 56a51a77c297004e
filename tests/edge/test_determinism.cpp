#include <gtest/gtest.h>

#include <string>

#include "adaflow/common/error.hpp"
#include "adaflow/core/runtime_manager.hpp"
#include "adaflow/edge/server.hpp"
#include "adaflow/faults/fault_injector.hpp"

namespace adaflow::edge {
namespace {

class FixedModePolicy : public ServingPolicy {
 public:
  ServingMode initial_mode() override {
    ServingMode m;
    m.model_version = "v";
    m.accelerator = "a";
    m.fps = 550.0;
    m.accuracy = 0.9;
    m.power_busy_w = 1.0;
    m.power_idle_w = 0.7;
    return m;
  }
  std::optional<SwitchAction> on_poll(double, double) override { return std::nullopt; }
};

TEST(Determinism, IdenticalSeedsGiveIdenticalRuns) {
  WorkloadConfig wl = scenario2(10.0);
  for (int rep = 0; rep < 3; ++rep) {
    WorkloadTrace t1(wl, 9);
    WorkloadTrace t2(wl, 9);
    FixedModePolicy p1;
    FixedModePolicy p2;
    RunMetrics a = run_simulation(t1, p1, ServerConfig{}, 33);
    RunMetrics b = run_simulation(t2, p2, ServerConfig{}, 33);
    EXPECT_TRUE(sim::identical(a, b));
  }
}

TEST(Determinism, DifferentSeedsDiffer) {
  WorkloadConfig wl = scenario2(10.0);
  WorkloadTrace t1(wl, 9);
  WorkloadTrace t2(wl, 10);
  FixedModePolicy p1;
  FixedModePolicy p2;
  RunMetrics a = run_simulation(t1, p1, ServerConfig{}, 33);
  RunMetrics b = run_simulation(t2, p2, ServerConfig{}, 34);
  EXPECT_NE(a.arrived, b.arrived);
}

/// Library for the fault-replay test (retries/fallbacks need real switching).
core::AcceleratorLibrary replay_library() {
  core::AcceleratorLibrary lib;
  lib.model_name = "M";
  lib.dataset_name = "D";
  lib.reconfig_time_s = 0.145;
  lib.base_accuracy = 0.90;
  struct Row {
    int rate;
    double acc;
    double fps;
  };
  for (const Row& r : {Row{0, 0.90, 500}, Row{25, 0.86, 700}, Row{50, 0.83, 1000},
                       Row{75, 0.82, 2000}}) {
    core::ModelVersion v;
    v.version = "M@p" + std::to_string(r.rate);
    v.accuracy = r.acc;
    v.fps_fixed = r.fps;
    v.fps_flexible = r.fps * 0.995;
    v.power_busy_fixed_w = 1.0;
    v.power_idle_fixed_w = 0.7;
    v.power_busy_flexible_w = 1.2;
    v.power_idle_flexible_w = 0.8;
    v.flexible_switch_time_s = 0.001;
    lib.versions.push_back(v);
  }
  return lib;
}

TEST(Determinism, FaultReplayIsBitIdentical) {
  // Acceptance: the same (FaultInjector seed, schedule) pair yields
  // bit-identical RunMetrics across two runs, including every fault counter.
  const core::AcceleratorLibrary lib = replay_library();
  faults::FaultSchedule schedule = faults::reconfig_failure_storm(2.0, 18.0, 0.7, 2.0);
  for (const faults::FaultSpec& extra : faults::flaky_edge_schedule(25.0).faults) {
    schedule.faults.push_back(extra);
  }
  const WorkloadConfig wl = scenario1_plus_2();
  auto run_once = [&] {
    WorkloadTrace trace(wl, 9);
    core::RuntimeManager policy(lib, core::RuntimeManagerConfig{});
    faults::FaultInjector injector(schedule, 77);
    return run_simulation(trace, policy, ServerConfig{}, 33, &injector);
  };
  const RunMetrics a = run_once();
  const RunMetrics b = run_once();
  EXPECT_TRUE(sim::identical(a, b));
  EXPECT_GT(a.faults.total_injected(), 0);
}

TEST(Determinism, DifferentInjectorSeedsDiverge) {
  const core::AcceleratorLibrary lib = replay_library();
  const faults::FaultSchedule schedule = faults::flaky_edge_schedule(25.0);
  auto run_with_injector_seed = [&](std::uint64_t seed) {
    WorkloadTrace trace(scenario2(), 9);
    core::RuntimeManager policy(lib, core::RuntimeManagerConfig{});
    faults::FaultInjector injector(schedule, seed);
    return run_simulation(trace, policy, ServerConfig{}, 33, &injector);
  };
  const RunMetrics a = run_with_injector_seed(1);
  const RunMetrics b = run_with_injector_seed(2);
  EXPECT_NE(a.faults.monitor_noise_events, b.faults.monitor_noise_events);
}

}  // namespace
}  // namespace adaflow::edge
