#include <gtest/gtest.h>

#include <memory>
#include <string>

#include "adaflow/core/runtime_manager.hpp"
#include "adaflow/edge/server.hpp"
#include "adaflow/faults/fault_injector.hpp"

namespace adaflow::edge {
namespace {

/// Small hand-written library (mirrors the runtime-manager rule tests).
core::AcceleratorLibrary small_library() {
  core::AcceleratorLibrary lib;
  lib.model_name = "M";
  lib.dataset_name = "D";
  lib.reconfig_time_s = 0.145;
  lib.finn_power_busy_w = 1.0;
  lib.finn_power_idle_w = 0.7;
  struct Row {
    int rate;
    double acc;
    double fps;
  };
  for (const Row& r : {Row{0, 0.90, 500}, Row{25, 0.86, 700}, Row{50, 0.83, 1000},
                       Row{75, 0.82, 2000}}) {
    core::ModelVersion v;
    v.version = "M@p" + std::to_string(r.rate);
    v.requested_rate = r.rate / 100.0;
    v.achieved_rate = v.requested_rate;
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
  lib.base_accuracy = 0.90;
  return lib;
}

ServingMode fixed_mode(double fps) {
  ServingMode m;
  m.model_version = "v";
  m.accelerator = "a";
  m.fps = fps;
  m.accuracy = 0.9;
  m.power_busy_w = 1.0;
  m.power_idle_w = 0.7;
  return m;
}

class StaticPolicy : public ServingPolicy {
 public:
  explicit StaticPolicy(ServingMode m) : mode_(m) {}
  ServingMode initial_mode() override { return mode_; }
  std::optional<SwitchAction> on_poll(double, double) override { return std::nullopt; }

 private:
  ServingMode mode_;
};

WorkloadConfig constant_workload(double duration = 10.0) {
  WorkloadConfig c;
  c.devices = 20;
  c.fps_per_device = 25.0;  // 500 FPS aggregate
  c.phases = {WorkloadPhase{0.0, duration, duration}};
  return c;
}

TEST(FaultTolerance, HardenedServerSurvivesReconfigStorm) {
  const core::AcceleratorLibrary lib = small_library();
  const WorkloadConfig wl = scenario1_plus_2();
  ServerConfig server;
  server.fault_tolerance = true;
  WorkloadTrace trace(wl, 3);
  core::RuntimeManager policy(lib, core::RuntimeManagerConfig{});
  faults::FaultInjector injector(faults::reconfig_failure_storm(2.0, 18.0, 1.0, 4.0), 11);
  RunMetrics m = run_simulation(trace, policy, server, 17, &injector);
  EXPECT_GT(m.processed, 0);
  EXPECT_GT(m.qoe(), 0.0);
  // Every reconfiguration attempt in the window failed -> retries happened
  // and the policy fell back to the Flexible safety net at least once.
  EXPECT_GT(m.faults.switch_failures + m.faults.switch_timeouts, 0);
  EXPECT_GT(m.faults.switch_retries, 0);
  EXPECT_GT(m.faults.reconfig_failures_injected, 0);
  EXPECT_GT(m.faults.time_degraded_s, 0.0);
}

TEST(FaultTolerance, HardenedBeatsUnhardenedUnderReconfigStorm) {
  const core::AcceleratorLibrary lib = small_library();
  const WorkloadConfig wl = scenario1_plus_2();
  auto run_with = [&](bool hardened) {
    ServerConfig server;
    server.fault_tolerance = hardened;
    WorkloadTrace trace(wl, 5);
    core::RuntimeManager policy(lib, core::RuntimeManagerConfig{});
    faults::FaultInjector injector(faults::reconfig_failure_storm(2.0, 24.0, 0.7, 2.0), 23);
    return run_simulation(trace, policy, server, 29, &injector);
  };
  const RunMetrics hardened = run_with(true);
  const RunMetrics unhardened = run_with(false);
  EXPECT_GT(hardened.qoe(), unhardened.qoe());
  EXPECT_LT(hardened.frame_loss(), unhardened.frame_loss());
}

TEST(FaultTolerance, WatchdogRecoversStalledFrames) {
  faults::FaultSchedule schedule;
  schedule.faults.push_back(
      faults::FaultSpec{faults::FaultKind::kAcceleratorStall, 2.0, 2.1, 1.0, 1.0});
  WorkloadTrace trace(constant_workload(), 3);
  StaticPolicy policy(fixed_mode(550.0));
  ServerConfig server;
  faults::FaultInjector injector(schedule, 7);
  RunMetrics m = run_simulation(trace, policy, server, 42, &injector);
  EXPECT_GT(m.faults.stalls_injected, 0);
  EXPECT_GT(m.faults.stalls_recovered, 0);
  // Each recovered stall drops exactly the wedged frame; the server keeps
  // draining afterwards, so losses stay near the stall window.
  EXPECT_LT(m.frame_loss(), 0.05);
  EXPECT_GT(m.faults.recoveries, 0);
  EXPECT_GT(m.faults.mean_time_to_recovery_s(), 0.0);
}

TEST(FaultTolerance, UnhardenedServerHangsOnStalls) {
  faults::FaultSchedule schedule;
  schedule.faults.push_back(
      faults::FaultSpec{faults::FaultKind::kAcceleratorStall, 2.0, 2.1, 1.0, 2.0});
  auto run_with = [&](bool hardened) {
    WorkloadTrace trace(constant_workload(), 3);
    StaticPolicy policy(fixed_mode(550.0));
    ServerConfig server;
    server.fault_tolerance = hardened;
    faults::FaultInjector injector(schedule, 7);
    return run_simulation(trace, policy, server, 42, &injector);
  };
  const RunMetrics hardened = run_with(true);
  const RunMetrics unhardened = run_with(false);
  // Without the watchdog each stalled frame hangs the accelerator for the
  // full two seconds while ~500 FPS keeps arriving into a 72-slot queue.
  EXPECT_LT(hardened.frame_loss(), unhardened.frame_loss());
  EXPECT_GT(unhardened.frame_loss(), 0.05);
  EXPECT_EQ(unhardened.faults.stalls_recovered, 0);
}

TEST(FaultTolerance, QueueBurstTriggersLoadShedding) {
  const core::AcceleratorLibrary lib = small_library();
  faults::FaultSchedule schedule;
  schedule.faults.push_back(
      faults::FaultSpec{faults::FaultKind::kQueueBurst, 2.0, 6.0, 1.0, 3.0});
  WorkloadConfig wl;
  wl.devices = 20;
  wl.fps_per_device = 20.0;  // 400 FPS nominal; 1200 FPS during the burst
  wl.phases = {WorkloadPhase{0.0, 10.0, 10.0}};
  WorkloadTrace trace(wl, 3);
  core::RuntimeManager policy(lib, core::RuntimeManagerConfig{});
  ServerConfig server;
  faults::FaultInjector injector(schedule, 7);
  RunMetrics m = run_simulation(trace, policy, server, 42, &injector);
  EXPECT_GT(m.faults.burst_windows, 0);
  EXPECT_GT(m.faults.overload_sheds, 0);
}

TEST(FaultTolerance, MonitorDropoutsAreObservable) {
  const core::AcceleratorLibrary lib = small_library();
  faults::FaultSchedule schedule;
  schedule.faults.push_back(
      faults::FaultSpec{faults::FaultKind::kMonitorDropout, 0.0, 25.0, 0.5, 1.0});
  schedule.faults.push_back(
      faults::FaultSpec{faults::FaultKind::kMonitorNoise, 0.0, 25.0, 0.5, 0.4});
  WorkloadTrace trace(scenario2(), 3);
  core::RuntimeManager policy(lib, core::RuntimeManagerConfig{});
  ServerConfig server;
  faults::FaultInjector injector(schedule, 7);
  RunMetrics m = run_simulation(trace, policy, server, 42, &injector);
  EXPECT_GT(m.faults.monitor_dropouts, 0);
  EXPECT_GT(m.faults.monitor_noise_events, 0);
  EXPECT_GT(m.processed, 0);
}

// --- whole-device fault windows --------------------------------------------

TEST(FaultTolerance, DeviceCrashWindowStopsServiceUntilScheduledRecovery) {
  WorkloadTrace trace(constant_workload(), 3);
  StaticPolicy healthy_p(fixed_mode(550.0));
  StaticPolicy crashed_p(fixed_mode(550.0));
  faults::FaultInjector injector(faults::device_crash_window(2.0, 5.0), 7);
  const RunMetrics healthy = run_simulation(trace, healthy_p, ServerConfig{}, 42);
  const RunMetrics crashed = run_simulation(trace, crashed_p, ServerConfig{}, 42, &injector);
  EXPECT_EQ(crashed.faults.device_crashes, 1);
  // Three of ten seconds dead at ~91% utilisation: a large chunk of the
  // arrivals is lost, but service resumes after the scheduled reboot.
  EXPECT_LT(crashed.processed, healthy.processed);
  EXPECT_GT(crashed.frame_loss(), 0.10);
  EXPECT_GT(crashed.processed, healthy.processed / 2);
}

TEST(FaultTolerance, DeviceHangWindowBuffersFramesAndDrainsAfterRelease) {
  // A hung device accepts work silently but completes nothing; after the
  // release it drains its backlog, so losses stay far below the crash case
  // (the queue, not the floor, absorbed the window).
  WorkloadTrace trace(constant_workload(), 3);
  StaticPolicy hung_p(fixed_mode(550.0));
  ServerConfig server;
  server.queue_capacity = 2000;  // deep enough to buffer the whole window
  faults::FaultInjector injector(faults::device_hang_window(2.0, 4.0), 7);
  const RunMetrics m = run_simulation(trace, hung_p, server, 42, &injector);
  EXPECT_EQ(m.faults.device_hangs, 1);
  EXPECT_LT(m.frame_loss(), 0.05);
  EXPECT_GT(m.processed, 0);
}

TEST(FaultTolerance, DegradedServiceRunsSlowerAndLosesAccuracy) {
  WorkloadTrace trace(constant_workload(), 3);
  StaticPolicy healthy_p(fixed_mode(550.0));
  StaticPolicy degraded_p(fixed_mode(550.0));
  faults::FaultInjector injector(
      faults::device_degrade_window(2.0, 8.0, /*latency_factor=*/4.0, /*accuracy_penalty=*/0.2),
      7);
  const RunMetrics healthy = run_simulation(trace, healthy_p, ServerConfig{}, 42);
  const RunMetrics degraded = run_simulation(trace, degraded_p, ServerConfig{}, 42, &injector);
  EXPECT_EQ(degraded.faults.degrade_windows, 1);
  // 4x slower against a near-capacity load sheds frames, and every frame the
  // sick window does complete carries the misprediction penalty.
  EXPECT_LT(degraded.processed, healthy.processed);
  EXPECT_LT(degraded.qoe(), healthy.qoe());
}

TEST(FaultTolerance, DeviceWindowsReplayBitIdentically) {
  WorkloadTrace trace(constant_workload(), 3);
  auto run_once = [&] {
    StaticPolicy policy(fixed_mode(550.0));
    faults::FaultInjector injector(faults::device_crash_window(2.0, 5.0), 7);
    return run_simulation(trace, policy, ServerConfig{}, 42, &injector);
  };
  const RunMetrics a = run_once();
  const RunMetrics b = run_once();
  EXPECT_TRUE(sim::identical(a, b));
  EXPECT_GT(a.faults.device_crashes, 0);
}

TEST(FaultTolerance, FaultFreeInjectorMatchesNoInjector) {
  // An empty schedule must not perturb the simulation at all.
  WorkloadTrace trace(constant_workload(), 3);
  StaticPolicy p1(fixed_mode(550.0));
  StaticPolicy p2(fixed_mode(550.0));
  faults::FaultInjector injector(faults::FaultSchedule{}, 7);
  RunMetrics with = run_simulation(trace, p1, ServerConfig{}, 42, &injector);
  RunMetrics without = run_simulation(trace, p2, ServerConfig{}, 42);
  EXPECT_TRUE(sim::identical(with, without));
  EXPECT_EQ(with.faults.total_injected(), 0);
}

}  // namespace
}  // namespace adaflow::edge
