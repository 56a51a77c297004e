#include "adaflow/edge/server.hpp"

#include "adaflow/common/error.hpp"
#include "adaflow/sim/fields.hpp"

#include <gtest/gtest.h>

#include <cstdint>
#include <limits>
#include <memory>
#include <string>

namespace adaflow::edge {
namespace {

ServingMode mode(double fps, double accuracy = 0.9, double busy = 1.0, double idle = 0.7) {
  ServingMode m;
  m.model_version = "test@p0";
  m.accelerator = "Fixed";
  m.fps = fps;
  m.accuracy = accuracy;
  m.power_busy_w = busy;
  m.power_idle_w = idle;
  return m;
}

/// Never switches.
class StaticPolicy : public ServingPolicy {
 public:
  explicit StaticPolicy(ServingMode m) : mode_(m) {}
  ServingMode initial_mode() override { return mode_; }
  std::optional<SwitchAction> on_poll(double, double) override { return std::nullopt; }

 private:
  ServingMode mode_;
};

/// Switches exactly once at a given time.
class OneSwitchPolicy : public ServingPolicy {
 public:
  OneSwitchPolicy(ServingMode first, SwitchAction action, double at)
      : first_(first), action_(action), at_(at) {}
  ServingMode initial_mode() override { return first_; }
  std::optional<SwitchAction> on_poll(double now, double) override {
    if (!done_ && now >= at_) {
      done_ = true;
      return action_;
    }
    return std::nullopt;
  }

 private:
  ServingMode first_;
  SwitchAction action_;
  double at_;
  bool done_ = false;
};

WorkloadConfig constant_workload(double duration = 10.0) {
  WorkloadConfig c;
  c.devices = 20;
  c.fps_per_device = 30.0;
  c.phases = {WorkloadPhase{0.0, duration, duration}};  // no deviation
  return c;
}

TEST(Server, FrameConservation) {
  // Invariant: every arrived frame is processed, lost, or still queued —
  // processed + lost <= arrived always.
  WorkloadTrace trace(constant_workload(), 3);
  StaticPolicy policy(mode(500.0));
  RunMetrics m = run_simulation(trace, policy, ServerConfig{}, 42);
  EXPECT_GT(m.arrived, 0);
  EXPECT_LE(m.processed + m.lost, m.arrived);
  EXPECT_GE(m.arrived - m.processed - m.lost, 0);         // the queue remainder
  EXPECT_LE(m.arrived - m.processed - m.lost, 72 + 1);     // bounded by capacity (+ in flight)
}

TEST(Server, OverloadedServerLosesExpectedFraction) {
  // Arrivals ~600 FPS, service 450 FPS -> long-run loss ~ 1 - 450/600 = 25%.
  WorkloadTrace trace(constant_workload(20.0), 5);
  StaticPolicy policy(mode(450.0));
  RunMetrics m = run_simulation(trace, policy, ServerConfig{}, 7);
  EXPECT_NEAR(m.frame_loss(), 0.25, 0.05);
}

TEST(Server, UnderloadedServerLosesNothing)
{
  WorkloadTrace trace(constant_workload(10.0), 5);
  StaticPolicy policy(mode(1200.0));
  RunMetrics m = run_simulation(trace, policy, ServerConfig{}, 9);
  EXPECT_EQ(m.lost, 0);
  EXPECT_NEAR(static_cast<double>(m.processed), static_cast<double>(m.arrived), 3.0);
}

TEST(Server, QoeIsAccuracyTimesProcessedFraction) {
  WorkloadTrace trace(constant_workload(10.0), 5);
  StaticPolicy policy(mode(1200.0, 0.8));
  RunMetrics m = run_simulation(trace, policy, ServerConfig{}, 9);
  EXPECT_NEAR(m.qoe(), 0.8 * static_cast<double>(m.processed) / m.arrived, 1e-9);
}

TEST(Server, SwitchStallsService) {
  // A 2-second stall at t=2 on a service that exactly matches arrivals must
  // lose roughly stall_time * rate - queue_capacity frames.
  SwitchAction action;
  action.target = mode(700.0);
  action.switch_time_s = 2.0;
  action.is_reconfiguration = true;
  OneSwitchPolicy policy(mode(700.0), action, 2.0);
  WorkloadTrace trace(constant_workload(10.0), 11);
  ServerConfig cfg;
  RunMetrics m = run_simulation(trace, policy, cfg, 13);
  EXPECT_EQ(m.model_switches, 1);
  EXPECT_EQ(m.reconfigurations, 1);
  EXPECT_NEAR(static_cast<double>(m.lost), 2.0 * 600.0 - cfg.queue_capacity, 150.0);
}

TEST(Server, ZeroCostSwitchLosesNothing) {
  SwitchAction action;
  action.target = mode(700.0);
  action.switch_time_s = 0.0;
  OneSwitchPolicy policy(mode(700.0), action, 2.0);
  WorkloadTrace trace(constant_workload(10.0), 17);
  RunMetrics m = run_simulation(trace, policy, ServerConfig{}, 19);
  EXPECT_EQ(m.lost, 0);
  EXPECT_EQ(m.reconfigurations, 0);
  EXPECT_EQ(m.model_switches, 1);
  ASSERT_EQ(m.switches.size(), 1u);
  EXPECT_NEAR(m.switches[0].time_s, 2.0, 0.2);
}

TEST(Server, EnergyIntegratesBetweenIdleAndBusy) {
  WorkloadTrace trace(constant_workload(10.0), 23);
  StaticPolicy policy(mode(1200.0, 0.9, 1.0, 0.7));
  RunMetrics m = run_simulation(trace, policy, ServerConfig{}, 29);
  // Utilization ~ 600/1200 = 0.5 -> average power between idle and busy.
  EXPECT_GT(m.average_power_w(), 0.7);
  EXPECT_LT(m.average_power_w(), 1.0);
  EXPECT_NEAR(m.duration_s, 10.0, 1e-9);
}

TEST(Server, TimeSeriesLengthsMatchDuration) {
  WorkloadTrace trace(constant_workload(10.0), 31);
  StaticPolicy policy(mode(800.0));
  ServerConfig cfg;
  RunMetrics m = run_simulation(trace, policy, cfg, 37);
  EXPECT_EQ(m.workload_series.values.size(), 20u);  // 10 s / 0.5 s
  EXPECT_EQ(m.loss_series.values.size(), 20u);
  EXPECT_EQ(m.qoe_series.values.size(), 20u);
  EXPECT_EQ(m.power_series.values.size(), 20u);
}

TEST(Server, WorkloadSeriesTracksArrivalRate) {
  WorkloadTrace trace(constant_workload(10.0), 41);
  StaticPolicy policy(mode(800.0));
  RunMetrics m = run_simulation(trace, policy, ServerConfig{}, 43);
  double mean = 0.0;
  for (double v : m.workload_series.values) {
    mean += v;
  }
  mean /= static_cast<double>(m.workload_series.values.size());
  EXPECT_NEAR(mean, 600.0, 40.0);
}

TEST(Server, RepeatedRunsAverage) {
  WorkloadConfig wl = constant_workload(5.0);
  auto factory = [] { return std::make_unique<StaticPolicy>(mode(800.0)); };
  RepeatedRunResult r = run_repeated(wl, factory, ServerConfig{}, 5);
  EXPECT_EQ(r.frame_loss.count(), 5);
  EXPECT_EQ(r.mean.workload_series.values.size(), 10u);
  // The scalar fields are per-run means, not 5-run totals: 5 s at ~600 FPS
  // arrives ~3000 frames per run.
  EXPECT_NEAR(static_cast<double>(r.mean.arrived), 3000.0, 200.0);
  EXPECT_NEAR(r.mean.duration_s, 5.0, 1e-9);
  // Ratio accessors stay consistent because numerator and denominator are
  // divided alike.
  EXPECT_NEAR(r.mean.frame_loss(), r.frame_loss.mean(), 0.01);
}

TEST(Server, RepeatedRunsRecordSwitchCountsForEveryRun) {
  // Regression: the averaged result used to keep only run 0's SwitchRecord
  // trace, silently hiding the other runs' switching activity. The per-run
  // count vectors must cover every run.
  WorkloadConfig wl = constant_workload(5.0);
  SwitchAction action;
  action.target = mode(700.0);
  action.switch_time_s = 0.01;
  action.is_reconfiguration = true;
  auto factory = [&] { return std::make_unique<OneSwitchPolicy>(mode(700.0), action, 2.0); };
  RepeatedRunResult r = run_repeated(wl, factory, ServerConfig{}, 4);
  ASSERT_EQ(r.switches_per_run.size(), 4u);
  ASSERT_EQ(r.reconfigurations_per_run.size(), 4u);
  for (int count : r.switches_per_run) {
    EXPECT_EQ(count, 1);
  }
  for (int count : r.reconfigurations_per_run) {
    EXPECT_EQ(count, 1);
  }
  // The representative trace is still run 0's.
  ASSERT_EQ(r.mean.switches.size(), 1u);
  EXPECT_NEAR(r.mean.switches[0].time_s, 2.0, 0.2);
}

TEST(Server, RepeatedRunsPooledRatiosComeFromExactTotals) {
  // Regression: mean.frame_loss() divides two independently ROUNDED counts;
  // the pooled ratios must be computed before rounding, so they always lie
  // inside the per-run envelope and track the per-run mean closely.
  WorkloadConfig wl = constant_workload(10.0);
  auto factory = [] { return std::make_unique<StaticPolicy>(mode(450.0)); };  // ~25% loss
  RepeatedRunResult r = run_repeated(wl, factory, ServerConfig{}, 5);
  EXPECT_GT(r.pooled_frame_loss, 0.0);
  EXPECT_GE(r.pooled_frame_loss, r.frame_loss.min());
  EXPECT_LE(r.pooled_frame_loss, r.frame_loss.max());
  EXPECT_NEAR(r.pooled_frame_loss, r.frame_loss.mean(), 0.01);
  EXPECT_GE(r.pooled_qoe, r.qoe.min());
  EXPECT_LE(r.pooled_qoe, r.qoe.max());
  EXPECT_NEAR(r.pooled_average_power_w, r.power.mean(), 0.05);
  // And the rounded-mean accessor stays consistent with them up to rounding.
  EXPECT_NEAR(r.mean.frame_loss(), r.pooled_frame_loss, 0.01);
  EXPECT_NEAR(r.mean.qoe(), r.pooled_qoe, 0.01);
}

TEST(Server, RepeatedRunsRejectNonPositiveCount) {
  WorkloadConfig wl = constant_workload(1.0);
  auto factory = [] { return std::make_unique<StaticPolicy>(mode(800.0)); };
  EXPECT_THROW(run_repeated(wl, factory, ServerConfig{}, 0), ConfigError);
}

TEST(Server, ZeroFpsInitialModeRejected) {
  WorkloadTrace trace(constant_workload(1.0), 1);
  StaticPolicy policy(mode(0.0));
  EXPECT_THROW(run_simulation(trace, policy, ServerConfig{}, 1), ConfigError);
}

TEST(Server, BadInitialModeErrorNamesTheMode) {
  WorkloadTrace trace(constant_workload(1.0), 1);
  StaticPolicy policy(mode(0.0));
  try {
    run_simulation(trace, policy, ServerConfig{}, 1);
    FAIL() << "expected ConfigError";
  } catch (const ConfigError& e) {
    const std::string msg = e.what();
    EXPECT_NE(msg.find("test@p0"), std::string::npos);
  }
}

TEST(Server, ZeroFpsSwitchTargetRejected) {
  SwitchAction action;
  action.target = mode(0.0);
  action.switch_time_s = 0.1;
  OneSwitchPolicy policy(mode(700.0), action, 2.0);
  WorkloadTrace trace(constant_workload(10.0), 11);
  EXPECT_THROW(run_simulation(trace, policy, ServerConfig{}, 13), ConfigError);
}

/// Runs \p config through run_simulation and requires a ConfigError that
/// names \p field.
void expect_rejected(const ServerConfig& config, const std::string& field) {
  WorkloadTrace trace(constant_workload(1.0), 1);
  StaticPolicy policy(mode(500.0));
  try {
    run_simulation(trace, policy, config, 1);
    FAIL() << "expected ConfigError naming " << field;
  } catch (const ConfigError& e) {
    EXPECT_NE(std::string(e.what()).find("ServerConfig." + field), std::string::npos)
        << e.what();
  }
}

/// A config with non-default values, so a run that read a dead copy of it
/// would not match a run from a named one.
ServerConfig small_config() {
  ServerConfig c;
  c.queue_capacity = 8;
  c.poll_interval_s = 0.2;
  c.sample_interval_s = 0.25;
  return c;
}

TEST(ServerConfigCopy, ADriverBuiltFromATemporaryRunsAsFromANamedConfig) {
  WorkloadTrace trace(constant_workload(4.0), 5);
  StaticPolicy named_policy(mode(450.0));
  const ServerConfig named = small_config();
  const RunMetrics expected = run_simulation(trace, named_policy, named, 11);
  StaticPolicy policy(mode(450.0));
  // The temporary dies at the end of this statement; the driver and its
  // device must have kept copies (ASan reports a stack use after scope if
  // either still refers to it).
  SingleDeviceDriver driver(trace, policy, small_config(), 11);
  EXPECT_EQ(driver.device().queue_capacity(), 8);
  driver.start();
  const RunMetrics m = driver.finish();
  EXPECT_GT(m.lost, 0);  // the 8-frame queue overflows
  EXPECT_TRUE(sim::identical(m, expected));
}

TEST(ServerConfigCopy, ADeviceBuiltFromATemporaryKeepsItsCapacity) {
  sim::EventQueue queue;
  StaticPolicy policy(mode(450.0));
  DeviceSim device(queue, policy, small_config());
  device.start();
  EXPECT_EQ(device.queue_capacity(), 8);
  EXPECT_EQ(device.free_slots(), 8);
}

TEST(ServerConfigValidate, EachBadValueThrowsNamingTheField) {
  EXPECT_NO_THROW(ServerConfig{}.validate());
  for (const std::int64_t capacity : {std::int64_t{0}, std::int64_t{-4}}) {
    ServerConfig c;
    c.queue_capacity = capacity;
    expect_rejected(c, "queue_capacity");
  }
  const double nan = std::numeric_limits<double>::quiet_NaN();
  const double inf = std::numeric_limits<double>::infinity();
  for (const double bad : {0.0, -0.1, nan, inf}) {
    ServerConfig poll;
    poll.poll_interval_s = bad;
    expect_rejected(poll, "poll_interval_s");
    ServerConfig sample;
    sample.sample_interval_s = bad;
    expect_rejected(sample, "sample_interval_s");
  }
}

TEST(ServerConfigValidate, ZeroPollIntervalThrowsInsteadOfHanging) {
  // Before validation, a 0 s poll rescheduled the monitor at now() forever
  // and run_simulation never returned.
  ServerConfig c;
  c.poll_interval_s = 0.0;
  WorkloadTrace trace(constant_workload(2.0), 1);
  StaticPolicy policy(mode(500.0));
  EXPECT_THROW(run_simulation(trace, policy, c, 1), ConfigError);
}

}  // namespace
}  // namespace adaflow::edge
