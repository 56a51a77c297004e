#include "adaflow/faults/fault_injector.hpp"

#include <gtest/gtest.h>

#include <cmath>

#include "adaflow/common/error.hpp"

namespace adaflow::faults {
namespace {

/// Manifested faults of every kind.
int injected_total(const FaultInjector& inj) {
  int total = 0;
  for (int k = 0; k < kFaultKindCount; ++k) {
    total += inj.injected(static_cast<FaultKind>(k));
  }
  return total;
}

FaultSchedule single(FaultKind kind, double start, double end, double p, double magnitude) {
  FaultSchedule s;
  s.faults.push_back(FaultSpec{kind, start, end, p, magnitude});
  return s;
}

TEST(FaultSchedule, RejectsInvalidSpecs) {
  EXPECT_THROW(FaultInjector(single(FaultKind::kReconfigFailure, -1.0, 5.0, 1.0, 1.0), 1),
               ConfigError);
  EXPECT_THROW(FaultInjector(single(FaultKind::kReconfigFailure, 5.0, 1.0, 1.0, 1.0), 1),
               ConfigError);
  EXPECT_THROW(FaultInjector(single(FaultKind::kReconfigFailure, 0.0, 5.0, 1.5, 1.0), 1),
               ConfigError);
  EXPECT_THROW(FaultInjector(single(FaultKind::kReconfigSlowdown, 0.0, 5.0, 1.0, -2.0), 1),
               ConfigError);
  const double nan = std::nan("");
  EXPECT_THROW(FaultInjector(single(FaultKind::kMonitorNoise, nan, 5.0, 1.0, 1.0), 1),
               ConfigError);
}

TEST(FaultInjector, FaultsOnlyFireInsideTheWindow) {
  FaultInjector inj(single(FaultKind::kReconfigFailure, 2.0, 4.0, 1.0, 1.0), 7);
  EXPECT_FALSE(inj.on_switch_attempt(1.9, true).fail);
  EXPECT_TRUE(inj.on_switch_attempt(2.0, true).fail);
  EXPECT_TRUE(inj.on_switch_attempt(3.9, true).fail);
  EXPECT_FALSE(inj.on_switch_attempt(4.0, true).fail);
  EXPECT_EQ(inj.injected(FaultKind::kReconfigFailure), 2);
}

TEST(FaultInjector, FastSwitchesAreImmuneToReconfigFaults) {
  FaultInjector inj(single(FaultKind::kReconfigFailure, 0.0, 10.0, 1.0, 1.0), 7);
  EXPECT_FALSE(inj.on_switch_attempt(5.0, /*is_reconfiguration=*/false).fail);
  EXPECT_EQ(injected_total(inj), 0);
}

TEST(FaultInjector, SlowdownScalesSwitchTime) {
  FaultInjector inj(single(FaultKind::kReconfigSlowdown, 0.0, 10.0, 1.0, 4.0), 7);
  EXPECT_DOUBLE_EQ(inj.on_switch_attempt(5.0, true).time_factor, 4.0);
}

TEST(FaultInjector, ZeroProbabilityNeverFires) {
  FaultInjector inj(single(FaultKind::kAcceleratorStall, 0.0, 10.0, 0.0, 2.0), 7);
  for (int i = 0; i < 100; ++i) {
    EXPECT_DOUBLE_EQ(inj.stall_seconds(5.0), 0.0);
  }
  EXPECT_EQ(injected_total(inj), 0);
}

TEST(FaultInjector, StallReturnsMagnitudeSeconds) {
  FaultInjector inj(single(FaultKind::kAcceleratorStall, 0.0, 10.0, 1.0, 2.5), 7);
  EXPECT_DOUBLE_EQ(inj.stall_seconds(5.0), 2.5);
  EXPECT_EQ(inj.injected(FaultKind::kAcceleratorStall), 1);
}

TEST(FaultInjector, MonitorDropoutAndNoise) {
  FaultInjector drop(single(FaultKind::kMonitorDropout, 0.0, 10.0, 1.0, 1.0), 7);
  EXPECT_TRUE(drop.on_rate_poll(5.0).dropout);
  FaultInjector noise(single(FaultKind::kMonitorNoise, 0.0, 10.0, 1.0, 0.4), 7);
  const double factor = noise.on_rate_poll(5.0).noise_factor;
  EXPECT_GE(factor, 0.6);
  EXPECT_LE(factor, 1.4);
  EXPECT_NE(factor, 1.0);
}

TEST(FaultInjector, BurstMultipliesArrivalRateAndCountsOnce) {
  FaultInjector inj(single(FaultKind::kQueueBurst, 2.0, 4.0, 1.0, 1.8), 7);
  EXPECT_DOUBLE_EQ(inj.arrival_rate_factor(1.0), 1.0);
  EXPECT_DOUBLE_EQ(inj.arrival_rate_factor(3.0), 1.8);
  EXPECT_DOUBLE_EQ(inj.arrival_rate_factor(3.5), 1.8);
  EXPECT_DOUBLE_EQ(inj.arrival_rate_factor(4.5), 1.0);
  EXPECT_EQ(inj.injected(FaultKind::kQueueBurst), 1);  // one window, counted once
}

TEST(FaultInjector, SameSeedSameDecisionSequence) {
  const FaultSchedule schedule = flaky_edge_schedule(25.0);
  FaultInjector a(schedule, 99);
  FaultInjector b(schedule, 99);
  for (double t = 0.0; t < 25.0; t += 0.1) {
    const auto pa = a.on_rate_poll(t);
    const auto pb = b.on_rate_poll(t);
    EXPECT_EQ(pa.dropout, pb.dropout);
    EXPECT_DOUBLE_EQ(pa.noise_factor, pb.noise_factor);
    EXPECT_DOUBLE_EQ(a.stall_seconds(t), b.stall_seconds(t));
  }
  EXPECT_EQ(injected_total(a), injected_total(b));
}

TEST(FaultInjector, DifferentSeedsDiverge) {
  const FaultSchedule schedule = flaky_edge_schedule(25.0);
  FaultInjector a(schedule, 1);
  FaultInjector b(schedule, 2);
  bool any_different = false;
  for (double t = 0.0; t < 25.0; t += 0.1) {
    any_different |= a.on_rate_poll(t).noise_factor != b.on_rate_poll(t).noise_factor;
  }
  EXPECT_TRUE(any_different);
}

TEST(FaultInjector, CannedStormTargetsReconfigurations) {
  FaultInjector inj(reconfig_failure_storm(0.0, 10.0, 1.0, 4.0), 7);
  const auto outcome = inj.on_switch_attempt(5.0, true);
  EXPECT_TRUE(outcome.fail);
  EXPECT_FALSE(inj.on_switch_attempt(5.0, false).fail);
}

// --- whole-device fault windows (fleet resilience layer) -------------------

TEST(FaultInjector, DeviceWindowsAreDrawnOnceAtConstruction) {
  // Probability 1 windows manifest immediately and count as injected before
  // any simulation time passes — the device pre-schedules from this list.
  FaultSchedule s = device_crash_window(2.0, 5.0);
  s.faults.push_back(device_hang_window(6.0, 7.0).faults[0]);
  FaultInjector inj(s, 7);
  const auto& windows = inj.device_fault_windows();
  ASSERT_EQ(windows.size(), 2u);
  EXPECT_EQ(windows[0].kind, FaultKind::kDeviceCrash);
  EXPECT_DOUBLE_EQ(windows[0].start_s, 2.0);
  EXPECT_DOUBLE_EQ(windows[0].end_s, 5.0);
  EXPECT_EQ(windows[1].kind, FaultKind::kDeviceHang);
  EXPECT_EQ(inj.injected(FaultKind::kDeviceCrash), 1);
  EXPECT_EQ(inj.injected(FaultKind::kDeviceHang), 1);
  EXPECT_EQ(injected_total(inj), 2);
}

TEST(FaultInjector, ZeroProbabilityDeviceWindowNeverManifests) {
  FaultSchedule s = single(FaultKind::kDeviceCrash, 2.0, 5.0, 0.0, 1.0);
  FaultInjector inj(s, 7);
  EXPECT_TRUE(inj.device_fault_windows().empty());
  EXPECT_EQ(injected_total(inj), 0);
}

TEST(FaultInjector, DegradeWindowCarriesLatencyAndAccuracyFields) {
  FaultInjector inj(device_degrade_window(1.0, 4.0, /*latency_factor=*/3.5,
                                          /*accuracy_penalty=*/0.2),
                    7);
  const auto& windows = inj.device_fault_windows();
  ASSERT_EQ(windows.size(), 1u);
  EXPECT_EQ(windows[0].kind, FaultKind::kDeviceDegrade);
  EXPECT_DOUBLE_EQ(windows[0].latency_factor, 3.5);
  EXPECT_DOUBLE_EQ(windows[0].accuracy_penalty, 0.2);
}

TEST(FaultInjector, DeviceWindowManifestationIsSeedDeterministic) {
  // A 50% window either manifests or not per (schedule, seed); the same pair
  // must resolve identically every construction, and across many seeds both
  // outcomes must occur.
  const FaultSchedule s = single(FaultKind::kDeviceHang, 1.0, 3.0, 0.5, 1.0);
  int manifested = 0;
  for (std::uint64_t seed = 1; seed <= 32; ++seed) {
    FaultInjector a(s, seed);
    FaultInjector b(s, seed);
    EXPECT_EQ(a.device_fault_windows().size(), b.device_fault_windows().size()) << seed;
    manifested += a.device_fault_windows().empty() ? 0 : 1;
  }
  EXPECT_GT(manifested, 0);
  EXPECT_LT(manifested, 32);
}

TEST(FaultSchedule, RejectsInvalidDeviceSpecs) {
  // Degrade accuracy penalty is a fraction; degrade magnitude is a slowdown.
  FaultSchedule bad_penalty = device_degrade_window(0.0, 5.0, 2.0, /*accuracy_penalty=*/1.5);
  EXPECT_THROW(FaultInjector(bad_penalty, 1), ConfigError);
  FaultSchedule bad_factor = device_degrade_window(0.0, 5.0, /*latency_factor=*/0.5, 0.0);
  EXPECT_THROW(FaultInjector(bad_factor, 1), ConfigError);
  EXPECT_THROW(FaultInjector(single(FaultKind::kDeviceCrash, 5.0, 2.0, 1.0, 1.0), 1),
               ConfigError);
}

}  // namespace
}  // namespace adaflow::faults
