#include "adaflow/core/runtime_manager.hpp"

#include <gtest/gtest.h>

#include <limits>
#include <string>

#include "adaflow/common/error.hpp"

namespace adaflow::core {
namespace {

/// Library with clean, monotone profiles for rule testing.
AcceleratorLibrary rule_library() {
  AcceleratorLibrary lib;
  lib.model_name = "M";
  lib.dataset_name = "D";
  lib.reconfig_time_s = 0.1;
  lib.finn_power_busy_w = 1.0;
  lib.finn_power_idle_w = 0.7;
  struct Row {
    int rate;
    double acc;
    double fps;
  };
  for (const Row& r : {Row{0, 0.90, 500}, Row{25, 0.86, 700}, Row{50, 0.83, 1000},
                       Row{75, 0.82, 2000}}) {
    ModelVersion v;
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

RuntimeManagerConfig config() {
  RuntimeManagerConfig c;
  c.accuracy_threshold = 0.10;
  c.switch_interval_factor = 10.0;
  c.fps_hysteresis = 0.05;
  c.fps_margin = 1.0;
  return c;
}

TEST(SelectVersion, LowDemandPicksMostAccurate) {
  AcceleratorLibrary lib = rule_library();
  // Demand 300: every version matches; most accurate (p0) wins.
  EXPECT_EQ(select_library_version(lib, 300, 0.10, 1.0, false), 0u);
}

TEST(SelectVersion, RisingDemandPicksFasterModels) {
  AcceleratorLibrary lib = rule_library();
  EXPECT_EQ(select_library_version(lib, 600, 0.10, 1.0, false), 1u);
  EXPECT_EQ(select_library_version(lib, 900, 0.10, 1.0, false), 2u);
  EXPECT_EQ(select_library_version(lib, 1500, 0.10, 1.0, false), 3u);
}

TEST(SelectVersion, AccuracyThresholdExcludesAggressivePruning) {
  AcceleratorLibrary lib = rule_library();
  // Threshold 5%: floor = 0.85 -> p75 (0.82) and p50 (0.83) excluded.
  // Demand beyond every allowed model falls back to the fastest allowed.
  EXPECT_EQ(select_library_version(lib, 5000, 0.05, 1.0, false), 1u);
}

TEST(SelectVersion, ImpossibleThresholdFallsBackToUnpruned) {
  AcceleratorLibrary lib = rule_library();
  for (ModelVersion& v : lib.versions) {
    v.accuracy = 0.5;  // all below floor
  }
  lib.base_accuracy = 0.9;
  EXPECT_EQ(select_library_version(lib, 600, 0.10, 1.0, false), 0u);
}

TEST(SelectVersion, DemandBeyondAllPicksFastest) {
  AcceleratorLibrary lib = rule_library();
  EXPECT_EQ(select_library_version(lib, 10000, 0.30, 1.0, false), 3u);
}

TEST(RuntimeManager, InitialModeIsUnprunedFixed) {
  AcceleratorLibrary lib = rule_library();
  RuntimeManager rm(lib, config());
  edge::ServingMode m = rm.initial_mode();
  EXPECT_EQ(m.model_version, "M@p0");
  EXPECT_EQ(m.accelerator, "Fixed@M@p0");
  EXPECT_DOUBLE_EQ(m.fps, 500.0);
}

TEST(RuntimeManager, StableWorkloadUsesFixedPruning) {
  AcceleratorLibrary lib = rule_library();
  RuntimeManager rm(lib, config());
  rm.initial_mode();
  // First demand change arrives long after deployment (>= 10 x 0.1 s).
  auto action = rm.on_poll(5.0, 900.0);
  ASSERT_TRUE(action.has_value());
  EXPECT_TRUE(action->is_reconfiguration);
  EXPECT_EQ(action->target.model_version, "M@p50");
  EXPECT_EQ(action->target.accelerator, "Fixed@M@p50");
  EXPECT_NEAR(action->switch_time_s, 0.1, 1e-12);
}

TEST(RuntimeManager, RapidSwitchesUseFlexible) {
  AcceleratorLibrary lib = rule_library();
  RuntimeManager rm(lib, config());
  rm.initial_mode();
  auto first = rm.on_poll(5.0, 900.0);
  ASSERT_TRUE(first.has_value());
  rm.on_switch_applied(5.1, first->target);
  // 0.3 s later the workload moves again: 0.3 < 10 x 0.1 -> Flexible.
  auto second = rm.on_poll(5.4, 1500.0);
  ASSERT_TRUE(second.has_value());
  EXPECT_EQ(second->target.accelerator, "Flexible");
  // Coming from a Fixed accelerator, loading Flexible is one reconfiguration
  // (the paper's "Change of Dataflow").
  EXPECT_TRUE(second->is_reconfiguration);
  rm.on_switch_applied(5.5, second->target);
  // Another quick change: now already on Flexible -> fast switch.
  auto third = rm.on_poll(5.9, 500.0);
  ASSERT_TRUE(third.has_value());
  EXPECT_FALSE(third->is_reconfiguration);
  EXPECT_NEAR(third->switch_time_s, 0.001, 1e-12);
}

TEST(RuntimeManager, HysteresisFiltersSmallChanges) {
  AcceleratorLibrary lib = rule_library();
  RuntimeManager rm(lib, config());
  rm.initial_mode();
  auto a = rm.on_poll(5.0, 900.0);
  ASSERT_TRUE(a.has_value());
  rm.on_switch_applied(5.1, a->target);
  // 2% jitter in the estimate: no action.
  EXPECT_FALSE(rm.on_poll(5.3, 918.0).has_value());
}

TEST(RuntimeManager, NoActionWhenTargetEqualsCurrent) {
  AcceleratorLibrary lib = rule_library();
  RuntimeManager rm(lib, config());
  rm.initial_mode();
  EXPECT_FALSE(rm.on_poll(1.0, 400.0).has_value());  // p0 already serves 400
}

TEST(RuntimeManager, SticksWithAdequateModeForTinyAccuracyWins) {
  AcceleratorLibrary lib = rule_library();
  // Make p25 and p0 nearly equal in accuracy.
  lib.versions[0].accuracy = 0.861;
  lib.base_accuracy = 0.861;
  RuntimeManager rm(lib, config());
  rm.initial_mode();
  auto a = rm.on_poll(5.0, 650.0);  // needs p25
  ASSERT_TRUE(a.has_value());
  rm.on_switch_applied(5.1, a->target);
  // Demand drops; p0 is only 0.001 more accurate -> stay on p25.
  EXPECT_FALSE(rm.on_poll(10.0, 300.0).has_value());
}

TEST(RuntimeManager, SwitchesBackForRealAccuracyWins) {
  AcceleratorLibrary lib = rule_library();
  RuntimeManager rm(lib, config());
  rm.initial_mode();
  auto a = rm.on_poll(5.0, 1500.0);  // p75
  ASSERT_TRUE(a.has_value());
  rm.on_switch_applied(5.1, a->target);
  // Demand collapses: p0 is 8 accuracy points better -> switch back.
  auto back = rm.on_poll(20.0, 300.0);
  ASSERT_TRUE(back.has_value());
  EXPECT_EQ(back->target.model_version, "M@p0");
}

TEST(RuntimeManager, ThresholdChangeForcesReevaluation) {
  AcceleratorLibrary lib = rule_library();
  RuntimeManager rm(lib, config());
  rm.initial_mode();
  auto a = rm.on_poll(5.0, 1500.0);  // p75 (accuracy 0.82)
  ASSERT_TRUE(a.has_value());
  rm.on_switch_applied(5.1, a->target);
  // Tighten the threshold to 5%: p75 no longer allowed; same incoming FPS
  // (hysteresis would normally filter) must still trigger a reevaluation.
  rm.set_accuracy_threshold(0.05);
  auto b = rm.on_poll(5.4, 1500.0);
  ASSERT_TRUE(b.has_value());
  EXPECT_EQ(b->target.model_version, "M@p25");
}

TEST(StaticFinn, NeverSwitches) {
  AcceleratorLibrary lib = rule_library();
  StaticFinnPolicy finn(lib);
  edge::ServingMode m = finn.initial_mode();
  EXPECT_EQ(m.accelerator, "OriginalFINN");
  EXPECT_FALSE(finn.on_poll(1.0, 5000.0).has_value());
}

TEST(ReconfPruning, AlwaysReconfigures) {
  AcceleratorLibrary lib = rule_library();
  ReconfPruningPolicy policy(lib, config(), 0.29);
  policy.initial_mode();
  auto a = policy.on_poll(1.0, 1500.0);
  ASSERT_TRUE(a.has_value());
  EXPECT_TRUE(a->is_reconfiguration);
  EXPECT_NEAR(a->switch_time_s, 0.29, 1e-12);
}

TEST(ReconfPruning, ZeroTimeModelsIdealSwitch) {
  AcceleratorLibrary lib = rule_library();
  ReconfPruningPolicy policy(lib, config(), 0.0);
  policy.initial_mode();
  auto a = policy.on_poll(1.0, 1500.0);
  ASSERT_TRUE(a.has_value());
  EXPECT_FALSE(a->is_reconfiguration);
  EXPECT_DOUBLE_EQ(a->switch_time_s, 0.0);
}

TEST(RuntimeManager, RejectsBadConfig) {
  AcceleratorLibrary lib = rule_library();
  RuntimeManagerConfig bad = config();
  bad.accuracy_threshold = -1.0;
  EXPECT_THROW(RuntimeManager(lib, bad), ConfigError);
}

TEST(RuntimeManager, RejectsZeroFpsLibrary) {
  AcceleratorLibrary lib = rule_library();
  lib.versions[1].fps_fixed = 0.0;
  try {
    RuntimeManager rm(lib, config());
    FAIL() << "expected ConfigError";
  } catch (const ConfigError& e) {
    // The error must name the broken version so the user can fix the row.
    EXPECT_NE(std::string(e.what()).find("M@p25"), std::string::npos);
  }
  lib.versions[1].fps_fixed = 700.0;
  lib.versions[2].fps_flexible = std::numeric_limits<double>::quiet_NaN();
  EXPECT_THROW(RuntimeManager(lib, config()), ConfigError);
}

TEST(RuntimeManager, WarmupSuppressesEarlyPolls) {
  AcceleratorLibrary lib = rule_library();
  RuntimeManager rm(lib, config());  // warmup: 0.5 s
  rm.initial_mode();
  // The monitor's estimate window is still filling: no action, however
  // dramatic the (unreliable) estimate looks.
  EXPECT_FALSE(rm.on_poll(0.2, 5000.0).has_value());
  EXPECT_FALSE(rm.on_poll(0.49, 5000.0).has_value());
  // Past warmup the same demand acts.
  EXPECT_TRUE(rm.on_poll(5.0, 5000.0).has_value());
}

TEST(RuntimeManager, DownswitchMarginStopsBoundaryFlapping) {
  AcceleratorLibrary lib = rule_library();
  RuntimeManager rm(lib, config());  // downswitch margin: 1.2
  rm.initial_mode();
  auto up = rm.on_poll(5.0, 650.0);  // needs p25 (700 FPS)
  ASSERT_TRUE(up.has_value());
  EXPECT_EQ(up->target.model_version, "M@p25");
  rm.on_switch_applied(5.1, up->target);
  // Demand hovers just under the p0 boundary: p0 (500 FPS) would match 480
  // but not with the 1.2x down-switch headroom -> stay on p25, no flapping.
  EXPECT_FALSE(rm.on_poll(10.0, 480.0).has_value());
  // A real collapse clears the margin and switches back to the accurate model.
  auto down = rm.on_poll(20.0, 300.0);
  ASSERT_TRUE(down.has_value());
  EXPECT_EQ(down->target.model_version, "M@p0");
}

TEST(RuntimeManager, OnSwitchFailedFallsBackToFlexible) {
  AcceleratorLibrary lib = rule_library();
  RuntimeManager rm(lib, config());
  rm.initial_mode();
  auto action = rm.on_poll(5.0, 900.0);  // Fixed@M@p50 reconfiguration
  ASSERT_TRUE(action.has_value());
  ASSERT_TRUE(action->is_reconfiguration);
  auto fallback = rm.on_switch_failed(5.2, *action);
  ASSERT_TRUE(fallback.has_value());
  // Same target version, on the paper's always-available safety net. Coming
  // from a live Fixed accelerator this costs one "Change of Dataflow".
  EXPECT_EQ(fallback->target.model_version, "M@p50");
  EXPECT_EQ(fallback->target.accelerator, "Flexible");
  EXPECT_TRUE(fallback->is_reconfiguration);
}

TEST(RuntimeManager, FailedFallbackRollsBackToLiveMode) {
  AcceleratorLibrary lib = rule_library();
  RuntimeManager rm(lib, config());
  rm.initial_mode();
  auto action = rm.on_poll(5.0, 900.0);
  ASSERT_TRUE(action.has_value());
  auto fallback = rm.on_switch_failed(5.2, *action);
  ASSERT_TRUE(fallback.has_value());
  // The Flexible load itself fails: nothing cheaper exists, stay on the mode
  // that is actually live (the initial unpruned Fixed accelerator).
  EXPECT_FALSE(rm.on_switch_failed(5.4, *fallback).has_value());
  EXPECT_EQ(rm.current_version(), 0u);
  EXPECT_EQ(rm.current_variant(), hls::AcceleratorVariant::kFixed);
}

TEST(RuntimeManager, FailedFastSwitchJustRollsBack) {
  AcceleratorLibrary lib = rule_library();
  RuntimeManager rm(lib, config());
  rm.initial_mode();
  edge::SwitchAction fast;
  fast.target.model_version = "M@p25";
  fast.target.accelerator = "Flexible";
  fast.target.fps = 700.0 * 0.995;
  fast.target.accuracy = 0.86;
  fast.switch_time_s = 0.001;
  fast.is_reconfiguration = false;
  EXPECT_FALSE(rm.on_switch_failed(5.0, fast).has_value());
  EXPECT_EQ(rm.current_version(), 0u);
}

TEST(RuntimeManager, ReconfigFailureHoldsVariantOnFlexible) {
  AcceleratorLibrary lib = rule_library();
  RuntimeManagerConfig c = config();
  c.reconfig_failure_hold_s = 5.0;
  RuntimeManager rm(lib, c);
  rm.initial_mode();
  auto action = rm.on_poll(5.0, 900.0);
  ASSERT_TRUE(action.has_value());
  rm.on_switch_failed(5.2, *action);
  // During the hold the flaky PR controller is not handed another bitstream.
  EXPECT_EQ(rm.select_variant(5.5), hls::AcceleratorVariant::kFlexible);
  EXPECT_EQ(rm.select_variant(10.1), hls::AcceleratorVariant::kFlexible);
  // Once the hold expires, a long-stable workload may use Fixed again.
  EXPECT_EQ(rm.select_variant(10.3), hls::AcceleratorVariant::kFixed);
}

TEST(RuntimeManager, OnOverloadPicksFastestInThreshold) {
  AcceleratorLibrary lib = rule_library();
  RuntimeManager rm(lib, config());
  rm.initial_mode();
  auto shed = rm.on_overload(5.0, 2500.0);
  ASSERT_TRUE(shed.has_value());
  // Threshold 10% -> floor 0.80: every version allowed, fastest is p75.
  EXPECT_EQ(shed->target.model_version, "M@p75");
  EXPECT_EQ(shed->target.accelerator, "Flexible");
  // Decision cooldown: an immediate second overload report is ignored.
  EXPECT_FALSE(rm.on_overload(5.1, 2500.0).has_value());
  // Already on the fastest Flexible mode: nothing further to shed to.
  rm.on_switch_applied(5.3, shed->target);
  EXPECT_FALSE(rm.on_overload(10.0, 2500.0).has_value());
}

TEST(RuntimeManager, OnOverloadRespectsAccuracyThreshold) {
  AcceleratorLibrary lib = rule_library();
  RuntimeManagerConfig c = config();
  c.accuracy_threshold = 0.05;  // floor 0.85: p50 and p75 excluded
  RuntimeManager rm(lib, c);
  rm.initial_mode();
  auto shed = rm.on_overload(5.0, 2500.0);
  ASSERT_TRUE(shed.has_value());
  EXPECT_EQ(shed->target.model_version, "M@p25");
}

}  // namespace
}  // namespace adaflow::core
