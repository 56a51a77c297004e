#include "adaflow/core/proactive_manager.hpp"

#include "adaflow/common/error.hpp"
#include "adaflow/core/library.hpp"
#include "adaflow/edge/server.hpp"
#include "adaflow/edge/workload.hpp"

#include <gtest/gtest.h>

#include <limits>
#include <string>

namespace adaflow::core {
namespace {

const AcceleratorLibrary& lib() {
  static const AcceleratorLibrary l = synthetic_library();
  return l;
}

ProactiveConfig tight_config() {
  ProactiveConfig c;
  c.forecast.window_s = 0.1;  // one observation per monitor poll
  return c;
}

TEST(ProactiveManager, ConfigValidation) {
  EXPECT_NO_THROW((ProactiveRuntimeManager{lib(), ProactiveConfig{}}));
  ProactiveConfig c;
  c.forecast.horizon_windows = 0;
  EXPECT_THROW((ProactiveRuntimeManager{lib(), c}), ConfigError);
}

TEST(ProactiveManager, PlanningDemandIsLiveEstimateBeforeWarmup) {
  ProactiveRuntimeManager m(lib(), tight_config());
  m.initial_mode();
  EXPECT_DOUBLE_EQ(m.planning_demand(640.0), 640.0);
  m.on_poll(0.1, 600.0);
  // One observation is still not enough for a trend.
  EXPECT_DOUBLE_EQ(m.planning_demand(640.0), 640.0);
}

TEST(ProactiveManager, StableRegimePinsFixed) {
  ProactiveRuntimeManager m(lib(), tight_config());
  m.initial_mode();
  for (int i = 1; i <= 10; ++i) {
    m.on_poll(0.1 * i, 600.0 + (i % 2));
  }
  ASSERT_TRUE(m.inner().variant_pin().has_value());
  EXPECT_EQ(*m.inner().variant_pin(), hls::AcceleratorVariant::kFixed);
  EXPECT_FALSE(m.tracker().burst());
}

TEST(ProactiveManager, BurstRegimePinsFlexibleAndWidensDemand) {
  ProactiveRuntimeManager m(lib(), tight_config());
  m.initial_mode();
  double t = 0.0;
  double level = 200.0;
  for (int block = 0; block < 8; ++block) {
    for (int i = 0; i < 4; ++i) {
      t += 0.1;
      m.on_poll(t, level + (i % 2));
    }
    level = level == 200.0 ? 800.0 : 200.0;
  }
  ASSERT_TRUE(m.tracker().burst());
  ASSERT_TRUE(m.inner().variant_pin().has_value());
  EXPECT_EQ(*m.inner().variant_pin(), hls::AcceleratorVariant::kFlexible);
  // During a burst the planning demand widens to the interval ceiling.
  EXPECT_DOUBLE_EQ(m.planning_demand(0.0), m.tracker().current().upper);
  // ...but never drops below the live estimate.
  EXPECT_DOUBLE_EQ(m.planning_demand(1e6), 1e6);
}

TEST(ProactiveManager, PredictedRiseWidensPlanningDemand) {
  ProactiveRuntimeManager m(lib(), tight_config());
  m.initial_mode();
  for (int i = 1; i <= 20; ++i) {
    m.on_poll(0.1 * i, 300.0 + 25.0 * i);  // steady ramp
  }
  // Holt-Winters extrapolates the ramp, so the planning demand runs ahead of
  // the last observation.
  EXPECT_GT(m.planning_demand(800.0), 800.0);
}

TEST(ProactiveManager, VariantPinOverridesTimeRule) {
  const RuntimeManagerConfig config;
  // Drives a manager through a first applied switch, then polls again well
  // inside the 10x-reconfig-time window where the paper's rule mandates
  // Flexible.
  const auto second_switch = [&](RuntimeManager& rm,
                                 std::optional<hls::AcceleratorVariant> pin) {
    rm.initial_mode();
    auto first = rm.on_poll(0.6, 900.0);
    EXPECT_TRUE(first.has_value());
    rm.on_switch_applied(0.7, first->target);
    rm.set_variant_pin(pin);
    // Demand collapses: the manager down-switches to the accurate version.
    return rm.on_poll(1.2, 300.0);
  };

  // Unpinned, the time rule picks Flexible (0.5 s since the last switch).
  RuntimeManager unpinned(lib(), config);
  auto action = second_switch(unpinned, std::nullopt);
  ASSERT_TRUE(action.has_value());
  EXPECT_EQ(action->target.accelerator, "Flexible");

  // The stable-regime pin pre-arms Fixed without waiting the interval out.
  RuntimeManager pinned(lib(), config);
  action = second_switch(pinned, hls::AcceleratorVariant::kFixed);
  ASSERT_TRUE(action.has_value());
  EXPECT_EQ(action->target.accelerator.rfind("Fixed@", 0), 0u);
  EXPECT_TRUE(action->is_reconfiguration);

  // The reverse pin forces Flexible when the time rule would allow Fixed:
  // with no prior switch, the very first adaptation defaults to Fixed...
  RuntimeManager fresh(lib(), config);
  fresh.initial_mode();
  action = fresh.on_poll(0.6, 900.0);
  ASSERT_TRUE(action.has_value());
  EXPECT_EQ(action->target.accelerator.rfind("Fixed@", 0), 0u);
  // ...but a burst pin keeps it on the Flexible safety net.
  RuntimeManager held(lib(), config);
  held.initial_mode();
  held.set_variant_pin(hls::AcceleratorVariant::kFlexible);
  action = held.on_poll(0.6, 900.0);
  ASSERT_TRUE(action.has_value());
  EXPECT_EQ(action->target.accelerator, "Flexible");
}

TEST(ProactiveManager, RegisteredAsPolicyKind) {
  EXPECT_EQ(policy_kind_from_name("proactive"), PolicyKind::kProactive);
  EXPECT_EQ(std::string(policy_kind_name(PolicyKind::kProactive)), "proactive");
  auto policy = make_serving_policy(PolicyKind::kProactive, lib(), RuntimeManagerConfig{});
  ASSERT_NE(policy, nullptr);
  EXPECT_NE(dynamic_cast<ProactiveRuntimeManager*>(policy.get()), nullptr);
}

TEST(ProactiveManager, SurfacesForecastInRunMetrics) {
  const edge::WorkloadTrace trace(edge::scenario1_plus_2(6.0, 10.0), 5);
  ProactiveRuntimeManager policy(lib(), tight_config());
  const edge::RunMetrics m = edge::run_simulation(trace, policy, edge::ServerConfig{}, 21);
  EXPECT_GT(m.forecast.forecasts, 0);
  EXPECT_GT(m.forecast_actual_series.values.size(), 0u);
  EXPECT_EQ(m.forecast_actual_series.values.size(), m.forecast_pred_series.values.size());
  EXPECT_GE(m.switch_stall_s, 0.0);
  EXPECT_GE(m.violation_s, 0.0);

  // A reactive policy leaves the forecast block zeroed.
  RuntimeManager reactive(lib(), RuntimeManagerConfig{});
  const edge::RunMetrics r = edge::run_simulation(trace, reactive, edge::ServerConfig{}, 21);
  EXPECT_EQ(r.forecast.forecasts, 0);
  EXPECT_TRUE(r.forecast_pred_series.values.empty());
}

TEST(ProactiveManager, InitialModeResetsForecastState) {
  ProactiveRuntimeManager m(lib(), tight_config());
  m.initial_mode();
  for (int i = 1; i <= 30; ++i) {
    m.on_poll(0.1 * i, 600.0 + 40.0 * (i % 3));
  }
  ASSERT_GT(m.tracker().forecaster().observations(), 0);
  m.initial_mode();  // a new run must not inherit the previous run's state
  EXPECT_EQ(m.tracker().forecaster().observations(), 0);
  EXPECT_EQ(m.tracker().stats().forecasts, 0);
  EXPECT_FALSE(m.inner().variant_pin().has_value());
}

}  // namespace
}  // namespace adaflow::core
