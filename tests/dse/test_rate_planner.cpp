/// Rate-aware folding planner tests: sustained-FPS math, parallelism cost,
/// rate-matched vs peak-provisioned plans, and config validation.

#include "adaflow/dse/rate_planner.hpp"

#include "adaflow/common/error.hpp"
#include "adaflow/graph/builders.hpp"
#include "adaflow/graph/lower.hpp"
#include "adaflow/hls/folding.hpp"
#include "adaflow/nn/cnv.hpp"
#include "adaflow/nn/model.hpp"

#include <gtest/gtest.h>

namespace adaflow::dse {
namespace {

nn::Model cnv() { return graph::lower_model(graph::from_cnv(nn::cnv_w2a2(10)), 7); }

TEST(SustainedFps, IsClockOverBottleneckCycles) {
  const nn::Model model = cnv();
  const RatePlanConfig config;
  const RateFoldingPlan plan = plan_folding_for_rate(model, 100.0, 1, config);
  // The reported sustained FPS must agree with recomputing it from the
  // folding the plan carries.
  EXPECT_DOUBLE_EQ(plan.sustained_fps,
                   sustained_fps(model, plan.folding, config.clock_hz));
  EXPECT_GT(plan.sustained_fps, 0.0);
}

TEST(ParallelismCost, SumsPeTimesSimdAcrossLayers) {
  hls::FoldingConfig folding;
  folding.layers.push_back(hls::LayerFolding{2, 3});
  folding.layers.push_back(hls::LayerFolding{4, 8});
  EXPECT_EQ(parallelism_cost(folding), 2 * 3 + 4 * 8);
  EXPECT_EQ(parallelism_cost(hls::FoldingConfig{}), 0);
}

TEST(PlanFoldingForRate, MeetsTheOfferedRateWithHeadroom) {
  const nn::Model model = cnv();
  const RatePlanConfig config;
  const RateFoldingPlan plan = plan_folding_for_rate(model, 600.0, 2, config);
  EXPECT_DOUBLE_EQ(plan.target_fps, 600.0 / 2.0 * config.headroom);
  EXPECT_TRUE(plan.meets_target);
  EXPECT_GE(plan.sustained_fps, plan.target_fps);
  EXPECT_EQ(plan.parallelism, parallelism_cost(plan.folding));
}

TEST(PlanFoldingForRate, SpendsLessParallelismThanPeakWhenRateIsLow) {
  // The whole point of rate-aware planning: a modest offered rate needs far
  // less PE*SIMD than the peak-provisioned folding while peak FPS stays
  // strictly higher than the rate-matched sustained FPS.
  const nn::Model model = cnv();
  const RatePlanConfig config;
  const RateFoldingPlan low = plan_folding_for_rate(model, 200.0, 4, config);
  const RateFoldingPlan peak = plan_peak_folding(model, config);
  EXPECT_LT(low.parallelism, peak.parallelism);
  EXPECT_GT(peak.sustained_fps, low.sustained_fps);
  EXPECT_TRUE(low.meets_target);
}

TEST(PlanFoldingForRate, MoreDevicesShrinkThePerDeviceTarget) {
  const nn::Model model = cnv();
  const RatePlanConfig config;
  const RateFoldingPlan one = plan_folding_for_rate(model, 2000.0, 1, config);
  const RateFoldingPlan four = plan_folding_for_rate(model, 2000.0, 4, config);
  EXPECT_DOUBLE_EQ(four.target_fps * 4.0, one.target_fps);
  EXPECT_LE(four.parallelism, one.parallelism);
}

TEST(PlanFoldingForRate, ReportsWhenTheRateExceedsOneDevice) {
  // An absurd offered rate fully unrolls the model and still misses the
  // target: meets_target must say so instead of silently under-provisioning.
  const nn::Model model = cnv();
  const RatePlanConfig config;
  const RateFoldingPlan plan = plan_folding_for_rate(model, 1e12, 1, config);
  EXPECT_FALSE(plan.meets_target);
  const RateFoldingPlan peak = plan_peak_folding(model, config);
  EXPECT_DOUBLE_EQ(plan.sustained_fps, peak.sustained_fps)
      << "an unreachable target must land on the fully provisioned folding";
}

TEST(PlanFoldingForRate, RejectsBadInputs) {
  const nn::Model model = cnv();
  const RatePlanConfig config;
  EXPECT_THROW(plan_folding_for_rate(model, 0.0, 1, config), ConfigError);
  EXPECT_THROW(plan_folding_for_rate(model, 100.0, 0, config), ConfigError);
  RatePlanConfig bad = config;
  bad.headroom = 0.5;
  EXPECT_THROW(plan_folding_for_rate(model, 100.0, 1, bad), ConfigError);
  bad = config;
  bad.clock_hz = 0.0;
  EXPECT_THROW(bad.validate(), ConfigError);
}

}  // namespace
}  // namespace adaflow::dse
