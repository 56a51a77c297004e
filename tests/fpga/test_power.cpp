#include "adaflow/fpga/power.hpp"

#include <gtest/gtest.h>

#include "testing/fixtures.hpp"

namespace adaflow::fpga {
namespace {

TEST(Power, StaticFloorAtZeroResources) {
  PowerModel p(zcu104());
  EXPECT_DOUBLE_EQ(p.watts(ResourceUsage{}, 1.0), zcu104().static_power_w);
}

TEST(Power, MonotoneInActivity) {
  PowerModel p(zcu104());
  ResourceUsage u{10000, 11000, 20, 0};
  EXPECT_LT(p.watts(u, 0.0), p.watts(u, 0.5));
  EXPECT_LT(p.watts(u, 0.5), p.watts(u, 1.0));
}

TEST(Power, IdleStillBurnsSomeDynamic) {
  PowerModel p(zcu104());
  ResourceUsage u{10000, 11000, 20, 0};
  EXPECT_GT(p.watts(u, 0.0), zcu104().static_power_w);
}

TEST(Power, ActivityClamped) {
  PowerModel p(zcu104());
  ResourceUsage u{10000, 11000, 20, 0};
  EXPECT_DOUBLE_EQ(p.watts(u, 2.0), p.watts(u, 1.0));
  EXPECT_DOUBLE_EQ(p.watts(u, -1.0), p.watts(u, 0.0));
}

TEST(Power, CalibrationNearPaperOperatingPoint) {
  // The stock FINN CNV accelerator lands near the paper's ~1.07 W.
  const hls::CompiledModel compiled = hls::compile_model(testing::trained_cnv_w2a2());
  const ResourceUsage u =
      accelerator_resources(compiled, testing::tiny_folding(), hls::AcceleratorVariant::kFixed,
                            2, 2);
  PowerModel p(zcu104());
  const double busy = p.watts(u, 1.0);
  EXPECT_GT(busy, 0.85);
  EXPECT_LT(busy, 1.35);
}

TEST(Power, MoreResourcesMorePower) {
  PowerModel p(zcu104());
  ResourceUsage small{5000, 5000, 5, 0};
  ResourceUsage large{20000, 20000, 30, 10};
  EXPECT_LT(p.watts(small, 1.0), p.watts(large, 1.0));
}

}  // namespace
}  // namespace adaflow::fpga
