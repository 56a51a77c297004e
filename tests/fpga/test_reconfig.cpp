#include "adaflow/fpga/reconfig.hpp"

#include <gtest/gtest.h>

#include "testing/fixtures.hpp"

namespace adaflow::fpga {
namespace {

TEST(Reconfig, FullReconfigMatchesPaper) {
  ReconfigModel r(zcu104());
  EXPECT_NEAR(r.full_reconfig_seconds(), 0.145, 0.01);
}

TEST(Reconfig, FlexibleSwitchIsOrdersOfMagnitudeFaster) {
  ReconfigModel r(zcu104());
  const hls::CompiledModel compiled = hls::compile_model(testing::trained_cnv_w2a2());
  const double flex = r.flexible_switch_seconds(compiled);
  EXPECT_GT(flex, 0.0);
  EXPECT_LT(flex * 20.0, r.full_reconfig_seconds())
      << "fast model switching must beat reconfiguration by a wide margin";
}

TEST(Reconfig, SwitchTimeGrowsWithModelSize) {
  ReconfigModel r(zcu104());
  hls::CompiledModel small;
  hls::CompiledStage s;
  s.weight_levels.assign(100, 0);
  small.stages.push_back(s);
  hls::CompiledModel large;
  s.weight_levels.assign(100000, 0);
  large.stages.push_back(s);
  EXPECT_LT(r.flexible_switch_seconds(small), r.flexible_switch_seconds(large));
}

}  // namespace
}  // namespace adaflow::fpga
