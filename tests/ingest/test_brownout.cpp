#include "adaflow/ingest/brownout.hpp"

#include <gtest/gtest.h>

#include "adaflow/common/error.hpp"

namespace adaflow::ingest {
namespace {

BrownoutConfig ladder_config() {
  BrownoutConfig c;
  c.mode = BrownoutMode::kLadder;
  c.tier1_latency_s = 0.3;
  c.tier2_latency_s = 0.6;
  c.release_fraction = 0.5;
  c.min_dwell_s = 1.0;
  return c;
}

TEST(Brownout, ValidateRejectsBadConfig) {
  BrownoutConfig bad = ladder_config();
  bad.release_fraction = 1.0;  // no hysteresis gap
  EXPECT_THROW(BrownoutController{bad}, ConfigError);
  bad = ladder_config();
  bad.tier2_latency_s = bad.tier1_latency_s / 2.0;  // tiers out of order
  EXPECT_THROW(BrownoutController{bad}, ConfigError);
}

TEST(Brownout, OffModeNeverEngages) {
  BrownoutConfig config = ladder_config();
  config.mode = BrownoutMode::kOff;
  BrownoutController c(config);
  const auto d = c.update(1.0, 1.0, 10.0);  // both signals far past every line
  EXPECT_EQ(c.tier(), 0);
  EXPECT_FALSE(d.thin);
  EXPECT_FALSE(d.downgrade);
  EXPECT_FALSE(d.drop_all);
}

TEST(Brownout, Tier1EngagesImmediatelyOnEitherSignal) {
  {
    BrownoutController c(ladder_config());
    const auto d = c.update(0.1, 0.6, 0.0);  // fill crosses, latency clean
    EXPECT_EQ(c.tier(), 1);
    EXPECT_TRUE(d.thin);
    EXPECT_FALSE(d.downgrade);
    EXPECT_EQ(c.stats().tier1_engagements, 1);
  }
  {
    BrownoutController c(ladder_config());
    c.update(0.1, 0.0, 0.4);  // latency crosses, fill clean
    EXPECT_EQ(c.tier(), 1);
  }
}

TEST(Brownout, Tier2DowngradesAndLiftsThinning) {
  BrownoutController c(ladder_config());
  const auto d = c.update(0.1, 0.9, 0.0);  // straight past the tier-2 fill line
  EXPECT_EQ(c.tier(), 2);
  EXPECT_TRUE(d.downgrade);
  // Tier 2 buys capacity; thinning would discard frames the downgraded
  // fleet can serve, so the decision lifts it.
  EXPECT_FALSE(d.thin);
  EXPECT_EQ(c.stats().tier1_engagements, 1);  // the pass-through still counts
  EXPECT_EQ(c.stats().tier2_engagements, 1);
}

TEST(Brownout, ReleaseWaitsForTheDwell) {
  BrownoutController c(ladder_config());
  c.update(0.1, 0.6, 0.0);
  EXPECT_EQ(c.tier(), 1);
  c.update(0.5, 0.0, 0.0);  // signals fully clear, but only 0.4s since engage
  EXPECT_EQ(c.tier(), 1);
  c.update(1.2, 0.0, 0.0);  // dwell elapsed
  EXPECT_EQ(c.tier(), 0);
}

TEST(Brownout, ReleaseRequiresBothSignalsBelowTheHysteresisLine) {
  BrownoutController c(ladder_config());
  c.update(0.1, 0.6, 0.0);
  // Dwell elapsed, fill clear, but latency sits above 0.5 * 0.3 = 0.15.
  c.update(2.0, 0.0, 0.2);
  EXPECT_EQ(c.tier(), 1);
  // Mirror case: latency clear, fill above 0.5 * 0.5 = 0.25.
  c.update(3.0, 0.3, 0.0);
  EXPECT_EQ(c.tier(), 1);
  c.update(4.0, 0.1, 0.1);
  EXPECT_EQ(c.tier(), 0);
}

TEST(Brownout, ReleaseStepsDownOneTierAtATime) {
  BrownoutController c(ladder_config());
  c.update(0.1, 0.9, 0.0);
  EXPECT_EQ(c.tier(), 2);
  c.update(1.5, 0.0, 0.0);  // first release: 2 -> 1
  EXPECT_EQ(c.tier(), 1);
  c.update(1.8, 0.0, 0.0);  // the step down started a fresh dwell
  EXPECT_EQ(c.tier(), 1);
  c.update(2.6, 0.0, 0.0);  // second release: 1 -> 0
  EXPECT_EQ(c.tier(), 0);
}

TEST(Brownout, ReEngagementAfterReleaseCountsAgain) {
  BrownoutController c(ladder_config());
  c.update(0.1, 0.6, 0.0);
  c.update(1.2, 0.0, 0.0);
  EXPECT_EQ(c.tier(), 0);
  c.update(1.3, 0.6, 0.0);
  EXPECT_EQ(c.tier(), 1);
  EXPECT_EQ(c.stats().tier1_engagements, 2);
}

TEST(Brownout, DropAllModeShedsEverythingWhileEngaged) {
  BrownoutConfig config = ladder_config();
  config.mode = BrownoutMode::kDropAll;
  BrownoutController c(config);
  auto d = c.update(0.1, 0.6, 0.0);
  EXPECT_TRUE(d.drop_all);
  EXPECT_FALSE(d.thin);
  EXPECT_FALSE(d.downgrade);
  d = c.update(1.2, 0.0, 0.0);  // release after dwell
  EXPECT_FALSE(d.drop_all);
  EXPECT_NEAR(c.stats().time_shedding_s, 1.1, 1e-9);
}

TEST(Brownout, TimeAccountingSplitsTiers) {
  BrownoutController c(ladder_config());
  c.update(1.0, 0.6, 0.0);   // tier 1 from t=1
  c.update(3.0, 0.9, 0.0);   // 2s at tier 1, then tier 2 from t=3
  c.finalize(4.5);           // 1.5s at tier 2
  EXPECT_NEAR(c.stats().time_tier1_s, 2.0, 1e-9);
  EXPECT_NEAR(c.stats().time_tier2_s, 1.5, 1e-9);
}

}  // namespace
}  // namespace adaflow::ingest
