#include "adaflow/forecast/changepoint.hpp"

#include "adaflow/common/error.hpp"
#include "adaflow/common/rng.hpp"

#include <gtest/gtest.h>

#include <limits>

namespace adaflow::forecast {
namespace {

/// Feeds \p n noisy observations around \p level (multiplicative +-5%).
void feed_level(ChangepointDetector& d, double level, int n, Rng& rng) {
  for (int i = 0; i < n; ++i) {
    d.observe(level * (1.0 + rng.uniform(-0.05, 0.05)));
  }
}

TEST(Changepoint, ConfigValidation) {
  ChangepointConfig c;
  EXPECT_NO_THROW(c.validate());
  c.short_window = 0;
  EXPECT_THROW(c.validate(), ConfigError);
  c = ChangepointConfig{};
  c.long_window = c.short_window + 1;  // baseline would be a single sample
  EXPECT_THROW(c.validate(), ConfigError);
  c = ChangepointConfig{};
  c.burst_changepoints = 0;
  EXPECT_THROW(c.validate(), ConfigError);
}

TEST(Changepoint, StableBeforeAnyChangepoint) {
  ChangepointDetector d{ChangepointConfig{}};
  Rng rng(3);
  feed_level(d, 500.0, 50, rng);
  EXPECT_EQ(d.total_changepoints(), 0);
  EXPECT_FALSE(d.burst());
  EXPECT_EQ(d.stable_windows(), std::numeric_limits<std::int64_t>::max());
}

TEST(Changepoint, SingleStepFiresExactlyOnce) {
  // Noiseless level shift: one changepoint at the step, then silence — the
  // baseline restarts from the post-shift regime instead of re-firing on
  // every later observation.
  ChangepointDetector d{ChangepointConfig{}};
  for (int i = 0; i < 20; ++i) {
    d.observe(100.0 + (i % 2));  // tiny wiggle so the baseline std is nonzero
  }
  EXPECT_EQ(d.total_changepoints(), 0);
  for (int i = 0; i < 20; ++i) {
    d.observe(300.0 + (i % 2));
  }
  EXPECT_EQ(d.total_changepoints(), 1);
}

TEST(Changepoint, SeededStepTracesAlwaysDetected) {
  // Hit rate over seeded noisy step traces: a 3x jump against 5% noise must
  // be caught on every seed, within a few observations of the step.
  const ChangepointConfig config;
  for (std::uint64_t seed = 0; seed < 20; ++seed) {
    ChangepointDetector d{config};
    Rng rng(seed);
    feed_level(d, 100.0, 30, rng);
    const std::int64_t before = d.total_changepoints();
    int latency = -1;
    for (int i = 0; i < 30; ++i) {
      d.observe(300.0 * (1.0 + rng.uniform(-0.05, 0.05)));
      if (latency < 0 && d.total_changepoints() > before) {
        latency = i + 1;
      }
    }
    ASSERT_GE(latency, 1) << "step missed for seed " << seed;
    EXPECT_LE(latency, config.short_window + 2) << "slow detection for seed " << seed;
  }
}

TEST(Changepoint, NoFalseAlarmsOnSteadyNoise) {
  // 5% multiplicative noise can never move the short-window mean by the
  // required 20% of the baseline level, so a steady trace must stay silent
  // on every seed.
  for (std::uint64_t seed = 0; seed < 10; ++seed) {
    ChangepointDetector d{ChangepointConfig{}};
    Rng rng(seed);
    feed_level(d, 600.0, 300, rng);
    EXPECT_EQ(d.total_changepoints(), 0) << "false alarm for seed " << seed;
  }
}

TEST(Changepoint, DenseShiftsRaiseBurst) {
  ChangepointDetector d{ChangepointConfig{}};
  // Alternate between two well-separated levels every few observations:
  // changepoints arrive densely, so the burst flag must raise and the
  // stable-window count must stay small. Blocks are long enough (6 >
  // short_window + 2) for the detector to re-arm after each trigger's
  // window restart.
  double level = 100.0;
  for (int block = 0; block < 8; ++block) {
    for (int i = 0; i < 6; ++i) {
      d.observe(level + (i % 2));
    }
    level = level == 100.0 ? 300.0 : 100.0;
  }
  EXPECT_GE(d.total_changepoints(), 2);
  EXPECT_TRUE(d.burst());
  EXPECT_LT(d.stable_windows(), 12);
}

TEST(Changepoint, BurstClearsAfterQuietPeriod) {
  ChangepointConfig config;
  ChangepointDetector d{config};
  double level = 100.0;
  for (int block = 0; block < 8; ++block) {
    for (int i = 0; i < 4; ++i) {
      d.observe(level + (i % 2));
    }
    level = level == 100.0 ? 300.0 : 100.0;
  }
  ASSERT_TRUE(d.burst());
  // A quiet stretch longer than the burst window expires every recorded
  // changepoint.
  for (int i = 0; i < ChangepointDetector::kBurstWindow + 5; ++i) {
    d.observe(level + (i % 2));
  }
  EXPECT_FALSE(d.burst());
  EXPECT_GE(d.stable_windows(), ChangepointDetector::kBurstWindow);
}

TEST(Changepoint, ResetClearsState) {
  ChangepointDetector d{ChangepointConfig{}};
  for (int i = 0; i < 20; ++i) {
    d.observe(100.0 + (i % 2));
  }
  for (int i = 0; i < 10; ++i) {
    d.observe(400.0 + (i % 2));
  }
  ASSERT_GE(d.total_changepoints(), 1);
  d.reset();
  EXPECT_EQ(d.observations(), 0);
  EXPECT_EQ(d.total_changepoints(), 0);
  EXPECT_FALSE(d.burst());
  EXPECT_EQ(d.stable_windows(), std::numeric_limits<std::int64_t>::max());
}

TEST(Changepoint, DeterministicReplay) {
  ChangepointDetector a{ChangepointConfig{}};
  ChangepointDetector b{ChangepointConfig{}};
  Rng ra(11);
  Rng rb(11);
  for (int i = 0; i < 200; ++i) {
    const double level = (i / 40) % 2 == 0 ? 200.0 : 700.0;
    a.observe(level * (1.0 + ra.uniform(-0.1, 0.1)));
    b.observe(level * (1.0 + rb.uniform(-0.1, 0.1)));
    EXPECT_EQ(a.changepoint(), b.changepoint());
    EXPECT_EQ(a.burst(), b.burst());
  }
  EXPECT_EQ(a.total_changepoints(), b.total_changepoints());
}

}  // namespace
}  // namespace adaflow::forecast
