#include "adaflow/forecast/tracker.hpp"

#include "adaflow/common/error.hpp"

#include <gtest/gtest.h>

#include <cmath>
#include <vector>

namespace adaflow::forecast {
namespace {

ForecastTrackerConfig naive_config(int horizon) {
  ForecastTrackerConfig c;
  c.forecaster = ForecasterKind::kNaive;
  c.horizon_windows = horizon;
  return c;
}

TEST(Tracker, ConfigValidation) {
  ForecastTrackerConfig c;
  EXPECT_NO_THROW(c.validate());
  c.horizon_windows = 0;
  EXPECT_THROW(c.validate(), ConfigError);
  c = ForecastTrackerConfig{};
  c.window_s = 0.0;
  EXPECT_THROW(ForecastTracker{c}, ConfigError);
}

TEST(Tracker, SeriesAlignmentContract) {
  // With the naive forecaster and horizon 2, the prediction scored against
  // actual[i] is the value observed at i-2 — and the first two entries of
  // the forecast series are warm-up pads equal to the actuals.
  const int horizon = 2;
  ForecastTracker tracker(naive_config(horizon));
  const std::vector<double> rates = {100.0, 150.0, 200.0, 250.0, 300.0, 350.0};
  for (double r : rates) {
    tracker.observe(r);
  }
  const auto& actual = tracker.actual_series().values;
  const auto& predicted = tracker.forecast_series().values;
  ASSERT_EQ(actual.size(), rates.size());
  ASSERT_EQ(predicted.size(), rates.size());
  for (std::size_t i = 0; i < rates.size(); ++i) {
    EXPECT_DOUBLE_EQ(actual[i], rates[i]);
    const double expected =
        i < static_cast<std::size_t>(horizon) ? rates[i] : rates[i - horizon];
    EXPECT_DOUBLE_EQ(predicted[i], expected) << "index " << i;
  }
  // Warm-up windows are not scored: 6 observations, horizon 2 -> 4 scored.
  EXPECT_EQ(tracker.stats().forecasts, 4);
}

TEST(Tracker, ConstantSequenceHasZeroError) {
  ForecastTracker tracker(naive_config(3));
  for (int i = 0; i < 30; ++i) {
    tracker.observe(400.0);
  }
  EXPECT_EQ(tracker.stats().forecasts, 27);
  EXPECT_DOUBLE_EQ(tracker.stats().mape(), 0.0);
  EXPECT_DOUBLE_EQ(tracker.stats().coverage(), 1.0);
}

TEST(Tracker, KnownMapeSingleForecast) {
  // Naive, horizon 1: the forecast issued after 100 scores against 110 with
  // APE |110-100| / 110.
  ForecastTracker tracker(naive_config(1));
  tracker.observe(100.0);
  tracker.observe(110.0);
  ASSERT_EQ(tracker.stats().forecasts, 1);
  EXPECT_DOUBLE_EQ(tracker.stats().mape(), 10.0 / 110.0);
}

TEST(Tracker, MapeDenominatorFloorsAtOne) {
  // A zero-rate window must not divide by zero.
  ForecastTracker tracker(naive_config(1));
  tracker.observe(5.0);
  tracker.observe(0.0);
  ASSERT_EQ(tracker.stats().forecasts, 1);
  EXPECT_DOUBLE_EQ(tracker.stats().mape(), 5.0);  // |0 - 5| / max(0, 1)
}

TEST(Tracker, CurrentForecastMatchesForecaster) {
  ForecastTrackerConfig c;
  c.forecaster = ForecasterKind::kHoltWinters;
  c.horizon_windows = 3;
  ForecastTracker tracker(c);
  for (int i = 1; i <= 10; ++i) {
    tracker.observe(100.0 * i);
  }
  const Forecast direct = tracker.forecaster().forecast(3);
  EXPECT_DOUBLE_EQ(tracker.current().rate, direct.rate);
  EXPECT_DOUBLE_EQ(tracker.current().upper, direct.upper);
}

TEST(Tracker, CountsChangepointsAndBursts) {
  ForecastTracker tracker(naive_config(1));
  double level = 100.0;
  for (int block = 0; block < 8; ++block) {
    for (int i = 0; i < 4; ++i) {
      tracker.observe(level + (i % 2));
    }
    level = level == 100.0 ? 300.0 : 100.0;
  }
  EXPECT_GE(tracker.stats().changepoints, 2);
  EXPECT_GE(tracker.stats().burst_windows, 1);
  EXPECT_TRUE(tracker.burst());
}

TEST(Tracker, DeterministicReplay) {
  ForecastTracker a{ForecastTrackerConfig{}};
  ForecastTracker b{ForecastTrackerConfig{}};
  for (int i = 0; i < 200; ++i) {
    const double rate = 500.0 + 300.0 * std::sin(0.17 * i) + (i % 5) * 13.0;
    a.observe(rate);
    b.observe(rate);
  }
  EXPECT_EQ(a.stats().forecasts, b.stats().forecasts);
  EXPECT_DOUBLE_EQ(a.stats().abs_pct_error_sum, b.stats().abs_pct_error_sum);
  EXPECT_EQ(a.stats().interval_hits, b.stats().interval_hits);
  EXPECT_EQ(a.stats().changepoints, b.stats().changepoints);
  ASSERT_EQ(a.forecast_series().values.size(), b.forecast_series().values.size());
  for (std::size_t i = 0; i < a.forecast_series().values.size(); ++i) {
    EXPECT_DOUBLE_EQ(a.forecast_series().values[i], b.forecast_series().values[i]);
  }
}

TEST(Tracker, ResetClearsEverything) {
  ForecastTracker tracker{ForecastTrackerConfig{}};
  for (int i = 0; i < 20; ++i) {
    tracker.observe(100.0 + 10.0 * i);
  }
  ASSERT_GT(tracker.stats().forecasts, 0);
  tracker.reset();
  EXPECT_EQ(tracker.stats().forecasts, 0);
  EXPECT_DOUBLE_EQ(tracker.stats().abs_pct_error_sum, 0.0);
  EXPECT_TRUE(tracker.actual_series().values.empty());
  EXPECT_TRUE(tracker.forecast_series().values.empty());
  EXPECT_DOUBLE_EQ(tracker.current().rate, 0.0);
  EXPECT_EQ(tracker.forecaster().observations(), 0);
}

}  // namespace
}  // namespace adaflow::forecast
