#pragma once

/// \file tracker.hpp
/// Forecast bookkeeping shared by every proactive consumer: feeds one
/// forecaster plus one changepoint detector from the per-window arrival-rate
/// stream, scores each horizon-ahead forecast once its target window
/// actually arrives, and keeps aligned actual/forecast time series for CSV
/// export.
///
/// Alignment contract: `forecast_series().values[i]` is the prediction that
/// was issued `horizon_windows` windows before `actual_series().values[i]`
/// closed. During the first `horizon_windows` windows no such prediction
/// exists yet, so the forecast series is padded with the actuals (zero error
/// by construction, and those windows are NOT scored in stats()).

#include <deque>

#include "adaflow/forecast/changepoint.hpp"
#include "adaflow/forecast/forecaster.hpp"
#include "adaflow/sim/stats.hpp"

namespace adaflow::forecast {

struct ForecastTrackerConfig {
  ForecasterConfig forecaster;
  /// How many monitor windows ahead the tracked forecast looks.
  int horizon_windows = 3;
  /// Monitor-window length; only used to stamp the exported time series.
  double window_s = 0.5;

  /// Throws ConfigError naming the offending field.
  void validate() const;
};

class ForecastTracker {
 public:
  explicit ForecastTracker(ForecastTrackerConfig config = {});

  /// Absorbs the arrival rate of the window that just closed: scores the
  /// forecast that targeted this window (if one is due), updates the
  /// forecaster and changepoint detector, and issues the next
  /// horizon-ahead forecast.
  void observe(double rate);

  /// The latest horizon-ahead forecast (all-zero before any observation).
  const Forecast& current() const { return current_; }

  bool changepoint() const { return detector_.changepoint(); }
  bool burst() const { return detector_.burst(); }
  std::int64_t stable_windows() const { return detector_.stable_windows(); }

  const Forecaster& forecaster() const { return *forecaster_; }
  const sim::ForecastStats& stats() const { return stats_; }
  const sim::TimeSeries& actual_series() const { return actual_series_; }
  const sim::TimeSeries& forecast_series() const { return forecast_series_; }

  void reset();

 private:
  ForecastTrackerConfig config_;
  std::unique_ptr<Forecaster> forecaster_;
  ChangepointDetector detector_;
  std::deque<Forecast> pending_;  ///< oldest front; size <= horizon_windows
  Forecast current_;
  sim::ForecastStats stats_;
  sim::TimeSeries actual_series_;
  sim::TimeSeries forecast_series_;
};

}  // namespace adaflow::forecast
