#include "adaflow/forecast/tracker.hpp"

#include <algorithm>
#include <cmath>

namespace adaflow::forecast {

void ForecastTrackerConfig::validate() const {
  forecaster.validate();
  require(horizon_windows >= 1,
          "tracker horizon_windows must be >= 1, got " + std::to_string(horizon_windows));
  require(std::isfinite(window_s) && window_s > 0.0,
          "tracker window_s must be > 0, got " + std::to_string(window_s));
}

ForecastTracker::ForecastTracker(ForecastTrackerConfig config)
    : config_(config), forecaster_(make_forecaster(config.forecaster)) {
  config_.validate();
  actual_series_.interval_s = config_.window_s;
  forecast_series_.interval_s = config_.window_s;
}

void ForecastTracker::observe(double rate) {
  // The forecast issued `horizon_windows` observations ago targeted exactly
  // this window; score it now that the truth is in.
  if (pending_.size() == static_cast<std::size_t>(config_.horizon_windows)) {
    const Forecast due = pending_.front();
    pending_.pop_front();
    ++stats_.forecasts;
    stats_.abs_pct_error_sum += std::fabs(rate - due.rate) / std::max(rate, 1.0);
    if (rate >= due.lower && rate <= due.upper) {
      ++stats_.interval_hits;
    }
    forecast_series_.values.push_back(due.rate);
  } else {
    // Warm-up: no forecast targeted this window yet; pad with the actual so
    // the two exported series stay index-aligned.
    forecast_series_.values.push_back(rate);
  }
  actual_series_.values.push_back(rate);

  forecaster_->observe(rate);
  detector_.observe(rate);
  if (detector_.changepoint()) {
    ++stats_.changepoints;
  }
  if (detector_.burst()) {
    ++stats_.burst_windows;
  }

  current_ = forecaster_->forecast(config_.horizon_windows);
  pending_.push_back(current_);
}

void ForecastTracker::reset() {
  forecaster_->reset();
  detector_.reset();
  pending_.clear();
  current_ = Forecast{};
  stats_ = sim::ForecastStats{};
  actual_series_.values.clear();
  forecast_series_.values.clear();
}

}  // namespace adaflow::forecast
