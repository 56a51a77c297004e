#include "adaflow/forecast/forecaster.hpp"

#include <algorithm>
#include <cmath>

namespace adaflow::forecast {

const char* forecaster_kind_name(ForecasterKind kind) {
  switch (kind) {
    case ForecasterKind::kNaive:
      return "naive";
    case ForecasterKind::kEwma:
      return "ewma";
    case ForecasterKind::kHoltWinters:
      return "holt-winters";
  }
  return "?";
}

ForecasterKind forecaster_kind_from_name(const std::string& name) {
  if (name == "naive") {
    return ForecasterKind::kNaive;
  }
  if (name == "ewma") {
    return ForecasterKind::kEwma;
  }
  if (name == "holt-winters" || name == "holt") {
    return ForecasterKind::kHoltWinters;
  }
  throw NotFoundError("unknown forecaster '" + name + "' (naive, ewma, holt-winters)");
}

namespace {

/// Level smoothing weight (ewma, holt-winters).
constexpr double kAlpha = 0.35;
/// Trend smoothing weight (holt-winters only).
constexpr double kBeta = 0.15;
/// Smoothing weight of the one-step absolute-error EWMA that sizes the
/// prediction interval.
constexpr double kErrorAlpha = 0.3;
/// Half-width of the prediction interval in mean-absolute-error units
/// (2.5 x MAE approximates a ~95% interval for near-normal errors).
constexpr double kIntervalFactor = 2.5;

/// Shared error-EWMA + interval construction: every model tracks its own
/// one-step absolute error the same way, so intervals are comparable across
/// models.
class ErrorTrackedForecaster : public Forecaster {
 public:
  std::int64_t observations() const override { return count_; }

 protected:
  /// One-step-ahead point forecast of the CURRENT state (before absorbing
  /// the next observation); used to score the error EWMA.
  virtual double one_step_point() const = 0;

  void track_error(double rate) {
    if (count_ > 0) {
      const double err = std::fabs(rate - one_step_point());
      mae_ = count_ == 1 ? err : kErrorAlpha * err + (1.0 - kErrorAlpha) * mae_;
    }
    ++count_;
  }

  Forecast with_interval(double point, int horizon_windows) const {
    require(horizon_windows >= 1, "forecast horizon must be >= 1 window");
    Forecast f;
    f.rate = std::max(0.0, point);
    const double half =
        kIntervalFactor * mae_ * std::sqrt(static_cast<double>(horizon_windows));
    f.lower = std::max(0.0, f.rate - half);
    f.upper = f.rate + half;
    return f;
  }

  void reset_error() {
    mae_ = 0.0;
    count_ = 0;
  }

  double mae_ = 0.0;  ///< EWMA of the one-step absolute error
  std::int64_t count_ = 0;
};

class NaiveForecaster final : public ErrorTrackedForecaster {
 public:
  const char* name() const override { return "naive"; }

  void observe(double rate) override {
    track_error(rate);
    last_ = rate;
  }

  Forecast forecast(int horizon_windows) const override {
    return with_interval(count_ > 0 ? last_ : 0.0, horizon_windows);
  }

  void reset() override {
    reset_error();
    last_ = 0.0;
  }

 private:
  double one_step_point() const override { return last_; }
  double last_ = 0.0;
};

class EwmaForecaster final : public ErrorTrackedForecaster {
 public:
  const char* name() const override { return "ewma"; }

  void observe(double rate) override {
    track_error(rate);
    level_ = count_ == 1 ? rate : kAlpha * rate + (1.0 - kAlpha) * level_;
  }

  Forecast forecast(int horizon_windows) const override {
    return with_interval(count_ > 0 ? level_ : 0.0, horizon_windows);
  }

  void reset() override {
    reset_error();
    level_ = 0.0;
  }

 private:
  double one_step_point() const override { return level_; }
  double level_ = 0.0;
};

class HoltWintersForecaster final : public ErrorTrackedForecaster {
 public:
  const char* name() const override { return "holt-winters"; }

  void observe(double rate) override {
    track_error(rate);
    if (count_ == 1) {
      level_ = rate;
      trend_ = 0.0;
      return;
    }
    const double prev_level = level_;
    level_ = kAlpha * rate + (1.0 - kAlpha) * (prev_level + trend_);
    trend_ = kBeta * (level_ - prev_level) + (1.0 - kBeta) * trend_;
  }

  Forecast forecast(int horizon_windows) const override {
    const double point =
        count_ > 0 ? level_ + static_cast<double>(horizon_windows) * trend_ : 0.0;
    return with_interval(point, horizon_windows);
  }

  void reset() override {
    reset_error();
    level_ = 0.0;
    trend_ = 0.0;
  }

 private:
  double one_step_point() const override { return level_ + trend_; }
  double level_ = 0.0;
  double trend_ = 0.0;
};

}  // namespace

std::unique_ptr<Forecaster> make_forecaster(ForecasterKind kind) {
  switch (kind) {
    case ForecasterKind::kNaive:
      return std::make_unique<NaiveForecaster>();
    case ForecasterKind::kEwma:
      return std::make_unique<EwmaForecaster>();
    case ForecasterKind::kHoltWinters:
      return std::make_unique<HoltWintersForecaster>();
  }
  throw ConfigError("unhandled ForecasterKind");
}

}  // namespace adaflow::forecast
