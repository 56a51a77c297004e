#include "adaflow/forecast/changepoint.hpp"

#include <cmath>
#include <limits>

namespace adaflow::forecast {

namespace {

/// A changepoint needs the recent mean to leave the baseline by this many
/// baseline stddevs...
constexpr double kThresholdSigmas = 3.0;
/// ...AND by this fraction of the baseline mean.
constexpr double kMinRelativeJump = 0.2;

}  // namespace

void ChangepointDetector::observe(double rate) {
  ++observations_;
  last_was_changepoint_ = false;
  window_.push_back(rate);
  if (window_.size() > static_cast<std::size_t>(kLongWindow)) {
    window_.pop_front();
  }
  // Expire changepoints that left the burst window.
  while (!change_obs_.empty() && change_obs_.front() <= observations_ - kBurstWindow) {
    change_obs_.pop_front();
  }

  const std::size_t recent = static_cast<std::size_t>(kShortWindow);
  if (window_.size() < recent + 2) {
    return;  // baseline too small to test against
  }
  const std::size_t base_n = window_.size() - recent;
  double base_mean = 0.0;
  for (std::size_t i = 0; i < base_n; ++i) {
    base_mean += window_[i];
  }
  base_mean /= static_cast<double>(base_n);
  double base_var = 0.0;
  for (std::size_t i = 0; i < base_n; ++i) {
    const double d = window_[i] - base_mean;
    base_var += d * d;
  }
  base_var /= static_cast<double>(base_n - 1);
  const double base_std = std::sqrt(base_var);

  double recent_mean = 0.0;
  for (std::size_t i = base_n; i < window_.size(); ++i) {
    recent_mean += window_[i];
  }
  recent_mean /= static_cast<double>(recent);

  const double diff = std::fabs(recent_mean - base_mean);
  const bool sigma_hit = diff >= kThresholdSigmas * base_std;
  const bool jump_hit = diff >= kMinRelativeJump * std::fabs(base_mean);
  if (sigma_hit && jump_hit) {
    last_was_changepoint_ = true;
    ++total_changepoints_;
    change_obs_.push_back(observations_);
    // Restart the window from scratch: the short window that tripped the
    // test straddles both regimes, so keeping any of it would re-fire on the
    // next few observations and make a single level shift look like a burst.
    window_.clear();
  }
}

bool ChangepointDetector::burst() const {
  return static_cast<int>(change_obs_.size()) >= kBurstChangepoints;
}

std::int64_t ChangepointDetector::stable_windows() const {
  if (total_changepoints_ == 0) {
    return std::numeric_limits<std::int64_t>::max();
  }
  // change_obs_ may have expired; track via the last recorded index if
  // present, else fall back to "longer than the burst window".
  if (!change_obs_.empty()) {
    return observations_ - change_obs_.back();
  }
  return kBurstWindow;
}

void ChangepointDetector::reset() {
  window_.clear();
  change_obs_.clear();
  observations_ = 0;
  total_changepoints_ = 0;
  last_was_changepoint_ = false;
}

}  // namespace adaflow::forecast
