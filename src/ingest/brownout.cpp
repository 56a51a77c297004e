#include "adaflow/ingest/brownout.hpp"

#include <cmath>

#include "adaflow/common/error.hpp"

namespace adaflow::ingest {

namespace {

/// Queue-fill fraction that engages thinning (tier 1).
constexpr double kTier1Fill = 0.5;
/// Queue-fill fraction that additionally engages downgrade (tier 2).
constexpr double kTier2Fill = 0.85;

}  // namespace

void BrownoutConfig::validate() const {
  require(std::isfinite(tier1_latency_s) && tier1_latency_s > 0.0,
          "brownout config: tier1_latency_s must be positive");
  require(std::isfinite(tier2_latency_s) && tier2_latency_s >= tier1_latency_s,
          "brownout config: tier2_latency_s must be >= tier1_latency_s");
  require(std::isfinite(release_fraction) && release_fraction > 0.0 && release_fraction < 1.0,
          "brownout config: release_fraction must be in (0, 1)");
  require(std::isfinite(min_dwell_s) && min_dwell_s >= 0.0,
          "brownout config: min_dwell_s must be >= 0");
  require(downgrade_steps >= 1, "brownout config: downgrade_steps must be >= 1");
}

BrownoutController::BrownoutController(const BrownoutConfig& config) : config_(config) {
  config_.validate();
}

int BrownoutController::desired_tier(double fill, double latency_s) const {
  switch (config_.mode) {
    case BrownoutMode::kOff:
      return 0;
    case BrownoutMode::kDropAll:
      // Binary admission control on the tier-1 thresholds.
      return (fill >= kTier1Fill || latency_s >= config_.tier1_latency_s) ? 1 : 0;
    case BrownoutMode::kLadder:
      break;
  }
  int tier = 0;
  if (fill >= kTier1Fill || latency_s >= config_.tier1_latency_s) {
    tier = 1;
  }
  if (fill >= kTier2Fill || latency_s >= config_.tier2_latency_s) {
    tier = 2;
  }
  return tier;
}

bool BrownoutController::below_release(double fill, double latency_s, int tier) const {
  double fill_engage = kTier1Fill;
  double latency_engage = config_.tier1_latency_s;
  if (config_.mode == BrownoutMode::kLadder && tier >= 2) {
    fill_engage = kTier2Fill;
    latency_engage = config_.tier2_latency_s;
  }
  // BOTH signals must clear the release line; releasing on one while the
  // other still burns would re-engage a tick later (flapping).
  return fill < config_.release_fraction * fill_engage &&
         latency_s < config_.release_fraction * latency_engage;
}

void BrownoutController::account_time(double now_s) {
  const double slice = now_s - last_update_s_;
  if (slice > 0.0 && tier_ > 0) {
    if (config_.mode == BrownoutMode::kDropAll) {
      stats_.time_shedding_s += slice;
    } else if (tier_ == 1) {
      stats_.time_tier1_s += slice;
    } else {
      stats_.time_tier2_s += slice;
    }
  }
  last_update_s_ = now_s;
}

BrownoutController::Decision BrownoutController::update(double now_s, double fill_fraction,
                                                        double e2e_p99_s) {
  account_time(now_s);
  const int desired = desired_tier(fill_fraction, e2e_p99_s);
  if (desired > tier_) {
    // Engaging is immediate — overload protection must not wait out a dwell.
    if (tier_ < 1 && desired >= 1) {
      ++stats_.tier1_engagements;
    }
    if (tier_ < 2 && desired >= 2) {
      ++stats_.tier2_engagements;
    }
    tier_ = desired;
    last_change_s_ = now_s;
  } else if (desired < tier_ && now_s - last_change_s_ >= config_.min_dwell_s &&
             below_release(fill_fraction, e2e_p99_s, tier_)) {
    // Releasing steps down one tier at a time, each step earning its own
    // dwell — recovery is deliberately slower than engagement.
    --tier_;
    last_change_s_ = now_s;
  }
  return decision();
}

BrownoutController::Decision BrownoutController::decision() const {
  Decision d;
  switch (config_.mode) {
    case BrownoutMode::kOff:
      break;
    case BrownoutMode::kDropAll:
      d.drop_all = tier_ >= 1;
      break;
    case BrownoutMode::kLadder:
      // The two tiers trade different currencies: tier 1 sacrifices temporal
      // resolution (instant, free), tier 2 sacrifices model accuracy to buy
      // real capacity (slower, costs a reconfiguration). Once the fleet runs
      // the fast variant it has the headroom to serve every frame, so
      // thinning is lifted — keeping it would throw away frames the
      // downgraded fleet could deliver.
      d.thin = tier_ == 1;
      d.downgrade = tier_ >= 2;
      break;
  }
  return d;
}

void BrownoutController::finalize(double t_end_s) { account_time(t_end_s); }

}  // namespace adaflow::ingest
