#include "adaflow/ingest/network.hpp"

#include <cmath>

#include "adaflow/common/error.hpp"
#include "adaflow/faults/fault_injector.hpp"

namespace adaflow::ingest {

namespace {

/// Loss probability while the link is in its bad (burst) state.
constexpr double kBurstLossP = 0.5;
/// Per-frame recovery probability out of the bad state.
constexpr double kPBadToGood = 0.2;
/// Extra delay of a duplicated copy over the original's base delay.
constexpr double kDuplicateExtraDelayS = 0.03;

void require_probability(double p, const char* what) {
  require(std::isfinite(p) && p >= 0.0 && p <= 1.0,
          std::string("network config: ") + what + " must be in [0, 1]");
}

}  // namespace

NetworkLink::NetworkLink(sim::EventQueue& queue, const NetworkConfig& config, std::uint64_t seed,
                         faults::FaultInjector* injector)
    : queue_(queue), config_(config), rng_(seed), injector_(injector) {
  require(std::isfinite(config_.base_delay_s) && config_.base_delay_s >= 0.0,
          "network config: base_delay_s must be >= 0");
  require(std::isfinite(config_.jitter_s) && config_.jitter_s >= 0.0,
          "network config: jitter_s must be >= 0");
  require_probability(config_.loss_p, "loss_p");
  require_probability(config_.p_good_to_bad, "p_good_to_bad");
  require_probability(config_.duplicate_p, "duplicate_p");
}

void NetworkLink::transmit(std::int64_t seq, double capture_s) {
  ++stats_.transmitted;
  // Fixed draw order per frame — state transition, loss, jitter, duplicate —
  // so the link's stream is a pure function of (config, seed, frame count).
  if (bad_state_) {
    if (rng_.bernoulli(kPBadToGood)) {
      bad_state_ = false;
    }
  } else if (config_.p_good_to_bad > 0.0 && rng_.bernoulli(config_.p_good_to_bad)) {
    bad_state_ = true;
  }
  if (injector_ != nullptr && injector_->network_drop(queue_.now())) {
    ++stats_.lost_outage;
    return;
  }
  const double loss_p = bad_state_ ? kBurstLossP : config_.loss_p;
  if (loss_p > 0.0 && rng_.bernoulli(loss_p)) {
    if (bad_state_) {
      ++stats_.lost_burst;
    } else {
      ++stats_.lost_iid;
    }
    return;
  }
  const double jitter = config_.jitter_s > 0.0 ? rng_.uniform(0.0, config_.jitter_s) : 0.0;
  deliver(seq, capture_s, config_.base_delay_s + jitter);
  if (config_.duplicate_p > 0.0 && rng_.bernoulli(config_.duplicate_p)) {
    ++stats_.duplicates;
    const double extra = config_.jitter_s > 0.0 ? rng_.uniform(0.0, config_.jitter_s) : 0.0;
    deliver(seq, capture_s, config_.base_delay_s + kDuplicateExtraDelayS + extra);
  }
}

void NetworkLink::deliver(std::int64_t seq, double capture_s, double delay_s) {
  queue_.schedule_in(delay_s, [this, seq, capture_s] {
    ++stats_.delivered;
    if (on_deliver_) {
      on_deliver_(seq, capture_s);
    }
  });
}

}  // namespace adaflow::ingest
