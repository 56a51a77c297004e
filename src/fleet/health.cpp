#include "adaflow/fleet/health.hpp"

#include <cmath>
#include <string>

#include "adaflow/common/error.hpp"

namespace adaflow::fleet {

namespace {

/// Completion rate below (mode FPS / this factor) while continuously busy
/// marks the device suspect — the degraded-service detector. A factor of 3
/// tolerates scheduling noise but catches strong latency multipliers.
constexpr double kDegradeRateFactor = 3.0;
/// Window over which the completion rate is measured.
constexpr double kRateWindowS = 2.0;

}  // namespace

const char* health_state_name(HealthState state) {
  switch (state) {
    case HealthState::kHealthy:
      return "healthy";
    case HealthState::kSuspect:
      return "suspect";
    case HealthState::kQuarantined:
      return "quarantined";
    case HealthState::kProbing:
      return "probing";
  }
  return "unknown";
}

void HealthConfig::validate() const {
  auto positive = [](double v, const char* field) {
    if (!(std::isfinite(v) && v > 0.0)) {
      throw ConfigError(std::string("HealthConfig.") + field + " must be positive");
    }
  };
  positive(tick_interval_s, "tick_interval_s");
  positive(suspect_timeout_s, "suspect_timeout_s");
  positive(quarantine_timeout_s, "quarantine_timeout_s");
  positive(probe_interval_s, "probe_interval_s");
  positive(probe_timeout_s, "probe_timeout_s");
  if (rejoin_probes < 1) {
    throw ConfigError("HealthConfig.rejoin_probes must be >= 1");
  }
  if (!(std::isfinite(hedge_budget_s) && hedge_budget_s >= 0.0)) {
    throw ConfigError("HealthConfig.hedge_budget_s must be >= 0 (0 disables hedging)");
  }
}

HealthMonitor::HealthMonitor(const HealthConfig& config, std::size_t device_count)
    : config_(config) {
  config_.validate();
  devices_.resize(device_count);
}

/// Degrade detector: over a full rate window of continuously-busy ticks, the
/// completion rate should track the advertised mode FPS. Far below it (and
/// not explained by a switch or drain) the device is serving sick.
bool HealthMonitor::rate_too_slow(DeviceHealth& d, double now, const Observation& obs) {
  if (!obs.has_work || obs.in_maintenance || obs.nominal_fps <= 0.0) {
    d.rate_history.clear();
    return false;
  }
  d.rate_history.emplace_back(now, obs.processed);
  while (d.rate_history.size() > 1 && d.rate_history.front().first < now - kRateWindowS) {
    d.rate_history.pop_front();
  }
  const double span = now - d.rate_history.front().first;
  if (span < kRateWindowS * 0.5) {
    return false;  // not enough busy history to judge
  }
  const double rate =
      static_cast<double>(obs.processed - d.rate_history.front().second) / span;
  return rate < obs.nominal_fps / kDegradeRateFactor;
}

HealthAction HealthMonitor::observe(std::size_t i, double now, const Observation& obs) {
  require(i < devices_.size(), "HealthMonitor::observe: device index out of range");
  DeviceHealth& d = devices_[i];
  HealthAction action;
  const bool progressed = obs.processed > d.last_processed;
  d.last_processed = obs.processed;

  switch (d.state) {
    case HealthState::kHealthy:
    case HealthState::kSuspect: {
      // Progress, an empty plate, or expected maintenance downtime all reset
      // the stall clock — only "work waiting, nothing completing" counts.
      if (progressed || !obs.has_work || obs.in_maintenance) {
        d.last_progress_s = now;
      }
      const bool stalled = now - d.last_progress_s >= config_.suspect_timeout_s;
      const bool slow = rate_too_slow(d, now, obs);
      if (d.state == HealthState::kHealthy) {
        if (stalled || slow) {
          d.state = HealthState::kSuspect;
          d.suspect_since_s = now;
        }
      } else {
        if (!stalled && !slow) {
          d.state = HealthState::kHealthy;  // recovered on its own
        } else if (now - d.suspect_since_s >= config_.quarantine_timeout_s) {
          d.state = HealthState::kQuarantined;
          ++d.quarantines;
          d.last_probe_s = now;  // first probe waits a full probe interval
          d.probe_successes = 0;
          d.rate_history.clear();
          action.quarantine = true;
        }
      }
      break;
    }
    case HealthState::kQuarantined:
      if (now - d.last_probe_s >= config_.probe_interval_s) {
        d.state = HealthState::kProbing;
        d.probe_in_flight = false;
        action.want_probe = true;
      }
      break;
    case HealthState::kProbing:
      if (!d.probe_in_flight) {
        // Asked for a probe but the dispatcher had no frame to spare yet; a
        // zero-traffic fleet must not fail probes it never sent.
        action.want_probe = true;
      } else if (obs.processed > d.probe_baseline) {
        // The probe came back: one vote for recovery.
        d.probe_in_flight = false;
        ++d.probe_successes;
        if (d.probe_successes >= config_.rejoin_probes) {
          d.state = HealthState::kHealthy;
          ++d.rejoins;
          d.last_progress_s = now;
          d.rate_history.clear();
          action.rejoin = true;
        } else {
          action.want_probe = true;  // keep the half-open trickle going
        }
      } else if (now - d.probe_sent_s >= config_.probe_timeout_s) {
        // Probe swallowed: still sick. Back to quarantine, try again later;
        // the dispatcher reclaims the frame the probe left behind.
        d.probe_in_flight = false;
        d.probe_successes = 0;
        d.state = HealthState::kQuarantined;
        d.last_probe_s = now;
        action.probe_failed = true;
      }
      break;
  }
  return action;
}

bool HealthMonitor::force_quarantine(std::size_t i, double now) {
  require(i < devices_.size(), "HealthMonitor::force_quarantine: device index out of range");
  DeviceHealth& d = devices_[i];
  if (d.state == HealthState::kQuarantined || d.state == HealthState::kProbing) {
    return false;  // already out of rotation; nothing to drain
  }
  d.state = HealthState::kQuarantined;
  ++d.quarantines;
  d.last_probe_s = now;  // first probe waits a full probe interval
  d.probe_successes = 0;
  d.probe_in_flight = false;
  d.rate_history.clear();
  return true;
}

void HealthMonitor::on_probe_dispatched(std::size_t i, double now,
                                        std::int64_t processed_at_dispatch) {
  require(i < devices_.size(), "HealthMonitor::on_probe_dispatched: device index out of range");
  DeviceHealth& d = devices_[i];
  require(d.state == HealthState::kProbing,
          "on_probe_dispatched on a device that is not probing");
  d.probe_in_flight = true;
  d.probe_sent_s = now;
  d.probe_baseline = processed_at_dispatch;
}

}  // namespace adaflow::fleet
