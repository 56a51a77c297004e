#include "adaflow/ingest/session.hpp"

#include <algorithm>
#include <cmath>

#include "adaflow/common/error.hpp"

namespace adaflow::ingest {

namespace {

/// Handshake time per (re)connect.
constexpr double kConnectDelayS = 0.2;
/// First reconnect retry delay, doubled per failed attempt up to the cap.
constexpr double kReconnectBackoffS = 0.5;
constexpr double kReconnectBackoffMaxS = 8.0;

}  // namespace

const char* session_state_name(SessionState state) {
  switch (state) {
    case SessionState::kConnecting:
      return "connecting";
    case SessionState::kActive:
      return "active";
    case SessionState::kBackoff:
      return "backoff";
  }
  return "unknown";
}

CameraSession::CameraSession(sim::EventQueue& queue, const CameraSessionConfig& config,
                             std::uint64_t seed, double horizon_s, std::string name)
    : queue_(queue), config_(config), rng_(seed), horizon_s_(horizon_s),
      name_(std::move(name)) {
  require(std::isfinite(config_.fps) && config_.fps > 0.0,
          "camera session '" + name_ + "': fps must be positive");
  require(std::isfinite(config_.mean_uptime_s),
          "camera session '" + name_ + "': mean_uptime_s must be finite");
  require(config_.reconnect_success_p > 0.0 && config_.reconnect_success_p <= 1.0,
          "camera session '" + name_ + "': reconnect_success_p must be in (0, 1]");
  require(horizon_s_ > 0.0, "camera session '" + name_ + "': horizon_s must be positive");
}

void CameraSession::start() { begin_connect(); }

void CameraSession::begin_connect() {
  state_ = SessionState::kConnecting;
  const double when = queue_.now() + kConnectDelayS;
  if (when <= horizon_s_) {
    queue_.schedule_at(when, [this] { on_connected(); });
  }
}

void CameraSession::on_connected() {
  state_ = SessionState::kActive;
  ++stats_.connects;
  backoff_attempt_ = 0;
  const std::uint64_t epoch = epoch_;
  // A churn-free session (mean_uptime_s <= 0) draws no uptime at all — it
  // must not consume entropy it does not use.
  if (config_.mean_uptime_s > 0.0) {
    const double uptime = rng_.exponential(1.0 / config_.mean_uptime_s);
    const double drop_at = queue_.now() + uptime;
    if (drop_at <= horizon_s_) {
      queue_.schedule_at(drop_at, [this, epoch] {
        if (epoch == epoch_) {
          on_disconnected();
        }
      });
    }
  }
  const double first_frame = queue_.now() + 1.0 / config_.fps;
  if (first_frame <= horizon_s_) {
    queue_.schedule_at(first_frame, [this, epoch] { frame_tick(epoch); });
  }
}

void CameraSession::frame_tick(std::uint64_t epoch) {
  if (epoch != epoch_ || state_ != SessionState::kActive) {
    return;  // the connection this tick belonged to is gone
  }
  const std::int64_t seq = next_seq_++;
  ++stats_.frames_captured;
  if (on_frame_) {
    on_frame_(seq, queue_.now());
  }
  const double next = queue_.now() + 1.0 / config_.fps;
  if (next <= horizon_s_) {
    queue_.schedule_at(next, [this, epoch] { frame_tick(epoch); });
  }
}

void CameraSession::on_disconnected() {
  ++epoch_;  // cancels the frame cadence of the dead connection
  state_ = SessionState::kBackoff;
  ++stats_.disconnects;
  backoff_attempt_ = 0;
  schedule_reconnect();
}

void CameraSession::schedule_reconnect() {
  // Exponential backoff with a cap: base * 2^attempt. The jitter factor
  // de-synchronizes cameras that dropped together (a rack-level outage must
  // not produce a thundering-herd reconnect).
  const double uncapped =
      kReconnectBackoffS * std::pow(2.0, static_cast<double>(backoff_attempt_));
  const double delay =
      std::min(uncapped, kReconnectBackoffMaxS) * rng_.uniform(0.8, 1.2);
  const double when = queue_.now() + delay;
  if (when > horizon_s_) {
    return;  // the run ends before the next attempt
  }
  queue_.schedule_at(when, [this] {
    ++stats_.reconnect_attempts;
    if (rng_.bernoulli(config_.reconnect_success_p)) {
      begin_connect();
      return;
    }
    ++backoff_attempt_;
    schedule_reconnect();
  });
}

}  // namespace adaflow::ingest
