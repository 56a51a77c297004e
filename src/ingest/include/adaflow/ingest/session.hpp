#pragma once

/// \file session.hpp
/// One camera's connection lifecycle as a discrete-event component.
///
/// A CameraSession models the part of the serving path the cluster does not
/// control: the camera itself. While connected it captures frames at a fixed
/// cadence; connections die after an exponentially-distributed uptime and
/// come back through an exponential-backoff reconnect loop whose attempts
/// succeed only probabilistically (a flapping camera may need several).
/// Every probabilistic decision draws from the session's own seeded Rng, so
/// a (config, seed) pair replays its churn bit-identically regardless of
/// what the rest of the pipeline does.
///
/// State machine:  kConnecting --connect_delay--> kActive
///                 kActive --uptime expires--> kBackoff (frames stop)
///                 kBackoff --backoff, attempt fails--> kBackoff (doubled)
///                 kBackoff --attempt succeeds--> kConnecting
/// Frame sequence numbers increase monotonically across reconnects, which is
/// what lets the downstream stale filter reason about ordering.

#include <cstdint>
#include <functional>
#include <string>

#include "adaflow/common/rng.hpp"
#include "adaflow/sim/event_queue.hpp"

namespace adaflow::ingest {

struct CameraSessionConfig {
  double fps = 30.0;              ///< capture cadence while connected
  /// Mean connected time before the session drops (exponential); <= 0 means
  /// the session never drops on its own.
  double mean_uptime_s = 30.0;
  double reconnect_success_p = 0.7;      ///< per-attempt success probability
};

struct CameraSessionStats {
  std::int64_t connects = 0;            ///< completed handshakes
  std::int64_t disconnects = 0;         ///< uptime expiries
  std::int64_t reconnect_attempts = 0;  ///< backoff attempts (incl. successes)
  std::int64_t frames_captured = 0;
};

enum class SessionState { kConnecting, kActive, kBackoff };

const char* session_state_name(SessionState state);

class CameraSession {
 public:
  /// \p queue outlives the session; events are never scheduled past
  /// \p horizon_s. Throws ConfigError on an invalid config.
  CameraSession(sim::EventQueue& queue, const CameraSessionConfig& config, std::uint64_t seed,
                double horizon_s, std::string name = "cam");

  /// Invoked at capture time for every frame (seq is monotone across
  /// reconnects). Set before start().
  void set_on_frame(std::function<void(std::int64_t seq, double capture_s)> fn) {
    on_frame_ = std::move(fn);
  }

  /// Begins the first connect at queue.now(). Call once.
  void start();

  SessionState state() const { return state_; }
  const std::string& name() const { return name_; }
  const CameraSessionStats& stats() const { return stats_; }

 private:
  void begin_connect();
  void on_connected();
  void frame_tick(std::uint64_t epoch);
  void on_disconnected();
  void schedule_reconnect();

  sim::EventQueue& queue_;
  CameraSessionConfig config_;
  Rng rng_;
  double horizon_s_;
  std::string name_;

  SessionState state_ = SessionState::kConnecting;
  /// Bumped on every disconnect so in-flight frame/disconnect events from
  /// the previous connection no-op instead of firing into the new one.
  std::uint64_t epoch_ = 0;
  int backoff_attempt_ = 0;
  std::int64_t next_seq_ = 0;
  CameraSessionStats stats_;
  std::function<void(std::int64_t, double)> on_frame_;
};

}  // namespace adaflow::ingest
