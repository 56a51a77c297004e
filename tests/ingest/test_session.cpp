#include "adaflow/ingest/session.hpp"

#include <gtest/gtest.h>

#include <utility>
#include <vector>

#include "adaflow/common/error.hpp"

namespace adaflow::ingest {
namespace {

using Capture = std::pair<std::int64_t, double>;  // (seq, capture time)

CameraSessionConfig churn_free() {
  CameraSessionConfig c;
  c.fps = 10.0;
  c.mean_uptime_s = 0.0;
  return c;
}

CameraSessionConfig flapping() {
  CameraSessionConfig c;
  c.fps = 20.0;
  c.mean_uptime_s = 1.0;
  c.reconnect_success_p = 0.6;
  return c;
}

std::vector<Capture> run_session(const CameraSessionConfig& config, std::uint64_t seed,
                                 double horizon_s, CameraSessionStats* stats_out = nullptr,
                                 SessionState* state_out = nullptr) {
  sim::EventQueue queue;
  CameraSession session(queue, config, seed, horizon_s);
  std::vector<Capture> captures;
  session.set_on_frame([&](std::int64_t seq, double t) { captures.emplace_back(seq, t); });
  session.start();
  queue.run_until(horizon_s);
  if (stats_out != nullptr) {
    *stats_out = session.stats();
  }
  if (state_out != nullptr) {
    *state_out = session.state();
  }
  return captures;
}

TEST(CameraSession, RejectsInvalidConfig) {
  sim::EventQueue queue;
  CameraSessionConfig bad = churn_free();
  bad.fps = 0.0;
  EXPECT_THROW(CameraSession(queue, bad, 1, 10.0), ConfigError);
  bad = churn_free();
  bad.reconnect_success_p = 0.0;
  EXPECT_THROW(CameraSession(queue, bad, 1, 10.0), ConfigError);
}

TEST(CameraSession, ChurnFreeSessionCapturesAtTheConfiguredCadence) {
  CameraSessionStats stats;
  SessionState state = SessionState::kConnecting;
  // Connect completes at 0.2 (the handshake time); frames land at 0.3, 0.4,
  // ..., 10.2.
  const std::vector<Capture> captures = run_session(churn_free(), 7, 10.25, &stats, &state);
  EXPECT_EQ(state, SessionState::kActive);
  EXPECT_EQ(stats.connects, 1);
  EXPECT_EQ(stats.disconnects, 0);
  EXPECT_EQ(stats.reconnect_attempts, 0);
  ASSERT_EQ(captures.size(), 100u);
  for (std::size_t i = 0; i < captures.size(); ++i) {
    EXPECT_EQ(captures[i].first, static_cast<std::int64_t>(i));
    EXPECT_NEAR(captures[i].second, 0.3 + 0.1 * static_cast<double>(i), 1e-9);
  }
}

TEST(CameraSession, ChurnWalksTheStateMachineAndKeepsSeqMonotone) {
  CameraSessionConfig config = flapping();
  config.reconnect_success_p = 1.0;  // every backoff attempt reconnects
  CameraSessionStats stats;
  const std::vector<Capture> captures = run_session(config, 11, 60.0, &stats);
  // Mean uptime 1s over 60s: the session must have dropped and come back.
  EXPECT_GE(stats.disconnects, 2);
  EXPECT_GE(stats.connects, 3);
  // With success_p = 1 each disconnect costs exactly one attempt.
  EXPECT_EQ(stats.reconnect_attempts, stats.connects - 1);
  // Frames stop during backoff but seq never resets or repeats: the capture
  // log is exactly 0, 1, 2, ... frames_captured-1.
  ASSERT_EQ(static_cast<std::int64_t>(captures.size()), stats.frames_captured);
  for (std::size_t i = 0; i < captures.size(); ++i) {
    EXPECT_EQ(captures[i].first, static_cast<std::int64_t>(i));
  }
}

TEST(CameraSession, FlakyReconnectTakesMultipleAttempts) {
  CameraSessionConfig config = flapping();
  config.reconnect_success_p = 0.3;
  CameraSessionStats stats;
  run_session(config, 23, 120.0, &stats);
  EXPECT_GE(stats.disconnects, 2);
  // At 30% per-attempt success, reconnects need several tries on average.
  EXPECT_GT(stats.reconnect_attempts, stats.connects - 1);
}

TEST(CameraSession, SameSeedChurnReplaysBitIdentically) {
  const std::vector<Capture> a = run_session(flapping(), 42, 45.0);
  const std::vector<Capture> b = run_session(flapping(), 42, 45.0);
  EXPECT_EQ(a, b);
}

TEST(CameraSession, DifferentSeedsProduceDifferentChurn) {
  const std::vector<Capture> a = run_session(flapping(), 42, 45.0);
  const std::vector<Capture> b = run_session(flapping(), 43, 45.0);
  EXPECT_NE(a, b);
}

}  // namespace
}  // namespace adaflow::ingest
