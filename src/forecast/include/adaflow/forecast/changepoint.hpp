#pragma once

/// \file changepoint.hpp
/// Sliding-window changepoint / burst-regime detector.
///
/// The detector keeps a short recent window and a longer baseline window of
/// per-window arrival rates. A CHANGEPOINT fires when the recent mean leaves
/// the baseline by both a sigma margin (against estimator noise on a noisy
/// baseline) and a relative-jump margin (against hair triggers on a flat
/// baseline). After a changepoint the baseline restarts from the recent
/// window, so a level shift fires once, not continuously.
///
/// A BURST REGIME is declared while changepoints arrive densely: at least
/// `burst_changepoints` of them within the last kBurstWindow observations.
/// An isolated re-draw (paper Scenario 1: every 5 s) therefore never counts
/// as a burst, while Scenario 2 (every 500 ms) does — which is exactly the
/// distinction the proactive Runtime Manager needs to decide between the
/// Fixed accelerator (cheap to run, 145 ms to change) and the Flexible one
/// (slightly slower, sub-ms to change).
///
/// Deterministic: state is a pure function of the observation sequence.

#include <cstdint>
#include <deque>

#include "adaflow/common/error.hpp"

namespace adaflow::forecast {

struct ChangepointConfig {
  int short_window = 3;   ///< recent-mean window [observations]
  int long_window = 12;   ///< baseline + recent window [observations]
  /// Burst regime: >= burst_changepoints changepoints within the last
  /// ChangepointDetector::kBurstWindow observations.
  int burst_changepoints = 2;

  /// Throws ConfigError naming the offending field.
  void validate() const;
};

class ChangepointDetector {
 public:
  /// Observations a changepoint counts toward the burst regime.
  static constexpr int kBurstWindow = 30;

  explicit ChangepointDetector(ChangepointConfig config = {});

  /// Absorbs one per-window rate observation.
  void observe(double rate);

  /// Did the LAST observation trigger a changepoint?
  bool changepoint() const { return last_was_changepoint_; }

  /// Dense-changepoint regime active (see file comment)?
  bool burst() const;

  /// Observations since the most recent changepoint (INT64_MAX before the
  /// first one) — the proactive manager's "predicted stable" signal.
  std::int64_t stable_windows() const;

  std::int64_t total_changepoints() const { return total_changepoints_; }
  std::int64_t observations() const { return observations_; }

  void reset();

 private:
  ChangepointConfig config_;
  std::deque<double> window_;             ///< last <= long_window rates
  std::deque<std::int64_t> change_obs_;   ///< observation indices of changepoints
  std::int64_t observations_ = 0;
  std::int64_t total_changepoints_ = 0;
  bool last_was_changepoint_ = false;
};

}  // namespace adaflow::forecast
