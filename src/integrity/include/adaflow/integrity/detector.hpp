#pragma once

/// \file detector.hpp
/// Page-Hinkley (one-sided CUSUM) drift detector over the canary error
/// stream. A clean fabric produces canary errors of 0; a configuration upset
/// durably shifts the stream's mean upward. The detector accumulates the
/// deviation of each sample above a small allowance and trips when the
/// accumulated evidence since its running minimum exceeds a threshold:
///
///   m   += error - epsilon          (evidence walk)
///   m*   = min(m*, m)               (running minimum)
///   trip = (m - m*) > threshold
///
/// epsilon sets the tolerated noise floor (transient degrade windows, sensor
/// jitter); threshold trades false alarms against detection latency: a lower
/// threshold trips on fewer corrupted canaries (faster detection) but lets
/// benign noise bursts through more easily. Both knobs are exercised by the
/// canary-rate sweep in `bench_adaflow integrity`.

#include <cstdint>

namespace adaflow::integrity {

struct DriftDetectorConfig {
  /// Per-sample error allowance: deviations at or below this add no
  /// evidence. Must be >= 0.
  double epsilon = 0.02;
  /// Evidence level that trips the detector. Must be > 0. With a per-upset
  /// accuracy penalty p and allowance epsilon, a corrupted stream trips
  /// after ceil(threshold / (p - epsilon)) canaries.
  double threshold = 0.10;

  /// Throws common::ConfigError naming the offending field.
  void validate() const;
};

class DriftDetector {
 public:
  explicit DriftDetector(DriftDetectorConfig config = {});

  /// Feeds one canary error sample; returns true when the test trips. A
  /// tripped detector keeps returning true until reset() — callers reset it
  /// after acting on the trip so the next corruption episode is scored
  /// independently.
  bool feed(double error);

  /// Clears all accumulated evidence (post-repair re-arm).
  void reset();

  bool tripped() const { return tripped_; }
  std::int64_t samples() const { return samples_; }
  /// Current evidence above the running minimum (the tripping statistic).
  double statistic() const { return m_ - min_m_; }
  const DriftDetectorConfig& config() const { return config_; }

 private:
  DriftDetectorConfig config_;
  double m_ = 0.0;
  double min_m_ = 0.0;
  std::int64_t samples_ = 0;
  bool tripped_ = false;
};

}  // namespace adaflow::integrity
