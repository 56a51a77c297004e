#pragma once

/// \file canary.hpp
/// Canary probing: golden frames with known outputs injected through a
/// device's NORMAL service queue at a fixed cadence. The probe is honest
/// about its cost — every canary occupies a real service slot, which is the
/// throughput tax RunMetrics::integrity reports — and honest about its
/// information: the prober only sees each canary's output error, never the
/// device's ground-truth corruption flag. Errors feed the Page-Hinkley drift
/// detector; when it trips, the prober fires the caller's trip callback
/// (detection-triggered repair, quarantine) and re-arms the detector.

#include <functional>

#include "adaflow/edge/device_sim.hpp"
#include "adaflow/integrity/detector.hpp"
#include "adaflow/sim/event_queue.hpp"

namespace adaflow::integrity {

struct CanaryProberConfig {
  /// Seconds between canary injections; 0 disables probing entirely (no
  /// canaries, no detector, no trips).
  double canary_interval_s = 0.5;
  DriftDetectorConfig detector;

  /// Throws common::ConfigError naming the offending field.
  void validate() const;
};

/// Owns the probing cadence and the drift detector for ONE device. start()
/// installs itself as the device's canary hook and schedules the first
/// injection; the prober must outlive the event queue's run.
class CanaryProber {
 public:
  /// \p on_trip fires (at most once per armed episode) when the detector
  /// trips; the detector is reset right after, so a persisting corruption
  /// trips again after fresh evidence accumulates.
  CanaryProber(sim::EventQueue& queue, edge::DeviceSim& device, CanaryProberConfig config,
               std::function<void(double now_s)> on_trip);

  /// Installs the canary hook and schedules the probing cadence up to
  /// \p horizon_s. No-op when the configured interval is 0.
  void start(double horizon_s);

 private:
  void on_canary_result(double now_s, double error);

  sim::EventQueue& queue_;
  edge::DeviceSim& device_;
  CanaryProberConfig config_;
  DriftDetector detector_;
  std::function<void(double)> on_trip_;
};

}  // namespace adaflow::integrity
