#pragma once

/// \file workload.hpp
/// Edge workload model (paper Section V): N IoT cameras nominally streaming
/// at a fixed FPS, with the aggregate incoming rate deviating randomly at
/// scenario-defined intervals — Scenario 1: +-30% every 5 s (stable),
/// Scenario 2: +-70% every 500 ms (unpredictable), Scenario 1+2: S1 for the
/// first 15 s, then S2.

#include <cstdint>
#include <functional>
#include <optional>
#include <string>
#include <vector>

#include "adaflow/common/rng.hpp"

namespace adaflow::edge {

/// One phase of workload behaviour.
struct WorkloadPhase {
  double deviation = 0.3;   ///< max relative deviation of the rate
  double interval_s = 5.0;  ///< how often the rate is re-drawn
  double duration_s = 25.0; ///< phase length
};

struct WorkloadConfig {
  int devices = 20;
  double fps_per_device = 30.0;
  std::vector<WorkloadPhase> phases;

  double base_rate() const { return devices * fps_per_device; }

  /// Throws ConfigError naming the offending field (and phase index) on
  /// non-positive device counts, negative/NaN rates, deviations, intervals
  /// or durations. Called by WorkloadTrace before sampling.
  void validate() const;
};

/// Paper scenarios.
WorkloadConfig scenario1(double duration_s = 25.0);
WorkloadConfig scenario2(double duration_s = 25.0);
WorkloadConfig scenario1_plus_2(double stable_s = 15.0, double total_s = 25.0);

/// Piecewise-constant arrival-rate trace drawn from a config. The rate is
/// re-drawn at every phase interval boundary as base * (1 + U(-dev, +dev)).
class WorkloadTrace {
 public:
  WorkloadTrace(const WorkloadConfig& config, std::uint64_t seed);

  /// Builds a trace directly from explicit piecewise-constant segments:
  /// segment i spans [times[i], times[i+1]) at rates[i]; the last segment
  /// runs to \p duration_s. Throws ConfigError on unsorted times, a first
  /// boundary != 0, negative rates, or mismatched lengths.
  WorkloadTrace(std::vector<double> times, std::vector<double> rates, double duration_s);

  /// Loads a trace from a CSV of "t,rate" rows (seconds, aggregate FPS).
  /// Blank lines, '#' comments and a "t,rate"-style header are skipped.
  /// Rows must be time-ascending; a trace starting after t=0 is extended
  /// backwards at its first rate. With \p duration_s == 0 the trace ends one
  /// median segment-length past the last boundary. Throws ConfigError naming
  /// the offending line on malformed input.
  static WorkloadTrace from_csv(const std::string& path, double duration_s = 0.0);

  /// Aggregate incoming FPS at time \p t.
  double rate_at(double t) const;

  /// Boundaries where the rate changes (for event scheduling).
  const std::vector<double>& change_times() const { return times_; }
  const std::vector<double>& segment_rates() const { return rates_; }
  double duration() const { return duration_; }

 private:
  std::vector<double> times_;  ///< segment start times (ascending, begins 0)
  std::vector<double> rates_;  ///< rate of each segment
  double duration_ = 0.0;
};

/// The Edge traffic model (paper Section V): Poisson arrivals at a trace's
/// piecewise-constant aggregate rate — the one arrival process every runner
/// draws from (single device, fleet, shards, tenants). Each gap is drawn at
/// the rate in force at the previous arrival (times \p rate_factor there,
/// when set — the fault layer's queue bursts); a zero-rate stretch is
/// stepped through kZeroRateStepS at a time without a draw. The sequence is
/// a pure function of (trace, seed, horizon, rate_factor), so draining it
/// offline and chaining it on an event queue yield the same times.
class PoissonArrivals {
 public:
  /// Multiplier on the trace rate at a time; called once per draw or step.
  using RateFactor = std::function<double(double)>;

  /// How far a zero-rate stretch is stepped before the rate is re-read.
  static constexpr double kZeroRateStepS = 0.05;

  /// \p trace must outlive this object.
  PoissonArrivals(const WorkloadTrace& trace, std::uint64_t seed, double horizon_s,
                  RateFactor rate_factor = {});

  /// The next arrival time (ascending, <= horizon), or nullopt once the
  /// process has passed the horizon — and on every call after that.
  std::optional<double> next();

 private:
  const WorkloadTrace* trace_;
  Rng rng_;
  double horizon_s_;
  RateFactor rate_factor_;
  double t_ = 0.0;  ///< the last arrival or zero-rate step
};

/// Smooth pseudo-diurnal load: a sinusoid between \p low_fps and \p high_fps
/// with period \p period_s, sampled every \p step_s, with multiplicative
/// noise U(1-jitter, 1+jitter) drawn from \p seed. A forecaster with a trend
/// term should beat level-only smoothing here.
WorkloadTrace diurnal_trace(double low_fps, double high_fps, double period_s,
                            double duration_s, double step_s, double jitter,
                            std::uint64_t seed);

/// Flash crowd: \p base_fps until \p onset_s, a linear ramp to \p peak_fps
/// over \p ramp_s, a hold of \p hold_s, then a symmetric ramp back down —
/// with multiplicative noise U(1-jitter, 1+jitter) drawn from \p seed. The
/// canonical trace where reactive switching eats reconfiguration stalls on
/// the ramp that a proactive manager can pre-empt.
WorkloadTrace flash_crowd_trace(double base_fps, double peak_fps, double onset_s,
                                double ramp_s, double hold_s, double duration_s,
                                double step_s, double jitter, std::uint64_t seed);

}  // namespace adaflow::edge
