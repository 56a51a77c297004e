#pragma once

/// \file brownout.hpp
/// Graceful-degradation (brownout) control for the ingest pipeline.
///
/// When sustained demand exceeds what the fleet can serve, dropping frames
/// arbitrarily (queue overflow) both wastes the work already spent on them
/// and lets end-to-end latency grow without bound. The brownout controller
/// sheds load deliberately instead, climbing a three-tier ladder:
///
///   tier 0  full quality     — every admitted frame served at full accuracy
///   tier 1  frame thinning   — keep every k-th frame per session (the rest
///                              are dropped at admission, cheap and early)
///   tier 2  accuracy variant — downgrade the fleet's devices to a faster,
///                              lower-accuracy library version through the
///                              existing reconfiguration path; thinning is
///                              lifted, because the downgraded fleet has the
///                              capacity to serve every frame (keeping it
///                              would discard frames the fleet could deliver)
///
/// Decisions are driven by two signals sampled at a fixed cadence: queue
/// fill (the worst of session queues, fleet ingress, device queues) and the
/// recent end-to-end p99 latency. Tiers engage as soon as a signal crosses
/// its threshold but release only after BOTH signals drop below
/// release_fraction x the engage threshold AND a minimum dwell has passed —
/// classic hysteresis, so the ladder does not flap around a threshold.
///
/// The controller itself is pure decision logic (no event queue, no fleet
/// handle): the ingest pipeline feeds it signals and applies its verdicts.
/// Two degenerate modes exist for baselines: kOff never engages, and
/// kDropAll sheds EVERYTHING while engaged (the on/off admission control a
/// brownout ladder should beat).

#include <cstdint>

namespace adaflow::ingest {

enum class BrownoutMode {
  kOff,      ///< baseline: never degrade, let queues overflow
  kLadder,   ///< the three-tier graceful-degradation ladder
  kDropAll,  ///< baseline: binary admission control (all or nothing)
};

struct BrownoutConfig {
  BrownoutMode mode = BrownoutMode::kLadder;
  // Engage thresholds. A tier engages when EITHER signal crosses its line:
  // the queue-fill fraction (0.5 for tier 1, 0.85 for tier 2) or the e2e p99.
  double tier1_latency_s = 0.3;  ///< e2e p99 that engages thinning
  double tier2_latency_s = 0.6;  ///< e2e p99 that additionally engages downgrade
  /// Release when both signals fall below release_fraction x the engage
  /// threshold of the CURRENT tier (strictly below 1 for real hysteresis).
  double release_fraction = 0.6;
  double min_dwell_s = 1.0;      ///< minimum time between tier changes
  /// Tier 2 moves devices this many library versions toward the fast end.
  int downgrade_steps = 1;

  /// Throws ConfigError naming the offending field.
  void validate() const;
};

struct BrownoutStats {
  std::int64_t tier1_engagements = 0;  ///< entries into tier >= 1 (or drop-all)
  std::int64_t tier2_engagements = 0;  ///< entries into tier 2
  double time_tier1_s = 0.0;           ///< time spent at tier 1 (thinning only)
  double time_tier2_s = 0.0;           ///< time spent at tier 2 (downgraded)
  double time_shedding_s = 0.0;        ///< kDropAll: time spent shedding all
};

class BrownoutController {
 public:
  /// What the pipeline should do right now.
  struct Decision {
    bool thin = false;       ///< admission: keep only every k-th frame
    bool downgrade = false;  ///< devices should run the downgraded version
    bool drop_all = false;   ///< admission: shed every frame (kDropAll mode)
  };

  explicit BrownoutController(const BrownoutConfig& config);

  /// One controller tick at \p now_s with the current queue-fill fraction
  /// (0..1, worst queue) and the recent end-to-end p99 [s]. Monotone time
  /// required. Returns the (possibly unchanged) decision.
  Decision update(double now_s, double fill_fraction, double e2e_p99_s);

  /// Current tier (0..2; in kDropAll mode 1 means "shedding").
  int tier() const { return tier_; }
  Decision decision() const;

  /// Closes the open tier episode at \p t_end for the time accounting.
  void finalize(double t_end_s);

  const BrownoutStats& stats() const { return stats_; }

 private:
  int desired_tier(double fill, double latency_s) const;
  bool below_release(double fill, double latency_s, int tier) const;
  void account_time(double now_s);

  BrownoutConfig config_;
  int tier_ = 0;
  double last_change_s_ = 0.0;
  double last_update_s_ = 0.0;
  BrownoutStats stats_;
};

}  // namespace adaflow::ingest
