#pragma once

/// \file policy.hpp
/// Serving-policy interface between the Edge-server simulator and the
/// decision logic living above it (AdaFlow's Runtime Manager, the Original
/// FINN baseline, the reconfiguration-only baseline). The simulator tells
/// the policy the estimated incoming FPS; the policy answers with the mode
/// to run and what switching to it costs.

#include <optional>
#include <string>

#include "adaflow/sim/stats.hpp"

namespace adaflow::edge {

/// What the server is currently running: one CNN model version on one
/// accelerator, with its operating characteristics.
struct ServingMode {
  std::string model_version;   ///< e.g. "CNVW2A2@p25"
  std::string accelerator;     ///< e.g. "Fixed@p25", "Flexible"
  double fps = 0.0;            ///< service rate of this mode
  double accuracy = 0.0;       ///< test accuracy of the model version
  double power_busy_w = 0.0;   ///< board power while processing
  double power_idle_w = 0.0;   ///< board power while idle / reconfiguring
};

/// True when \p accelerator labels the shared Flexible-Pruning accelerator
/// (core::serving_mode's label for it). Fixed-Pruning bitstreams are labelled
/// "Fixed@<version>" and the original FINN baseline "OriginalFINN".
inline bool is_flexible(const std::string& accelerator) { return accelerator == "Flexible"; }

/// A switch the policy wants performed.
struct SwitchAction {
  ServingMode target;
  double switch_time_s = 0.0;  ///< server stalls this long
  bool is_reconfiguration = false;  ///< full FPGA reconfiguration?
};

/// Read-only window into a predictive policy's forecast bookkeeping. The
/// pointers stay owned by the policy; the simulator copies them into
/// RunMetrics at finalize. All-null for reactive policies.
struct ForecastView {
  const sim::ForecastStats* stats = nullptr;
  const sim::TimeSeries* actual = nullptr;     ///< realized FPS per monitor window
  const sim::TimeSeries* predicted = nullptr;  ///< horizon-ahead forecast, aligned
};

class ServingPolicy {
 public:
  virtual ~ServingPolicy() = default;

  /// Mode loaded at t = 0 (loading it is not charged to the run).
  virtual ServingMode initial_mode() = 0;

  /// Called at every monitor poll with the current incoming-FPS estimate.
  /// Returns the switch to perform, or nullopt to keep the current mode.
  virtual std::optional<SwitchAction> on_poll(double now_s, double incoming_fps) = 0;

  /// Notification that a switch finished (the new mode is live).
  virtual void on_switch_applied(double now_s, const ServingMode& mode) { (void)now_s; (void)mode; }

  /// Notification that \p action failed for good: every bounded retry was
  /// exhausted, so the target mode never loaded and the pre-switch mode is
  /// still live. Implementations must roll back any bookkeeping they advanced
  /// when issuing the action. Return a cheaper fallback switch to try instead
  /// (AdaFlow: the always-available Flexible accelerator), or nullopt to stay
  /// on the current mode.
  virtual std::optional<SwitchAction> on_switch_failed(double now_s, const SwitchAction& action) {
    (void)now_s;
    (void)action;
    return std::nullopt;
  }

  /// Consulted by the load shedder when the server queue saturates. Return a
  /// switch to the fastest acceptable mode to drain the backlog, or nullopt.
  virtual std::optional<SwitchAction> on_overload(double now_s, double incoming_fps) {
    (void)now_s;
    (void)incoming_fps;
    return std::nullopt;
  }

  /// Predictive policies expose their forecast quality and per-window
  /// forecast-vs-actual series here; the default (all-null) leaves
  /// RunMetrics.forecast zeroed.
  virtual ForecastView forecast_view() const { return {}; }
};

}  // namespace adaflow::edge
