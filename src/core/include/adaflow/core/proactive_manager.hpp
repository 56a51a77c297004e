#pragma once

/// \file proactive_manager.hpp
/// Predictive front-end over the reactive Runtime Manager.
///
/// The reactive manager only sees the CURRENT incoming-FPS estimate, so every
/// adaptation happens after the workload has already shifted — and when the
/// switch lands on the Fixed accelerator it stalls the server for a full
/// ~145 ms reconfiguration right when the queue can least afford it. The
/// proactive manager feeds each monitor sample to an online forecaster and a
/// changepoint/burst detector, then drives the unchanged reactive core with
/// what the rate is PREDICTED to be one forecast horizon ahead:
///
///   (a) pre-arm Fixed: while the detector reports a stable regime, new
///       switches are pinned to the high-throughput Fixed accelerator without
///       waiting out the paper's time-since-last-switch rule;
///   (b) burst fallback: while changepoints arrive densely (paper
///       Scenario 2, flash-crowd ramps), switches are pinned to the Flexible
///       accelerator so no reconfiguration lands mid-burst, and the planning
///       demand is widened to the prediction-interval ceiling;
///   (c) observability: forecast error (MAPE, interval coverage) and the
///       per-window forecast-vs-actual series surface in RunMetrics.
///
/// Selection, hysteresis, fallback and overload machinery all stay in the
/// composed RuntimeManager — this layer only changes WHEN decisions happen
/// and WHICH accelerator variant they land on. Fully deterministic: state is
/// a pure function of the observation sequence.

#include <memory>
#include <optional>

#include "adaflow/core/runtime_manager.hpp"
#include "adaflow/forecast/tracker.hpp"

namespace adaflow::core {

struct ProactiveConfig {
  RuntimeManagerConfig manager;
  forecast::ForecastTrackerConfig forecast;
};

class ProactiveRuntimeManager final : public edge::ServingPolicy {
 public:
  ProactiveRuntimeManager(const AcceleratorLibrary& library, ProactiveConfig config);

  edge::ServingMode initial_mode() override;
  std::optional<edge::SwitchAction> on_poll(double now_s, double incoming_fps) override;
  void on_switch_applied(double now_s, const edge::ServingMode& mode) override;
  std::optional<edge::SwitchAction> on_switch_failed(double now_s,
                                                     const edge::SwitchAction& action) override;
  std::optional<edge::SwitchAction> on_overload(double now_s, double incoming_fps) override;
  edge::ForecastView forecast_view() const override;

  /// The demand estimate handed to the reactive core for the given
  /// observation state (unit-testable): the forecast-horizon rate, floored
  /// at the live estimate, widened to the interval ceiling during bursts.
  double planning_demand(double incoming_fps) const;

  const forecast::ForecastTracker& tracker() const { return tracker_; }
  const RuntimeManager& inner() const { return inner_; }

 private:
  RuntimeManager inner_;
  forecast::ForecastTracker tracker_;
};

}  // namespace adaflow::core
