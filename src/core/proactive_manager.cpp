#include "adaflow/core/proactive_manager.hpp"

#include <algorithm>

namespace adaflow::core {

namespace {

/// Pre-arm Fixed once the detector has seen this many changepoint-free
/// observations (ignored while a burst regime is active).
constexpr std::int64_t kStablePinWindows = 15;

}  // namespace

ProactiveRuntimeManager::ProactiveRuntimeManager(const AcceleratorLibrary& library,
                                                 ProactiveConfig config)
    : inner_(library, config.manager), tracker_(config.forecast) {}

edge::ServingMode ProactiveRuntimeManager::initial_mode() {
  tracker_.reset();
  inner_.set_variant_pin(std::nullopt);
  return inner_.initial_mode();
}

double ProactiveRuntimeManager::planning_demand(double incoming_fps) const {
  // The forecaster needs two observations before a trend exists; until then
  // the live estimate is all there is.
  if (tracker_.forecaster().observations() < 2) {
    return incoming_fps;
  }
  const forecast::Forecast& f = tracker_.current();
  // Flooring at the live estimate makes the predictive path strictly more
  // cautious than the reactive one: a predicted rise is acted on early, a
  // predicted fall is still only acted on once it materializes (downswitching
  // on a forecast would trade accuracy-seconds for nothing).
  const double predicted = tracker_.burst() ? f.upper : f.rate;
  return std::max(incoming_fps, predicted);
}

std::optional<edge::SwitchAction> ProactiveRuntimeManager::on_poll(double now_s,
                                                                   double incoming_fps) {
  tracker_.observe(incoming_fps);
  if (tracker_.burst()) {
    // Dense changepoints: no reconfiguration must land mid-burst.
    inner_.set_variant_pin(hls::AcceleratorVariant::kFlexible);
  } else if (tracker_.stable_windows() >= kStablePinWindows) {
    // Predicted-stable regime: pre-arm the high-throughput Fixed accelerator
    // without waiting out the time-since-last-switch rule.
    inner_.set_variant_pin(hls::AcceleratorVariant::kFixed);
  } else {
    // Recent isolated changepoint: fall back to the paper's time-based rule.
    inner_.set_variant_pin(std::nullopt);
  }
  return inner_.on_poll(now_s, planning_demand(incoming_fps));
}

void ProactiveRuntimeManager::on_switch_applied(double now_s, const edge::ServingMode& mode) {
  inner_.on_switch_applied(now_s, mode);
}

std::optional<edge::SwitchAction> ProactiveRuntimeManager::on_switch_failed(
    double now_s, const edge::SwitchAction& action) {
  return inner_.on_switch_failed(now_s, action);
}

std::optional<edge::SwitchAction> ProactiveRuntimeManager::on_overload(double now_s,
                                                                       double incoming_fps) {
  return inner_.on_overload(now_s, incoming_fps);
}

edge::ForecastView ProactiveRuntimeManager::forecast_view() const {
  edge::ForecastView view;
  view.stats = &tracker_.stats();
  view.actual = &tracker_.actual_series();
  view.predicted = &tracker_.forecast_series();
  return view;
}

}  // namespace adaflow::core
