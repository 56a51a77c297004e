#include "adaflow/integrity/canary.hpp"

#include <utility>

#include "adaflow/common/error.hpp"

namespace adaflow::integrity {

void CanaryProberConfig::validate() const {
  require(canary_interval_s >= 0.0, "canary_interval_s must be >= 0 (0 disables probing)");
  detector.validate();
}

CanaryProber::CanaryProber(sim::EventQueue& queue, edge::DeviceSim& device,
                           CanaryProberConfig config, std::function<void(double)> on_trip)
    : queue_(queue), device_(device), config_(config), detector_(config.detector),
      on_trip_(std::move(on_trip)) {
  config_.validate();
}

void CanaryProber::start(double horizon_s) {
  if (config_.canary_interval_s <= 0.0) {
    return;
  }
  device_.set_canary_hook(
      [this](double now_s, double error) { on_canary_result(now_s, error); });
  // A full queue skips the probe (offer_canary refuses) — a saturated device
  // is losing real frames already; displacing one for a probe would be a
  // worse trade, and the prober simply tries again next interval.
  const double period = config_.canary_interval_s;
  queue_.every(period, period, horizon_s, [this] { device_.offer_canary(); });
}

void CanaryProber::on_canary_result(double now_s, double error) {
  if (!detector_.feed(error)) {
    return;
  }
  // Re-arm BEFORE the callback: the trip handler may synchronously complete
  // further canaries (repair switches flush the service ladder).
  detector_.reset();
  if (on_trip_) {
    on_trip_(now_s);
  }
}

}  // namespace adaflow::integrity
