#include "adaflow/edge/server.hpp"

#include <cmath>
#include <string>
#include <utility>

#include "adaflow/faults/fault_injector.hpp"

namespace adaflow::edge {

void ServerConfig::validate(const std::string& who) const {
  if (queue_capacity <= 0) {
    throw ConfigError(who + ".queue_capacity must be positive, got " +
                      std::to_string(queue_capacity));
  }
  auto cadence = [&who](double v, const char* field) {
    if (!(std::isfinite(v) && v > 0.0)) {
      throw ConfigError(who + "." + field + " must be finite and positive, got " +
                        std::to_string(v));
    }
  };
  cadence(poll_interval_s, "poll_interval_s");
  cadence(sample_interval_s, "sample_interval_s");
}

SingleDeviceDriver::SingleDeviceDriver(const WorkloadTrace& trace, ServingPolicy& policy,
                                       const ServerConfig& config, std::uint64_t seed,
                                       faults::FaultInjector* injector)
    : trace_(trace), config_(config),
      device_(queue_, policy, config, injector, "server"),
      arrivals_(trace, seed, trace.duration(),
                injector == nullptr ? PoissonArrivals::RateFactor{}
                                    : [injector](double t) {
                                        return injector->arrival_rate_factor(t);
                                      }) {
  config.validate();
}

void SingleDeviceDriver::start() {
  device_.start();
  queue_.chain([this] { return arrivals_.next(); },
               [this] { device_.offer_frame(/*count_loss=*/true); });
  const double end = trace_.duration();
  queue_.every(config_.poll_interval_s, config_.poll_interval_s, end, [this] { device_.poll(); });
  queue_.every(config_.sample_interval_s, config_.sample_interval_s, end + sim::kSampleEndSlack,
               [this] { device_.sample_window(); });
}

RunMetrics SingleDeviceDriver::finish() {
  queue_.run_until(trace_.duration());
  device_.finalize(trace_.duration());
  return std::move(device_.metrics());
}

RunMetrics run_simulation(const WorkloadTrace& trace, ServingPolicy& policy,
                          const ServerConfig& config, std::uint64_t seed,
                          faults::FaultInjector* injector) {
  SingleDeviceDriver driver(trace, policy, config, seed, injector);
  driver.start();
  return driver.finish();
}

RepeatedRunResult summarize_runs(const std::vector<RunMetrics>& runs) {
  require(!runs.empty(), "summarize_runs needs at least one run");
  RepeatedRunResult out;
  for (const RunMetrics& m : runs) {
    out.switches_per_run.push_back(m.model_switches);
    out.reconfigurations_per_run.push_back(m.reconfigurations);
    out.frame_loss.add(m.frame_loss());
    out.qoe.add(m.qoe());
    out.power.add(m.average_power_w());
  }
  // Pooled ratios come from the exact totals: the per-run mean rounds the
  // counts, which moves frame_loss()/qoe() by up to 1/arrived per run.
  const RunMetrics pooled = sim::total(runs);
  out.pooled_frame_loss = pooled.frame_loss();
  out.pooled_qoe = pooled.qoe();
  out.pooled_average_power_w = pooled.average_power_w();
  out.mean = sim::mean(runs);
  return out;
}

}  // namespace adaflow::edge
