#include "adaflow/edge/server.hpp"

#include <cmath>
#include <optional>
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
  schedule_next_arrival();
  queue_.schedule_at(config_.poll_interval_s, [this] { on_poll(); });
  queue_.schedule_at(config_.sample_interval_s, [this] { on_sample(); });
}

RunMetrics SingleDeviceDriver::finish() {
  queue_.run_until(trace_.duration());
  device_.finalize(trace_.duration());
  return std::move(device_.metrics());
}

void SingleDeviceDriver::schedule_next_arrival() {
  if (const std::optional<double> when = arrivals_.next()) {
    queue_.schedule_at(*when, [this] {
      device_.offer_frame(/*count_loss=*/true);
      schedule_next_arrival();
    });
  }
}

void SingleDeviceDriver::on_poll() {
  device_.poll();
  const double next = queue_.now() + config_.poll_interval_s;
  if (next <= trace_.duration()) {
    queue_.schedule_at(next, [this] { on_poll(); });
  }
}

void SingleDeviceDriver::on_sample() {
  device_.sample_window();
  const double next = queue_.now() + config_.sample_interval_s;
  if (next <= trace_.duration() + 1e-9) {
    queue_.schedule_at(next, [this] { on_sample(); });
  }
}

RunMetrics run_simulation(const WorkloadTrace& trace, ServingPolicy& policy,
                          const ServerConfig& config, std::uint64_t seed,
                          faults::FaultInjector* injector) {
  SingleDeviceDriver driver(trace, policy, config, seed, injector);
  driver.start();
  return driver.finish();
}

RepeatedRunResult summarize_runs(std::vector<RunMetrics> runs) {
  require(!runs.empty(), "summarize_runs needs at least one run");
  const int count = static_cast<int>(runs.size());
  RepeatedRunResult out;
  std::vector<sim::TimeSeries> workload_s, loss_s, qoe_s, power_s;
  std::vector<sim::TimeSeries> fc_actual_s, fc_pred_s;
  RunMetrics total;
  for (std::size_t r = 0; r < runs.size(); ++r) {
    RunMetrics& m = runs[r];
    total.arrived += m.arrived;
    total.processed += m.processed;
    total.lost += m.lost;
    total.qoe_accuracy_sum += m.qoe_accuracy_sum;
    total.energy_j += m.energy_j;
    total.duration_s += m.duration_s;
    total.switch_stall_s += m.switch_stall_s;
    total.violation_s += m.violation_s;
    total.model_switches += m.model_switches;
    total.reconfigurations += m.reconfigurations;
    total.faults.accumulate(m.faults);
    total.forecast.accumulate(m.forecast);
    total.detection.accumulate(m.detection);
    total.integrity.accumulate(m.integrity);
    total.e2e_latency.merge(m.e2e_latency);
    if (r == 0) {
      total.switches = m.switches;  // representative first run (paper Fig. 6)
    }
    out.switches_per_run.push_back(m.model_switches);
    out.reconfigurations_per_run.push_back(m.reconfigurations);
    out.frame_loss.add(m.frame_loss());
    out.qoe.add(m.qoe());
    out.power.add(m.average_power_w());
    workload_s.push_back(std::move(m.workload_series));
    loss_s.push_back(std::move(m.loss_series));
    qoe_s.push_back(std::move(m.qoe_series));
    power_s.push_back(std::move(m.power_series));
    fc_actual_s.push_back(std::move(m.forecast_actual_series));
    fc_pred_s.push_back(std::move(m.forecast_pred_series));
  }
  // Pooled ratios first, from the exact totals: rounding the counts below
  // changes frame_loss()/qoe() by up to 1/arrived per run, which matters for
  // tiny traces.
  out.pooled_frame_loss =
      total.arrived > 0 ? static_cast<double>(total.lost) / static_cast<double>(total.arrived)
                        : 0.0;
  out.pooled_qoe =
      total.arrived > 0 ? total.qoe_accuracy_sum / static_cast<double>(total.arrived) : 0.0;
  out.pooled_average_power_w = total.duration_s > 0.0 ? total.energy_j / total.duration_s : 0.0;
  // Scalars become per-run means so they read on the same scale as one run;
  // dividing numerators and denominators alike keeps the ratio accessors
  // (frame_loss, qoe, average_power_w) consistent with the pooled ratios up
  // to count rounding.
  auto mean_count = [count](std::int64_t v) {
    return static_cast<std::int64_t>(
        std::llround(static_cast<double>(v) / static_cast<double>(count)));
  };
  total.arrived = mean_count(total.arrived);
  total.processed = mean_count(total.processed);
  total.lost = mean_count(total.lost);
  total.qoe_accuracy_sum /= count;
  total.energy_j /= count;
  total.duration_s /= count;
  total.switch_stall_s /= count;
  total.violation_s /= count;
  total.model_switches = static_cast<int>(mean_count(total.model_switches));
  total.reconfigurations = static_cast<int>(mean_count(total.reconfigurations));
  total.faults.divide(count);
  total.forecast.divide(count);
  total.detection.divide(count);
  total.integrity.divide(count);
  total.workload_series = sim::average_series(workload_s);
  total.loss_series = sim::average_series(loss_s);
  total.qoe_series = sim::average_series(qoe_s);
  total.power_series = sim::average_series(power_s);
  total.forecast_actual_series = sim::average_series(fc_actual_s);
  total.forecast_pred_series = sim::average_series(fc_pred_s);
  out.mean = std::move(total);
  return out;
}

}  // namespace adaflow::edge
