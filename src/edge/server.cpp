#include "adaflow/edge/server.hpp"

#include <cmath>

#include "adaflow/common/rng.hpp"
#include "adaflow/edge/device_sim.hpp"
#include "adaflow/faults/fault_injector.hpp"
#include "adaflow/sim/event_queue.hpp"

namespace adaflow::edge {

namespace {

/// Drives one DeviceSim from a workload trace: Poisson arrivals at the
/// trace's (possibly fault-inflated) rate, plus the monitor-poll and
/// window-sample cadences. All per-device behaviour lives in DeviceSim.
struct SingleServerDriver {
  const WorkloadTrace& trace;
  const ServerConfig& config;
  faults::FaultInjector* injector;  ///< may be null (fault-free run)
  Rng rng;
  sim::EventQueue queue;
  DeviceSim device;

  SingleServerDriver(const WorkloadTrace& t, ServingPolicy& policy, const ServerConfig& c,
                     faults::FaultInjector* inj, std::uint64_t seed)
      : trace(t), config(c), injector(inj), rng(seed),
        device(queue, policy, c, inj, "server") {}

  void on_arrival() {
    device.offer_frame(/*count_loss=*/true);
    schedule_next_arrival();
  }

  void schedule_next_arrival() {
    double rate = trace.rate_at(queue.now());
    if (injector != nullptr) {
      rate *= injector->arrival_rate_factor(queue.now());
    }
    if (rate <= 0.0) {
      // Re-check after the next rate boundary.
      queue.schedule_in(0.05, [this] { schedule_next_arrival(); });
      return;
    }
    const double dt = rng.exponential(rate);
    const double when = queue.now() + dt;
    if (when <= trace.duration()) {
      queue.schedule_at(when, [this] { on_arrival(); });
    }
  }

  void on_poll() {
    device.poll();
    const double next = queue.now() + config.poll_interval_s;
    if (next <= trace.duration()) {
      queue.schedule_at(next, [this] { on_poll(); });
    }
  }

  void on_sample() {
    device.sample_window();
    const double next = queue.now() + config.sample_interval_s;
    if (next <= trace.duration() + 1e-9) {
      queue.schedule_at(next, [this] { on_sample(); });
    }
  }
};

}  // namespace

RunMetrics run_simulation(const WorkloadTrace& trace, ServingPolicy& policy,
                          const ServerConfig& config, std::uint64_t seed,
                          faults::FaultInjector* injector) {
  SingleServerDriver driver(trace, policy, config, injector, seed);
  driver.device.start();

  driver.schedule_next_arrival();
  driver.queue.schedule_at(config.poll_interval_s, [&driver] { driver.on_poll(); });
  driver.queue.schedule_at(config.sample_interval_s, [&driver] { driver.on_sample(); });

  driver.queue.run_until(trace.duration());
  driver.device.finalize(trace.duration());
  return std::move(driver.device.metrics());
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
