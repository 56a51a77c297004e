#pragma once

/// \file server.hpp
/// Discrete-event simulation of an FPGA-equipped Edge inference server
/// (paper Section V): IoT cameras push frames into a bounded queue; a single
/// dataflow accelerator drains it at the loaded mode's FPS; a monitor polls
/// the incoming rate and lets the serving policy switch modes — stalling the
/// server for the switch duration (fast for Flexible, a full reconfiguration
/// for Fixed). Frames that arrive into a full queue are lost.
///
/// The server optionally consults a faults::FaultInjector and defends itself
/// with a self-healing layer: switch timeout + bounded exponential-backoff
/// retry, policy-driven fallback (Fixed -> Flexible), a watchdog for stalled
/// in-flight frames, and load shedding when the queue saturates. Turning off
/// ServerConfig::fault_tolerance yields the unhardened baseline that the
/// `faults` entry of bench_adaflow compares against.
///
/// The per-device simulation core lives in device_sim.hpp (edge::DeviceSim);
/// SingleDeviceDriver drives exactly one device from a workload trace — for
/// run_simulation() here and the integrity and detection runners — while the
/// fleet layer (src/fleet) drives N of them behind a dispatcher. Every driver
/// chains its arrivals from the one PoissonArrivals process (workload.hpp)
/// and runs its poll and sample cadences with sim::EventQueue::every.

#include <concepts>
#include <cstddef>
#include <cstdint>
#include <string>
#include <type_traits>
#include <vector>

#include "adaflow/common/error.hpp"
#include "adaflow/common/parallel.hpp"
#include "adaflow/edge/device_sim.hpp"
#include "adaflow/edge/policy.hpp"
#include "adaflow/edge/server_types.hpp"
#include "adaflow/edge/workload.hpp"
#include "adaflow/sim/event_queue.hpp"
#include "adaflow/sim/stats.hpp"

namespace adaflow::faults {
class FaultInjector;
}

namespace adaflow::edge {

/// One DeviceSim served from a workload trace: Poisson arrivals at the
/// trace's rate (inflated by the injector's queue bursts), the monitor-poll
/// and window-sample cadences, and finalize at the trace's end. Scenario
/// runners add their own parts on device() and queue() between construction
/// and start() (a service model) or between start() and finish() (a canary
/// prober), so their events follow the driver's in the queue.
class SingleDeviceDriver {
 public:
  /// Throws ConfigError on an invalid \p config. \p trace, \p policy,
  /// \p config and \p injector (may be null: fault-free run) must outlive
  /// the driver.
  SingleDeviceDriver(const WorkloadTrace& trace, ServingPolicy& policy,
                     const ServerConfig& config, std::uint64_t seed,
                     faults::FaultInjector* injector = nullptr);
  SingleDeviceDriver(const SingleDeviceDriver&) = delete;
  SingleDeviceDriver& operator=(const SingleDeviceDriver&) = delete;

  sim::EventQueue& queue() { return queue_; }
  DeviceSim& device() { return device_; }

  /// Starts the device, then declares the arrival chain, the poll cadence
  /// and the sample cadence on queue(), in that order.
  void start();
  /// Runs the queue to the trace's end and returns the finalized metrics.
  RunMetrics finish();

 private:
  const WorkloadTrace& trace_;
  const ServerConfig& config_;
  sim::EventQueue queue_;
  DeviceSim device_;
  PoissonArrivals arrivals_;
};

/// Runs one full simulation of \p trace under \p policy. \p injector may be
/// null (fault-free run); when set, the same (schedule, seed) pair replays
/// bit-identically.
RunMetrics run_simulation(const WorkloadTrace& trace, ServingPolicy& policy,
                          const ServerConfig& config, std::uint64_t seed,
                          faults::FaultInjector* injector = nullptr);

/// Averages scalar metrics and series over repeated runs (seeds 0..runs-1
/// offset by seed_base), constructing a fresh policy per run via \p factory.
///
/// Caveat: `mean.switches` (the SwitchRecord trace) holds ONLY run 0's
/// switches, kept as a representative sequence for Figure-6-style annotation
/// tracks — switch traces of different runs have different lengths and times
/// and cannot be averaged. Benches that need switching activity across every
/// run must read `switches_per_run` / `reconfigurations_per_run` instead.
struct RepeatedRunResult {
  RunMetrics mean;                 ///< sim::mean over RunMetrics' field table:
                                   ///< scalars divided by runs (counts
                                   ///< rounded), series averaged, e2e
                                   ///< histogram pooled; `mean.switches` is
                                   ///< run 0's trace only
  sim::RunningStat frame_loss;
  sim::RunningStat qoe;
  sim::RunningStat power;

  /// Per-run switching activity (index = run); unlike `mean.switches`, these
  /// cover every run.
  std::vector<int> switches_per_run;
  std::vector<int> reconfigurations_per_run;

  /// Ratio statistics computed from the pooled (pre-rounding) totals over
  /// all runs. `mean.frame_loss()` divides two independently rounded counts,
  /// which drifts for tiny runs; these do not.
  double pooled_frame_loss = 0.0;
  double pooled_qoe = 0.0;
  double pooled_average_power_w = 0.0;
};

/// The fold behind run_repeated: per-run results (index = run) into their
/// per-run means, spreads and pooled ratios. The mean is derived from
/// RunMetrics' field table (sim::mean in sim/fields.hpp), so every field is
/// carried: counters and stats are summed in run order then divided by the
/// run count, except `mean.e2e_latency`, which is the pooled histogram of
/// all runs. The pooled ratios are those of sim::total.
RepeatedRunResult summarize_runs(const std::vector<RunMetrics>& runs);

/// The first per-run seed of run_each and run_repeated: run r draws its
/// trace from seed_base + r (seed_base defaults to this) and runs its server
/// at that seed ^ kServerSeedSalt.
inline constexpr std::uint64_t kRunSeedBase = 1000;
inline constexpr std::uint64_t kServerSeedSalt = 0x5bd1e995ULL;

/// One simulation per run, results in run order. \p traces is a
/// WorkloadConfig or a factory mapping the run's seed to its WorkloadTrace
/// (generated traces and CSV replays have no WorkloadConfig behind them).
/// \p factory builds the run's policy, from the run's trace if it takes one
/// (a policy with lookahead). \p injectors, if given, maps the run's seed to
/// the run's faults::FaultInjector (by value); by default runs are fault-free.
template <typename Traces, typename PolicyFactory, typename InjectorFactory = std::nullptr_t>
std::vector<RunMetrics> run_each(Traces&& traces, PolicyFactory&& factory,
                                 const ServerConfig& config, int runs,
                                 std::uint64_t seed_base = kRunSeedBase,
                                 InjectorFactory&& injectors = nullptr) {
  require(runs > 0, "run_each needs runs > 0");
  constexpr bool kFaultFree = std::is_null_pointer_v<std::remove_cvref_t<InjectorFactory>>;
  auto trace_of = [&traces](std::uint64_t seed) {
    if constexpr (std::is_same_v<std::remove_cvref_t<Traces>, WorkloadConfig>) {
      return WorkloadTrace(traces, seed);
    } else {
      return WorkloadTrace(traces(seed));
    }
  };
  auto policy_for = [&factory](const WorkloadTrace& trace) {
    if constexpr (std::invocable<PolicyFactory&, const WorkloadTrace&>) {
      return factory(trace);
    } else {
      return factory();
    }
  };
  auto injector_of = [&injectors](std::uint64_t seed) {
    if constexpr (kFaultFree) {
      return nullptr;
    } else {
      return injectors(seed);
    }
  };
  // Traces, policies and injectors are built serially (factories may share
  // state — RNGs, captured configs); the runs themselves are independent
  // simulations with fixed per-run seeds, so they fan out over the worker
  // pool. Results are stored by run index, so the outcome is bit-identical
  // to the serial loop regardless of worker count.
  std::vector<WorkloadTrace> run_traces;
  std::vector<decltype(policy_for(run_traces.front()))> policies;
  std::vector<decltype(injector_of(seed_base))> run_injectors;
  run_traces.reserve(static_cast<std::size_t>(runs));  // policies may keep a trace reference
  policies.reserve(static_cast<std::size_t>(runs));
  run_injectors.reserve(static_cast<std::size_t>(runs));
  for (int r = 0; r < runs; ++r) {
    const std::uint64_t seed = seed_base + static_cast<std::uint64_t>(r);
    run_traces.push_back(trace_of(seed));
    policies.push_back(policy_for(run_traces.back()));
    run_injectors.push_back(injector_of(seed));
  }
  std::vector<RunMetrics> results(static_cast<std::size_t>(runs));
  parallel_for(runs, [&](std::int64_t r) {
    const std::uint64_t seed = seed_base + static_cast<std::uint64_t>(r);
    const auto idx = static_cast<std::size_t>(r);
    faults::FaultInjector* injector = nullptr;
    if constexpr (!kFaultFree) {
      injector = &run_injectors[idx];
    }
    results[idx] = run_simulation(run_traces[idx], *policies[idx], config,
                                  seed ^ kServerSeedSalt, injector);
  });
  return results;
}

/// run_each folded by summarize_runs: per-run means, spreads and pooled
/// ratios of repeated fault-free runs.
template <typename Traces, typename PolicyFactory>
RepeatedRunResult run_repeated(Traces&& traces, PolicyFactory&& factory,
                               const ServerConfig& config, int runs,
                               std::uint64_t seed_base = kRunSeedBase) {
  return summarize_runs(run_each(std::forward<Traces>(traces),
                                 std::forward<PolicyFactory>(factory), config, runs, seed_base));
}

}  // namespace adaflow::edge
