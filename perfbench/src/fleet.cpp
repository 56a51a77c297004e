/// fleet_adapt: shard::run_sharded_fleet over core::synthetic_library() with
/// 64 AdaFlow-managed devices at ~700 FPS each, redrawn +-70% every 0.5 s —
/// near and over capacity, so the Runtime Manager switches models and
/// reconfigures (the edge/core switch path), while each of the 4 shards
/// routes among only 16 devices. Health monitoring is on and every 37th
/// device runs faults::flaky_edge_schedule, so the fault layer runs too. (The
/// flaky schedule's stalls are shorter than the health monitor's suspect +
/// quarantine timeouts, so no device is quarantined; fleet.quarantines and
/// fleet.redispatched read 0.)

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <functional>
#include <optional>

#include "adaflow/common/rng.hpp"
#include "adaflow/core/library.hpp"
#include "adaflow/faults/fault_injector.hpp"
#include "adaflow/fleet/engine.hpp"
#include "adaflow/fleet/fleet.hpp"
#include "adaflow/fleet/routing.hpp"
#include "adaflow/shard/sharded_engine.hpp"
#include "adaflow/sim/event_queue.hpp"
#include "host_speed.hpp"
#include "stats.hpp"
#include "workloads.hpp"

namespace perfbench {
namespace {

using namespace adaflow;

constexpr int kDevices = 64;
constexpr int kShards = 4;
constexpr int kDevicesPerShard = kDevices / kShards;
constexpr double kFpsPerDevice = 700.0;
constexpr std::size_t kFlakyEvery = 37;  ///< every 37th device runs the flaky schedule
constexpr double kDurationS = 20.0;      ///< simulated seconds per run
constexpr double kRedrawS = 0.5;

/// Setup takes well under a millisecond, so each setup sample times enough
/// back-to-back setups to cover kSetupSampleS, and setup_s is the median
/// per-setup time of kSetupSamples such samples.
constexpr double kSetupSampleS = 0.1;
constexpr int kSetupSamples = 15;

struct Setup {
  core::AcceleratorLibrary library;
  std::optional<edge::WorkloadTrace> trace;  // WorkloadTrace has no empty state
  fleet::FleetConfig config;
};

/// Builds library, trace and fleet. The fleet's devices point at
/// \p library, so \p s must not move afterwards.
void build_setup(std::uint64_t seed, Setup& s) {
  s.library = core::synthetic_library();
  // Scenario-2 style: the rate is redrawn every kRedrawS within +-70% of the
  // base. The draws are stratified — a seeded permutation of evenly spaced
  // levels — so every seed offers the same total load in a different order,
  // and the seed does not change how much work a run is.
  const auto segments = static_cast<std::size_t>(kDurationS / kRedrawS);
  std::vector<double> times(segments);
  std::vector<double> rates(segments);
  for (std::size_t k = 0; k < segments; ++k) {
    times[k] = kRedrawS * static_cast<double>(k);
    rates[k] = kFpsPerDevice * kDevices *
               (0.3 + 1.4 * (static_cast<double>(k) + 0.5) / static_cast<double>(segments));
  }
  Rng rng(derive_seed(seed, 1));
  rng.shuffle(rates);
  s.trace.emplace(times, rates, kDurationS);
  s.config = fleet::FleetConfig{};
  s.config.devices = fleet::homogeneous_devices(s.library, core::RuntimeManagerConfig{}, kDevices);
  s.config.ingress_capacity = 16 * static_cast<std::int64_t>(kDevices);
  s.config.health.enabled = true;
  for (std::size_t i = 0; i < s.config.devices.size(); i += kFlakyEvery) {
    s.config.devices[i].fault_schedule = faults::flaky_edge_schedule(kDurationS);
  }
}

/// One sharded run; \p threads 0 keeps the pinned pool.
shard::ShardedMetrics simulate(const Setup& s, std::uint64_t seed, int shards, int threads) {
  shard::ShardConfig sc;
  sc.shards = shards;
  sc.threads = threads;
  return shard::run_sharded_fleet(*s.trace, s.library, s.config, sc, "least-loaded",
                                  derive_seed(seed, 2));
}

bool conserves(const fleet::FleetMetrics& m) {
  return m.arrived + m.redispatched == m.dispatched + m.ingress_lost + m.ingress_backlog;
}

double switch_stall_s(const fleet::FleetMetrics& m) {
  double stall = 0.0;
  for (const fleet::FleetDeviceResult& d : m.devices) {
    stall += d.metrics.switch_stall_s;
  }
  return stall;
}

/// What one shard's engine asks of the event queue and the router, sampled
/// at every kRecordEvery-th routing decision.
struct ShardTraffic {
  std::vector<double> queue_depths;  ///< sim::EventQueue::pending()
  std::vector<std::vector<fleet::DeviceStatus>> statuses;  ///< the router's input
  std::int64_t routes = 0;
};

constexpr std::int64_t kRecordEvery = 64;

/// LeastLoadedRouter behind a recorder of its input and the queue depth.
class RecordingRouter final : public fleet::RoutingPolicy {
 public:
  RecordingRouter(const sim::EventQueue& queue, ShardTraffic& traffic)
      : queue_(queue), traffic_(traffic) {}
  std::string name() const override { return inner_.name(); }
  std::size_t route(double now_s, const std::vector<fleet::DeviceStatus>& devices) override {
    if (traffic_.routes++ % kRecordEvery == 0) {
      traffic_.queue_depths.push_back(static_cast<double>(queue_.pending()));
      traffic_.statuses.push_back(devices);
    }
    return inner_.route(now_s, devices);
  }

 private:
  const sim::EventQueue& queue_;
  ShardTraffic& traffic_;
  fleet::LeastLoadedRouter inner_;
};

/// Shard 0 of the sharded run, driven directly: a FleetEngine over devices
/// 0, 4, 8, ... on a caller-owned EventQueue, fed every kShards-th frame of
/// the fleet's Poisson arrival stream (the sharded engine's split; frames
/// handed over from other shards are not replayed). Returns the recorded
/// traffic and checks that the shard conserves frames.
ShardTraffic record_shard_traffic(const Setup& s, std::uint64_t seed, Checker& checks) {
  fleet::FleetConfig config;
  config.ingress_capacity = s.config.ingress_capacity / kShards;
  config.sample_interval_s = s.config.sample_interval_s;
  config.coordinator = s.config.coordinator;
  config.health = s.config.health;
  for (std::size_t i = 0; i < s.config.devices.size(); i += kShards) {
    config.devices.push_back(s.config.devices[i]);
  }
  std::vector<double> arrivals;
  Rng rng(derive_seed(seed, 2));
  double t = rng.exponential(s.trace->rate_at(0.0));
  for (std::int64_t k = 0; t <= kDurationS; ++k) {
    if (k % kShards == 0) {
      arrivals.push_back(t);
    }
    t += rng.exponential(s.trace->rate_at(t));
  }

  ShardTraffic traffic;
  sim::EventQueue queue;
  RecordingRouter router(queue, traffic);
  fleet::FleetEngine engine(queue, s.library, config, router, derive_seed(seed, 3), kDurationS);
  engine.start();
  std::size_t next = 0;
  std::function<void()> arrive = [&] {
    engine.offer_frame();
    if (++next < arrivals.size()) {
      queue.schedule_at(arrivals[next], arrive);
    }
  };
  if (!arrivals.empty()) {
    queue.schedule_at(arrivals.front(), arrive);
  }
  queue.run_until(kDurationS);
  const fleet::FleetMetrics m = engine.finalize(kDurationS);
  checks.op(conserves(m) && m.arrived == static_cast<std::int64_t>(arrivals.size()) &&
                traffic.routes > 0,
            "one shard driven directly conserves frames");
  return traffic;
}

/// Host ns per event of sim::EventQueue, replaying the recorded depths: batch
/// b holds the depth at the (b + 1/2)/kBatches quantile of the recording as
/// self-rescheduling events (the "hold" pattern of a running simulation).
/// Median of the batches.
double event_queue_ns(const std::vector<double>& depths, std::uint64_t seed) {
  constexpr int kBatches = 9;
  constexpr std::int64_t kEventsPerBatch = 200000;
  std::vector<double> sorted = depths;
  std::sort(sorted.begin(), sorted.end());
  std::vector<double> ns;
  for (int b = 0; b < kBatches; ++b) {
    const auto depth = static_cast<std::size_t>(std::max(
        1.0, sorted[static_cast<std::size_t>((b + 0.5) / kBatches * sorted.size())]));
    sim::EventQueue q;
    Rng rng(derive_seed(seed, 10 + static_cast<std::uint64_t>(b)));
    std::int64_t fired = 0;
    std::function<void()> hold = [&] {
      ++fired;
      q.schedule_in(rng.exponential(1.0), hold);
    };
    for (std::size_t i = 0; i < depth; ++i) {
      q.schedule_at(rng.exponential(1.0), hold);
    }
    // Mean delay 1 s per event, so depth events fire about depth times a second.
    const double horizon = static_cast<double>(kEventsPerBatch) / static_cast<double>(depth);
    const auto t0 = std::chrono::steady_clock::now();
    q.run_until(horizon);
    ns.push_back(1e9 * seconds_since(t0) / static_cast<double>(fired));
  }
  return median(ns);
}

/// Host ns per LeastLoadedRouter::route call, replaying the recorded status
/// vectors in order: median of batches.
double route_ns(const std::vector<std::vector<fleet::DeviceStatus>>& statuses) {
  constexpr int kBatches = 9;
  constexpr int kCallsPerBatch = 100000;
  fleet::LeastLoadedRouter router;
  std::vector<double> ns;
  std::size_t sink = 0;
  for (int b = 0; b < kBatches; ++b) {
    const auto t0 = std::chrono::steady_clock::now();
    for (int i = 0; i < kCallsPerBatch; ++i) {
      sink += router.route(0.001 * i, statuses[static_cast<std::size_t>(i) % statuses.size()]);
    }
    ns.push_back(1e9 * seconds_since(t0) / kCallsPerBatch);
  }
  if (sink == static_cast<std::size_t>(-1)) {
    std::printf("unreachable\n");  // keeps the route calls observable
  }
  return median(ns);
}

void traced_run(const RunOptions& options, Outcome& out) {
  // Traced calls alternate with untraced ones after a warm-up call, so the
  // overhead compares medians taken under the same host conditions.
  constexpr int kPairs = 3;
  Tracer& tr = out.tracer;
  const std::size_t root = tr.open(tr.intern("bench.fleet_adapt"));
  Setup s;
  {
    const Tracer::Scope span(tr, tr.intern("fleet.setup"));
    build_setup(options.seed, s);
  }
  const int span_warmup = tr.intern("bench.warmup_call");
  const int span_untraced = tr.intern("bench.untraced_call");
  const int span_call = tr.intern("shard.run_sharded_fleet");
  std::string fingerprint;
  {
    const Tracer::Scope span(tr, span_warmup);
    fingerprint = shard::metrics_fingerprint(simulate(s, options.seed, kShards, 0).fleet);
  }
  std::vector<double> untraced_s, call_s, loop_s, outside_s;
  shard::ShardedMetrics m;
  for (int i = 0; i < kPairs; ++i) {
    const auto t0 = std::chrono::steady_clock::now();
    {
      const Tracer::Scope span(tr, span_untraced);
      m = simulate(s, options.seed, kShards, 0);
    }
    untraced_s.push_back(seconds_since(t0));
    const std::size_t call = tr.open(span_call);
    m = simulate(s, options.seed, kShards, 0);
    tr.close(call);
    call_s.push_back(tr.seconds(call));
    loop_s.push_back(m.stats.wall_seconds);
    outside_s.push_back(call_s.back() - loop_s.back());
    out.checks.op(shard::metrics_fingerprint(m.fleet) == fingerprint && conserves(m.fleet),
                  "traced run replays the untraced one and conserves frames");
  }
  const std::size_t s1 = tr.open(tr.intern("shard.run_sharded_fleet_s1"));
  const shard::ShardedMetrics single = simulate(s, options.seed, 1, 0);
  tr.close(s1);
  out.checks.op(conserves(single.fleet), "1-shard run conserves frames");
  ShardTraffic traffic;
  {
    const Tracer::Scope span(tr, tr.intern("fleet.shard0_engine"));
    traffic = record_shard_traffic(s, options.seed, out.checks);
  }
  double eq_ns = 0.0;
  double rt_ns = 0.0;
  {
    const Tracer::Scope span(tr, tr.intern("sim.event_queue_bench"));
    eq_ns = event_queue_ns(traffic.queue_depths, options.seed);
  }
  {
    const Tracer::Scope span(tr, tr.intern("fleet.route_bench"));
    rt_ns = route_ns(traffic.statuses);
  }
  tr.close(root);
  const Quartiles depth = quartiles(traffic.queue_depths);
  std::printf("shard 0 driven directly: %lld routing decisions, %zu recorded; event-queue "
              "depth q1/median/q3 %.0f/%.0f/%.0f over %zu devices\n",
              static_cast<long long>(traffic.routes), traffic.statuses.size(), depth.q1,
              depth.q2, depth.q3, traffic.statuses.front().size());

  const fleet::FleetMetrics& f = m.fleet;
  const double call = median(call_s);
  const double overhead = (call - median(untraced_s)) / median(untraced_s);
  out.metrics = {
      {"shard.call_s", call},
      {"shard.window_loop_s", median(loop_s)},
      {"shard.outside_loop_s", median(outside_s)},
      {"shard.windows", static_cast<double>(m.stats.windows)},
      {"shard.handoffs", static_cast<double>(m.stats.handoffs)},
      {"shard.handoff_lost", static_cast<double>(m.stats.handoff_lost)},
      {"shard.s1_call_s", tr.seconds(s1)},
      {"sim.host_ns_per_frame", 1e9 * call / static_cast<double>(f.arrived)},
      {"sim.event_queue_ns", eq_ns},
      {"fleet.route_ns", rt_ns},
      {"fleet.arrived", static_cast<double>(f.arrived)},
      {"fleet.dispatched", static_cast<double>(f.dispatched)},
      {"fleet.redispatched", static_cast<double>(f.redispatched)},
      {"fleet.hedged", static_cast<double>(f.hedged)},
      {"fleet.ingress_lost", static_cast<double>(f.ingress_lost)},
      {"fleet.device_lost", static_cast<double>(f.device_lost)},
      {"fleet.processed", static_cast<double>(f.processed)},
      {"fleet.quarantines", static_cast<double>(f.quarantines)},
      {"fleet.rejoins", static_cast<double>(f.rejoins)},
      {"fleet.dispatch_per_arrival",
       static_cast<double>(f.dispatched) / static_cast<double>(f.arrived)},
      {"edge.model_switches", static_cast<double>(f.model_switches)},
      {"edge.reconfigurations", static_cast<double>(f.reconfigurations)},
      {"edge.switch_stall_s", switch_stall_s(f)},
      {"faults.injected", static_cast<double>(f.faults.total_injected())},
      {"trace.overhead_frac", overhead}};
  report_trace(options, tr, overhead);
}

}  // namespace

void run_fleet_adapt(const RunOptions& options, Outcome& out) {
  if (options.trace) {
    traced_run(options, out);
    return;
  }
  Setup s;
  const auto t_first = std::chrono::steady_clock::now();
  build_setup(options.seed, s);
  const int batch = static_cast<int>(std::ceil(kSetupSampleS / seconds_since(t_first)));
  std::vector<double> setup_samples, setup_raw;
  for (int i = 0; i < kSetupSamples; ++i) {
    const Timing t = timed([&] {
      for (int k = 0; k < batch; ++k) {
        build_setup(options.seed, s);
      }
    });
    setup_samples.push_back(t.scaled_s / batch);
    setup_raw.push_back(t.raw_s / batch);
  }
  const double setup_s = median(setup_samples);

  std::vector<double> run_s, run_raw;
  std::string fingerprint;
  shard::ShardedMetrics m;
  // Peak RSS of set-up plus one run: later repeats only add allocator
  // fragmentation, which depends on how many runs the host fits in.
  double rss_mb = 0.0;
  const auto start = std::chrono::steady_clock::now();
  do {
    const Timing t = timed([&] { m = simulate(s, options.seed, kShards, 0); });
    run_s.push_back(t.scaled_s);
    run_raw.push_back(t.raw_s);
    const std::string fp = shard::metrics_fingerprint(m.fleet);
    if (fingerprint.empty()) {
      fingerprint = fp;
      rss_mb = peak_rss_mb();
    }
    out.checks.op(fp == fingerprint && conserves(m.fleet) && m.fleet.processed > 0,
                  "run " + std::to_string(run_s.size()) + ": conserves frames, replays run 1");
  } while (seconds_since(start) < options.seconds);

  // Untimed: the same run on two workers must be bit-identical.
  const shard::ShardedMetrics two = simulate(s, options.seed, kShards, 2);
  out.checks.op(shard::metrics_fingerprint(two.fleet) == fingerprint,
                "fingerprint identical at 1 and 2 workers");
  if (!matches_stored_digest(options, "fingerprint", fingerprint)) {
    out.checks.op(false, "fleet metrics differ from an earlier run with this seed");
  }

  const fleet::FleetMetrics& f = m.fleet;
  const double wall_s = median(run_s);
  const double frames_per_s = static_cast<double>(f.arrived) / median(run_raw);
  std::printf("fleet_adapt: %zu runs of %.0f simulated s, %lld frames each, fingerprint %s\n",
              run_s.size(), kDurationS, static_cast<long long>(f.arrived),
              fingerprint.c_str());
  std::printf("  %-22s %.6f s at reference speed (median of %d samples of %d setups; raw %.6f s)\n",
              "setup_s", setup_s, kSetupSamples, batch, median(setup_raw));
  std::printf("  %-22s %.4f s per run at reference speed (%s; raw %.4f s)\n", "wall_s", wall_s,
              sample_note(run_s).c_str(), median(run_raw));
  std::printf("  %-22s %.0f frames/s (simulated frames per raw host second)\n",
              "sim_frames_per_s", frames_per_s);
  std::printf("  %-22s %.6f fraction\n", "qoe", f.qoe());
  std::printf("  %-22s %.4f 1/J\n", "inferences_per_j",
              static_cast<double>(f.processed) / f.energy_j);
  std::printf("  %-22s %.6f fraction\n", "frame_loss", f.frame_loss());
  // FleetMetrics::tail_latency_p95_s is a p95 of one worst-device backlog
  // sample per 0.5 s; print the highest percentile with enough samples
  // beyond it.
  const std::vector<double>& backlog = f.backlog_series.values;
  for (const double q : {0.95, 0.75, 0.5}) {
    if (const std::optional<double> p = tail_percentile(backlog, q)) {
      const std::string name = "tail_p" + std::to_string(std::lround(100 * q)) + "_ms";
      std::printf("  %-22s %.4f ms (worst-device backlog, n=%zu samples; p95 needs %zu)\n",
                  name.c_str(), 1e3 * *p, backlog.size(), min_samples_for(0.95));
      break;
    }
  }
  std::printf("  switches %d, reconfigurations %d, quarantines %lld, faults %lld\n",
              f.model_switches, f.reconfigurations, static_cast<long long>(f.quarantines),
              static_cast<long long>(f.faults.total_injected()));
  out.metrics = {{"setup_s", setup_s},
                 {"wall_s", wall_s},
                 {"peak_rss_mb", rss_mb},
                 {"quality", f.qoe()}};
}

}  // namespace perfbench
