#include "adaflow/ingest/pipeline.hpp"

#include <algorithm>
#include <cmath>
#include <memory>
#include <unordered_map>

#include "adaflow/common/error.hpp"
#include "adaflow/sim/stats.hpp"

namespace adaflow::ingest {

namespace {

// Distinct salts keep the per-component seed streams unrelated to each other
// and to the fleet's device-injector streams (which use the unsalted seed).
constexpr std::uint64_t kSessionSalt = 0x5345535349ULL;  // "SESSI"
constexpr std::uint64_t kNetworkSalt = 0x4e4554574fULL;  // "NETWO"
constexpr std::uint64_t kDecodeSalt = 0x4445434f44ULL;   // "DECOD"
constexpr std::uint64_t kIngestFaultSalt = 0x494e464cULL;

/// Brownout signal sampling cadence.
constexpr double kBrownoutPollS = 0.1;
/// Window over which the brownout's e2e p99 signal is computed.
constexpr double kLatencyWindowS = 1.0;
/// Baseline corrupt-frame probability of a decode.
constexpr double kDecodeFailP = 0.0005;
/// Backpressure re-check cadence while decode waits on the fleet.
constexpr double kDecodeRetryIntervalS = 0.005;
/// Bounded pre-decode queue per session.
constexpr std::int64_t kSessionQueueCapacity = 32;
/// Decode pauses while the fleet's ingress backlog is at or past this
/// (explicit backpressure: frames wait upstream, in the session queues).
constexpr std::int64_t kBackpressureThreshold = 64;
/// Brownout tier 1 keeps every kThinKeepEvery-th frame of each session
/// (2 = halve).
constexpr std::int64_t kThinKeepEvery = 2;

/// The pipeline on one event queue. Lives on the stack of run_ingest().
struct IngestSim {
  const IngestConfig& config;
  const core::AcceleratorLibrary& library;
  sim::EventQueue queue;
  fleet::FleetEngine engine;
  std::unique_ptr<faults::FaultInjector> injector;  ///< null = no scheduled faults

  std::vector<std::unique_ptr<CameraSession>> sessions;
  std::vector<std::unique_ptr<NetworkLink>> links;
  std::vector<StaleFilter> filters;

  /// One decoded-or-waiting frame between the filter and the fleet.
  struct Frame {
    double capture_s = 0.0;
    std::size_t session = 0;
  };
  std::vector<std::deque<Frame>> session_queues;
  std::vector<std::int64_t> session_queue_drops;
  std::size_t rr_cursor = 0;  ///< round-robin fairness across session queues
  int busy_workers = 0;
  bool retry_scheduled = false;
  Rng decode_rng;

  BrownoutController controller;
  /// Base (pre-brownout) library version per device; versions.size() when
  /// the device's initial mode is not in its library (never downgraded).
  std::vector<std::size_t> base_version;

  /// capture timestamps of frames currently inside the fleet, by tag.
  std::unordered_map<std::int64_t, double> pending;
  std::int64_t next_tag = 0;

  /// (completion time, latency) of recent deliveries for the p99 signal.
  std::deque<std::pair<double, double>> recent_latencies;
  double nominal_accuracy = 0.0;

  IngestMetrics metrics;

  IngestSim(const IngestConfig& c, const core::AcceleratorLibrary& lib,
            fleet::RoutingPolicy& router, std::uint64_t seed)
      : config(c), library(lib),
        engine(queue, lib, c.fleet, router, seed, c.duration_s),
        decode_rng(fleet::device_seed(seed ^ kDecodeSalt, 0)),
        controller(c.brownout) {
    if (config.faults.has_value()) {
      injector = std::make_unique<faults::FaultInjector>(
          *config.faults, fleet::device_seed(seed ^ kIngestFaultSalt, 0));
    }
    const std::size_t n = static_cast<std::size_t>(config.cameras);
    sessions.reserve(n);
    links.reserve(n);
    filters.resize(n);
    session_queues.resize(n);
    session_queue_drops.assign(n, 0);
    for (std::size_t i = 0; i < n; ++i) {
      sessions.push_back(std::make_unique<CameraSession>(
          queue, config.camera, fleet::device_seed(seed ^ kSessionSalt, i), config.duration_s,
          "cam" + std::to_string(i)));
      links.push_back(std::make_unique<NetworkLink>(
          queue, config.network, fleet::device_seed(seed ^ kNetworkSalt, i), injector.get()));
    }
  }

  // --- admission ------------------------------------------------------------

  void on_network_deliver(std::size_t i, std::int64_t seq, double capture_s) {
    if (!filters[i].admit(seq)) {
      return;
    }
    const BrownoutController::Decision d = controller.decision();
    if (d.drop_all) {
      ++metrics.dropall_shed;
      return;
    }
    // Deterministic per-session thinning: keeping fixed residues (not random
    // drops) preserves an even temporal spacing of the surviving frames.
    if (d.thin && seq % kThinKeepEvery != 0) {
      ++metrics.thinned;
      return;
    }
    if (static_cast<std::int64_t>(session_queues[i].size()) >= kSessionQueueCapacity) {
      // Bounded queue: the arriving frame is dropped (the stale filter has
      // already guaranteed everything waiting is fresher-ordered than it).
      ++metrics.queue_drops;
      ++session_queue_drops[i];
      return;
    }
    session_queues[i].push_back(Frame{capture_s, i});
    try_start_decodes();
  }

  // --- decode ---------------------------------------------------------------

  void schedule_backpressure_retry() {
    if (retry_scheduled) {
      return;
    }
    const double when = queue.now() + kDecodeRetryIntervalS;
    if (when > config.duration_s) {
      return;
    }
    retry_scheduled = true;
    queue.schedule_at(when, [this] {
      retry_scheduled = false;
      try_start_decodes();
    });
  }

  void try_start_decodes() {
    while (busy_workers < config.decode.workers) {
      if (engine.ingress_backlog() >= kBackpressureThreshold) {
        // Explicit backpressure: the dispatcher is saturated, so decoding
        // more frames would only move the backlog downstream. Wait upstream.
        schedule_backpressure_retry();
        return;
      }
      const std::size_t n = session_queues.size();
      std::size_t found = n;
      for (std::size_t k = 0; k < n; ++k) {
        const std::size_t idx = (rr_cursor + k) % n;
        if (!session_queues[idx].empty()) {
          found = idx;
          break;
        }
      }
      if (found == n) {
        return;  // nothing to decode
      }
      rr_cursor = (found + 1) % n;
      const Frame f = session_queues[found].front();
      session_queues[found].pop_front();
      ++busy_workers;
      ++metrics.decode_started;
      queue.schedule_in(config.decode.cost_s, [this, f] { finish_decode(f); });
    }
  }

  void finish_decode(const Frame& f) {
    --busy_workers;
    bool failed = injector != nullptr && injector->decode_fault(queue.now());
    if (!failed && decode_rng.bernoulli(kDecodeFailP)) {
      failed = true;
    }
    if (failed) {
      ++metrics.decode_failed;
    } else {
      const std::int64_t tag = next_tag++;
      pending.emplace(tag, f.capture_s);
      ++metrics.offered_to_fleet;
      if (engine.offer_frame(tag) == fleet::FleetEngine::Admit::kShed) {
        ++metrics.fleet_shed;
        pending.erase(tag);
      }
    }
    try_start_decodes();
  }

  // --- fleet result hooks ---------------------------------------------------

  void on_frame_done(std::int64_t tag, double accuracy) {
    const auto it = pending.find(tag);
    require(it != pending.end(), "fleet reported an unknown frame tag");
    const double latency = queue.now() - it->second;
    pending.erase(it);
    ++metrics.delivered;
    metrics.qoe_accuracy_sum += accuracy;
    if (accuracy + 1e-12 < nominal_accuracy) {
      ++metrics.degraded_delivered;
    }
    metrics.e2e_latency.record(latency);
    recent_latencies.emplace_back(queue.now(), latency);
  }

  void on_frame_lost(std::int64_t tag) {
    const auto it = pending.find(tag);
    require(it != pending.end(), "fleet lost an unknown frame tag");
    pending.erase(it);
    ++metrics.lost_in_fleet;
  }

  // --- brownout control -----------------------------------------------------

  double queue_fill_fraction() const {
    double fill = 0.0;
    for (const auto& q : session_queues) {
      fill = std::max(fill, static_cast<double>(q.size()) /
                                static_cast<double>(kSessionQueueCapacity));
    }
    if (config.fleet.ingress_capacity > 0) {
      fill = std::max(fill, static_cast<double>(engine.ingress_backlog()) /
                                static_cast<double>(config.fleet.ingress_capacity));
    }
    for (std::size_t i = 0; i < engine.device_count(); ++i) {
      const edge::DeviceSim& dev = engine.device(i);
      fill = std::max(fill, static_cast<double>(dev.queued()) /
                                static_cast<double>(dev.queue_capacity()));
    }
    return fill;
  }

  double recent_p99_s() {
    const double cutoff = queue.now() - kLatencyWindowS;
    while (!recent_latencies.empty() && recent_latencies.front().first < cutoff) {
      recent_latencies.pop_front();
    }
    if (recent_latencies.empty()) {
      return 0.0;
    }
    std::vector<double> values;
    values.reserve(recent_latencies.size());
    for (const auto& entry : recent_latencies) {
      values.push_back(entry.second);
    }
    return sim::percentile(values, 0.99);
  }

  void apply_downgrade(bool downgrade) {
    for (std::size_t i = 0; i < engine.device_count(); ++i) {
      const std::size_t base = base_version[i];
      const core::AcceleratorLibrary& lib = engine.device_library(i);
      if (base >= lib.versions.size()) {
        continue;  // initial mode not in the library: leave this device alone
      }
      const std::size_t target =
          downgrade ? std::min(base + static_cast<std::size_t>(config.brownout.downgrade_steps),
                               lib.versions.size() - 1)
                    : base;
      const edge::DeviceSim& dev = engine.device(i);
      if (dev.switch_in_flight()) {
        continue;  // try again next tick; never interrupt a ladder
      }
      const std::size_t current = lib.find(dev.mode().model_version);
      if (current >= lib.versions.size() || current == target) {
        continue;
      }
      engine.command_device_switch(i, core::switch_to(lib, target, hls::AcceleratorVariant::kFixed,
                                                      core::variant_of(dev.mode())));
    }
  }

  void brownout_tick() {
    const BrownoutController::Decision d =
        controller.update(queue.now(), queue_fill_fraction(), recent_p99_s());
    if (config.brownout.mode == BrownoutMode::kLadder) {
      apply_downgrade(d.downgrade);
    }
    try_start_decodes();  // backpressure may have cleared since the last wake
  }

  // --- lifecycle ------------------------------------------------------------

  IngestMetrics run() {
    engine.set_frame_hooks(
        [this](std::int64_t tag, double accuracy) { on_frame_done(tag, accuracy); },
        [this](std::int64_t tag) { on_frame_lost(tag); });
    engine.start();
    base_version.reserve(engine.device_count());
    for (std::size_t i = 0; i < engine.device_count(); ++i) {
      const core::AcceleratorLibrary& lib = engine.device_library(i);
      const std::size_t base = lib.find(engine.device(i).mode().model_version);
      base_version.push_back(base);
      if (base < lib.versions.size()) {
        nominal_accuracy = std::max(nominal_accuracy, lib.versions[base].accuracy);
      }
    }
    for (std::size_t i = 0; i < sessions.size(); ++i) {
      links[i]->set_on_deliver([this, i](std::int64_t seq, double capture_s) {
        on_network_deliver(i, seq, capture_s);
      });
      sessions[i]->set_on_frame([this, i](std::int64_t seq, double capture_s) {
        links[i]->transmit(seq, capture_s);
      });
      sessions[i]->start();
    }
    queue.every(kBrownoutPollS, kBrownoutPollS, config.duration_s, [this] { brownout_tick(); });

    queue.run_until(config.duration_s);

    // --- finalize ----------------------------------------------------------
    controller.finalize(config.duration_s);
    metrics.duration_s = config.duration_s;
    metrics.brownout = controller.stats();
    metrics.final_tier = controller.tier();
    metrics.decode_in_flight = busy_workers;
    metrics.fleet_backlog = static_cast<std::int64_t>(pending.size());
    metrics.sessions.reserve(sessions.size());
    for (std::size_t i = 0; i < sessions.size(); ++i) {
      IngestSessionResult r;
      r.name = sessions[i]->name();
      r.final_state = sessions[i]->state();
      r.session = sessions[i]->stats();
      r.network = links[i]->stats();
      r.filter = filters[i].stats();
      r.queue_drops = session_queue_drops[i];
      r.queued_at_end = static_cast<std::int64_t>(session_queues[i].size());
      metrics.captured += r.session.frames_captured;
      metrics.duplicates += r.network.duplicates;
      metrics.network_lost += r.network.lost();
      metrics.network_in_flight += r.network.in_flight();
      metrics.stale_dropped += r.filter.dropped_stale;
      metrics.reordered += r.filter.reordered;
      metrics.session_queued += r.queued_at_end;
      metrics.sessions.push_back(std::move(r));
    }
    if (injector != nullptr) {
      metrics.faults.network_outage_drops =
          injector->injected(faults::FaultKind::kNetworkOutage);
      metrics.faults.decode_faults_injected =
          injector->injected(faults::FaultKind::kDecodeFault);
    }
    metrics.fleet = engine.finalize(config.duration_s);
    metrics.fleet.e2e_latency = metrics.e2e_latency;
    return std::move(metrics);
  }
};

}  // namespace

void IngestConfig::validate() const {
  if (cameras <= 0) {
    throw ConfigError("IngestConfig.cameras must be positive");
  }
  if (!(duration_s > 0.0) || !std::isfinite(duration_s)) {
    throw ConfigError("IngestConfig.duration_s must be positive");
  }
  if (!(decode.cost_s >= 0.0) || !std::isfinite(decode.cost_s)) {
    throw ConfigError("IngestConfig.decode.cost_s must be >= 0");
  }
  if (decode.workers <= 0) {
    throw ConfigError("IngestConfig.decode.workers must be positive");
  }
  brownout.validate();
  fleet.validate();
  if (faults.has_value()) {
    faults->validate();
  }
}

IngestMetrics run_ingest(const IngestConfig& config, const core::AcceleratorLibrary& library,
                         fleet::RoutingPolicy& router, std::uint64_t seed) {
  config.validate();
  require(!library.versions.empty(), "ingest library has no versions");
  IngestSim sim(config, library, router, seed);
  return sim.run();
}

}  // namespace adaflow::ingest
