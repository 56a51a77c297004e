#include "adaflow/tenant/serving.hpp"

#include <algorithm>
#include <cmath>
#include <functional>
#include <optional>
#include <unordered_map>

#include "adaflow/fleet/engine.hpp"
#include "adaflow/forecast/tracker.hpp"
#include "adaflow/sim/event_queue.hpp"
#include "adaflow/tenant/scheduler.hpp"

namespace adaflow::tenant {

namespace {

/// Per-tenant arrival-stream salt: tenant t's Poisson draws are independent
/// of every other tenant's and of the device fault streams.
constexpr std::uint64_t kArrivalSalt = 0x54454e414e545331ULL;

/// Tenant coordinator cadence: one rate measurement, forecast step and
/// re-plan per tick.
constexpr double kCoordinatorIntervalS = 0.5;
/// A version switch is only commanded on a device whose backlog is below
/// this (opportunistic switching keeps reconfig stalls off hot queues).
constexpr double kSwitchBacklogLimitS = 0.02;
/// Per-device spacing between commanded switches, in units of the library's
/// reconfiguration time (the paper's 10x switch-interval rule).
constexpr double kSwitchSpacingFactor = 10.0;
constexpr std::int64_t kDeviceQueueCapacity = 8;
/// Shared-FIFO depth (SchedulerPolicy::kFifo; WFQ classes use each tenant's
/// own ingress_capacity).
constexpr std::int64_t kFifoIngressCapacity = 192;

std::uint64_t tenant_seed(std::uint64_t seed, std::size_t t) {
  return seed ^ kArrivalSalt ^ (0x9e3779b97f4a7c15ULL * static_cast<std::uint64_t>(t + 1));
}

}  // namespace

void MultiTenantConfig::validate() const {
  if (tenants.empty()) {
    throw ConfigError("MultiTenantConfig.tenants must not be empty");
  }
  for (const TenantSpec& t : tenants) {
    t.validate();
  }
  if (devices < static_cast<int>(tenants.size()) || devices > 256) {
    throw ConfigError("MultiTenantConfig.devices must be in [tenant count, 256]");
  }
  auto positive = [](double v, const char* field) {
    if (!(std::isfinite(v) && v > 0.0)) {
      throw ConfigError(std::string("MultiTenantConfig.") + field + " must be positive");
    }
  };
  positive(duration_s, "duration_s");
  positive(sample_interval_s, "sample_interval_s");
  if (!(std::isfinite(warmup_s) && warmup_s >= 0.0)) {
    throw ConfigError("MultiTenantConfig.warmup_s must be >= 0");
  }
  health.validate();
}

namespace {

/// The whole simulation on one stack frame (the ingest-pipeline pattern):
/// components hold references into each other, so construction order is
/// destruction order reversed and nothing dangles.
struct TenantSim {
  const MultiTenantConfig& config;
  const core::AcceleratorLibrary& library;

  sim::EventQueue queue;
  std::vector<const core::AcceleratorLibrary*> tenant_lib;
  fleet::FleetConfig fleet_config;
  TenantRouter router;
  std::optional<WfqIngress> wfq;
  std::optional<fleet::FleetEngine> engine;

  struct TenantState {
    TokenBucket bucket;
    forecast::ForecastTracker tracker;
    edge::PoissonArrivals arrivals;
    std::int64_t seq = 0;
    fleet::TenantUsage usage;
    // Current sample window.
    std::int64_t w_offered = 0;
    std::int64_t w_admitted = 0;
    std::int64_t w_delivered = 0;
    double w_quality = 0.0;
    std::vector<double> w_latencies;
    // In-budget QoE aggregation (see TenantResult::in_budget_accuracy).
    double in_budget_quality = 0.0;
    std::int64_t in_budget_delivered = 0;
    // Coordinator rate measurement.
    std::int64_t coord_admitted_snap = 0;
  };
  std::vector<TenantState> tenants;

  std::unordered_map<std::int64_t, double> pending;  ///< tag -> admission time
  std::vector<double> last_switch_s;                 ///< per device
  MultiTenantMetrics out;

  TenantSim(const MultiTenantConfig& cfg, const core::AcceleratorLibrary& lib,
            std::uint64_t seed)
      : config(cfg), library(lib),
        router(cfg.tenants.size(), static_cast<std::size_t>(cfg.devices), cfg.allow_borrow) {
    for (const TenantSpec& t : cfg.tenants) {
      tenant_lib.push_back(t.library != nullptr ? t.library : &lib);
      require(!tenant_lib.back()->versions.empty(),
              "tenant '" + t.name + "' library has no versions");
    }

    // Initial partition from the traces' t=0 rates (the only signal before
    // any traffic); kPeakFps ignores the rates and splits evenly.
    const PartitionPlan plan = plan_partition(plan_inputs_at_start(), lib, cfg.devices,
                                              cfg.partition);
    std::size_t device = 0;
    for (std::size_t t = 0; t < cfg.tenants.size(); ++t) {
      for (int k = 0; k < plan.device_count[t]; ++k, ++device) {
        router.assign(device, t);
        fleet::FleetDevice d = fleet::pinned_device("dev" + std::to_string(device),
                                                    *tenant_lib[t], plan.version[t]);
        d.coordinated = false;  // the tenant coordinator owns re-planning
        d.server.queue_capacity = kDeviceQueueCapacity;
        fleet_config.devices.push_back(std::move(d));
      }
    }
    fleet_config.ingress_capacity = kFifoIngressCapacity;
    fleet_config.sample_interval_s = cfg.sample_interval_s;
    fleet_config.health = cfg.health;
    // The engine's own single-class coordinator stays off.
    fleet_config.coordinator.enabled = false;

    engine.emplace(queue, lib, fleet_config, router, seed, cfg.duration_s);
    if (cfg.scheduler == SchedulerPolicy::kWfq) {
      std::vector<WfqIngress::ClassConfig> classes;
      for (const TenantSpec& t : cfg.tenants) {
        classes.push_back(WfqIngress::ClassConfig{t.weight, t.ingress_capacity});
      }
      wfq.emplace(std::move(classes));
      engine->set_ingress_queue(*wfq);
    }

    forecast::ForecastTrackerConfig fc;
    fc.window_s = kCoordinatorIntervalS;
    for (std::size_t t = 0; t < cfg.tenants.size(); ++t) {
      TenantState state{TokenBucket(cfg.tenants[t].admission),
                        forecast::ForecastTracker(fc),
                        edge::PoissonArrivals(cfg.tenants[t].trace, tenant_seed(seed, t),
                                              cfg.duration_s),
                        0, {}, 0, 0, 0, 0.0, {}, 0.0, 0, 0};
      state.usage.name = cfg.tenants[t].name;
      tenants.push_back(std::move(state));
    }
    last_switch_s.assign(static_cast<std::size_t>(cfg.devices), -1e18);
    out.tenants.resize(cfg.tenants.size());
  }

  std::vector<TenantPlanInput> plan_inputs_at_start() const {
    std::vector<TenantPlanInput> inputs;
    for (std::size_t t = 0; t < config.tenants.size(); ++t) {
      TenantPlanInput in;
      in.predicted_rate_fps = config.tenants[t].trace.rate_at(0.0);
      in.accuracy_threshold = config.tenants[t].accuracy_threshold;
      in.library = tenant_lib[t];
      inputs.push_back(in);
    }
    return inputs;
  }

  // --- frame path -----------------------------------------------------------

  void on_done(std::int64_t tag, double accuracy) {
    const auto it = pending.find(tag);
    require(it != pending.end(), "frame done hook fired for an unknown tag");
    const double latency = queue.now() - it->second;
    pending.erase(it);
    TenantState& t = tenants[tag_tenant(tag)];
    ++t.usage.delivered;
    t.usage.qoe_accuracy_sum += accuracy;
    t.usage.latency.record(latency);
    ++t.w_delivered;
    t.w_quality += accuracy;
    t.w_latencies.push_back(latency);
  }

  void on_lost(std::int64_t tag) {
    const auto it = pending.find(tag);
    require(it != pending.end(), "frame lost hook fired for an unknown tag");
    pending.erase(it);
    ++tenants[tag_tenant(tag)].usage.lost;
  }

  void arrive(std::size_t t) {
    TenantState& state = tenants[t];
    ++state.usage.offered;
    ++state.w_offered;
    if (!state.bucket.try_take(queue.now())) {
      ++state.usage.throttled;
      return;
    }
    ++state.usage.admitted;
    ++state.w_admitted;
    const std::int64_t tag = make_tag(t, state.seq++);
    pending.emplace(tag, queue.now());
    if (engine->offer_frame(tag) == fleet::FleetEngine::Admit::kShed) {
      ++state.usage.shed;
      pending.erase(tag);
    }
  }

  // --- SLO sampling ---------------------------------------------------------

  void sample_window() {
    for (std::size_t t = 0; t < tenants.size(); ++t) {
      TenantState& state = tenants[t];
      const TenantSpec& spec = config.tenants[t];
      if (state.w_admitted > 0) {
        const double p95 = sim::percentile(state.w_latencies, 0.95);
        const bool starved = state.w_delivered == 0;
        const bool too_slow = p95 > spec.slo.max_latency_s;
        const bool too_lossy =
            static_cast<double>(state.w_delivered) <
            spec.slo.min_deliver_fraction * static_cast<double>(state.w_admitted);
        if (starved || too_slow || too_lossy) {
          state.usage.slo_violation_s += config.sample_interval_s;
        }
      }
      const double offered_rate =
          static_cast<double>(state.w_offered) / config.sample_interval_s;
      if (offered_rate <= spec.admission.rate_fps * 1.05) {
        state.in_budget_quality += state.w_quality;
        state.in_budget_delivered += state.w_delivered;
      }
      state.w_offered = 0;
      state.w_admitted = 0;
      state.w_delivered = 0;
      state.w_quality = 0.0;
      state.w_latencies.clear();
    }
  }

  // --- tenant coordinator ---------------------------------------------------

  double predicted_rate(std::size_t t, double measured) {
    forecast::ForecastTracker& tracker = tenants[t].tracker;
    tracker.observe(measured);
    if (tracker.forecaster().observations() < 2) {
      return measured;
    }
    // A predicted fall never de-provisions early; a predicted rise
    // re-provisions while the old rate still holds.
    return std::max(measured, tracker.current().rate);
  }

  void coordinator_tick() {
    const double now = queue.now();
    std::vector<TenantPlanInput> inputs(tenants.size());
    for (std::size_t t = 0; t < tenants.size(); ++t) {
      TenantState& state = tenants[t];
      const double measured =
          static_cast<double>(state.usage.admitted - state.coord_admitted_snap) /
          kCoordinatorIntervalS;
      state.coord_admitted_snap = state.usage.admitted;
      inputs[t].predicted_rate_fps = predicted_rate(t, measured);
      inputs[t].accuracy_threshold = config.tenants[t].accuracy_threshold;
      inputs[t].library = tenant_lib[t];
    }
    if (config.partition == PartitionPolicy::kRateAware && now >= config.warmup_s) {
      apply_plan(now, plan_partition(inputs, library, config.devices,
                                     PartitionPolicy::kRateAware));
    }
    // Frames a hard partition declined earlier get another look whenever the
    // plan (or simply time) moved.
    engine->pump();
  }

  void apply_plan(double now, const PartitionPlan& plan) {
    const std::vector<std::size_t> owners =
        rebalance_owners(router.assignment(), plan.device_count);
    for (std::size_t i = 0; i < owners.size(); ++i) {
      if (router.owner(i) != owners[i]) {
        router.assign(i, owners[i]);
        ++out.device_moves;
      }
    }
    for (std::size_t i = 0; i < owners.size(); ++i) {
      const std::size_t t = owners[i];
      const core::AcceleratorLibrary& lib = *tenant_lib[t];
      const std::size_t target = plan.version[t];
      const edge::DeviceSim& dev = engine->device(i);
      if (dev.switch_in_flight()) {
        continue;
      }
      const std::size_t current = lib.find(dev.mode().model_version);
      const bool mode_matches =
          current == target &&
          std::abs(dev.mode().fps - lib.versions[target].fps_fixed) < 1e-9;
      if (mode_matches) {
        continue;
      }
      // Opportunistic switching: never park a hot queue behind a reconfig,
      // and keep the paper's switch-interval spacing per device.
      if (dev.backlog_seconds() > kSwitchBacklogLimitS ||
          now - last_switch_s[i] < kSwitchSpacingFactor * lib.reconfig_time_s) {
        continue;
      }
      engine->command_device_switch(i, core::switch_to(lib, target, hls::AcceleratorVariant::kFixed,
                                                       core::variant_of(dev.mode())));
      last_switch_s[i] = now;
      ++out.version_switches;
      ++out.tenants[t].version_switches;
    }
  }

  // --- lifecycle ------------------------------------------------------------

  MultiTenantMetrics run() {
    engine->set_frame_hooks(
        [this](std::int64_t tag, double accuracy) { on_done(tag, accuracy); },
        [this](std::int64_t tag) { on_lost(tag); });
    engine->start();
    for (std::size_t t = 0; t < tenants.size(); ++t) {
      queue.chain([this, t] { return tenants[t].arrivals.next(); }, [this, t] { arrive(t); });
    }
    const double sample = config.sample_interval_s;
    queue.every(sample, sample, config.duration_s + sim::kSampleEndSlack,
                [this] { sample_window(); });
    queue.every(kCoordinatorIntervalS, kCoordinatorIntervalS, config.duration_s,
                [this] { coordinator_tick(); });
    queue.run_until(config.duration_s);
    finalize();
    return std::move(out);
  }

  void finalize() {
    out.fleet = engine->finalize(config.duration_s);
    for (std::size_t t = 0; t < tenants.size(); ++t) {
      TenantState& state = tenants[t];
      TenantResult& r = out.tenants[t];
      r.usage = state.usage;
      r.latency_p50_s = r.usage.latency.percentile(0.50);
      r.latency_p95_s = r.usage.latency.percentile(0.95);
      r.latency_p99_s = r.usage.latency.percentile(0.99);
      r.mean_accuracy = r.usage.delivered > 0
                            ? r.usage.qoe_accuracy_sum / static_cast<double>(r.usage.delivered)
                            : 0.0;
      r.accuracy_floor =
          tenant_lib[t]->base_accuracy - config.tenants[t].accuracy_threshold;
      r.in_budget_delivered = state.in_budget_delivered;
      r.in_budget_accuracy =
          state.in_budget_delivered > 0
              ? state.in_budget_quality / static_cast<double>(state.in_budget_delivered)
              : 0.0;
      r.offered_rate_mean_fps =
          static_cast<double>(r.usage.offered) / config.duration_s;
      r.final_version = final_version_of(t);
      out.worst_violation_s = std::max(out.worst_violation_s, r.usage.slo_violation_s);
      out.total_violation_s += r.usage.slo_violation_s;
      sim::merge(out.forecast, state.tracker.stats());
      out.fleet.tenants.push_back(r.usage);
    }
  }

  std::size_t final_version_of(std::size_t t) const {
    for (std::size_t i = 0; i < router.assignment().size(); ++i) {
      if (router.owner(i) == t) {
        return tenant_lib[t]->find(engine->device(i).mode().model_version);
      }
    }
    return tenant_lib[t]->versions.size();
  }
};

}  // namespace

MultiTenantMetrics run_tenants(const MultiTenantConfig& config,
                               const core::AcceleratorLibrary& library, std::uint64_t seed) {
  config.validate();
  require(!library.versions.empty(), "tenant fleet library has no versions");
  TenantSim sim(config, library, seed);
  return sim.run();
}

}  // namespace adaflow::tenant
