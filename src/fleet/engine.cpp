#include "adaflow/fleet/engine.hpp"

#include <algorithm>
#include <cmath>

#include "adaflow/common/error.hpp"
#include "adaflow/sim/event_queue.hpp"

namespace adaflow::fleet {

namespace {

/// Minimum gap between detection-triggered repair reloads per device, so a
/// flapping detector cannot hammer the PR controller.
constexpr double kIntegrityRepairCooldownS = 1.0;
/// The coordinator ignores aggregate-FPS shifts smaller than this fraction
/// of the rate it last converged at.
constexpr double kFpsHysteresis = 0.15;

}  // namespace

std::uint64_t device_seed(std::uint64_t fleet_seed, std::size_t index) {
  return fleet_seed ^ (0x9e3779b97f4a7c15ULL * static_cast<std::uint64_t>(index + 1));
}

FleetEngine::FleetEngine(sim::EventQueue& queue, const core::AcceleratorLibrary& library,
                         const FleetConfig& config, RoutingPolicy& router, std::uint64_t seed,
                         double horizon_s)
    : queue_(queue), fleet_library_(library), config_(config), router_(router),
      horizon_s_(horizon_s), monitor_(config.health, config.devices.size()) {
  require(horizon_s_ > 0.0, "FleetEngine horizon_s must be positive");
  const std::size_t n = config_.devices.size();
  policies_.reserve(n);
  injectors_.reserve(n);
  devices_.reserve(n);
  statuses_.reserve(n);
  // Sized first: the status hook's first refresh reads the rotation state.
  accepting_.assign(n, 1);
  for (std::size_t i = 0; i < n; ++i) {
    const FleetDevice& d = config_.devices[i];
    policies_.push_back(d.make_policy());
    require(policies_.back() != nullptr,
            "fleet device '" + d.name + "' factory returned a null policy");
    if (d.fault_schedule.has_value()) {
      injectors_.push_back(
          std::make_unique<faults::FaultInjector>(*d.fault_schedule, device_seed(seed, i)));
    } else {
      injectors_.push_back(nullptr);
    }
    devices_.push_back(std::make_unique<edge::DeviceSim>(queue_, *policies_.back(), d.server,
                                                         injectors_.back().get(), d.name));
    // From here on the device's status hook keeps statuses_[i] current.
    statuses_.emplace_back();
    statuses_.back().capacity = devices_.back()->queue_capacity();
    devices_.back()->set_on_status([this, i] { refresh_status(i); });
    refresh_status(i);
    if (d.configure) {
      d.configure(*devices_.back(), i);
    }
  }
  probe_wanted_.assign(n, 0);
  queued_since_.resize(n);
  if (config_.integrity.enabled) {
    integrity_detectors_.reserve(n);
    for (std::size_t i = 0; i < n; ++i) {
      integrity_detectors_.emplace_back();
    }
    last_repair_s_.assign(n, -1e18);
  }
  default_ingress_ = std::make_unique<FifoIngress>(config_.ingress_capacity);
  ingress_ = default_ingress_.get();
  metrics_.workload_series.interval_s = config_.sample_interval_s;
  metrics_.loss_series.interval_s = config_.sample_interval_s;
  metrics_.qoe_series.interval_s = config_.sample_interval_s;
  metrics_.backlog_series.interval_s = config_.sample_interval_s;
}

FleetEngine::~FleetEngine() = default;

const core::AcceleratorLibrary& FleetEngine::device_library(std::size_t i) const {
  return config_.devices[i].library != nullptr ? *config_.devices[i].library : fleet_library_;
}

void FleetEngine::set_frame_hooks(std::function<void(std::int64_t, double)> on_done,
                                  std::function<void(std::int64_t)> on_lost) {
  on_frame_done_ = std::move(on_done);
  on_frame_lost_ = std::move(on_lost);
}

void FleetEngine::set_ingress_queue(IngressQueue& ingress) {
  require(metrics_.arrived == 0, "set_ingress_queue must be called before any frame is offered");
  require(ingress.empty(), "set_ingress_queue requires an empty queue");
  ingress_ = &ingress;
}

void FleetEngine::pump() { drain_ingress(); }

void FleetEngine::command_device_switch(std::size_t i, const edge::SwitchAction& action) {
  devices_.at(i)->command_switch(action);
}

// --- dispatcher -------------------------------------------------------------

bool FleetEngine::excluded(std::size_t i) const { return monitor_.out_of_rotation(i); }

/// The device's status hook: copies every router-visible field into
/// statuses_[i], then its eligibility.
void FleetEngine::refresh_status(std::size_t i) {
  const edge::DeviceSim& dev = *devices_[i];
  DeviceStatus& s = statuses_[i];
  s.queued = dev.queued();
  s.busy = dev.processing();
  s.switching = dev.switch_in_flight();
  s.fps = dev.mode().fps;
  s.accuracy = dev.mode().accuracy;
  s.backlog_s = dev.backlog_seconds();
  refresh_eligible(i);
}

void FleetEngine::refresh_eligible(std::size_t i) {
  DeviceStatus& s = statuses_[i];
  const bool eligible = s.queued < s.capacity && in_rotation(i);
  eligible_count_ += (eligible ? 1 : 0) - (s.eligible ? 1 : 0);
  s.eligible = eligible;
}

void FleetEngine::set_accepting(std::size_t i, bool on) {
  accepting_[i] = on ? 1 : 0;
  refresh_eligible(i);
}

/// Routes one frame to a device if any is eligible. Returns false (and
/// touches nothing) when every device is drained, quarantined, or full.
/// \p exclude additionally bars one device (hedging must not hand a frame
/// back to the queue it was just pulled from).
bool FleetEngine::try_dispatch(std::int64_t tag, std::size_t exclude) {
  // Eligibility is already current in statuses_, so a fleet with no room
  // (how each drain_ingress ends under load) costs one compare. The
  // excluded device is hidden from the router for this one call only.
  const bool hide = exclude != kNoExclude && statuses_[exclude].eligible;
  if (eligible_count_ == (hide ? 1 : 0)) {
    return false;
  }
  if (hide) {
    statuses_[exclude].eligible = false;
  }
  const std::size_t idx = router_.route_tagged(queue_.now(), tag, statuses_);
  if (hide) {
    statuses_[exclude].eligible = true;
  }
  if (idx == RoutingPolicy::kDecline) {
    return false;  // class-based router keeps this frame at ingress
  }
  if (idx >= devices_.size() || idx == exclude || !statuses_[idx].eligible) {
    throw ConfigError("router '" + router_.name() + "' returned an ineligible device");
  }
  // Timestamp first: offer_frame may start service synchronously and fire
  // the headroom callback, which pops this very entry. That callback can
  // also re-enter try_dispatch, and the status hook rewrites statuses_, so
  // nothing below reads it.
  queued_since_[idx].push_back(queue_.now());
  if (!devices_[idx]->offer_frame(/*count_loss=*/false, tag)) {
    throw ConfigError("eligible device '" + devices_[idx]->name() + "' rejected a frame");
  }
  ++metrics_.dispatched;
  return true;
}

void FleetEngine::set_probe_wanted(std::size_t i, bool wanted) {
  if ((probe_wanted_[i] != 0) != wanted) {
    probe_wanted_[i] = wanted ? 1 : 0;
    probes_wanted_ += wanted ? 1 : -1;
  }
}

/// Feeds one frame to a probing device as its half-open trial. Probes
/// outrank normal routing so a recovering device is never starved by
/// healthier peers. Returns true when the frame was consumed as a probe.
bool FleetEngine::try_probe_dispatch(std::int64_t tag) {
  if (probes_wanted_ == 0) {
    return false;
  }
  for (std::size_t i = 0; i < devices_.size(); ++i) {
    if (probe_wanted_[i] == 0 || devices_[i]->free_slots() <= 0) {
      continue;
    }
    queued_since_[i].push_back(queue_.now());
    const bool taken = devices_[i]->offer_frame(/*count_loss=*/false, tag);
    if (!taken) {
      queued_since_[i].pop_back();
      continue;
    }
    ++metrics_.dispatched;
    set_probe_wanted(i, false);
    monitor_.on_probe_dispatched(i, queue_.now(), devices_[i]->metrics().processed);
    return true;
  }
  return false;
}

/// Re-dispatches waiting ingress frames while headroom lasts. Invoked on
/// every device headroom event and whenever a drained device rejoins.
void FleetEngine::drain_ingress() {
  // Dispatching can start a frame immediately, which fires the device's
  // headroom callback, which lands right back here. The guard makes the
  // nested call a no-op: the outer loop re-checks headroom every iteration,
  // so no wakeup is lost — but without it the nested pop_front() invalidates
  // the entry the outer loop is holding.
  if (draining_) {
    return;
  }
  draining_ = true;
  while (!ingress_->empty()) {
    const std::int64_t tag = ingress_->pop();
    if (!try_probe_dispatch(tag) && !try_dispatch(tag)) {
      ingress_->unpop(tag);
      break;
    }
  }
  draining_ = false;
}

/// A queued frame on device \p i moved into service.
void FleetEngine::on_device_headroom(std::size_t i) {
  if (!queued_since_[i].empty()) {
    queued_since_[i].pop_front();
  }
  drain_ingress();
}

FleetEngine::Admit FleetEngine::offer_frame(std::int64_t tag) {
  ++metrics_.arrived;
  if (config_.coordinator.enabled) {
    recent_arrivals_.push_back(queue_.now());
  }
  // Waiting frames go first: draining in the queue's scheduling order keeps
  // the ingress an honest queue (and tagged latencies monotone under FIFO).
  if (ingress_->empty() && (try_probe_dispatch(tag) || try_dispatch(tag))) {
    return Admit::kDispatched;
  }
  if (ingress_->push(tag)) {
    drain_ingress();
    return Admit::kQueued;
  }
  ++metrics_.ingress_lost;
  return Admit::kShed;
}

// --- frame outcome funnel ---------------------------------------------------

void FleetEngine::frame_done(std::int64_t tag, double accuracy) {
  if (tag >= 0 && on_frame_done_) {
    on_frame_done_(tag, accuracy);
  }
}

void FleetEngine::frame_lost(std::int64_t tag) {
  if (tag >= 0 && on_frame_lost_) {
    on_frame_lost_(tag);
  }
}

// --- health monitoring ------------------------------------------------------

void FleetEngine::redispatch_or_park(std::int64_t tag, std::size_t exclude) {
  ++metrics_.redispatched;
  if (try_dispatch(tag, exclude)) {
    return;
  }
  if (ingress_->push(tag)) {
    return;
  }
  ++metrics_.ingress_lost;
  frame_lost(tag);
}

/// Device \p i just entered quarantine: counts it, aborts a coordinator
/// cycle on it, pulls every waiting frame off it and routes them through the
/// rest of the fleet, and makes the coordinator re-balance the survivors.
/// Pulled frames that find no headroom wait at ingress; they count as
/// re-dispatched, not lost — only overflowing the ingress queue itself loses
/// them (genuine ingress_lost).
void FleetEngine::quarantine(std::size_t i, double now) {
  ++metrics_.quarantines;
  if (coord_state_ != CoordState::kIdle && coord_device_ == i) {
    // The device the coordinator was cycling just got quarantined: abort
    // the cycle; the monitor owns the exclusion from here.
    set_accepting(i, true);
    coord_state_ = CoordState::kIdle;
    last_repartition_end_s_ = now;
  }
  std::vector<std::int64_t> tags;
  const std::int64_t pulled = devices_[i]->take_queued(devices_[i]->queued(), &tags);
  queued_since_[i].clear();
  for (std::int64_t k = 0; k < pulled; ++k) {
    redispatch_or_park(tags[static_cast<std::size_t>(k)], i);
  }
  // The fleet shrank: force the coordinator to re-balance the survivors
  // instead of sitting in its hysteresis band.
  last_converged_fps_ = -1.0;
}

/// Any device other than \p i that could take a hedged frame right now.
bool FleetEngine::any_other_eligible(std::size_t i) const {
  return eligible_count_ > (statuses_[i].eligible ? 1 : 0);
}

void FleetEngine::health_tick() {
  const double now = queue_.now();
  for (std::size_t i = 0; i < devices_.size(); ++i) {
    const edge::DeviceSim& dev = *devices_[i];
    HealthMonitor::Observation obs;
    obs.processed = dev.metrics().processed;
    // Canary frames occupy queue slots but never raise `processed`; counting
    // them as work would make a device with canary-only traffic look
    // stalled and quarantine it for being probed.
    obs.has_work = dev.queued() - dev.queued_canaries() > 0 ||
                   (dev.processing() && !dev.canary_in_service());
    obs.in_maintenance =
        dev.switch_in_flight() || (coord_state_ != CoordState::kIdle && coord_device_ == i);
    obs.nominal_fps = dev.mode().fps;
    const HealthAction action = monitor_.observe(i, now, obs);
    refresh_eligible(i);  // the monitor may have moved the device in or out of rotation
    if (action.quarantine) {
      quarantine(i, now);
    }
    if (action.want_probe) {
      set_probe_wanted(i, true);
    }
    if (action.probe_failed) {
      std::vector<std::int64_t> tags;
      if (devices_[i]->take_queued(1, &tags) == 1) {
        // The probe frame is still sitting in the sick queue: reclaim it so
        // no frame is stuck for longer than one probe cycle.
        if (!queued_since_[i].empty()) {
          queued_since_[i].pop_front();
        }
        redispatch_or_park(tags.front(), i);
      }
    }
    if (action.rejoin) {
      ++metrics_.rejoins;
      set_probe_wanted(i, false);
      // Capacity returned: re-balance, and drain any ingress backlog into
      // the recovered device.
      last_converged_fps_ = -1.0;
      drain_ingress();
    }
  }
  // Hedged re-dispatch: a frame stuck waiting past its budget is pulled
  // back and re-routed — but only when somewhere better exists right now
  // (hedging into a full fleet would just forfeit the frame's position).
  if (config_.health.hedge_budget_s > 0.0) {
    for (std::size_t i = 0; i < devices_.size(); ++i) {
      if (excluded(i)) {
        continue;  // quarantine drain already emptied it
      }
      while (!queued_since_[i].empty() &&
             now - queued_since_[i].front() >= config_.health.hedge_budget_s &&
             any_other_eligible(i)) {
        std::vector<std::int64_t> tags;
        if (devices_[i]->take_queued(1, &tags) == 0) {
          break;
        }
        queued_since_[i].pop_front();
        ++metrics_.redispatched;
        ++metrics_.hedged;
        const bool placed = try_dispatch(tags.front(), i);
        require(placed, "hedge re-dispatch failed despite an eligible device");
      }
    }
  }
  // Frames a class-based router declined earlier wait at ingress without a
  // headroom event of their own; the tick retries them (no-op otherwise —
  // never-declining routers drain eagerly on every push and headroom event).
  if (!ingress_->empty()) {
    drain_ingress();
  }
}

// --- integrity layer --------------------------------------------------------

void FleetEngine::on_canary_result(std::size_t i, double now, double error) {
  if (!integrity_detectors_[i].feed(error)) {
    return;
  }
  integrity_detectors_[i].reset();
  // Score the verdict against ground truth (detection vs false alarm).
  devices_[i]->note_integrity_detection();
  // Detection-triggered reload of the live configuration through the
  // supervised-switch path: full reconfiguration for a Fixed variant, the
  // fast config-register rewrite for the shared Flexible overlay. Cooldown
  // keeps a flapping detector from hammering the PR controller; a switch
  // already in flight (retry ladder, coordinator cycle) repairs on its own.
  if (now - last_repair_s_[i] >= kIntegrityRepairCooldownS &&
      !devices_[i]->switch_in_flight()) {
    const core::AcceleratorLibrary& lib = device_library(i);
    const edge::ServingMode& mode = devices_[i]->mode();
    const std::size_t version = lib.find(mode.model_version);
    if (version < lib.versions.size()) {
      const hls::AcceleratorVariant live = core::variant_of(mode);
      edge::SwitchAction action = core::switch_to(lib, version, live, live);
      action.target = mode;  // the live mode as loaded (the FINN baseline too)
      last_repair_s_[i] = now;
      command_device_switch(i, action);
    }
  }
  // With the health monitor on, confirmed-corrupt devices leave the routing
  // set through the SAME quarantine/drain/probe/rejoin machinery crashes
  // use; the reload just issued doubles as the cure the rejoin probes will
  // verify. Without it, the reload is the whole repair.
  if (config_.health.enabled && monitor_.force_quarantine(i, now)) {
    refresh_eligible(i);
    quarantine(i, now);
  }
}

// --- coordinator ------------------------------------------------------------

double FleetEngine::aggregate_fps() {
  const double window = config_.coordinator.estimate_window_s;
  const double cutoff = queue_.now() - window;
  while (!recent_arrivals_.empty() && recent_arrivals_.front() < cutoff) {
    recent_arrivals_.pop_front();
  }
  return static_cast<double>(recent_arrivals_.size()) / window;
}

void FleetEngine::maybe_start_repartition(double now) {
  if (now < config_.coordinator.warmup_s) {
    return;
  }
  const double agg = aggregate_fps();
  if (agg <= 0.0) {
    return;
  }
  if (last_converged_fps_ > 0.0 &&
      std::abs(agg - last_converged_fps_) <
          kFpsHysteresis * last_converged_fps_) {
    return;
  }
  // Quarantined devices are not capacity: the survivors' share grows and
  // the coordinator re-targets them to faster (lower-accuracy) versions.
  std::int64_t accepting_count = 0;
  for (std::size_t i = 0; i < devices_.size(); ++i) {
    accepting_count += in_rotation(i) ? 1 : 0;
  }
  if (accepting_count == 0) {
    return;
  }
  const double share = agg / static_cast<double>(accepting_count);
  bool mismatch_blocked = false;
  for (std::size_t i = 0; i < devices_.size(); ++i) {
    if (!config_.devices[i].coordinated || !in_rotation(i) || devices_[i]->switch_in_flight()) {
      continue;
    }
    const core::AcceleratorLibrary& lib = device_library(i);
    const std::size_t target =
        core::select_library_version(lib, share, config_.coordinator.accuracy_threshold,
                                     core::kFpsMargin, /*use_flexible_fps=*/false);
    const std::size_t current = lib.find(devices_[i]->mode().model_version);
    if (current == lib.versions.size() || target == current) {
      continue;
    }
    // The paper's switch-interval rule, cluster-wide: consecutive
    // repartition cycles keep their spacing even when a device is overdue.
    if (now - last_repartition_end_s_ <
        config_.coordinator.switch_interval_factor * lib.reconfig_time_s) {
      mismatch_blocked = true;
      continue;
    }
    // Take this device out of rotation; the router spreads its share over
    // the rest of the fleet while the queue drains.
    set_accepting(i, false);
    coord_device_ = i;
    coord_target_ = target;
    drain_started_s_ = now;
    coord_state_ = CoordState::kDraining;
    return;
  }
  if (mismatch_blocked) {
    return;  // retry next tick once the spacing window opens
  }
  // Every coordinated device matches its target at this rate: record the
  // converged operating point the hysteresis band is centred on.
  last_converged_fps_ = agg;
}

void FleetEngine::coordinator_tick() {
  const double now = queue_.now();
  switch (coord_state_) {
    case CoordState::kIdle:
      maybe_start_repartition(now);
      break;
    case CoordState::kDraining: {
      edge::DeviceSim& dev = *devices_[coord_device_];
      if (excluded(coord_device_)) {
        // Quarantined mid-drain (health_tick may run between coordinator
        // ticks): abort the cycle, the monitor owns the device now.
        set_accepting(coord_device_, true);
        coord_state_ = CoordState::kIdle;
        last_repartition_end_s_ = now;
        break;
      }
      if (dev.switch_in_flight()) {
        break;  // self-healing ladder busy (stall recovery); wait it out
      }
      if (dev.idle() || now - drain_started_s_ >= config_.coordinator.drain_timeout_s) {
        dev.command_switch(core::switch_to(device_library(coord_device_), coord_target_,
                                           hls::AcceleratorVariant::kFixed,
                                           core::variant_of(dev.mode())));
        coord_state_ = CoordState::kReconfiguring;
      }
      break;
    }
    case CoordState::kReconfiguring: {
      edge::DeviceSim& dev = *devices_[coord_device_];
      if (dev.switch_in_flight()) {
        break;
      }
      // The episode resolved — applied, or abandoned by the retry ladder.
      // Either way the device rejoins; only a successful cycle counts as a
      // repartition.
      if (device_library(coord_device_).find(dev.mode().model_version) == coord_target_) {
        ++metrics_.repartitions;
      }
      set_accepting(coord_device_, true);
      last_repartition_end_s_ = now;
      coord_state_ = CoordState::kIdle;
      drain_ingress();
      break;
    }
  }
}

// --- lifecycle --------------------------------------------------------------

void FleetEngine::start() {
  for (std::size_t i = 0; i < devices_.size(); ++i) {
    devices_[i]->start();
    devices_[i]->set_on_headroom([this, i] { on_device_headroom(i); });
    devices_[i]->set_frame_hooks(
        [this](std::int64_t tag, double accuracy) { frame_done(tag, accuracy); },
        [this](std::int64_t tag) { frame_lost(tag); });
    if (config_.integrity.enabled) {
      devices_[i]->set_canary_hook(
          [this, i](double now_s, double error) { on_canary_result(i, now_s, error); });
    }
  }
  // Each cadence first fires one period after t0.
  const double t0 = queue_.now();
  const double sample_end = horizon_s_ + sim::kSampleEndSlack;
  const auto every = [&](double period, double last, auto fn) {
    queue_.every(t0 + period, period, last, std::move(fn));
  };
  for (std::size_t i = 0; i < devices_.size(); ++i) {
    const edge::ServerConfig& sc = config_.devices[i].server;
    edge::DeviceSim* dev = devices_[i].get();
    every(sc.poll_interval_s, horizon_s_, [dev] { dev->poll(); });
    every(sc.sample_interval_s, sample_end, [dev] { dev->sample_window(); });
  }
  // Fleet sample window: the deltas since the previous sample instant.
  every(config_.sample_interval_s, sample_end, [this] {
    std::int64_t lost_total = metrics_.ingress_lost;
    double qoe_total = 0.0;
    double worst_backlog_s = 0.0;
    for (const auto& dev : devices_) {
      lost_total += dev->metrics().lost;
      qoe_total += dev->metrics().qoe_accuracy_sum;
      worst_backlog_s = std::max(worst_backlog_s, dev->backlog_seconds());
    }
    const std::int64_t d_arrived = metrics_.arrived - snap_arrived_;
    const std::int64_t d_lost = lost_total - snap_lost_;
    const double d_qoe = qoe_total - snap_qoe_;
    const double da = static_cast<double>(d_arrived);
    metrics_.workload_series.values.push_back(da / config_.sample_interval_s);
    metrics_.loss_series.values.push_back(d_arrived > 0 ? static_cast<double>(d_lost) / da : 0.0);
    metrics_.qoe_series.values.push_back(d_arrived > 0 ? d_qoe / da : 0.0);
    metrics_.backlog_series.values.push_back(worst_backlog_s);
    snap_arrived_ = metrics_.arrived;
    snap_lost_ = lost_total;
    snap_qoe_ = qoe_total;
  });
  if (config_.coordinator.enabled) {
    every(config_.coordinator.poll_interval_s, horizon_s_, [this] { coordinator_tick(); });
  }
  if (config_.health.enabled) {
    every(config_.health.tick_interval_s, horizon_s_, [this] { health_tick(); });
  }
  if (config_.integrity.enabled && config_.integrity.canary_interval_s > 0.0) {
    // One golden frame per device per round. A full queue skips its probe;
    // a quarantined device keeps probing, so a clearing corruption is seen.
    every(config_.integrity.canary_interval_s, horizon_s_, [this] {
      for (auto& dev : devices_) {
        dev->offer_canary();
      }
    });
  }
}

FleetMetrics FleetEngine::finalize(double duration_s) {
  metrics_.duration_s = duration_s;
  metrics_.ingress_backlog = static_cast<std::int64_t>(ingress_->size());
  metrics_.devices.reserve(devices_.size());
  for (std::size_t i = 0; i < devices_.size(); ++i) {
    devices_[i]->finalize(duration_s);
    edge::RunMetrics& m = devices_[i]->metrics();
    metrics_.processed += m.processed;
    metrics_.device_lost += m.lost;
    metrics_.qoe_accuracy_sum += m.qoe_accuracy_sum;
    metrics_.energy_j += m.energy_j;
    metrics_.model_switches += m.model_switches;
    metrics_.reconfigurations += m.reconfigurations;
    sim::merge(metrics_.faults, m.faults);
    sim::merge(metrics_.integrity, m.integrity);
    sim::merge(metrics_.detection, m.detection);
    FleetDeviceResult result;
    result.name = config_.devices[i].name;
    result.queued_at_end = devices_[i]->queued();
    result.quarantines = monitor_.quarantines(i);
    result.rejoins = monitor_.rejoins(i);
    result.final_health = monitor_.state(i);
    result.metrics = std::move(m);
    metrics_.devices.push_back(std::move(result));
  }
  metrics_.tail_latency_p95_s = sim::percentile(metrics_.backlog_series.values, 0.95);
  return std::move(metrics_);
}

}  // namespace adaflow::fleet
