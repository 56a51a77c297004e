#include "adaflow/edge/device_sim.hpp"

#include <algorithm>
#include <cmath>
#include <string>

#include "adaflow/common/error.hpp"
#include "adaflow/faults/fault_injector.hpp"

namespace adaflow::edge {

namespace {

std::string describe_mode(const ServingMode& mode) {
  return "'" + mode.model_version + "' on '" + mode.accelerator + "'";
}

/// Rejects modes a broken library entry would produce, naming the offender so
/// a bad row fails fast with context instead of deep inside the event loop.
/// Runs on every switch, so the message is only built on failure.
void validate_mode(const ServingMode& mode, const char* when) {
  const char* problem = nullptr;
  if (!(std::isfinite(mode.fps) && mode.fps > 0.0)) {
    problem = " has non-positive FPS (bad library entry)";
  } else if (!(std::isfinite(mode.accuracy) && mode.accuracy >= 0.0)) {
    problem = " has invalid accuracy";
  } else if (!(std::isfinite(mode.power_busy_w) && std::isfinite(mode.power_idle_w) &&
               mode.power_busy_w >= 0.0 && mode.power_idle_w >= 0.0)) {
    problem = " has invalid power figures";
  }
  if (problem != nullptr) {
    throw ConfigError(std::string(when) + ": library version " + describe_mode(mode) + problem);
  }
}

}  // namespace

DeviceSim::DeviceSim(sim::EventQueue& queue, ServingPolicy& policy, const ServerConfig& config,
                     faults::FaultInjector* injector, std::string name)
    : queue_(queue), policy_(policy), config_(config), injector_(injector),
      name_(std::move(name)) {}

void DeviceSim::start() {
  set_mode(policy_.initial_mode());
  validate_mode(mode_, "initial mode");
  last_power_t_ = queue_.now();
  last_violation_t_ = queue_.now();
  metrics_.workload_series.interval_s = config_.sample_interval_s;
  metrics_.loss_series.interval_s = config_.sample_interval_s;
  metrics_.qoe_series.interval_s = config_.sample_interval_s;
  metrics_.power_series.interval_s = config_.sample_interval_s;
  if (injector_ != nullptr) {
    // Whole-device fault windows were resolved at injector construction;
    // schedule their begin/end transitions now (windows past the run horizon
    // simply never fire).
    for (const faults::DeviceFaultWindow& w : injector_->device_fault_windows()) {
      queue_.schedule_at(w.start_s, [this, w] { on_device_fault_begin(w); });
      queue_.schedule_at(w.end_s, [this, w] { on_device_fault_end(w); });
    }
    // Config upsets were likewise resolved at injector construction; each is
    // a point event that lands on whatever configuration happens to be
    // loaded at its arrival time.
    for (const faults::ConfigUpsetEvent& u : injector_->config_upset_events()) {
      queue_.schedule_at(u.time_s, [this, u] { on_config_upset(u); });
    }
  }
}

double DeviceSim::current_power() const {
  // Busy silicon burns dynamic power; an idle or reconfiguring accelerator
  // sits at the idle operating point.
  return (processing_ && !switching_) ? mode_.power_busy_w : mode_.power_idle_w;
}

void DeviceSim::integrate_power() {
  const double now = queue_.now();
  metrics_.energy_j += current_power() * (now - last_power_t_);
  // Every switching_ transition is preceded by an integrate_power() call, so
  // charging the elapsed slice to the OLD state here is exact.
  if (switching_) {
    metrics_.switch_stall_s += now - last_power_t_;
  }
  last_power_t_ = now;
}

/// Charges the elapsed slice to the previous queue-pressure state, then
/// refreshes it. A queue at or past half capacity is the threshold-violation
/// regime: service latency has left the nominal band and losses are imminent
/// — exactly the condition proactive switching is meant to avoid. Call after
/// every queued_ mutation.
void DeviceSim::account_violation() {
  const double now = queue_.now();
  if (in_violation_) {
    metrics_.violation_s += now - last_violation_t_;
  }
  last_violation_t_ = now;
  in_violation_ = queued_ * 2 >= config_.queue_capacity;
}

void DeviceSim::apply_mode(const ServingMode& m) {
  integrate_power();
  set_mode(m);
  repair_upsets();
}

/// A configuration upset lands. The damage is durable — it degrades every
/// frame until the next completed (re)load — and scales with the loaded
/// variant's cross-section: a Fixed bitstream exposes every essential config
/// bit (full penalty), while the shared Flexible overlay re-reads most
/// parameters per frame and exposes only its smaller cross-section fraction.
/// The scaling is deterministic (no device-side randomness), so replay
/// depends only on the injector's pre-resolved schedule.
void DeviceSim::on_config_upset(const faults::ConfigUpsetEvent& upset) {
  const double penalty = upset.accuracy_penalty *
                         (is_flexible(mode_.accelerator) ? upset.flexible_cross_section : 1.0);
  if (penalty <= 0.0) {
    return;
  }
  if (upset_accuracy_penalty_ <= 0.0) {
    corrupt_since_ = queue_.now();
  }
  upset_accuracy_penalty_ = std::min(1.0, upset_accuracy_penalty_ + penalty);
  ++metrics_.integrity.upsets_injected;
}

/// Every COMPLETED switch reprograms the accelerator configuration, so it
/// doubles as the repair action: a Fixed reconfiguration rewrites the whole
/// bitstream (scrub-by-reload), and even the sub-ms Flexible switch rewrites
/// the overlay's config registers — the cheap-repair fallback the integrity
/// policy exploits when the full reload keeps failing.
void DeviceSim::repair_upsets() {
  if (upset_accuracy_penalty_ <= 0.0) {
    return;
  }
  upset_accuracy_penalty_ = 0.0;
  metrics_.integrity.corrupt_time_s += queue_.now() - corrupt_since_;
  ++metrics_.integrity.repairs;
}

void DeviceSim::note_integrity_detection() {
  if (upset_accuracy_penalty_ > 0.0) {
    ++metrics_.integrity.detections;
    metrics_.integrity.detection_latency_sum_s += queue_.now() - corrupt_since_;
  } else {
    ++metrics_.integrity.false_alarms;
  }
}

void DeviceSim::note_scrub() { ++metrics_.integrity.scrubs; }

void DeviceSim::enter_degraded() {
  if (!degraded_) {
    degraded_ = true;
    degraded_since_ = queue_.now();
  }
}

void DeviceSim::exit_degraded() {
  if (degraded_) {
    degraded_ = false;
    const double episode = queue_.now() - degraded_since_;
    metrics_.faults.time_degraded_s += episode;
    metrics_.faults.recovery_time_sum_s += episode;
    ++metrics_.faults.recoveries;
  }
}

void DeviceSim::start_next_frame() {
  if (switching_ || crash_depth_ > 0 || hang_depth_ > 0) {
    return;  // a dead or wedged fabric serves nothing until its window ends
  }
  if (has_pending_switch_ && !processing_) {
    begin_switch();
    return;
  }
  if (processing_ || queued_ == 0) {
    return;
  }
  integrate_power();
  set_started_frame();
  inflight_tag_ = queued_tags_.front();
  queued_tags_.pop_front();
  inflight_canary_ = queued_canary_.front() != 0;
  queued_canary_.pop_front();
  if (inflight_canary_) {
    --queued_canaries_;
  }
  account_violation();
  if (on_headroom_) {
    on_headroom_();
  }
  // Per-frame service shaping (detection workloads): the service model may
  // stretch this frame's service time (density-scaled postprocess) and pin
  // its delivered quality. Canaries are never shaped — their golden outputs
  // must stay comparable across probes.
  double nominal_s = 1.0 / mode_.fps;
  inflight_quality_ = -1.0;
  if (service_model_ && !inflight_canary_) {
    const FrameService shaped = service_model_(queue_.now(), mode_);
    nominal_s += std::max(0.0, shaped.extra_service_s);
    inflight_quality_ = shaped.quality;
  }
  // Degraded service slows every frame by the window's latency factor; the
  // watchdog deadline scales with it (degrade is slow-but-alive, not wedged
  // — the HealthMonitor's service-rate check is what catches it).
  const double service_s = nominal_s * degrade_latency_factor_;
  const std::uint64_t epoch = service_epoch_;
  const double stall_s = injector_ != nullptr ? injector_->stall_seconds(queue_.now()) : 0.0;
  if (stall_s <= 0.0) {
    queue_.schedule_in(service_s, [this, epoch] {
      if (epoch == service_epoch_) {
        finish_frame();
      }
    });
    return;
  }
  metrics_.faults.stalls_injected += 1;
  if (!ft().enabled) {
    // No watchdog: the accelerator simply hangs until the frame unsticks.
    queue_.schedule_in(stall_s + service_s, [this, epoch] {
      if (epoch == service_epoch_) {
        finish_frame();
      }
    });
    return;
  }
  const double deadline_s =
      std::max(ft().min_watchdog_timeout_s, ft().watchdog_timeout_factor * service_s);
  if (stall_s + service_s <= deadline_s) {
    // Slow but within the watchdog budget: the frame completes late.
    queue_.schedule_in(stall_s + service_s, [this, epoch] {
      if (epoch == service_epoch_) {
        finish_frame();
      }
    });
    return;
  }
  queue_.schedule_in(deadline_s, [this, epoch] {
    if (epoch == service_epoch_) {
      on_watchdog_fired();
    }
  });
}

void DeviceSim::finish_frame() {
  integrate_power();
  set_processing(false);
  if (inflight_canary_) {
    // A canary completes: its output is compared against the golden answer.
    // It is not workload — no processed/QoE accounting — its cost was the
    // service slot it occupied.
    inflight_canary_ = false;
    const double error = std::min(1.0, upset_accuracy_penalty_ + degrade_accuracy_penalty_);
    if (error > 0.0) {
      ++metrics_.integrity.canaries_failed;
    }
    if (on_canary_) {
      on_canary_(queue_.now(), error);
    }
  } else {
    ++metrics_.processed;
    // A degraded window elevates mispredictions, and a corrupted
    // configuration silently degrades every delivered frame on top of it:
    // the frame still counts as delivered but contributes less accuracy to
    // QoE (delivered != correct). A service model that pinned this frame's
    // quality (detection mAP proxy) replaces the mode accuracy as the base.
    const double base_accuracy = inflight_quality_ >= 0.0 ? inflight_quality_ : mode_.accuracy;
    inflight_quality_ = -1.0;
    const double accuracy = base_accuracy * (1.0 - degrade_accuracy_penalty_) *
                            (1.0 - upset_accuracy_penalty_);
    metrics_.qoe_accuracy_sum += accuracy;
    window_qoe_sum_ += accuracy;
    if (upset_accuracy_penalty_ > 0.0) {
      ++metrics_.integrity.wrong_frames;
    }
    if (inflight_tag_ != kNoTag) {
      const std::int64_t tag = inflight_tag_;
      inflight_tag_ = kNoTag;
      if (on_frame_done_) {
        on_frame_done_(tag, accuracy);
      }
    }
  }
  if (has_pending_retry_) {
    // A retry came due while this frame was in flight: run it now.
    has_pending_retry_ = false;
    attempt_switch(retry_action_, retry_attempt_);
    return;
  }
  start_next_frame();
}

/// The stall watchdog: drop the wedged frame, re-load the current mode to
/// bring the accelerator back, then resume.
void DeviceSim::on_watchdog_fired() {
  integrate_power();
  enter_degraded();
  set_processing(false);
  ++metrics_.faults.stalls_recovered;
  if (inflight_canary_) {
    // A wedged canary is silently discarded — it is not workload, so no
    // loss is charged; the prober just sees a gap in the canary stream.
    inflight_canary_ = false;
  } else {
    ++metrics_.lost;  // the wedged frame never produces a result
    ++window_lost_;
    if (inflight_tag_ != kNoTag) {
      const std::int64_t tag = inflight_tag_;
      inflight_tag_ = kNoTag;
      if (on_frame_lost_) {
        on_frame_lost_(tag);
      }
    }
  }
  set_switching(true);  // the re-load blocks the accelerator like a switch
  const std::uint64_t epoch = service_epoch_;
  queue_.schedule_in(ft().recovery_reload_s, [this, epoch] {
    if (epoch != service_epoch_) {
      return;  // a crash wiped the fabric mid-reload
    }
    integrate_power();
    set_switching(false);
    if (!has_pending_switch_) {
      exit_degraded();
    }
    start_next_frame();
  });
}

void DeviceSim::abort_switch_episode() {
  if (switch_episode_) {
    ++metrics_.faults.switches_abandoned;
  }
  set_switching(false);
  set_switch_episode(false);
  set_pending_switch(false);
  has_pending_retry_ = false;
  fallback_tried_ = false;
}

void DeviceSim::on_device_fault_begin(const faults::DeviceFaultWindow& window) {
  integrate_power();
  enter_degraded();
  switch (window.kind) {
    case faults::FaultKind::kDeviceCrash:
      ++crash_depth_;
      if (crash_depth_ == 1) {
        // The fabric dies: the in-flight frame never produces a result and
        // any switch ladder (or stall-recovery reload) is wiped with it.
        ++service_epoch_;
        if (processing_) {
          set_processing(false);
          if (inflight_canary_) {
            inflight_canary_ = false;  // a wiped canary is not a workload loss
          } else {
            ++metrics_.lost;
            ++window_lost_;
            if (inflight_tag_ != kNoTag) {
              const std::int64_t tag = inflight_tag_;
              inflight_tag_ = kNoTag;
              if (on_frame_lost_) {
                on_frame_lost_(tag);
              }
            }
          }
        }
        abort_switch_episode();
      }
      break;
    case faults::FaultKind::kDeviceHang:
      // The wedge hits between frames: whatever is in flight drains, but no
      // new frame starts until the window releases the fabric.
      ++hang_depth_;
      break;
    case faults::FaultKind::kDeviceDegrade:
      ++degrade_depth_;
      degrade_latency_factor_ *= window.latency_factor;
      degrade_accuracy_penalty_ =
          std::min(1.0, degrade_accuracy_penalty_ + window.accuracy_penalty);
      break;
    default:
      break;
  }
}

void DeviceSim::on_device_fault_end(const faults::DeviceFaultWindow& window) {
  integrate_power();
  switch (window.kind) {
    case faults::FaultKind::kDeviceCrash:
      --crash_depth_;
      break;
    case faults::FaultKind::kDeviceHang:
      --hang_depth_;
      break;
    case faults::FaultKind::kDeviceDegrade:
      --degrade_depth_;
      if (degrade_depth_ == 0) {
        degrade_latency_factor_ = 1.0;
        degrade_accuracy_penalty_ = 0.0;
      } else {
        degrade_latency_factor_ /= window.latency_factor;
        degrade_accuracy_penalty_ =
            std::max(0.0, degrade_accuracy_penalty_ - window.accuracy_penalty);
      }
      break;
    default:
      break;
  }
  if (crash_depth_ == 0 && hang_depth_ == 0) {
    if (degrade_depth_ == 0 && !switch_episode_ && !has_pending_switch_) {
      exit_degraded();
    }
    start_next_frame();  // the queue survived the outage; resume draining it
  }
}

void DeviceSim::begin_switch() {
  require(has_pending_switch_, "no switch pending");
  integrate_power();
  set_switching(true);
  set_switch_episode(true);
  set_pending_switch(false);
  fallback_tried_ = false;
  const SwitchAction action = pending_switch_;
  ++metrics_.model_switches;
  if (action.is_reconfiguration) {
    ++metrics_.reconfigurations;
  }
  metrics_.switches.push_back(SwitchRecord{queue_.now(), action.target.model_version,
                                           action.target.accelerator,
                                           action.is_reconfiguration});
  attempt_switch(action, /*attempt=*/0);
}

/// One switch attempt; consults the injector, arms the timeout, and drives
/// the retry/fallback ladder on failure. Blocks service for the duration of
/// the load itself (the fabric is being reprogrammed).
void DeviceSim::attempt_switch(const SwitchAction& action, int attempt) {
  integrate_power();
  set_switching(true);
  faults::FaultInjector::SwitchOutcome outcome;
  if (injector_ != nullptr) {
    outcome = injector_->on_switch_attempt(queue_.now(), action.is_reconfiguration);
  }
  if (crash_depth_ > 0 || hang_depth_ > 0) {
    // A dead or wedged fabric cannot be (re)programmed: the attempt fails
    // regardless of what the schedule said. Retries may land after recovery.
    outcome.fail = true;
  }
  const double actual_s = action.switch_time_s * outcome.time_factor;
  const std::uint64_t epoch = service_epoch_;
  if (!ft().enabled) {
    // Unhardened baseline: the server waits the full (possibly inflated)
    // time; a failed load silently keeps the old mode while the policy is
    // told its target is live — the mis-selection the hardened path fixes.
    queue_.schedule_in(actual_s, [this, epoch, action, failed = outcome.fail] {
      if (epoch != service_epoch_) {
        return;
      }
      integrate_power();
      set_switching(false);
      set_switch_episode(false);
      if (!failed) {
        apply_mode(action.target);
      } else {
        ++metrics_.faults.switch_failures;
      }
      policy_.on_switch_applied(queue_.now(), action.target);
      start_next_frame();
    });
    return;
  }
  const double timeout_s =
      std::max(ft().min_switch_timeout_s, ft().switch_timeout_factor * action.switch_time_s);
  if (actual_s > timeout_s) {
    // Hung load: the supervisor aborts it when the timeout budget expires.
    queue_.schedule_in(timeout_s, [this, epoch, action, attempt] {
      if (epoch != service_epoch_) {
        return;
      }
      ++metrics_.faults.switch_timeouts;
      on_switch_attempt_failed(action, attempt);
    });
    return;
  }
  if (outcome.fail) {
    // Supervision catches the bad load at the first failing status
    // readback, a fraction of the way into the transfer — much earlier
    // than the full load time the unhardened server wastes.
    const double detect_s = std::min(
        actual_s, std::max(ft().min_switch_timeout_s,
                           ft().failure_detect_fraction * action.switch_time_s));
    queue_.schedule_in(detect_s, [this, epoch, action, attempt] {
      if (epoch != service_epoch_) {
        return;
      }
      ++metrics_.faults.switch_failures;
      on_switch_attempt_failed(action, attempt);
    });
    return;
  }
  queue_.schedule_in(actual_s, [this, epoch, action] {
    if (epoch != service_epoch_) {
      return;
    }
    integrate_power();
    set_switching(false);
    set_switch_episode(false);
    apply_mode(action.target);
    policy_.on_switch_applied(queue_.now(), action.target);
    exit_degraded();
    start_next_frame();
  });
}

void DeviceSim::on_switch_attempt_failed(const SwitchAction& action, int attempt) {
  integrate_power();
  enter_degraded();
  if (attempt < ft().max_switch_retries) {
    ++metrics_.faults.switch_retries;
    // An aborted load leaves the previous configuration serving (the same
    // abstraction the unhardened path uses), so the backoff interval is
    // not dead time: frames keep draining on the old mode.
    set_switching(false);
    const double backoff_s = ft().retry_backoff_s * static_cast<double>(1 << attempt);
    const std::uint64_t epoch = service_epoch_;
    queue_.schedule_in(backoff_s, [this, epoch, action, attempt] {
      if (epoch != service_epoch_) {
        return;  // a crash wiped the episode the retry belonged to
      }
      if (processing_) {
        // Wait for the in-flight frame; finish_frame runs the retry.
        has_pending_retry_ = true;
        retry_action_ = action;
        retry_attempt_ = attempt + 1;
        return;
      }
      attempt_switch(action, attempt + 1);
    });
    start_next_frame();
    return;
  }
  if (!fallback_tried_) {
    auto fallback = policy_.on_switch_failed(queue_.now(), action);
    if (fallback.has_value()) {
      validate_mode(fallback->target, "fallback switch");
      fallback_tried_ = true;
      ++metrics_.faults.fallbacks;
      attempt_switch(*fallback, /*attempt=*/0);
      return;
    }
  } else {
    // The fallback itself failed; tell the policy so it rolls back its
    // bookkeeping, but do not chain further fallbacks.
    policy_.on_switch_failed(queue_.now(), action);
  }
  ++metrics_.faults.switches_abandoned;
  set_switching(false);
  set_switch_episode(false);
  start_next_frame();  // keep serving on the still-loaded old mode
}

bool DeviceSim::offer_frame(bool count_loss, std::int64_t tag) {
  ++metrics_.arrived;
  ++window_arrived_;
  recent_arrivals_.push_back(queue_.now());
  if (queued_ >= config_.queue_capacity) {
    if (count_loss) {
      ++metrics_.lost;
      ++window_lost_;
    } else {
      // The dispatcher keeps the bounced frame; it never reached this
      // device's queue, so undo the arrival accounting.
      --metrics_.arrived;
      --window_arrived_;
      recent_arrivals_.pop_back();
    }
    return false;
  }
  set_queued(queued_ + 1);
  queued_tags_.push_back(tag);
  queued_canary_.push_back(0);
  account_violation();
  start_next_frame();
  return true;
}

bool DeviceSim::offer_canary() {
  // NOT an arrival: the rate estimator and the workload metrics never see
  // probe traffic — only its cost, the real service slot it occupies.
  if (queued_ >= config_.queue_capacity) {
    return false;  // saturated device: skip the probe, don't displace work
  }
  ++metrics_.integrity.canaries_sent;
  set_queued(queued_ + 1);
  ++queued_canaries_;
  queued_tags_.push_back(kNoTag);
  queued_canary_.push_back(1);
  account_violation();
  start_next_frame();
  return true;
}

std::int64_t DeviceSim::take_queued(std::int64_t max_frames, std::vector<std::int64_t>* tags) {
  std::int64_t taken = 0;
  std::int64_t left = queued_;
  while (taken < max_frames && left > 0) {
    // Oldest first: the longest-waiting frames are the ones a hedge or a
    // quarantine drain wants somewhere else.
    const bool canary = queued_canary_.front() != 0;
    const std::int64_t tag = queued_tags_.front();
    queued_canary_.pop_front();
    queued_tags_.pop_front();
    --left;
    if (canary) {
      --queued_canaries_;
      continue;  // drained canaries are discarded, not re-dispatched — the
                 // prober sends fresh ones; they don't count toward taken
    }
    if (tags != nullptr) {
      tags->push_back(tag);
    }
    ++taken;
  }
  set_queued(left);
  account_violation();
  return taken;
}

double DeviceSim::estimate_incoming_fps() {
  const double now = queue_.now();
  while (!recent_arrivals_.empty() &&
         recent_arrivals_.front() < now - config_.estimate_window_s) {
    recent_arrivals_.pop_front();
  }
  const double window = std::min(now, config_.estimate_window_s);
  if (window <= 0.0) {
    return 0.0;
  }
  return static_cast<double>(recent_arrivals_.size()) / window;
}

void DeviceSim::accept_switch(const SwitchAction& action) {
  validate_mode(action.target, "switch target");
  pending_switch_ = action;
  set_pending_switch(true);
  if (!processing_) {
    begin_switch();
  }
}

void DeviceSim::command_switch(const SwitchAction& action) {
  // A coordinator command while a ladder is active would corrupt the episode
  // bookkeeping; callers gate on switching() (the coordinator waits for the
  // previous reconfiguration to settle before issuing the next).
  if (switching_ || switch_episode_) {
    throw ConfigError("command_switch on device '" + name_ + "' while a switch is in flight");
  }
  accept_switch(action);
}

void DeviceSim::poll() {
  // No new decisions while a switch ladder is active — including retry
  // backoffs, where the old mode serves but the episode is unresolved — or
  // while the device itself is down (nothing to decide on a dead fabric).
  if (switching_ || switch_episode_ || crash_depth_ > 0 || hang_depth_ > 0) {
    return;
  }
  double incoming_fps = estimate_incoming_fps();
  if (injector_ != nullptr) {
    const auto outcome = injector_->on_rate_poll(queue_.now());
    if (outcome.dropout && last_reported_fps_ >= 0.0) {
      incoming_fps = last_reported_fps_;  // monitor glitch: stale reading
    } else {
      incoming_fps *= outcome.noise_factor;
    }
  }
  last_reported_fps_ = incoming_fps;

  std::optional<SwitchAction> action;
  if (ft().enabled && !has_pending_switch_ &&
      static_cast<double>(queued_) >=
          ft().shed_queue_fraction * static_cast<double>(config_.queue_capacity)) {
    action = policy_.on_overload(queue_.now(), incoming_fps);
    if (action.has_value()) {
      ++metrics_.faults.overload_sheds;
      enter_degraded();
    }
  }
  if (!action.has_value()) {
    action = policy_.on_poll(queue_.now(), incoming_fps);
  }
  if (action.has_value()) {
    accept_switch(*action);
  }
}

void DeviceSim::sample_window() {
  integrate_power();
  const double interval = config_.sample_interval_s;
  metrics_.workload_series.values.push_back(static_cast<double>(window_arrived_) / interval);
  metrics_.loss_series.values.push_back(
      window_arrived_ > 0 ? static_cast<double>(window_lost_) / window_arrived_ : 0.0);
  metrics_.qoe_series.values.push_back(
      window_arrived_ > 0 ? window_qoe_sum_ / static_cast<double>(window_arrived_) : 0.0);
  metrics_.power_series.values.push_back((metrics_.energy_j - window_energy_start_) / interval);
  window_arrived_ = 0;
  window_lost_ = 0;
  window_qoe_sum_ = 0.0;
  window_energy_start_ = metrics_.energy_j;
}

void DeviceSim::finalize(double duration_s) {
  integrate_power();
  account_violation();
  const ForecastView fc = policy_.forecast_view();
  if (fc.stats != nullptr) {
    metrics_.forecast = *fc.stats;
  }
  if (fc.actual != nullptr) {
    metrics_.forecast_actual_series = *fc.actual;
  }
  if (fc.predicted != nullptr) {
    metrics_.forecast_pred_series = *fc.predicted;
  }
  if (degraded_) {
    // Still degraded at sim end: charge the open episode, but it is not a
    // recovery — MTTR only averages completed recoveries.
    metrics_.faults.time_degraded_s += duration_s - degraded_since_;
  }
  if (upset_accuracy_penalty_ > 0.0) {
    // Still corrupted at sim end: charge the open episode (not a repair).
    metrics_.integrity.corrupt_time_s += duration_s - corrupt_since_;
  }
  metrics_.duration_s = duration_s;
  if (injector_ != nullptr) {
    using faults::FaultKind;
    metrics_.faults.reconfig_failures_injected = injector_->injected(FaultKind::kReconfigFailure);
    metrics_.faults.reconfig_slowdowns_injected =
        injector_->injected(FaultKind::kReconfigSlowdown);
    metrics_.faults.monitor_dropouts = injector_->injected(FaultKind::kMonitorDropout);
    metrics_.faults.monitor_noise_events = injector_->injected(FaultKind::kMonitorNoise);
    metrics_.faults.burst_windows = injector_->injected(FaultKind::kQueueBurst);
    metrics_.faults.device_crashes = injector_->injected(FaultKind::kDeviceCrash);
    metrics_.faults.device_hangs = injector_->injected(FaultKind::kDeviceHang);
    metrics_.faults.degrade_windows = injector_->injected(FaultKind::kDeviceDegrade);
    // stalls_injected is counted by the device (it sees each manifestation).
  }
}

}  // namespace adaflow::edge
