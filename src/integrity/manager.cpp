#include "adaflow/integrity/manager.hpp"

#include <utility>

#include "adaflow/common/error.hpp"

namespace adaflow::integrity {

void IntegrityPolicyConfig::validate() const {
  require(scrub_period_s >= 0.0, "scrub_period_s must be >= 0 (0 disables scrubbing)");
  require(repair_cooldown_s >= 0.0, "repair_cooldown_s must be >= 0");
}

void FleetIntegrityConfig::validate() const {
  require(canary_interval_s >= 0.0, "canary_interval_s must be >= 0 (0 disables probing)");
}

IntegrityManager::IntegrityManager(std::unique_ptr<edge::ServingPolicy> inner,
                                   const core::AcceleratorLibrary& library,
                                   IntegrityPolicyConfig config)
    : inner_(std::move(inner)), library_(library), config_(config) {
  require(inner_ != nullptr, "IntegrityManager needs an inner serving policy");
  config_.validate();
}

edge::ServingMode IntegrityManager::initial_mode() {
  live_mode_ = inner_->initial_mode();
  return live_mode_;
}

/// Re-load of the LIVE mode. Repairing a Fixed variant means rewriting its
/// whole bitstream (a full reconfiguration); repairing the shared Flexible
/// overlay only rewrites its config registers, which the sub-ms fast switch
/// already does.
edge::SwitchAction IntegrityManager::reload_action() const {
  const hls::AcceleratorVariant live = core::variant_of(live_mode_);
  edge::SwitchAction action =
      core::switch_to(library_, library_.index_of(live_mode_.model_version), live, live);
  action.target = live_mode_;  // the live mode as loaded (the FINN baseline too)
  return action;
}

void IntegrityManager::request_repair(double now_s) {
  (void)now_s;  // the cooldown is enforced at issue time, not request time
  repair_requested_ = true;
}

std::optional<edge::SwitchAction> IntegrityManager::on_poll(double now_s, double incoming_fps) {
  // The device only polls while no switch episode is active, so an
  // unresolved "ours" flag here means a crash wiped the episode without any
  // callback — clear the stale routing state.
  ours_inflight_ = false;
  fallback_issued_ = false;

  const bool cooled = now_s - last_reload_s_ >= config_.repair_cooldown_s;
  if (repair_requested_ && cooled) {
    repair_requested_ = false;
    ours_inflight_ = true;
    last_reload_s_ = now_s;
    if (on_reload_) {
      on_reload_(now_s, /*scrub=*/false);
    }
    return reload_action();
  }
  if (config_.scrub_period_s > 0.0 && now_s - last_scrub_s_ >= config_.scrub_period_s &&
      cooled) {
    last_scrub_s_ = now_s;
    ours_inflight_ = true;
    last_reload_s_ = now_s;
    if (on_reload_) {
      on_reload_(now_s, /*scrub=*/true);
    }
    return reload_action();
  }
  return inner_->on_poll(now_s, incoming_fps);
}

void IntegrityManager::on_switch_applied(double now_s, const edge::ServingMode& mode) {
  if (ours_inflight_) {
    // An integrity reload landed. A same-mode reload needs no inner
    // notification (and a scrub must not reset e.g. the Runtime Manager's
    // switch-interval clock) — but the Flexible fallback MOVES the live
    // mode, and the inner policy's live bookkeeping has to follow it.
    const bool mode_changed = mode.accelerator != live_mode_.accelerator ||
                              mode.model_version != live_mode_.model_version;
    live_mode_ = mode;
    ours_inflight_ = false;
    fallback_issued_ = false;
    if (mode_changed) {
      inner_->on_switch_applied(now_s, mode);
    }
    return;
  }
  live_mode_ = mode;
  inner_->on_switch_applied(now_s, mode);
}

std::optional<edge::SwitchAction> IntegrityManager::on_switch_failed(
    double now_s, const edge::SwitchAction& action) {
  if (!ours_inflight_) {
    return inner_->on_switch_failed(now_s, action);
  }
  if (action.is_reconfiguration && !fallback_issued_) {
    // The full reload keeps failing: fall back to the always-available
    // Flexible overlay running the same model version, and the Flexible
    // cross-section shrinks future upsets as a bonus. Off a Fixed bitstream
    // this is the paper's "Change of Dataflow" reconfiguration, priced like
    // the Runtime Manager's own fallback; fallback_issued_ stops a failure of
    // it from falling back again.
    fallback_issued_ = true;
    return core::switch_to(library_, library_.index_of(live_mode_.model_version),
                           hls::AcceleratorVariant::kFlexible, core::variant_of(live_mode_));
  }
  // The cheap path failed too (or was the primary and failed): stay on the
  // live mode, let the cooldown expire, and try again on fresh evidence.
  ours_inflight_ = false;
  fallback_issued_ = false;
  repair_requested_ = false;
  return std::nullopt;
}

std::optional<edge::SwitchAction> IntegrityManager::on_overload(double now_s,
                                                               double incoming_fps) {
  return inner_->on_overload(now_s, incoming_fps);
}

edge::ForecastView IntegrityManager::forecast_view() const { return inner_->forecast_view(); }

}  // namespace adaflow::integrity
