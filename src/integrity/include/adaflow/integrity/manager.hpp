#pragma once

/// \file manager.hpp
/// The integrity repair policy, layered over any serving policy as a
/// decorator. Two repair channels, both riding the device's existing
/// supervised-switch machinery (timeout / bounded retry / fallback):
///
///  - Blind periodic scrubbing: every scrub_period_s, re-load the live
///    configuration whether or not anything is wrong. Repairs corruption the
///    canaries never see, at a fixed reconfiguration tax per period.
///  - Detection-triggered repair: request_repair() (wired to the canary
///    prober's trip callback) re-loads the live configuration at the next
///    poll, paying the tax only when evidence says the fabric is corrupt.
///
/// A repair of a Fixed variant is a full reconfiguration; a repair of the
/// shared Flexible overlay only rewrites its config registers via the sub-ms
/// fast switch. When a full reload keeps failing, the manager answers the
/// failure callback with the Flexible fast switch on the same model version —
/// the same always-available safety net the Runtime Manager uses.
///
/// Everything else forwards to the wrapped policy untouched; with scrubbing
/// disabled and no repair requests the decorator is fully transparent.

#include <functional>
#include <memory>
#include <optional>

#include "adaflow/core/library.hpp"
#include "adaflow/edge/policy.hpp"
#include "adaflow/integrity/detector.hpp"

namespace adaflow::integrity {

struct IntegrityPolicyConfig {
  /// Blind scrub period; 0 disables periodic scrubbing.
  double scrub_period_s = 0.0;
  /// Minimum gap between integrity-issued reloads (scrub or repair), so a
  /// flapping detector cannot hammer the PR controller.
  double repair_cooldown_s = 1.0;

  /// Throws common::ConfigError naming the offending field.
  void validate() const;
};

/// Fleet-level integrity configuration (consumed by fleet::FleetConfig):
/// per-device canary probing + drift detection, detection-triggered repair
/// reloads, and hand-off of confirmed-corrupt devices to the fleet's
/// quarantine/drain/re-dispatch machinery.
struct FleetIntegrityConfig {
  bool enabled = false;
  /// Seconds between canary injections per device; 0 disables probing (and
  /// with it detection — enabled=true then only keeps the accounting live).
  double canary_interval_s = 0.5;
  /// On a detector trip, hand the device to the health layer's quarantine
  /// (drains its queue for re-dispatch and gates re-entry on probes).
  /// Requires FleetConfig::health.enabled.
  bool quarantine_on_detect = true;

  /// Throws common::ConfigError naming the offending field.
  void validate() const;
};

class IntegrityManager final : public edge::ServingPolicy {
 public:
  /// \p library must outlive the manager (it prices the reload actions and
  /// resolves the Flexible fallback operating points).
  IntegrityManager(std::unique_ptr<edge::ServingPolicy> inner,
                   const core::AcceleratorLibrary& library, IntegrityPolicyConfig config);

  edge::ServingMode initial_mode() override;
  std::optional<edge::SwitchAction> on_poll(double now_s, double incoming_fps) override;
  void on_switch_applied(double now_s, const edge::ServingMode& mode) override;
  std::optional<edge::SwitchAction> on_switch_failed(double now_s,
                                                     const edge::SwitchAction& action) override;
  std::optional<edge::SwitchAction> on_overload(double now_s, double incoming_fps) override;
  edge::ForecastView forecast_view() const override;

  /// The detection channel: re-load the live configuration at the next poll
  /// (subject to the repair cooldown). Wired to the canary prober's trip.
  void request_repair(double now_s);
  bool repair_pending() const { return repair_requested_; }

  /// Fires whenever the manager issues an integrity reload; \p scrub is true
  /// for the blind periodic channel, false for detection-triggered repairs.
  /// The driver wires this to DeviceSim::note_scrub() for the accounting.
  void set_reload_hook(std::function<void(double now_s, bool scrub)> fn) {
    on_reload_ = std::move(fn);
  }

  edge::ServingPolicy& inner() { return *inner_; }

 private:
  edge::SwitchAction reload_action() const;

  std::unique_ptr<edge::ServingPolicy> inner_;
  const core::AcceleratorLibrary& library_;
  IntegrityPolicyConfig config_;
  std::function<void(double, bool)> on_reload_;

  edge::ServingMode live_mode_;
  bool repair_requested_ = false;
  bool ours_inflight_ = false;      ///< the unresolved switch is an integrity reload
  bool fallback_issued_ = false;    ///< its Flexible fallback is already in play
  double last_scrub_s_ = 0.0;
  double last_reload_s_ = -1e18;    ///< cooldown reference (issue time)
};

}  // namespace adaflow::integrity
