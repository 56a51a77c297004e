#pragma once

/// \file device_sim.hpp
/// One FPGA-equipped serving device as a composable discrete-event component.
///
/// DeviceSim is the single-server simulation of server.cpp with the workload
/// pulled out: it owns the accelerator/queue/policy/fault-tolerance state of
/// ONE device but is driven from the outside through a shared sim::EventQueue.
/// run_simulation() wraps exactly one DeviceSim behind a Poisson arrival
/// process; the fleet layer (src/fleet) places N of them behind a dispatcher
/// and routes frames between them.
///
/// The driver is responsible for the cadence events: it delivers frames via
/// offer_frame(), calls poll() at the monitor cadence, sample_window() at the
/// sampling cadence, and finalize() once the clock reaches the end of the
/// run. DeviceSim itself never schedules recurring events, which is what
/// makes several instances composable on one queue.

#include <cstdint>
#include <functional>
#include <string>
#include <vector>

#include "adaflow/edge/policy.hpp"
#include "adaflow/edge/server_types.hpp"
#include "adaflow/sim/event_queue.hpp"

#include <deque>

namespace adaflow::faults {
class FaultInjector;
struct DeviceFaultWindow;
struct ConfigUpsetEvent;
}

namespace adaflow::edge {

class DeviceSim {
 public:
  /// \p queue outlives the device; \p policy and \p config are borrowed for
  /// the device's lifetime. \p injector may be null (fault-free device).
  DeviceSim(sim::EventQueue& queue, ServingPolicy& policy, const ServerConfig& config,
            faults::FaultInjector* injector = nullptr, std::string name = "device");

  /// Loads and validates the policy's initial mode and starts the power
  /// integration clock at queue.now(). Call once, before any other member.
  void start();

  /// Callers that track individual frames (the ingest pipeline's
  /// capture->result latency) pass this when a frame has no identity; the
  /// device then never reports it through the frame hooks.
  static constexpr std::int64_t kNoTag = -1;

  /// A frame reaches this device at queue.now(). The arrival is always
  /// recorded for the local rate estimator; if the queue has room the frame
  /// is accepted, otherwise it is rejected. A rejected frame is charged to
  /// this device's `lost` counter when \p count_loss is true (single-server
  /// semantics); a fleet dispatcher passes false and decides itself what to
  /// do with the bounced frame. A crashed or hung device still buffers
  /// frames (the failure is silent to the sender) — they just never start
  /// service until recovery. \p tag is an opaque per-frame identity carried
  /// through the FIFO queue and reported back via the frame hooks.
  bool offer_frame(bool count_loss = true, std::int64_t tag = kNoTag);

  /// Removes up to \p max_frames waiting frames from the FRONT of the queue
  /// (the longest-waiting first — what a hedge wants re-routed) and hands
  /// them back to the caller (quarantine drain / hedged re-dispatch). The
  /// frames are not counted lost here — the dispatcher that takes them
  /// decides their fate. Returns the number actually removed; their tags are
  /// appended to \p tags when non-null.
  std::int64_t take_queued(std::int64_t max_frames, std::vector<std::int64_t>* tags = nullptr);

  /// Enqueues one golden (known-output) canary frame through the NORMAL
  /// queue: it occupies a real service slot — the probing throughput tax —
  /// but is not workload, so it never counts toward arrived/processed/QoE
  /// and is invisible to the rate estimator. On completion the canary hook
  /// receives the output error against the golden answer (0 on a clean
  /// fabric). Returns false (and sends nothing) when the queue is full — a
  /// saturated device skips the probe rather than displacing real frames.
  bool offer_canary();

  /// Receives every completed canary: (completion time, output error vs the
  /// golden answer). The integrity layer feeds its drift detector from this.
  void set_canary_hook(std::function<void(double now_s, double error)> fn) {
    on_canary_ = std::move(fn);
  }

  /// The drift detector tripped: score the verdict against ground truth —
  /// a detection (with its upset-landing -> trip latency) when the fabric is
  /// corrupted, a false alarm when it is clean — in metrics().integrity.
  void note_integrity_detection();

  /// A blind periodic scrub reload was issued for this device (counted in
  /// metrics().integrity.scrubs; the reload itself travels through the
  /// normal supervised-switch path).
  void note_scrub();

  /// One monitor poll: estimates the device's incoming FPS over the
  /// configured window (fault-injector glitches applied) and lets the
  /// serving policy act. No-op while a switch ladder is in flight.
  void poll();

  /// Closes one sample window and appends to the metric time series.
  void sample_window();

  /// Externally commanded switch (fleet coordinator). Takes the same path a
  /// policy-issued action does: validation, fault injection, the timeout /
  /// retry / fallback ladder, and on_switch_applied on success.
  void command_switch(const SwitchAction& action);

  /// Final power integration and open-degraded-episode accounting at t_end;
  /// also copies the injector's manifested-fault counters into metrics().
  void finalize(double duration_s);

  // --- introspection (routing policies / fleet coordinator) ---------------
  const std::string& name() const { return name_; }
  const ServingMode& mode() const { return mode_; }
  std::int64_t queued() const { return queued_; }
  /// Canary frames currently waiting in the queue (subset of queued()). The
  /// health monitor subtracts these: canaries never raise `processed`, so
  /// counting them as work would make an idle probed device look stalled.
  std::int64_t queued_canaries() const { return queued_canaries_; }
  /// True while the frame in service is a canary (same exclusion).
  bool canary_in_service() const { return inflight_canary_; }
  std::int64_t queue_capacity() const { return config_.queue_capacity; }
  std::int64_t free_slots() const { return config_.queue_capacity - queued_; }
  bool processing() const { return processing_; }
  /// True while a switch, retry ladder, or stall recovery blocks service.
  bool switching() const { return switching_; }
  /// True from the moment a switch is accepted until its episode resolves
  /// (applied or abandoned) — wider than switching(): it also covers a
  /// pending switch waiting for the in-flight frame and retry backoffs.
  bool switch_in_flight() const {
    return switching_ || switch_episode_ || has_pending_switch_;
  }
  /// Queue empty and the accelerator neither serving nor switching.
  bool idle() const { return !processing_ && !switching_ && queued_ == 0; }
  // Whole-device fault state (ground truth for tests and benches; the fleet
  // HealthMonitor deliberately never reads these — it infers sickness from
  // completion progress alone, the way a real dispatcher has to).
  bool crashed() const { return crash_depth_ > 0; }
  bool hung() const { return hang_depth_ > 0; }
  /// Ground truth of the silent-corruption model: true while landed config
  /// upsets degrade the loaded configuration (benches and verdict scoring
  /// read this; detectors deliberately never do — they only see the canary
  /// error stream, the way a real integrity layer has to).
  bool corrupted() const { return upset_accuracy_penalty_ > 0.0; }
  /// Drain-time estimate of the backlog: (queued + in-flight) / mode FPS.
  double backlog_seconds() const {
    const double frames = static_cast<double>(queued_) + (processing_ ? 1.0 : 0.0);
    return mode_.fps > 0.0 ? frames / mode_.fps : 0.0;
  }

  RunMetrics& metrics() { return metrics_; }
  const RunMetrics& metrics() const { return metrics_; }

  /// Invoked every time a queued frame moves into service (queue headroom
  /// appeared). A fleet dispatcher uses it to drain its ingress queue.
  void set_on_headroom(std::function<void()> fn) { on_headroom_ = std::move(fn); }

  /// Invoked after every write to a field a router reads — queued(),
  /// processing(), the three flags behind switch_in_flight(), and mode() —
  /// so an owner can keep a copy of that state current without polling the
  /// device (the fleet dispatcher's router input). The hook runs
  /// synchronously, before any other callback the same change triggers.
  void set_on_status(std::function<void()> fn) { on_status_ = std::move(fn); }

  /// Per-frame service shaping for workloads whose cost and quality vary per
  /// frame (the detection pipeline: NMS cost scales with scene density, not
  /// frame count). Consulted once per REAL frame as it enters service;
  /// canaries are never shaped (their golden outputs must stay comparable).
  struct FrameService {
    /// Added to the mode's nominal 1/fps service time (e.g. postprocess
    /// seconds); degrade latency factors apply on top. Negative is clamped.
    double extra_service_s = 0.0;
    /// Per-frame delivered quality replacing mode.accuracy in the QoE
    /// accounting (degrade/upset penalties still apply); < 0 keeps the
    /// mode's accuracy (classification behaviour).
    double quality = -1.0;
  };
  using ServiceModel = std::function<FrameService(double now_s, const ServingMode& mode)>;
  void set_service_model(ServiceModel fn) { service_model_ = std::move(fn); }

  /// Per-frame outcome hooks, fired only for frames offered with a real tag:
  /// \p on_done when a frame completes (with the accuracy it delivered,
  /// degrade penalties applied), \p on_lost when it is destroyed inside the
  /// device (stall-watchdog drop, crash wiping the in-flight frame). Frames
  /// pulled back via take_queued are reported to neither — the caller holds
  /// them again.
  void set_frame_hooks(std::function<void(std::int64_t tag, double accuracy)> on_done,
                       std::function<void(std::int64_t tag)> on_lost) {
    on_frame_done_ = std::move(on_done);
    on_frame_lost_ = std::move(on_lost);
  }

 private:
  double current_power() const;
  void integrate_power();
  void account_violation();
  void apply_mode(const ServingMode& m);
  // The only writers of the router-visible fields (see set_on_status).
  void notify_status() {
    if (on_status_) {
      on_status_();
    }
  }
  void set_mode(const ServingMode& m) {
    mode_ = m;
    notify_status();
  }
  void set_queued(std::int64_t n) {
    queued_ = n;
    notify_status();
  }
  void set_processing(bool on) {
    processing_ = on;
    notify_status();
  }
  /// A queued frame moves into service: both writes, one notification.
  void set_started_frame() {
    processing_ = true;
    --queued_;
    notify_status();
  }
  void set_switching(bool on) {
    switching_ = on;
    notify_status();
  }
  void set_switch_episode(bool on) {
    switch_episode_ = on;
    notify_status();
  }
  void set_pending_switch(bool on) {
    has_pending_switch_ = on;
    notify_status();
  }
  void enter_degraded();
  void exit_degraded();
  void start_next_frame();
  void finish_frame();
  void on_watchdog_fired();
  void on_device_fault_begin(const faults::DeviceFaultWindow& window);
  void on_device_fault_end(const faults::DeviceFaultWindow& window);
  void on_config_upset(const faults::ConfigUpsetEvent& upset);
  void repair_upsets();
  void abort_switch_episode();
  void begin_switch();
  void attempt_switch(const SwitchAction& action, int attempt);
  void on_switch_attempt_failed(const SwitchAction& action, int attempt);
  double estimate_incoming_fps();
  void accept_switch(const SwitchAction& action);

  sim::EventQueue& queue_;
  ServingPolicy& policy_;
  const ServerConfig& config_;
  faults::FaultInjector* injector_;
  std::string name_;

  // Router-visible state: written only through the setters above, so every
  // change reaches the status hook.
  ServingMode mode_;
  std::int64_t queued_ = 0;
  bool processing_ = false;
  bool switching_ = false;  ///< a switch (incl. retries) or stall recovery is in progress
  bool has_pending_switch_ = false;
  bool switch_episode_ = false;  ///< a switch ladder (incl. backoff) is active

  SwitchAction pending_switch_;
  bool fallback_tried_ = false;     ///< one fallback per switch episode
  bool has_pending_retry_ = false;  ///< retry timer fired while a frame was in flight
  SwitchAction retry_action_;
  int retry_attempt_ = 0;

  RunMetrics metrics_;

  // Whole-device fault state. Depth counters tolerate overlapping windows;
  // the epoch invalidates service/switch events scheduled before a crash
  // wiped the fabric (a simple event queue cannot cancel, so stale events
  // check the epoch and no-op).
  int crash_depth_ = 0;
  int hang_depth_ = 0;
  int degrade_depth_ = 0;
  double degrade_latency_factor_ = 1.0;
  double degrade_accuracy_penalty_ = 0.0;
  std::uint64_t service_epoch_ = 0;

  // Degraded-mode accounting: from the first manifested fault of an episode
  // until the device is back on a policy-chosen, healthy operating point.
  bool degraded_ = false;
  double degraded_since_ = 0.0;

  // Monitor state: last estimate actually reported to the policy, reused
  // verbatim when the injector drops a poll.
  double last_reported_fps_ = -1.0;

  // Power integration.
  double last_power_t_ = 0.0;

  // Queue-pressure (threshold-violation) accounting.
  bool in_violation_ = false;
  double last_violation_t_ = 0.0;

  // Incoming-rate estimation: arrival timestamps inside the window.
  std::deque<double> recent_arrivals_;

  // Frame identity: tags of waiting frames in queue order (always kept in
  // lock-step with queued_) and of the frame in service.
  std::deque<std::int64_t> queued_tags_;
  std::int64_t inflight_tag_ = kNoTag;

  // Canary flags ride the same FIFO in lock-step with queued_tags_: a canary
  // costs a real service slot (the probing tax) but its completion routes to
  // the canary hook instead of the workload metrics.
  std::deque<char> queued_canary_;
  std::int64_t queued_canaries_ = 0;
  bool inflight_canary_ = false;

  // Silent-corruption state: accumulated accuracy penalty of the config
  // upsets that landed since the last completed (re)load (0 = clean fabric)
  // and when the open corrupt episode began.
  double upset_accuracy_penalty_ = 0.0;
  double corrupt_since_ = 0.0;

  // Per-sample-window counters.
  std::int64_t window_arrived_ = 0;
  std::int64_t window_lost_ = 0;
  double window_qoe_sum_ = 0.0;
  double window_energy_start_ = 0.0;

  // Per-frame service model (detection workloads): quality of the frame
  // currently in service, < 0 when the mode's accuracy applies.
  ServiceModel service_model_;
  double inflight_quality_ = -1.0;

  std::function<void()> on_headroom_;
  std::function<void()> on_status_;
  std::function<void(std::int64_t, double)> on_frame_done_;
  std::function<void(std::int64_t)> on_frame_lost_;
  std::function<void(double, double)> on_canary_;
};

}  // namespace adaflow::edge
