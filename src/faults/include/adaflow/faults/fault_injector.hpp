#pragma once

/// \file fault_injector.hpp
/// Deterministic fault injection for the Edge-serving simulation.
///
/// Real ZCU104-class deployments do not reconfigure in exactly ~145 ms every
/// time: partial-reconfiguration loads abort or hang, the rate monitor
/// glitches, an in-flight frame can stall the accelerator, and the camera
/// fleet occasionally bursts past the provisioned rate. The FaultInjector
/// replays such events from an explicit schedule, drawing every probabilistic
/// decision from its own seeded Rng so a (schedule, seed) pair yields a
/// bit-identical run every time — faults are as reproducible as the workload.
///
/// The injector is passive: the Edge server consults it at well-defined
/// points (switch attempt, monitor poll, frame start, arrival scheduling) and
/// reacts according to its fault-tolerance configuration.

#include <cstdint>
#include <string>
#include <vector>

#include "adaflow/common/rng.hpp"

namespace adaflow::faults {

/// The fault classes the injector can arm. Three families share the enum:
///
/// - Per-opportunity faults (reconfig failure/slowdown, monitor glitches,
///   stalls, bursts) draw at each switch attempt / poll / frame start.
/// - Whole-device faults (crash / hang / degrade) manifest per WINDOW: the
///   decision is drawn ONCE at injector construction, so the device can
///   pre-schedule begin/end events and replay stays bit-identical.
/// - Ingest-path faults (network outage, decode fault) draw once per frame
///   transmitted / decode started inside the window.
///
/// kConfigUpset is the silent-data-corruption class (src/integrity): its
/// Poisson arrival times are resolved at construction like the whole-device
/// windows, so the shard engine's fingerprint equivalence survives.
enum class FaultKind {
  kReconfigFailure,   ///< a reconfiguration aborts; the old configuration stays
  kReconfigSlowdown,  ///< a switch takes `magnitude` x its nominal time
  kMonitorDropout,    ///< a rate poll returns the previous (stale) estimate
  kMonitorNoise,      ///< a rate poll is perturbed by +-`magnitude` relative error
  kAcceleratorStall,  ///< the in-flight frame hangs for `magnitude` seconds
  kQueueBurst,        ///< arrival rate is multiplied by `magnitude` in the window
  kDeviceCrash,       ///< whole-device: dead during the window — the in-flight
                      ///< frame is lost and nothing is served until the
                      ///< scheduled recovery (reboot) at end_s
  kDeviceHang,        ///< whole-device: accepts frames but completes none
                      ///< until end_s releases it
  kDeviceDegrade,     ///< whole-device: service runs `magnitude` x slower and
                      ///< each processed frame loses `accuracy_penalty` of its
                      ///< accuracy (mispredictions)
  kNetworkOutage,     ///< ingest path: each frame transmitted in the window is
                      ///< lost with `probability` (flapping uplink)
  kDecodeFault,       ///< ingest path: each decode started in the window fails
                      ///< with `probability` (corrupt bitstream at the decoder)
  kConfigUpset,       ///< silent corruption: configuration-memory upsets (SEUs)
                      ///< arrive as a Poisson stream of rate `magnitude` per
                      ///< second in the window, each thinned by `probability`;
                      ///< an upset durably costs the loaded variant
                      ///< `accuracy_penalty` of its accuracy (scaled by the
                      ///< Flexible overlay's smaller cross-section) until a
                      ///< reload repairs the fabric
};

inline constexpr int kFaultKindCount = 12;

const char* fault_kind_name(FaultKind kind);

/// One scheduled fault: \p kind is armed during [start_s, end_s) and fires
/// with \p probability at each opportunity (each switch attempt, poll, frame
/// start ...). Whole-device kinds (crash/hang/degrade) instead draw their
/// probability once per window. \p magnitude is kind-specific (see FaultKind).
struct FaultSpec {
  FaultKind kind = FaultKind::kReconfigFailure;
  double start_s = 0.0;
  double end_s = 0.0;
  double probability = 1.0;
  double magnitude = 1.0;
  /// kDeviceDegrade: fraction of per-frame accuracy lost in the window.
  /// kConfigUpset: fraction of accuracy one upset durably costs a loaded
  /// Fixed bitstream (the Flexible overlay scales it by its cross-section).
  double accuracy_penalty = 0.0;
  /// kConfigUpset only: the shared Flexible overlay exposes fewer essential
  /// configuration bits than a per-version Fixed bitstream, so an upset that
  /// lands while Flexible is loaded costs only this fraction of
  /// `accuracy_penalty`. Must be in [0, 1].
  double flexible_cross_section = 0.25;
};

/// One manifested whole-device fault window (crash, hang, or degraded
/// service), resolved at injector construction from the seed.
struct DeviceFaultWindow {
  FaultKind kind = FaultKind::kDeviceCrash;
  double start_s = 0.0;
  double end_s = 0.0;             ///< scheduled recovery / release time
  double latency_factor = 1.0;    ///< kDeviceDegrade: service-time multiplier
  double accuracy_penalty = 0.0;  ///< kDeviceDegrade: accuracy lost per frame
};

/// One manifested configuration-memory upset (kConfigUpset), resolved at
/// injector construction: the Poisson arrival times and thinning draws are
/// consumed from the seed up front, so the device can pre-schedule the upset
/// events and a (schedule, seed) pair replays bit-identically. The penalty
/// the fabric actually takes depends on the variant loaded at `time_s`:
/// `accuracy_penalty` on a Fixed bitstream, `accuracy_penalty *
/// flexible_cross_section` on the shared Flexible overlay.
struct ConfigUpsetEvent {
  double time_s = 0.0;
  double accuracy_penalty = 0.0;
  double flexible_cross_section = 0.25;
};

struct FaultSchedule {
  std::vector<FaultSpec> faults;

  /// Throws ConfigError on negative/NaN times, probability outside [0, 1],
  /// inverted windows, or negative magnitudes.
  void validate() const;
};

/// Canned schedule: every reconfiguration attempted in [start_s, end_s) fails
/// with \p probability, and surviving ones run \p slowdown x slower half the
/// time — the "flaky PR controller" scenario of bench_adaflow's `faults`
/// entry. The default slowdown stays inside the hardened server's 3x
/// supervision budget; pass a larger factor to exercise the timeout/abort
/// path instead.
FaultSchedule reconfig_failure_storm(double start_s, double end_s, double probability = 0.9,
                                     double slowdown = 2.0);

/// Canned schedule: noisy monitor (+-40%), occasional dropouts, sporadic
/// accelerator stalls and one arrival burst — a generally hostile edge box.
FaultSchedule flaky_edge_schedule(double duration_s);

/// Canned whole-device windows (probability 1): the device is dead in
/// [crash_s, recovery_s), wedged in [hang_s, release_s), or serves
/// `latency_factor` x slower with `accuracy_penalty` extra mispredictions in
/// [start_s, end_s).
FaultSchedule device_crash_window(double crash_s, double recovery_s);
FaultSchedule device_hang_window(double hang_s, double release_s);
FaultSchedule device_degrade_window(double start_s, double end_s, double latency_factor,
                                    double accuracy_penalty = 0.0);

/// Canned ingest schedules: frames transmitted in [start_s, end_s) are lost
/// with \p probability (network outage), or decodes started in the window
/// fail with \p probability (decode-fault burst).
FaultSchedule network_outage_window(double start_s, double end_s, double probability = 1.0);
FaultSchedule decode_fault_window(double start_s, double end_s, double probability);

/// Canned silent-corruption schedule: configuration upsets arrive at
/// \p upsets_per_s in [start_s, end_s), each durably costing a loaded Fixed
/// bitstream \p accuracy_penalty of its accuracy (the Flexible overlay takes
/// only \p flexible_cross_section of that) until a reload scrubs the fabric.
FaultSchedule config_upset_storm(double start_s, double end_s, double upsets_per_s,
                                 double accuracy_penalty = 0.08,
                                 double flexible_cross_section = 0.25);

class FaultInjector {
 public:
  FaultInjector(FaultSchedule schedule, std::uint64_t seed);

  /// Outcome of one switch attempt (retries consult the injector again).
  struct SwitchOutcome {
    bool fail = false;         ///< the switch aborts; the target mode never loads
    double time_factor = 1.0;  ///< actual switch time = factor x nominal
  };
  /// Only reconfigurations are subject to kReconfigFailure/kReconfigSlowdown;
  /// the Flexible fast switch involves no bitstream and is the safety net.
  SwitchOutcome on_switch_attempt(double now_s, bool is_reconfiguration);

  /// Outcome of one monitor poll.
  struct PollOutcome {
    bool dropout = false;       ///< estimate is stale: reuse the last reported one
    double noise_factor = 1.0;  ///< multiply the estimate by this
  };
  PollOutcome on_rate_poll(double now_s);

  /// Seconds the frame started at \p now_s hangs before completing
  /// (0 = healthy frame).
  double stall_seconds(double now_s);

  /// Multiplier applied to the workload arrival rate at \p now_s (>1 during
  /// a kQueueBurst window). Deterministic: bursts ignore `probability`.
  double arrival_rate_factor(double now_s);

  /// True when the frame transmitted at \p now_s is lost to a scheduled
  /// kNetworkOutage window (drawn per frame).
  bool network_drop(double now_s);

  /// True when the decode started at \p now_s fails to a scheduled
  /// kDecodeFault window (drawn per decode).
  bool decode_fault(double now_s);

  /// Whole-device fault windows that manifested (drawn from the seed at
  /// construction), in schedule order. The device pre-schedules its
  /// crash/hang/degrade begin and end events from this list.
  const std::vector<DeviceFaultWindow>& device_fault_windows() const {
    return device_windows_;
  }

  /// Configuration upsets that manifested (Poisson arrivals drawn from the
  /// seed at construction), in schedule order, time-ascending within each
  /// kConfigUpset spec. The device pre-schedules one corruption event per
  /// entry; how hard each hits depends on the variant loaded when it lands.
  const std::vector<ConfigUpsetEvent>& config_upset_events() const {
    return upset_events_;
  }

  /// Number of manifested faults of one kind so far.
  int injected(FaultKind kind) const;

 private:
  bool draw(const FaultSpec& spec);

  FaultSchedule schedule_;
  Rng rng_;
  int injected_[kFaultKindCount] = {};
  std::vector<char> burst_counted_;  ///< each burst window counted once
  std::vector<DeviceFaultWindow> device_windows_;
  std::vector<ConfigUpsetEvent> upset_events_;
};

}  // namespace adaflow::faults
