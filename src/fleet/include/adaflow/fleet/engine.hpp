#pragma once

/// \file engine.hpp
/// The fleet's dispatcher/coordinator/health core as a reusable,
/// externally-driven component.
///
/// FleetEngine is the cluster simulation with the workload pulled out — the
/// same extraction DeviceSim is of the single server. It owns the N
/// DeviceSims, the bounded ingress queue, the RoutingPolicy, the
/// HealthMonitor circuit breaker, and the drain-and-reconfigure coordinator,
/// but frames are delivered from the outside through offer_frame() on a
/// shared sim::EventQueue. shard::run_sharded_fleet runs one engine per shard
/// behind a Poisson arrival process; the ingest pipeline (src/ingest) places a
/// session/network/decode front-end ahead of the same engine and feeds it
/// tagged frames, so capture->result latency survives hedges, quarantine
/// drains, and re-dispatch.
///
/// Frame identity: every frame may carry an opaque int64 tag
/// (edge::DeviceSim::kNoTag for anonymous traffic). A tagged frame reports
/// back through set_frame_hooks exactly once — done (with delivered
/// accuracy) or lost (destroyed inside a device, or shed when a re-dispatch
/// found the ingress queue full). A frame shed at arrival is reported by the
/// offer_frame() return value instead, never through the hooks.

#include <cstdint>
#include <deque>
#include <functional>
#include <memory>
#include <unordered_map>
#include <vector>

#include "adaflow/edge/device_sim.hpp"
#include "adaflow/fleet/fleet.hpp"
#include "adaflow/integrity/detector.hpp"

namespace adaflow::fleet {

/// Scheduling discipline of the dispatcher's bounded ingress queue. The
/// engine pushes every frame that found no device, pops in whatever order
/// the implementation decides (FIFO by default, weighted-fair in the
/// multi-tenant scheduler), and puts a frame back when no device would take
/// it. Implementations own their capacity policy: push() returning false
/// means "full for this frame's class" and the engine sheds the frame.
class IngressQueue {
 public:
  virtual ~IngressQueue() = default;
  virtual bool empty() const = 0;
  virtual std::size_t size() const = 0;
  /// Admit one waiting frame; false when full (the caller sheds it).
  virtual bool push(std::int64_t tag) = 0;
  /// Removes and returns the next frame in scheduling order. Only called on
  /// a non-empty queue.
  virtual std::int64_t pop() = 0;
  /// Puts back the frame pop() just returned (no device would take it). It
  /// must keep its place: the next pop returns it again unless a
  /// higher-priority frame arrived in between.
  virtual void unpop(std::int64_t tag) = 0;
};

/// The default bounded FIFO ingress — exactly the pre-tenant dispatcher
/// queue semantics (push_back / pop_front / put-back at the front).
class FifoIngress final : public IngressQueue {
 public:
  explicit FifoIngress(std::int64_t capacity) : capacity_(capacity) {}
  bool empty() const override { return frames_.empty(); }
  std::size_t size() const override { return frames_.size(); }
  bool push(std::int64_t tag) override {
    if (static_cast<std::int64_t>(frames_.size()) >= capacity_) {
      return false;
    }
    frames_.push_back(tag);
    return true;
  }
  std::int64_t pop() override {
    const std::int64_t tag = frames_.front();
    frames_.pop_front();
    return tag;
  }
  void unpop(std::int64_t tag) override { frames_.push_front(tag); }

 private:
  std::int64_t capacity_;
  std::deque<std::int64_t> frames_;
};

/// Per-device injector seed: splitmix-style spreading of the fleet seed so
/// neighbouring devices get unrelated streams.
std::uint64_t device_seed(std::uint64_t fleet_seed, std::size_t index);

class FleetEngine {
 public:
  /// What happened to a frame offered to the ingress.
  enum class Admit {
    kDispatched,  ///< routed to a device queue immediately
    kQueued,      ///< waiting at the bounded ingress queue
    kShed,        ///< ingress full: the frame is lost (metrics.ingress_lost)
  };

  /// \p queue, \p library, \p config, and \p router must outlive the engine.
  /// \p horizon_s is the last time of the cadences start() declares on
  /// \p queue (device polls and samples, fleet samples, coordinator, health,
  /// canaries) — pass the run duration. \p seed derives the
  /// per-device fault-injector seeds; the engine itself draws no randomness.
  FleetEngine(sim::EventQueue& queue, const core::AcceleratorLibrary& library,
              const FleetConfig& config, RoutingPolicy& router, std::uint64_t seed,
              double horizon_s);
  ~FleetEngine();

  FleetEngine(const FleetEngine&) = delete;
  FleetEngine& operator=(const FleetEngine&) = delete;

  /// Starts every device and declares the cadences (sim::EventQueue::every).
  /// Call once, at the simulation time the run begins (normally t=0), before
  /// any offer_frame.
  void start();

  /// One frame reaches the dispatcher at queue.now(): routed immediately
  /// when any device is accepting with headroom, parked at the bounded
  /// ingress queue otherwise, shed when that queue is full.
  Admit offer_frame(std::int64_t tag = edge::DeviceSim::kNoTag);

  /// Per-frame outcome hooks for tagged frames (see file comment). The done
  /// hook receives the accuracy the serving device delivered (degrade
  /// penalties applied) — the ingest pipeline turns it into QoE and
  /// capture->result latency.
  void set_frame_hooks(std::function<void(std::int64_t tag, double accuracy)> on_done,
                       std::function<void(std::int64_t tag)> on_lost);

  /// Replaces the default bounded-FIFO ingress with a caller-owned
  /// scheduling discipline (the multi-tenant WFQ). Call before start();
  /// \p ingress must be empty and outlive the engine.
  void set_ingress_queue(IngressQueue& ingress);

  /// Re-attempts dispatch of waiting ingress frames. Every internal path
  /// that frees headroom already pumps; external callers (the tenant
  /// coordinator after re-partitioning) use this to wake a queue whose
  /// frames were declined by the router earlier.
  void pump();

  /// Final per-device accounting at \p duration_s; moves the metrics out.
  /// The engine is spent afterwards.
  FleetMetrics finalize(double duration_s);

  // --- introspection / external control (ingest brownout controller) ------
  std::size_t device_count() const { return devices_.size(); }
  const edge::DeviceSim& device(std::size_t i) const { return *devices_[i]; }
  /// Library device \p i serves from (its own, or the fleet default).
  const core::AcceleratorLibrary& device_library(std::size_t i) const;
  std::int64_t ingress_backlog() const { return static_cast<std::int64_t>(ingress_->size()); }
  /// Whether the dispatcher routes to device \p i at all: not drained by the
  /// coordinator and not out of rotation in the health monitor.
  bool in_rotation(std::size_t i) const {
    return accepting_[i] != 0 && !monitor_.out_of_rotation(i);
  }
  /// Externally commanded switch on device \p i — the same validated,
  /// fault-injected, timeout/retry-laddered path the coordinator uses.
  /// Callers gate on device(i).switch_in_flight().
  void command_device_switch(std::size_t i, const edge::SwitchAction& action);
  /// Live counters (finalize() gives the complete picture).
  const FleetMetrics& metrics() const { return metrics_; }

 private:
  static constexpr std::size_t kNoExclude = static_cast<std::size_t>(-1);

  bool excluded(std::size_t i) const;
  void refresh_status(std::size_t i);
  /// Recomputes statuses_[i].eligible (queue headroom and in_rotation(i))
  /// and keeps eligible_count_ in step. Called after every write to what it
  /// reads: the status hook, set_accepting, and each HealthMonitor state
  /// change (observe, force_quarantine).
  void refresh_eligible(std::size_t i);
  /// The one writer of accepting_[i] (coordinator drain and rejoin).
  void set_accepting(std::size_t i, bool on);
  bool try_dispatch(std::int64_t tag, std::size_t exclude = kNoExclude);
  bool try_probe_dispatch(std::int64_t tag);
  /// Sets probe_wanted_[i] and keeps probes_wanted_ in step with it.
  void set_probe_wanted(std::size_t i, bool wanted);
  void drain_ingress();
  void on_device_headroom(std::size_t i);
  /// Central frame-outcome funnel: dedupes duplicate-hedge copies, then
  /// forwards caller tags to the user hooks. Every completion/loss path
  /// (device hooks, re-park sheds) reports through here.
  void frame_done(std::int64_t tag, double accuracy);
  void frame_lost(std::int64_t tag);
  /// Dispatches duplicate copies of frames stuck past the hedge budget
  /// (hedge_duplicate mode; health_tick calls it each tick).
  void hedge_duplicates(double now);
  /// A re-dispatched frame (quarantine drain, probe reclaim, hedge) looks
  /// for a new home: device first, then ingress, else it is shed — and a
  /// shed tagged frame fires the lost hook (its owner must hear of it).
  void redispatch_or_park(std::int64_t tag, std::size_t exclude);
  void quarantine_drain(std::size_t i);
  bool any_other_eligible(std::size_t i) const;
  void health_tick();
  /// A canary completed on device \p i with \p error against the golden
  /// answer: feeds that device's drift detector, and on a trip scores the
  /// verdict, issues the detection-triggered reload (cooldown-gated), and
  /// optionally force-quarantines the device.
  void on_canary_result(std::size_t i, double now, double error);
  double aggregate_fps();
  void maybe_start_repartition(double now);
  void coordinator_tick();

  sim::EventQueue& queue_;
  const core::AcceleratorLibrary& fleet_library_;
  const FleetConfig& config_;
  RoutingPolicy& router_;
  double horizon_s_;

  std::vector<std::unique_ptr<edge::ServingPolicy>> policies_;
  std::vector<std::unique_ptr<faults::FaultInjector>> injectors_;  ///< null = fault-free
  std::vector<std::unique_ptr<edge::DeviceSim>> devices_;
  /// Cleared while the coordinator drains/reconfigures a device. Written
  /// only through set_accepting, which refreshes the device's eligibility.
  std::vector<char> accepting_;

  HealthMonitor monitor_;
  /// Devices waiting for the dispatcher to route them a half-open probe,
  /// and how many of them there are (0 skips the per-frame probe scan).
  std::vector<char> probe_wanted_;
  std::int64_t probes_wanted_ = 0;
  /// The router's input, one per device, push-maintained: each device's
  /// status hook (DeviceSim::set_on_status) refreshes its entry after every
  /// change, and refresh_eligible keeps `eligible` equal to
  /// `queued < capacity && in_rotation(i)`, so try_dispatch reads no device
  /// and scans nothing.
  std::vector<DeviceStatus> statuses_;
  /// Devices marked eligible in statuses_: 0 means none can take a frame and
  /// try_dispatch returns at once.
  std::int64_t eligible_count_ = 0;

  /// Integrity layer (sized to the fleet only when config.integrity.enabled):
  /// one drift detector per device fed from that device's canary stream, and
  /// the time of the last detection-triggered reload (cooldown gate, so a
  /// slow reload is not re-issued on every canary while corruption clears).
  std::vector<integrity::DriftDetector> integrity_detectors_;
  std::vector<double> last_repair_s_;
  /// One entry per frame waiting in a device's queue (front = oldest):
  /// dispatch timestamp + tag. Kept in lock-step with DeviceSim::queued();
  /// the tag lets duplicate hedging name a stuck frame without pulling it.
  struct QueuedFrame {
    double since = 0.0;
    std::int64_t tag = edge::DeviceSim::kNoTag;
  };
  std::vector<std::deque<QueuedFrame>> queued_since_;

  FleetMetrics metrics_;
  /// The frames waiting at ingress, in the queue's scheduling order.
  /// Points at default_ingress_ unless set_ingress_queue installed another.
  std::unique_ptr<FifoIngress> default_ingress_;
  IngressQueue* ingress_ = nullptr;
  bool draining_ = false;  ///< re-entrancy guard for drain_ingress()

  std::function<void(std::int64_t, double)> on_frame_done_;
  std::function<void(std::int64_t)> on_frame_lost_;

  /// Duplicate-hedge bookkeeping (hedge_duplicate mode): one entry per frame
  /// with two live copies in flight. First completion wins; the loser is
  /// discarded as hedge_wasted. Anonymous frames get internal tags (< -1,
  /// from next_internal_tag_) at admission so their copies dedupe too.
  struct HedgeEntry {
    int copies = 2;
    bool delivered = false;
  };
  std::unordered_map<std::int64_t, HedgeEntry> hedge_copies_;
  std::int64_t next_internal_tag_ = -2;
  double hedge_wasted_qoe_ = 0.0;  ///< accuracy sum of discarded duplicates

  // Coordinator state (see fleet.hpp for the drain-and-reconfigure design).
  std::deque<double> recent_arrivals_;
  enum class CoordState { kIdle, kDraining, kReconfiguring };
  CoordState coord_state_ = CoordState::kIdle;
  std::size_t coord_device_ = 0;
  std::size_t coord_target_ = 0;
  double drain_started_s_ = 0.0;
  double last_repartition_end_s_ = -1e18;
  /// Aggregate FPS at the last fully-converged evaluation; the hysteresis
  /// band is centred here, not on the last action, so a half-converged fleet
  /// keeps converging at a stable rate.
  double last_converged_fps_ = -1.0;

  // Fleet sample window: totals at the previous sample instant.
  std::int64_t snap_arrived_ = 0;
  std::int64_t snap_lost_ = 0;
  double snap_qoe_ = 0.0;
};

}  // namespace adaflow::fleet
