#pragma once

/// \file network.hpp
/// The camera->cluster network path: propagation delay with seeded jitter,
/// i.i.d. and bursty (Gilbert-Elliott) loss, occasional duplicate delivery,
/// plus scheduled outage windows via the shared FaultInjector. Jitter makes
/// reordering emerge naturally — a frame delayed past its successor arrives
/// late, and the StaleFilter at the receiving end decides its fate.
///
/// One NetworkLink per camera session, each with its own seeded Rng stream,
/// so per-link behaviour replays bit-identically and adding a camera never
/// perturbs the others' draws.

#include <cstdint>
#include <functional>

#include "adaflow/common/rng.hpp"
#include "adaflow/sim/event_queue.hpp"

namespace adaflow::faults {
class FaultInjector;
}

namespace adaflow::ingest {

struct NetworkConfig {
  double base_delay_s = 0.02;   ///< fixed propagation delay
  double jitter_s = 0.01;       ///< extra uniform [0, jitter_s) per frame
  double loss_p = 0.01;         ///< i.i.d. loss in the good state
  double burst_loss_p = 0.5;    ///< loss while the link is in its bad state
  double p_good_to_bad = 0.005; ///< per-frame transition into the burst state
  double p_bad_to_good = 0.2;   ///< per-frame recovery out of it
  double duplicate_p = 0.002;   ///< a second copy is delivered late
  double duplicate_extra_delay_s = 0.03;
};

struct NetworkStats {
  std::int64_t transmitted = 0;   ///< frames handed to the link (capture side)
  std::int64_t duplicates = 0;    ///< extra copies the link created
  std::int64_t lost_iid = 0;      ///< good-state random drops
  std::int64_t lost_burst = 0;    ///< bad-state (burst) drops
  std::int64_t lost_outage = 0;   ///< scheduled kNetworkOutage drops
  std::int64_t delivered = 0;     ///< copies that reached the receiver
  std::int64_t lost() const { return lost_iid + lost_burst + lost_outage; }
  /// Copies still in flight right now (the conservation term at run end).
  std::int64_t in_flight() const { return transmitted + duplicates - lost() - delivered; }
};

class NetworkLink {
 public:
  /// \p queue outlives the link; \p injector may be null (no scheduled
  /// outages). Throws ConfigError on an invalid config.
  NetworkLink(sim::EventQueue& queue, const NetworkConfig& config, std::uint64_t seed,
              faults::FaultInjector* injector = nullptr);

  /// Invoked at delivery time for every surviving copy. Set before use.
  void set_on_deliver(std::function<void(std::int64_t seq, double capture_s)> fn) {
    on_deliver_ = std::move(fn);
  }

  /// One frame enters the link at queue.now() (= its capture time).
  void transmit(std::int64_t seq, double capture_s);
  const NetworkStats& stats() const { return stats_; }

 private:
  void deliver(std::int64_t seq, double capture_s, double delay_s);

  sim::EventQueue& queue_;
  NetworkConfig config_;
  Rng rng_;
  faults::FaultInjector* injector_;
  bool bad_state_ = false;
  NetworkStats stats_;
  std::function<void(std::int64_t, double)> on_deliver_;
};

/// Receiver-side ordering guard: sequence numbers are monotone at capture,
/// so any frame at or below the highest already-accepted seq is either a
/// duplicate or arrived after a newer frame was already admitted — both are
/// worthless to a live CNN pipeline and are dropped on the spot
/// (drop-on-stale). Arrival-order inversions are counted whether or not the
/// frame survives.
class StaleFilter {
 public:
  struct Stats {
    std::int64_t arrived = 0;
    std::int64_t accepted = 0;
    std::int64_t dropped_stale = 0;  ///< duplicates + late frames
    std::int64_t reordered = 0;      ///< arrivals with seq below the previous arrival
  };

  /// True when the frame should continue down the pipeline.
  bool admit(std::int64_t seq) {
    ++stats_.arrived;
    if (last_arrived_seq_ >= 0 && seq < last_arrived_seq_) {
      ++stats_.reordered;
    }
    last_arrived_seq_ = seq;
    if (seq <= max_accepted_seq_) {
      ++stats_.dropped_stale;
      return false;
    }
    max_accepted_seq_ = seq;
    ++stats_.accepted;
    return true;
  }

  const Stats& stats() const { return stats_; }

 private:
  std::int64_t max_accepted_seq_ = -1;
  std::int64_t last_arrived_seq_ = -1;
  Stats stats_;
};

}  // namespace adaflow::ingest
