#pragma once

/// \file pipeline.hpp
/// The end-to-end ingest pipeline: camera sessions -> network links -> stale
/// filter -> brownout admission -> bounded per-session queues -> decode
/// workers -> FleetEngine dispatcher -> devices.
///
/// This is the layer the paper's serving stack sits behind in a real
/// deployment: frames are not a Poisson process at the dispatcher, they are
/// captured by flapping cameras, cross a lossy reordering network, survive a
/// decode stage, and only then reach the fleet. Every frame is tagged at
/// decode, so the reported latency is the true capture->result time —
/// including network, queueing, decode, dispatch, hedges, and service.
///
/// Backpressure is explicit at every stage: the per-session ingest queues
/// are bounded (overflow drops the arriving frame), the decode workers pause
/// when the fleet's ingress backlog crosses a threshold (frames then wait in
/// the session queues instead of piling into the dispatcher), and the
/// brownout controller sheds load deliberately before queues overflow
/// arbitrarily (see brownout.hpp).
///
/// Determinism: sessions, links, and the decoder each own a seeded Rng
/// stream derived from the run seed with distinct salts, so one (config,
/// seed) pair replays bit-identically — including the latency histogram's
/// bucket counts.

#include <cstdint>
#include <optional>
#include <string>
#include <tuple>
#include <type_traits>
#include <vector>

#include "adaflow/fleet/engine.hpp"
#include "adaflow/ingest/brownout.hpp"
#include "adaflow/ingest/network.hpp"
#include "adaflow/ingest/session.hpp"
#include "adaflow/sim/fields.hpp"

namespace adaflow::ingest {

struct DecodeConfig {
  double cost_s = 0.002;    ///< decode service time per frame
  int workers = 2;          ///< parallel decode slots (shared by all sessions)
  std::int64_t session_queue_capacity = 32;  ///< bounded pre-decode queue per session
  /// Decode pauses while the fleet's ingress backlog is at or past this
  /// (explicit backpressure: frames wait upstream, in the session queues).
  std::int64_t backpressure_threshold = 64;
};

struct IngestConfig {
  int cameras = 4;
  double duration_s = 30.0;
  CameraSessionConfig camera;  ///< shared by every session (per-session Rng differs)
  NetworkConfig network;
  DecodeConfig decode;
  BrownoutConfig brownout;
  fleet::FleetConfig fleet;
  /// Scheduled ingest-path faults (kNetworkOutage / kDecodeFault windows),
  /// drawn from one injector shared by all links and the decoder.
  std::optional<faults::FaultSchedule> faults;

  /// Throws ConfigError naming the offending field. (Camera and network
  /// fields are validated again by their components at construction.)
  void validate() const;
};

struct IngestSessionResult {
  std::string name;
  SessionState final_state = SessionState::kConnecting;
  CameraSessionStats session;
  NetworkStats network;
  StaleFilter::Stats filter;
  std::int64_t queue_drops = 0;    ///< session-queue overflow drops
  std::int64_t queued_at_end = 0;  ///< frames waiting for decode at t_end
};

/// Everything that happened to the frames, stage by stage. Flow conservation
/// holds exactly (checked by tests and `bench_adaflow ingest`):
///   captured + duplicates ==
///     network_lost + stale_dropped + thinned + dropall_shed + queue_drops
///     + decode_failed + fleet_shed + delivered + lost_in_fleet
///     + network_in_flight + session_queued + decode_in_flight + fleet_backlog
/// (the last four are the frames still alive when the clock stopped).
struct IngestMetrics {
  double duration_s = 0.0;

  // Capture and network.
  std::int64_t captured = 0;            ///< frames produced by the cameras
  std::int64_t duplicates = 0;          ///< extra copies the network created
  std::int64_t network_lost = 0;        ///< iid + burst + outage drops
  std::int64_t network_in_flight = 0;   ///< copies still on the wire at t_end

  // Receiver side.
  std::int64_t stale_dropped = 0;       ///< duplicates + late frames (filter)
  std::int64_t reordered = 0;           ///< arrival-order inversions observed
  std::int64_t thinned = 0;             ///< tier-1 admission drops
  std::int64_t dropall_shed = 0;        ///< kDropAll admission drops
  std::int64_t queue_drops = 0;         ///< session-queue overflow drops
  std::int64_t session_queued = 0;      ///< waiting for decode at t_end

  // Decode.
  std::int64_t decode_started = 0;
  std::int64_t decode_failed = 0;       ///< baseline + injected decode faults
  std::int64_t decode_in_flight = 0;    ///< mid-decode at t_end

  // Fleet.
  std::int64_t offered_to_fleet = 0;    ///< decode successes handed to the dispatcher
  std::int64_t fleet_shed = 0;          ///< bounced off a full fleet ingress
  std::int64_t delivered = 0;           ///< produced a result
  std::int64_t lost_in_fleet = 0;       ///< destroyed inside a device / redispatch shed
  std::int64_t fleet_backlog = 0;       ///< inside the fleet (ingress/queues) at t_end

  /// Delivered frames whose accuracy fell below the fleet's nominal
  /// operating point — tier-2 downgrades and device degrade windows.
  std::int64_t degraded_delivered = 0;

  double qoe_accuracy_sum = 0.0;

  /// True end-to-end capture->result latency of delivered frames.
  sim::LatencyHistogram e2e_latency;

  BrownoutStats brownout;
  int final_tier = 0;

  /// Ingest-path injector counters (network outages, scheduled decode
  /// faults); device-level faults live in fleet.faults.
  sim::FaultStats faults;

  fleet::FleetMetrics fleet;
  std::vector<IngestSessionResult> sessions;

  double delivered_fraction() const {
    return captured > 0 ? static_cast<double>(delivered) / static_cast<double>(captured) : 0.0;
  }
  /// QoE = summed delivered accuracy / captured frames — accuracy times
  /// delivered-frame fraction, charged for every frame the cameras produced.
  double qoe() const {
    return captured > 0 ? qoe_accuracy_sum / static_cast<double>(captured) : 0.0;
  }
  double degraded_fraction() const {
    return delivered > 0
               ? static_cast<double>(degraded_delivered) / static_cast<double>(delivered)
               : 0.0;
  }
  /// Left side minus right side of the conservation identity (0 when exact).
  std::int64_t conservation_error() const {
    return (captured + duplicates) -
           (network_lost + stale_dropped + thinned + dropall_shed + queue_drops +
            decode_failed + fleet_shed + delivered + lost_in_fleet + network_in_flight +
            session_queued + decode_in_flight + fleet_backlog);
  }
};

// Field tables (sim/fields.hpp). Across DISJOINT camera subsets every
// counter adds, the end-of-run in-flight counts included.

constexpr auto field_table(std::type_identity<BrownoutStats>) {
  using S = BrownoutStats;
  return std::tuple{
      sim::sum("tier1_engagements", &S::tier1_engagements),
      sim::sum("tier2_engagements", &S::tier2_engagements),
      sim::sum("time_tier1_s", &S::time_tier1_s), sim::sum("time_tier2_s", &S::time_tier2_s),
      sim::sum("time_shedding_s", &S::time_shedding_s),
  };
}

constexpr auto field_table(std::type_identity<CameraSessionStats>) {
  using S = CameraSessionStats;
  return std::tuple{
      sim::sum("connects", &S::connects), sim::sum("disconnects", &S::disconnects),
      sim::sum("reconnect_attempts", &S::reconnect_attempts),
      sim::sum("frames_captured", &S::frames_captured),
  };
}

constexpr auto field_table(std::type_identity<NetworkStats>) {
  using S = NetworkStats;
  return std::tuple{
      sim::sum("transmitted", &S::transmitted), sim::sum("duplicates", &S::duplicates),
      sim::sum("lost_iid", &S::lost_iid), sim::sum("lost_burst", &S::lost_burst),
      sim::sum("lost_outage", &S::lost_outage), sim::sum("delivered", &S::delivered),
  };
}

constexpr auto field_table(std::type_identity<StaleFilter::Stats>) {
  using S = StaleFilter::Stats;
  return std::tuple{
      sim::sum("arrived", &S::arrived), sim::sum("accepted", &S::accepted),
      sim::sum("dropped_stale", &S::dropped_stale), sim::sum("reordered", &S::reordered),
  };
}

constexpr auto field_table(std::type_identity<IngestSessionResult>) {
  using S = IngestSessionResult;
  return std::tuple{
      sim::first("name", &S::name), sim::first("final_state", &S::final_state),
      sim::sum("session", &S::session), sim::sum("network", &S::network),
      sim::sum("filter", &S::filter), sim::sum("queue_drops", &S::queue_drops),
      sim::sum("queued_at_end", &S::queued_at_end),
  };
}

constexpr auto field_table(std::type_identity<IngestMetrics>) {
  using S = IngestMetrics;
  return std::tuple{
      sim::max("duration_s", &S::duration_s),
      sim::sum("captured", &S::captured), sim::sum("duplicates", &S::duplicates),
      sim::sum("network_lost", &S::network_lost),
      sim::sum("network_in_flight", &S::network_in_flight),
      sim::sum("stale_dropped", &S::stale_dropped), sim::sum("reordered", &S::reordered),
      sim::sum("thinned", &S::thinned), sim::sum("dropall_shed", &S::dropall_shed),
      sim::sum("queue_drops", &S::queue_drops), sim::sum("session_queued", &S::session_queued),
      sim::sum("decode_started", &S::decode_started), sim::sum("decode_failed", &S::decode_failed),
      sim::sum("decode_in_flight", &S::decode_in_flight),
      sim::sum("offered_to_fleet", &S::offered_to_fleet), sim::sum("fleet_shed", &S::fleet_shed),
      sim::sum("delivered", &S::delivered), sim::sum("lost_in_fleet", &S::lost_in_fleet),
      sim::sum("fleet_backlog", &S::fleet_backlog),
      sim::sum("degraded_delivered", &S::degraded_delivered),
      sim::sum("qoe_accuracy_sum", &S::qoe_accuracy_sum),
      sim::histogram("e2e_latency", &S::e2e_latency),
      sim::sum("brownout", &S::brownout),
      sim::max("final_tier", &S::final_tier),
      sim::sum("faults", &S::faults), sim::sum("fleet", &S::fleet),
      sim::concat("sessions", &S::sessions),
  };
}

/// Runs the full ingest pipeline over a fresh FleetEngine. \p library is the
/// fleet's default library; \p seed derives every component stream — the
/// same (config, seed) pair replays bit-identically.
IngestMetrics run_ingest(const IngestConfig& config, const core::AcceleratorLibrary& library,
                         fleet::RoutingPolicy& router, std::uint64_t seed);

}  // namespace adaflow::ingest
