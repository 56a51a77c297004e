#pragma once

/// \file sharded_engine.hpp
/// Conservative-window parallel fleet simulation: the devices of one
/// FleetConfig are partitioned round-robin into S shards, each shard is a
/// complete FleetEngine on its own sim::EventQueue (own router instance, own
/// seed salt), and all shards advance together through fixed time windows
/// [t, t + window_s) on the common/parallel worker pool.
///
/// Why this is safe: devices only ever interact through the dispatcher —
/// there is no direct device-to-device coupling — so a shard's evolution
/// inside a window depends only on its own state plus the frames delivered
/// to it at the window start. Cross-shard influence exists in exactly one
/// form, frames a shard's ingress shed, and those travel through per-shard
/// mailboxes exchanged ON THE MAIN THREAD at window barriers. Hence the
/// determinism contract: for a fixed (seed, shard count, window), the merged
/// metrics are BIT-IDENTICAL regardless of worker-thread count, because
/// thread scheduling can only reorder work WITHIN a window, where shards
/// share nothing.
///
/// This is the one entry point of a fleet run: S == 1 (the ShardConfig default)
/// is a single dispatcher over the whole fleet — shard 0 runs on the fleet
/// seed unchanged, sees the whole edge::PoissonArrivals stream, and has no
/// other shard to hand off to (sheds are final).

#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "adaflow/core/library.hpp"
#include "adaflow/edge/workload.hpp"
#include "adaflow/fleet/fleet.hpp"

namespace adaflow::shard {

/// Partitioning/parallelism knobs of one sharded run.
struct ShardConfig {
  /// Number of shards S. Devices go to shards round-robin (device i -> shard
  /// i % S); the ingress capacity splits evenly (first capacity % S shards
  /// get one extra slot). Must be in [1, device count].
  int shards = 1;
  /// Worker threads to resize the global pool to for this run (restored
  /// afterwards); 0 keeps the pool as-is. Thread count NEVER affects
  /// results — only wall-clock.
  int threads = 0;
  /// Conservative sync window [s]. Shards run independently inside a window;
  /// handoffs and the barrier happen at multiples of this. Smaller windows
  /// tighten cross-shard latency at more barrier overhead.
  double window_s = 0.25;
  /// How many shard boundaries a shed frame may cross looking for ingress
  /// headroom before it is finally lost. 0 disables forwarding.
  int max_hops = 2;

  /// Throws ConfigError naming the offending field. \p device_count is the
  /// fleet's device count (shards must not exceed it).
  void validate(std::size_t device_count) const;
};

/// Observability of the sharded run itself (the merged FleetMetrics carries
/// the simulation outcome).
struct ShardStats {
  int shards = 0;
  int threads = 0;        ///< pool size the windows actually ran on
  std::int64_t windows = 0;
  std::int64_t handoffs = 0;      ///< shed frames forwarded to another shard
  std::int64_t handoff_lost = 0;  ///< forwarded frames that still died (max_hops)
  double wall_seconds = 0.0;      ///< wall-clock of the window loop
};

struct ShardedMetrics {
  fleet::FleetMetrics fleet;
  ShardStats stats;
};

/// Per-shard seed salt. shard 0 keeps the fleet seed unchanged (so an
/// S == 1 run is seeded by the caller's seed alone), and later shards get
/// splitmix-style spread salts so neighbouring shards draw unrelated fault
/// streams.
std::uint64_t shard_seed(std::uint64_t seed, int shard);

/// Runs the sharded cluster simulation of \p trace. \p router_name picks the
/// routing policy (see fleet::router_names()); each shard gets its OWN
/// router instance because routers are stateful. The same (config, shard
/// config, trace, seed) tuple replays bit-identically at any thread count.
ShardedMetrics run_sharded_fleet(const edge::WorkloadTrace& trace,
                                 const core::AcceleratorLibrary& library,
                                 const fleet::FleetConfig& config, const ShardConfig& shard,
                                 const std::string& router_name, std::uint64_t seed);

/// sim::fingerprint of the merged metrics: FNV-1a over every member of
/// FleetMetrics' field table — counters, double bit patterns, every series
/// sample, the stats blocks, the e2e histogram, and every device row (with
/// its full RunMetrics) and tenant row in order — rendered as 16 hex chars.
/// Two runs are bit-identical exactly when their fingerprints match (up to
/// hash collisions); the determinism tests and `bench_adaflow shard` compare these
/// across thread counts.
std::string metrics_fingerprint(const fleet::FleetMetrics& m);

}  // namespace adaflow::shard
