#include "adaflow/shard/sharded_engine.hpp"

#include <algorithm>
#include <chrono>
#include <optional>
#include <string>

#include "adaflow/common/error.hpp"
#include "adaflow/common/parallel.hpp"
#include "adaflow/fleet/engine.hpp"
#include "adaflow/fleet/routing.hpp"
#include "adaflow/shard/mailbox.hpp"
#include "adaflow/sim/event_queue.hpp"
#include "adaflow/sim/fields.hpp"

namespace adaflow::shard {

void ShardConfig::validate(std::size_t device_count) const {
  if (shards < 1) {
    throw ConfigError("ShardConfig.shards must be >= 1");
  }
  if (static_cast<std::size_t>(shards) > device_count) {
    throw ConfigError("ShardConfig.shards (" + std::to_string(shards) +
                      ") exceeds the fleet's device count (" + std::to_string(device_count) +
                      "): a shard must own at least one device");
  }
  if (threads < 0) {
    throw ConfigError("ShardConfig.threads must be >= 0 (0 keeps the current pool)");
  }
  if (!(window_s > 0.0)) {
    throw ConfigError("ShardConfig.window_s must be positive");
  }
  if (max_hops < 0) {
    throw ConfigError("ShardConfig.max_hops must be >= 0");
  }
}

std::uint64_t shard_seed(std::uint64_t seed, int shard) {
  if (shard == 0) {
    return seed;  // shard 0 runs on the fleet seed itself
  }
  return seed ^ (0x9e3779b97f4a7c15ULL * (static_cast<std::uint64_t>(shard) << 17));
}

namespace {

/// Restores the global worker-pool size on scope exit.
class WorkerCountGuard {
 public:
  explicit WorkerCountGuard(int requested) : previous_(parallel_worker_count()) {
    if (requested > 0) {
      set_worker_count(requested);
    }
  }
  ~WorkerCountGuard() { set_worker_count(previous_); }
  WorkerCountGuard(const WorkerCountGuard&) = delete;
  WorkerCountGuard& operator=(const WorkerCountGuard&) = delete;

 private:
  int previous_;
};

/// One shard: a complete FleetEngine over a device subset, plus its arrival
/// stream and handoff buffers. Heap-allocated so the references the engine
/// keeps (config, router, queue) stay stable.
struct Shard {
  fleet::FleetConfig config;  // device subset; outlives the engine
  std::unique_ptr<fleet::RoutingPolicy> router;
  sim::EventQueue queue;
  std::unique_ptr<fleet::FleetEngine> engine;

  std::vector<double> arrivals;  ///< home arrival times, ascending

  Mailbox inbox;
  Mailbox outbox;
  std::int64_t forwarded = 0;     ///< sheds pushed to the outbox
  std::int64_t handoff_lost = 0;  ///< forwarded frames shed at max_hops
};

class Runner {
 public:
  Runner(const edge::WorkloadTrace& trace, const core::AcceleratorLibrary& library,
         const fleet::FleetConfig& config, const ShardConfig& shard_cfg,
         const std::string& router_name, std::uint64_t seed)
      : trace_(trace), library_(library), shard_cfg_(shard_cfg) {
    config.validate();
    shard_cfg.validate(config.devices.size());
    require(!library.versions.empty(), "sharded fleet library has no versions");

    const int S = shard_cfg.shards;
    shards_.reserve(static_cast<std::size_t>(S));
    for (int s = 0; s < S; ++s) {
      // Every shard runs the whole FleetConfig; only its device subset and
      // its share of the ingress capacity differ.
      auto sh = std::make_unique<Shard>();
      sh->config = config;
      sh->config.devices.clear();
      for (std::size_t i = static_cast<std::size_t>(s); i < config.devices.size();
           i += static_cast<std::size_t>(S)) {
        sh->config.devices.push_back(config.devices[i]);
      }
      sh->config.ingress_capacity =
          config.ingress_capacity / S + (s < static_cast<int>(config.ingress_capacity % S) ? 1 : 0);
      sh->router = fleet::make_router(router_name);
      shards_.push_back(std::move(sh));
    }

    // The arrival stream is one fleet-wide PoissonArrivals, drained here up
    // front; frame k goes to shard k % S, so every shard sees a thinned copy
    // of the same traffic and S == 1 serves the whole stream.
    edge::PoissonArrivals arrivals(trace, seed, trace.duration());
    std::size_t k = 0;
    while (const std::optional<double> when = arrivals.next()) {
      shards_[k++ % static_cast<std::size_t>(S)]->arrivals.push_back(*when);
    }

    for (int s = 0; s < S; ++s) {
      Shard& sh = *shards_[static_cast<std::size_t>(s)];
      sh.engine = std::make_unique<fleet::FleetEngine>(sh.queue, library_, sh.config, *sh.router,
                                                       shard_seed(seed, s), trace.duration());
    }
  }

  ShardedMetrics run() {
    WorkerCountGuard guard(shard_cfg_.threads);
    const auto wall_start = std::chrono::steady_clock::now();
    const int S = shard_cfg_.shards;
    const double duration = trace_.duration();

    for (auto& ptr : shards_) {
      Shard& sh = *ptr;
      sh.engine->start();
      sh.queue.chain(
          [&sh, k = std::size_t{0}]() mutable {
            return k < sh.arrivals.size() ? std::optional(sh.arrivals[k++]) : std::nullopt;
          },
          [this, &sh] { offer(sh, edge::DeviceSim::kNoTag, 0); });
    }

    std::int64_t windows = 0;
    double t_end = 0.0;
    while (t_end < duration) {
      t_end = std::min(duration, static_cast<double>(windows + 1) * shard_cfg_.window_s);
      ++windows;
      // Inside the window shards share nothing: each delivers its inbox at
      // the window start (main-thread exchange of the PREVIOUS barrier fixed
      // the contents and order), then advances its own event queue. Any
      // thread may run any shard — the outcome cannot depend on which.
      parallel_for(S, [&](std::int64_t s) {
        Shard& sh = *shards_[static_cast<std::size_t>(s)];
        for (const Handoff& h : sh.inbox.drain()) {
          offer(sh, h.tag, h.hops);
        }
        sh.queue.run_until(t_end);
      });
      exchange();
    }

    // Frames still in flight between shards at the end get one last delivery
    // at t == duration, so they land in the receiver's books (dispatched or
    // ingress backlog) instead of vanishing from the flow-conservation
    // identity. No forwarding here — there is no later window to deliver an
    // outbox in, so a shed at this point is terminal.
    for (auto& sh : shards_) {
      for (const Handoff& h : sh->inbox.drain()) {
        offer(*sh, h.tag, h.hops, /*allow_forward=*/false);
      }
    }

    ShardedMetrics out;
    std::int64_t total_forwarded = 0;
    for (auto& sh : shards_) {
      sim::merge(out.fleet, sh->engine->finalize(duration));
      total_forwarded += sh->forwarded;
      out.stats.handoff_lost += sh->handoff_lost;
    }
    // A forwarded frame was booked once as arrived + ingress_lost at the
    // shard that shed it AND once as arrived at the shard it was re-offered
    // to. Subtracting the forward count from both sides keeps each frame
    // counted exactly once and preserves
    //   arrived + redispatched == dispatched + ingress_lost + ingress_backlog.
    out.fleet.arrived -= total_forwarded;
    out.fleet.ingress_lost -= total_forwarded;

    out.stats.shards = S;
    out.stats.threads = parallel_worker_count();
    out.stats.windows = windows;
    out.stats.handoffs = total_forwarded;
    out.stats.wall_seconds =
        std::chrono::duration<double>(std::chrono::steady_clock::now() - wall_start).count();
    return out;
  }

 private:
  /// Offers one frame to \p sh's engine at its queue's current time, routing
  /// a shed to the outbox while hops remain. Called only by the thread
  /// currently running this shard (arrival events + inbox delivery).
  void offer(Shard& sh, std::int64_t tag, int hops, bool allow_forward = true) {
    const auto admit = sh.engine->offer_frame(tag);
    if (admit != fleet::FleetEngine::Admit::kShed) {
      return;
    }
    if (allow_forward && shard_cfg_.shards > 1 && hops < shard_cfg_.max_hops) {
      sh.outbox.push(Handoff{tag, hops + 1});
      ++sh.forwarded;
    } else if (hops > 0) {
      ++sh.handoff_lost;  // travelled and still found every ingress full
    }
  }

  /// Window barrier, main thread only: outbox s feeds inbox (s+1) % S, in
  /// shard order — the single deterministic cross-shard channel.
  void exchange() {
    const auto S = shards_.size();
    for (std::size_t s = 0; s < S; ++s) {
      Shard& to = *shards_[(s + 1) % S];
      for (const Handoff& h : shards_[s]->outbox.drain()) {
        to.inbox.push(h);
      }
    }
  }

  const edge::WorkloadTrace& trace_;
  const core::AcceleratorLibrary& library_;
  ShardConfig shard_cfg_;
  std::vector<std::unique_ptr<Shard>> shards_;
};

}  // namespace

ShardedMetrics run_sharded_fleet(const edge::WorkloadTrace& trace,
                                 const core::AcceleratorLibrary& library,
                                 const fleet::FleetConfig& config, const ShardConfig& shard,
                                 const std::string& router_name, std::uint64_t seed) {
  Runner runner(trace, library, config, shard, router_name, seed);
  return runner.run();
}

std::string metrics_fingerprint(const fleet::FleetMetrics& m) { return sim::fingerprint(m); }

}  // namespace adaflow::shard
