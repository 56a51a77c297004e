/// FleetEngine contract tests: Admit transitions, frame-hook ordering and
/// exactly-once delivery, drain re-entrancy from inside a hook, the
/// pluggable ingress queue, and duplicate-hedge flow conservation.

#include "adaflow/fleet/engine.hpp"

#include "adaflow/common/error.hpp"
#include "adaflow/core/library.hpp"
#include "adaflow/fleet/fleet.hpp"
#include "adaflow/sim/event_queue.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <map>
#include <vector>

namespace adaflow::fleet {
namespace {

/// One pinned device on version \p version with a short queue.
FleetConfig tiny_fleet(const core::AcceleratorLibrary& lib, int devices,
                       std::int64_t queue_capacity, std::int64_t ingress_capacity,
                       std::size_t version = 0) {
  FleetConfig config;
  for (int i = 0; i < devices; ++i) {
    FleetDevice d = pinned_device("dev" + std::to_string(i), lib, version);
    d.server.queue_capacity = queue_capacity;
    config.devices.push_back(std::move(d));
  }
  config.ingress_capacity = ingress_capacity;
  return config;
}

TEST(FleetEngine, AdmitTransitionsDispatchedQueuedShed) {
  const core::AcceleratorLibrary lib = core::synthetic_library();
  sim::EventQueue queue;
  const FleetConfig config = tiny_fleet(lib, /*devices=*/1, /*queue_capacity=*/2,
                                        /*ingress_capacity=*/3);
  auto router = make_router("least-loaded");
  FleetEngine engine(queue, lib, config, *router, 1, 10.0);
  engine.start();

  // Offered back-to-back at t=0 the device can't drain: the admit sequence
  // must be a monotone staircase — some dispatches, then exactly
  // ingress_capacity queues, then sheds.
  std::vector<FleetEngine::Admit> admits;
  for (std::int64_t tag = 0; tag < 10; ++tag) {
    admits.push_back(engine.offer_frame(tag));
  }
  int dispatched = 0;
  int queued = 0;
  int shed = 0;
  int phase = 0;
  for (const FleetEngine::Admit a : admits) {
    if (a == FleetEngine::Admit::kDispatched) {
      EXPECT_EQ(phase, 0) << "dispatch after a queue/shed";
      ++dispatched;
    } else if (a == FleetEngine::Admit::kQueued) {
      EXPECT_LE(phase, 1) << "queue after a shed";
      phase = 1;
      ++queued;
    } else {
      phase = 2;
      ++shed;
    }
  }
  EXPECT_GT(dispatched, 0);
  EXPECT_EQ(queued, 3);  // == ingress_capacity
  EXPECT_EQ(shed, 10 - dispatched - 3);
  EXPECT_EQ(engine.ingress_backlog(), 3);

  queue.run_until(10.0);
  const FleetMetrics m = engine.finalize(10.0);
  EXPECT_EQ(m.arrived, 10);
  EXPECT_EQ(m.ingress_lost, shed);
  EXPECT_EQ(m.dispatched, 10 - shed);
  EXPECT_EQ(m.ingress_backlog, 0);  // everything queued eventually dispatched
  EXPECT_EQ(m.arrived + m.redispatched, m.dispatched + m.ingress_lost + m.ingress_backlog);
}

TEST(FleetEngine, HooksFireExactlyOncePerTagInCompletionOrder) {
  const core::AcceleratorLibrary lib = core::synthetic_library();
  sim::EventQueue queue;
  const FleetConfig config = tiny_fleet(lib, /*devices=*/1, /*queue_capacity=*/8,
                                        /*ingress_capacity=*/8);
  auto router = make_router("least-loaded");
  FleetEngine engine(queue, lib, config, *router, 1, 10.0);

  std::vector<std::int64_t> done_order;
  std::map<std::int64_t, int> done_count;
  std::vector<std::int64_t> lost;
  engine.set_frame_hooks(
      [&](std::int64_t tag, double accuracy) {
        done_order.push_back(tag);
        ++done_count[tag];
        // A pinned healthy device serves at its version's accuracy.
        EXPECT_DOUBLE_EQ(accuracy, lib.versions[0].accuracy);
      },
      [&](std::int64_t tag) { lost.push_back(tag); });
  engine.start();

  for (std::int64_t tag = 100; tag < 105; ++tag) {
    EXPECT_NE(engine.offer_frame(tag), FleetEngine::Admit::kShed);
  }
  queue.run_until(10.0);
  engine.finalize(10.0);

  // One FIFO device: completion order == offer order, exactly once each.
  ASSERT_EQ(done_order.size(), 5u);
  for (std::size_t i = 0; i < done_order.size(); ++i) {
    EXPECT_EQ(done_order[i], 100 + static_cast<std::int64_t>(i));
  }
  for (const auto& [tag, count] : done_count) {
    EXPECT_EQ(count, 1) << "tag " << tag;
  }
  EXPECT_TRUE(lost.empty());
}

TEST(FleetEngine, ShedFramesNeverReachTheHooks) {
  const core::AcceleratorLibrary lib = core::synthetic_library();
  sim::EventQueue queue;
  const FleetConfig config = tiny_fleet(lib, 1, /*queue_capacity=*/1, /*ingress_capacity=*/1);
  auto router = make_router("least-loaded");
  FleetEngine engine(queue, lib, config, *router, 1, 5.0);
  std::vector<std::int64_t> done;
  std::vector<std::int64_t> lost;
  engine.set_frame_hooks([&](std::int64_t tag, double) { done.push_back(tag); },
                         [&](std::int64_t tag) { lost.push_back(tag); });
  engine.start();

  std::vector<std::int64_t> shed_tags;
  for (std::int64_t tag = 0; tag < 8; ++tag) {
    if (engine.offer_frame(tag) == FleetEngine::Admit::kShed) {
      shed_tags.push_back(tag);
    }
  }
  ASSERT_FALSE(shed_tags.empty());
  queue.run_until(5.0);
  engine.finalize(5.0);
  // The kShed return value IS the loss report; neither hook fires for them.
  for (const std::int64_t tag : shed_tags) {
    EXPECT_EQ(std::count(done.begin(), done.end(), tag), 0) << "tag " << tag;
    EXPECT_EQ(std::count(lost.begin(), lost.end(), tag), 0) << "tag " << tag;
  }
}

TEST(FleetEngine, PumpFromInsideADoneHookIsReentrancySafe) {
  const core::AcceleratorLibrary lib = core::synthetic_library();
  sim::EventQueue queue;
  const FleetConfig config = tiny_fleet(lib, /*devices=*/2, /*queue_capacity=*/2,
                                        /*ingress_capacity=*/32);
  auto router = make_router("least-loaded");
  FleetEngine engine(queue, lib, config, *router, 1, 20.0);

  std::int64_t done = 0;
  engine.set_frame_hooks(
      [&](std::int64_t, double) {
        ++done;
        // Re-enter the dispatch path mid-drain: the guard must make this a
        // no-op instead of double-dispatching the ingress head.
        engine.pump();
      },
      [&](std::int64_t) {});
  engine.start();

  std::int64_t offered = 0;
  std::int64_t shed = 0;
  for (std::int64_t tag = 0; tag < 30; ++tag) {
    ++offered;
    if (engine.offer_frame(tag) == FleetEngine::Admit::kShed) {
      ++shed;
    }
  }
  queue.run_until(20.0);
  const FleetMetrics m = engine.finalize(20.0);
  EXPECT_EQ(m.arrived, offered);
  EXPECT_EQ(m.arrived + m.redispatched, m.dispatched + m.ingress_lost + m.ingress_backlog);
  EXPECT_EQ(done, offered - shed);  // every non-shed frame delivered exactly once
  EXPECT_EQ(m.processed, done);
}

TEST(FleetEngine, SetIngressQueueRejectsALiveEngine) {
  const core::AcceleratorLibrary lib = core::synthetic_library();
  sim::EventQueue queue;
  const FleetConfig config = tiny_fleet(lib, 1, 4, 4);
  auto router = make_router("least-loaded");
  FleetEngine engine(queue, lib, config, *router, 1, 5.0);
  engine.start();
  EXPECT_NE(engine.offer_frame(1), FleetEngine::Admit::kShed);

  FifoIngress replacement(16);
  EXPECT_THROW(engine.set_ingress_queue(replacement), ConfigError);
}

/// Hedging by migration: frames stuck behind a slow device's head are pulled
/// out of its queue and re-routed to the fast device. Flow conservation and
/// exactly-once delivery of every tag must survive the move.
TEST(FleetEngine, PullHedgeConservesFlowAndDeliversOnce) {
  const core::AcceleratorLibrary lib = core::synthetic_library();
  // dev0 is 20x slower than dev1: frames parked behind dev0's head wait far
  // past the hedge budget while dev1 has idle capacity.
  const core::AcceleratorLibrary slow = core::scale_library_fps(lib, 0.05);
  sim::EventQueue queue;
  FleetConfig config;
  FleetDevice d0 = pinned_device("slow", slow, 0);
  d0.server.queue_capacity = 8;
  FleetDevice d1 = pinned_device("fast", lib, 0);
  d1.server.queue_capacity = 8;
  config.devices = {std::move(d0), std::move(d1)};
  config.ingress_capacity = 64;
  config.health.enabled = true;
  config.health.tick_interval_s = 0.05;
  config.health.suspect_timeout_s = 60.0;  // isolate hedging from quarantine
  config.health.hedge_budget_s = 0.1;

  auto router = make_router("round-robin");  // force frames onto the slow device
  FleetEngine engine(queue, lib, config, *router, 1, 30.0);

  std::map<std::int64_t, int> done_count;
  std::map<std::int64_t, int> lost_count;
  engine.set_frame_hooks([&](std::int64_t tag, double) { ++done_count[tag]; },
                         [&](std::int64_t tag) { ++lost_count[tag]; });
  engine.start();

  constexpr std::int64_t kFrames = 12;
  for (std::int64_t tag = 0; tag < kFrames; ++tag) {
    queue.schedule_at(0.001 * static_cast<double>(tag + 1),
                      [&engine, tag] { engine.offer_frame(tag); });
  }
  queue.run_until(30.0);
  const FleetMetrics m = engine.finalize(30.0);

  EXPECT_GT(m.hedged, 0) << "queued frames behind the slow head were never hedged";
  // A hedge enters both redispatched and dispatched, so the conservation
  // identity is unchanged.
  EXPECT_EQ(m.arrived, kFrames);
  EXPECT_EQ(m.arrived + m.redispatched, m.dispatched + m.ingress_lost + m.ingress_backlog);
  // Exactly-once delivery per tag.
  for (const auto& [tag, count] : done_count) {
    EXPECT_EQ(count, 1) << "tag " << tag << " delivered more than once";
    EXPECT_EQ(lost_count.count(tag), 0u) << "tag " << tag << " both done and lost";
  }
  EXPECT_EQ(static_cast<std::int64_t>(done_count.size()), kFrames);
  EXPECT_EQ(m.processed, kFrames);
}

}  // namespace
}  // namespace adaflow::fleet
