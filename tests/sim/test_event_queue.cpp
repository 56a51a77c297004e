#include "adaflow/sim/event_queue.hpp"

#include <gtest/gtest.h>

#include <cstdint>
#include <limits>
#include <optional>
#include <queue>
#include <random>
#include <string>
#include <vector>

namespace adaflow::sim {
namespace {

TEST(EventQueue, RunsInTimeOrder) {
  EventQueue q;
  std::vector<int> order;
  q.schedule_at(2.0, [&] { order.push_back(2); });
  q.schedule_at(1.0, [&] { order.push_back(1); });
  q.schedule_at(3.0, [&] { order.push_back(3); });
  q.run_until(10.0);
  EXPECT_EQ(order, (std::vector<int>{1, 2, 3}));
  EXPECT_DOUBLE_EQ(q.now(), 10.0);
}

TEST(EventQueue, EqualTimesFireInInsertionOrder) {
  EventQueue q;
  std::vector<int> order;
  for (int i = 0; i < 5; ++i) {
    q.schedule_at(1.0, [&order, i] { order.push_back(i); });
  }
  q.run_until(2.0);
  EXPECT_EQ(order, (std::vector<int>{0, 1, 2, 3, 4}));
}

TEST(EventQueue, EventsPastHorizonStayQueued) {
  EventQueue q;
  bool fired = false;
  q.schedule_at(5.0, [&] { fired = true; });
  q.run_until(4.0);
  EXPECT_FALSE(fired);
  EXPECT_EQ(q.pending(), 1u);
  q.run_until(6.0);
  EXPECT_TRUE(fired);
}

TEST(EventQueue, CallbacksCanScheduleMore) {
  EventQueue q;
  int count = 0;
  std::function<void()> tick = [&] {
    ++count;
    if (count < 5) {
      q.schedule_in(1.0, tick);
    }
  };
  q.schedule_at(0.0, tick);
  q.run_until(10.0);
  EXPECT_EQ(count, 5);
}

TEST(EventQueue, NowAdvancesToEventTime) {
  EventQueue q;
  double seen = -1.0;
  q.schedule_at(2.5, [&] { seen = q.now(); });
  q.run_until(3.0);
  EXPECT_DOUBLE_EQ(seen, 2.5);
}

TEST(EventQueue, SchedulingIntoPastThrows) {
  EventQueue q;
  q.schedule_at(1.0, [] {});
  q.run_until(2.0);
  EXPECT_THROW(q.schedule_at(1.5, [] {}), ConfigError);
}

TEST(EventQueue, ScheduleInUsesRelativeTime) {
  EventQueue q;
  double fired_at = -1.0;
  q.schedule_at(1.0, [&] { q.schedule_in(0.5, [&] { fired_at = q.now(); }); });
  q.run_until(2.0);
  EXPECT_DOUBLE_EQ(fired_at, 1.5);
}

TEST(EventQueue, RunUntilIntoThePastThrowsAndKeepsTheClock) {
  EventQueue q;
  q.run_until(5.0);
  try {
    q.run_until(4.0);
    FAIL() << "run_until(4) at now() = 5 must throw";
  } catch (const ConfigError& e) {
    const std::string what = e.what();
    EXPECT_NE(what.find("now() = 5"), std::string::npos) << what;
    EXPECT_NE(what.find("got 4"), std::string::npos) << what;
  }
  EXPECT_DOUBLE_EQ(q.now(), 5.0);
  // The clock did not move back, so the "past" is still the past.
  EXPECT_THROW(q.schedule_at(4.5, [] {}), ConfigError);
}

TEST(EventQueue, RunUntilNaNThrowsAndKeepsTheClockUsable) {
  EventQueue q;
  q.run_until(1.0);
  EXPECT_THROW(q.run_until(std::numeric_limits<double>::quiet_NaN()), ConfigError);
  EXPECT_DOUBLE_EQ(q.now(), 1.0);
  bool fired = false;
  q.schedule_at(2.0, [&] { fired = true; });
  q.run_until(3.0);
  EXPECT_TRUE(fired);
}

TEST(EventQueue, RunUntilNowIsANoOp) {
  EventQueue q;
  int fired = 0;
  q.schedule_at(1.0, [&] { ++fired; });
  q.schedule_at(3.0, [&] { ++fired; });
  q.run_until(2.0);
  ASSERT_EQ(fired, 1);
  q.run_until(q.now());
  EXPECT_EQ(fired, 1);
  EXPECT_DOUBLE_EQ(q.now(), 2.0);
  EXPECT_EQ(q.pending(), 1u);
}

// --- seeded oracle -----------------------------------------------------------

/// Delays of the children an event spawns when it fires: a pure function of
/// its id, so the queue under test and the reference model grow the same
/// event tree as long as they fire in the same order. Delay 0 (same instant,
/// scheduled from inside the firing callback) dominates, so equal-time ties
/// are common.
std::vector<double> child_delays(int id) {
  constexpr int kMaxSpawningId = 3000;  // bounds the tree
  constexpr double kDelays[] = {0.0, 0.0, 0.25, 0.5, 1.0};
  if (id >= kMaxSpawningId) {
    return {};
  }
  std::uint64_t h = static_cast<std::uint64_t>(id) * 0x9e3779b97f4a7c15ULL;
  h ^= h >> 29;
  std::vector<double> out(static_cast<std::size_t>(h % 3));
  for (double& delay : out) {
    h = h * 6364136223846793005ULL + 1442695040888963407ULL;
    delay = kDelays[(h >> 33) % 5];
  }
  return out;
}

/// The reference: a std::priority_queue on (when, seq), the textbook stable
/// discrete-event queue.
class ModelQueue {
 public:
  double now() const { return now_; }
  std::size_t pending() const { return heap_.size(); }
  const std::vector<int>& fired() const { return fired_; }

  void schedule_at(double when, int id) { heap_.push(Entry{when, seq_++, id}); }

  void run_until(double t_end) {
    while (!heap_.empty() && heap_.top().when <= t_end) {
      const Entry e = heap_.top();
      heap_.pop();
      now_ = e.when;
      fired_.push_back(e.id);
      for (const double delay : child_delays(e.id)) {
        schedule_at(now_ + delay, next_id_++);
      }
    }
    now_ = t_end;
  }

  int take_id() { return next_id_++; }

 private:
  struct Entry {
    double when;
    std::uint64_t seq;
    int id;
  };
  struct Later {
    bool operator()(const Entry& a, const Entry& b) const {
      return a.when != b.when ? a.when > b.when : a.seq > b.seq;
    }
  };
  double now_ = 0.0;
  std::uint64_t seq_ = 0;
  int next_id_ = 0;
  std::priority_queue<Entry, std::vector<Entry>, Later> heap_;
  std::vector<int> fired_;
};

/// The queue under test, driven through the same event tree.
class RealHarness {
 public:
  EventQueue queue;
  std::vector<int> fired;

  EventFn event(int id) {
    return [this, id] {
      fired.push_back(id);
      for (const double delay : child_delays(id)) {
        queue.schedule_in(delay, event(next_id_++));
      }
    };
  }
  int take_id() { return next_id_++; }

 private:
  int next_id_ = 0;
};

TEST(EventQueueOracle, RandomInterleavingsMatchThePriorityQueueModel) {
  for (std::uint64_t seed = 1; seed <= 8; ++seed) {
    std::mt19937_64 rng(seed);
    RealHarness real;
    ModelQueue model;
    for (int step = 0; step < 600; ++step) {
      const int op = static_cast<int>(rng() % 4);
      // Quarter-second grid: many events land on the same instant.
      const double offset = 0.25 * static_cast<double>(rng() % 9);
      if (op == 0) {
        const double when = real.queue.now() + offset;
        real.queue.schedule_at(when, real.event(real.take_id()));
        model.schedule_at(when, model.take_id());
      } else if (op == 1) {
        real.queue.schedule_in(offset, real.event(real.take_id()));
        model.schedule_at(model.now() + offset, model.take_id());
      } else {
        // Horizons on the grid fire whole tie groups; eighth-second
        // horizons stop between two groups; a zero step fires only what is
        // due at now().
        const double step_s = op == 2 ? offset : 0.125 * static_cast<double>(rng() % 5);
        const double t_end = real.queue.now() + step_s;
        real.queue.run_until(t_end);
        model.run_until(t_end);
      }
      ASSERT_EQ(real.fired, model.fired()) << "seed " << seed << " step " << step;
      ASSERT_EQ(real.queue.pending(), model.pending()) << "seed " << seed << " step " << step;
      ASSERT_EQ(real.queue.now(), model.now()) << "seed " << seed << " step " << step;
    }
    const double t_end = real.queue.now() + 1e6;
    real.queue.run_until(t_end);
    model.run_until(t_end);
    EXPECT_EQ(real.fired, model.fired()) << "seed " << seed;
    EXPECT_EQ(real.queue.pending(), 0u);
    EXPECT_GT(real.fired.size(), 600u) << "seed " << seed << ": the tree barely grew";
  }
}

/// A callable that counts its copies: the queue must move callbacks from
/// schedule_at to firing, never copy them.
struct CopyCounter {
  int* copies;
  int* calls;
  CopyCounter(int* copies_in, int* calls_in) : copies(copies_in), calls(calls_in) {}
  CopyCounter(const CopyCounter& other) : copies(other.copies), calls(other.calls) {
    ++*copies;
  }
  CopyCounter(CopyCounter&& other) noexcept = default;
  void operator()() const { ++*calls; }
};

TEST(EventQueue, CallbacksAreMovedNeverCopied) {
  EventQueue q;
  int copies = 0;
  int calls = 0;
  // Enough events to grow the heap and the slab several times, fired in
  // two rounds so the second reuses freed slots.
  for (int round = 0; round < 2; ++round) {
    for (int i = 0; i < 200; ++i) {
      q.schedule_at(q.now() + static_cast<double>(i % 7), CopyCounter(&copies, &calls));
    }
    q.schedule_in(0.5, [&q, &copies, &calls] {
      q.schedule_in(0.0, CopyCounter(&copies, &calls));
    });
    q.run_until(q.now() + 10.0);
  }
  EXPECT_EQ(calls, 402);
  EXPECT_EQ(copies, 0);
}

TEST(EventQueue, SlabGrowthDuringACallbackIsSafe) {
  EventQueue q;
  std::vector<int> order;
  // Two references fit std::function's small buffer (libstdc++), so this
  // closure lives inside the slab slot it was scheduled into. Its captures
  // are read again after the slab has grown: that is only safe because the
  // queue moved the callback out before running it (ASan reports a
  // use-after-free if not).
  q.schedule_at(1.0, [&q, &order] {
    for (int i = 0; i < 1000; ++i) {
      q.schedule_at(q.now() + static_cast<double>(i % 3), [&order, i] { order.push_back(i); });
    }
    order.push_back(-1);
  });
  q.run_until(10.0);
  ASSERT_EQ(order.size(), 1001u);
  EXPECT_EQ(order.front(), -1);
  // Then by time, and by scheduling order within each instant.
  std::vector<int> expected;
  for (int group = 0; group < 3; ++group) {
    for (int i = group; i < 1000; i += 3) {
      expected.push_back(i);
    }
  }
  EXPECT_EQ(std::vector<int>(order.begin() + 1, order.end()), expected);
  EXPECT_EQ(q.pending(), 0u);
}

TEST(EventQueueEvery, ATickOnLastFiresAndTheNextDoesNot) {
  EventQueue q;
  std::vector<double> fired;
  q.every(1.0, 0.5, 2.0, [&] { fired.push_back(q.now()); });
  q.run_until(10.0);
  EXPECT_EQ(fired, (std::vector<double>{1.0, 1.5, 2.0}));
  EXPECT_EQ(q.pending(), 0u);
}

TEST(EventQueueEvery, TheFirstFiringIgnoresLast) {
  EventQueue q;
  int fired = 0;
  q.every(3.0, 1.0, 2.0, [&] { ++fired; });
  q.run_until(10.0);
  EXPECT_EQ(fired, 1);
}

TEST(EventQueueEvery, AnEventTheBodySchedulesAtTheSuccessorsTimeFiresFirst) {
  EventQueue q;
  std::vector<std::string> log;
  q.every(1.0, 1.0, 3.0, [&] {
    log.push_back("tick@" + std::to_string(static_cast<int>(q.now())));
    if (q.now() == 1.0) {
      q.schedule_at(2.0, [&] { log.push_back("other@2"); });
    }
  });
  q.run_until(10.0);
  EXPECT_EQ(log, (std::vector<std::string>{"tick@1", "other@2", "tick@2", "tick@3"}));
}

TEST(EventQueueEvery, RejectsAPeriodThatIsNotFiniteAndPositive) {
  for (const double period : {0.0, -1.0, std::numeric_limits<double>::quiet_NaN(),
                              std::numeric_limits<double>::infinity()}) {
    EventQueue q;
    EXPECT_THROW(q.every(1.0, period, 10.0, [] {}), ConfigError) << period;
    EXPECT_EQ(q.pending(), 0u);
  }
}

TEST(EventQueueChain, StopsOnNulloptAndDrawsEachTimeAfterTheBodyRan) {
  EventQueue q;
  const std::vector<double> times = {0.5, 1.0, 1.0, 2.5};
  std::size_t k = 0;
  std::vector<std::string> log;
  q.chain(
      [&]() -> std::optional<double> {
        log.push_back("draw@" + std::to_string(q.now()));
        if (k == times.size()) {
          return std::nullopt;
        }
        return times[k++];
      },
      [&] { log.push_back("fire@" + std::to_string(q.now())); });
  q.run_until(5.0);
  q.run_until(10.0);
  const std::vector<std::string> expected = {
      "draw@" + std::to_string(0.0), "fire@" + std::to_string(0.5),
      "draw@" + std::to_string(0.5), "fire@" + std::to_string(1.0),
      "draw@" + std::to_string(1.0), "fire@" + std::to_string(1.0),
      "draw@" + std::to_string(1.0), "fire@" + std::to_string(2.5),
      "draw@" + std::to_string(2.5)};
  EXPECT_EQ(log, expected);
  EXPECT_EQ(q.pending(), 0u);
}

TEST(EventQueueChain, AnEmptyChainSchedulesNothing) {
  EventQueue q;
  bool fired = false;
  q.chain([] { return std::optional<double>(); }, [&] { fired = true; });
  EXPECT_EQ(q.pending(), 0u);
  q.run_until(1.0);
  EXPECT_FALSE(fired);
}

TEST(EventQueueEvery, ALongRunHoldsOneEntryPerLiveCadence) {
  EventQueue q;
  std::int64_t ticks = 0;
  q.every(0.001, 0.001, 1e9, [&] { ++ticks; });
  q.every(0.5, 0.5, 1e9, [&] { ++ticks; });
  q.chain([&q] { return std::optional<double>(q.now() + 0.003); }, [&] { ++ticks; });
  // A cadence that ends early leaves nothing behind.
  q.every(0.25, 0.25, 1.0, [&] { ++ticks; });
  for (int step = 1; step <= 100; ++step) {
    q.run_until(0.1 * step);
    EXPECT_EQ(q.pending(), step < 10 ? 4u : 3u) << "at t=" << q.now();
  }
  EXPECT_GT(ticks, 13000);
}

}  // namespace
}  // namespace adaflow::sim
