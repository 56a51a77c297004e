#include "adaflow/fleet/routing.hpp"

#include "adaflow/common/error.hpp"

#include <gtest/gtest.h>

#include <cstdint>
#include <limits>
#include <random>
#include <string>
#include <vector>

namespace adaflow::fleet {
namespace {

DeviceStatus status(bool eligible, double backlog_s = 0.0, std::int64_t queued = 0,
                    double accuracy = 0.9, bool switching = false, double fps = 500.0) {
  DeviceStatus s;
  s.eligible = eligible;
  s.queued = queued;
  s.capacity = 72;
  s.busy = queued > 0;
  s.switching = switching;
  s.fps = fps;
  s.accuracy = accuracy;
  s.backlog_s = backlog_s;
  return s;
}

TEST(RoundRobinRouter, CyclesThroughDevicesInOrder) {
  RoundRobinRouter r;
  std::vector<DeviceStatus> devs = {status(true), status(true), status(true)};
  EXPECT_EQ(r.route(0.0, devs), 0u);
  EXPECT_EQ(r.route(0.0, devs), 1u);
  EXPECT_EQ(r.route(0.0, devs), 2u);
  EXPECT_EQ(r.route(0.0, devs), 0u);
}

TEST(RoundRobinRouter, SkipsIneligibleDevices) {
  RoundRobinRouter r;
  std::vector<DeviceStatus> devs = {status(true), status(false), status(true)};
  EXPECT_EQ(r.route(0.0, devs), 0u);
  EXPECT_EQ(r.route(0.0, devs), 2u);  // device 1 is full/drained
  EXPECT_EQ(r.route(0.0, devs), 0u);
}

TEST(RoundRobinRouter, ThrowsWhenNothingIsEligible) {
  RoundRobinRouter r;
  std::vector<DeviceStatus> devs = {status(false), status(false)};
  EXPECT_THROW(r.route(0.0, devs), Error);
  EXPECT_THROW(r.route(0.0, {}), Error);
}

TEST(LeastLoadedRouter, PicksTheSmallestBacklog) {
  LeastLoadedRouter r;
  std::vector<DeviceStatus> devs = {status(true, 0.30), status(true, 0.05), status(true, 0.10)};
  EXPECT_EQ(r.route(0.0, devs), 1u);
}

TEST(LeastLoadedRouter, IgnoresIneligibleDevices) {
  LeastLoadedRouter r;
  std::vector<DeviceStatus> devs = {status(false, 0.0), status(true, 0.2)};
  EXPECT_EQ(r.route(0.0, devs), 1u);
}

TEST(LeastLoadedRouter, PenalizesSwitchingDevices) {
  LeastLoadedRouter r(/*switching_penalty_s=*/0.1);
  // Device 0 has the shorter queue but is mid-switch: 0.02 + 0.1 > 0.08.
  std::vector<DeviceStatus> devs = {status(true, 0.02, 1, 0.9, /*switching=*/true),
                                    status(true, 0.08)};
  EXPECT_EQ(r.route(0.0, devs), 1u);
}

TEST(LeastLoadedRouter, TieBreaksTowardFewerQueuedFrames) {
  LeastLoadedRouter r;
  std::vector<DeviceStatus> devs = {status(true, 0.10, /*queued=*/5),
                                    status(true, 0.10, /*queued=*/2)};
  EXPECT_EQ(r.route(0.0, devs), 1u);
}

/// LeastLoadedRouter's rule as the sequential loop it was first written as:
/// skip ineligible devices, keep the first strictly less loaded one, and on
/// an equal load the one with fewer queued frames.
std::size_t sequential_least_loaded(const std::vector<DeviceStatus>& devices, double penalty_s) {
  std::size_t best = devices.size();
  double best_load = 0.0;
  for (std::size_t i = 0; i < devices.size(); ++i) {
    if (!devices[i].eligible) {
      continue;
    }
    const double load = devices[i].backlog_s + (devices[i].switching ? penalty_s : 0.0);
    if (best == devices.size() || load < best_load ||
        (load == best_load && devices[i].queued < devices[best].queued)) {
      best = i;
      best_load = load;
    }
  }
  return best;
}

TEST(LeastLoadedRouter, MatchesTheSequentialLoopOnRandomStatusVectors) {
  // Few distinct backlogs and queue lengths, so loads and queues tie often;
  // 0.1 is also what a switching device with zero backlog reads under the
  // default penalty. Signed zeros, negative and infinite backlogs, NaNs of
  // either sign and extreme queue counts cover any vector a caller may pass.
  const double backlogs[] = {0.0,  -0.0, 0.001, 0.002, 0.1, 0.1, 0.25, -0.002,
                             std::numeric_limits<double>::infinity(),
                             std::numeric_limits<double>::quiet_NaN(),
                             -std::numeric_limits<double>::quiet_NaN()};
  const std::int64_t extreme_queued[] = {-1, std::numeric_limits<std::int64_t>::min(),
                                         std::numeric_limits<std::int64_t>::max()};
  std::mt19937_64 rng(2024);
  int routed = 0;
  int rejected = 0;
  for (int trial = 0; trial < 20000; ++trial) {
    const double penalty_s = trial % 2 == 0 ? 0.1 : 0.25;
    LeastLoadedRouter router(penalty_s);
    std::vector<DeviceStatus> devices(1 + rng() % 20);
    for (DeviceStatus& d : devices) {
      d.eligible = rng() % 4 != 0;
      d.switching = rng() % 5 == 0;
      d.queued =
          rng() % 50 == 0 ? extreme_queued[rng() % 3] : static_cast<std::int64_t>(rng() % 4);
      // NaN is rare: one device in ~200, so most vectors keep a finite order.
      d.backlog_s = backlogs[rng() % 200 == 0 ? 9 + rng() % 2 : rng() % 9];
    }
    const std::size_t expected = sequential_least_loaded(devices, penalty_s);
    if (expected == devices.size()) {
      EXPECT_THROW(router.route(0.0, devices), Error) << "trial " << trial;
      ++rejected;
      continue;
    }
    ASSERT_EQ(router.route(0.0, devices), expected) << "trial " << trial;
    ++routed;
  }
  EXPECT_GE(routed, 10000);
  EXPECT_GT(rejected, 0);
}

TEST(AccuracyAwareRouter, PrefersTheMostAccurateDeviceWithHeadroom) {
  AccuracyAwareRouter r(/*headroom_s=*/0.05);
  std::vector<DeviceStatus> devs = {status(true, 0.01, 0, 0.84), status(true, 0.03, 1, 0.90)};
  EXPECT_EQ(r.route(0.0, devs), 1u);  // more loaded but more accurate
}

TEST(AccuracyAwareRouter, SkipsSwitchingDevicesInTheAccuracyPass) {
  AccuracyAwareRouter r(/*headroom_s=*/0.05);
  std::vector<DeviceStatus> devs = {status(true, 0.01, 0, 0.90, /*switching=*/true),
                                    status(true, 0.01, 0, 0.84)};
  EXPECT_EQ(r.route(0.0, devs), 1u);
}

TEST(AccuracyAwareRouter, DegradesToLeastLoadedWhenEveryoneIsBusy) {
  AccuracyAwareRouter r(/*headroom_s=*/0.05);
  // All backlogs exceed the headroom: accuracy no longer decides.
  std::vector<DeviceStatus> devs = {status(true, 0.40, 0, 0.90), status(true, 0.10, 0, 0.80)};
  EXPECT_EQ(r.route(0.0, devs), 1u);
}

TEST(MakeRouter, BuildsEveryRegisteredRouter) {
  for (const std::string& name : router_names()) {
    auto router = make_router(name);
    ASSERT_NE(router, nullptr) << name;
    EXPECT_EQ(router->name(), name);
  }
}

TEST(MakeRouter, UnknownNameListsTheValidRouters) {
  try {
    make_router("bogus");
    FAIL() << "expected NotFoundError";
  } catch (const NotFoundError& e) {
    const std::string msg = e.what();
    EXPECT_NE(msg.find("bogus"), std::string::npos);
    for (const std::string& name : router_names()) {
      EXPECT_NE(msg.find(name), std::string::npos) << name;
    }
  }
}

}  // namespace
}  // namespace adaflow::fleet
