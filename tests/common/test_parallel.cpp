#include "adaflow/common/parallel.hpp"

#include <gtest/gtest.h>

#include <atomic>
#include <numeric>
#include <thread>
#include <vector>

namespace adaflow {
namespace {

TEST(Parallel, VisitsEveryIndexExactlyOnce) {
  constexpr std::int64_t kCount = 1000;
  std::vector<std::atomic<int>> hits(kCount);
  parallel_for(kCount, [&](std::int64_t i) { hits[static_cast<std::size_t>(i)]++; });
  for (const auto& h : hits) {
    EXPECT_EQ(h.load(), 1);
  }
}

TEST(Parallel, ZeroCountIsNoop) {
  bool called = false;
  parallel_for(0, [&](std::int64_t) { called = true; });
  EXPECT_FALSE(called);
}

TEST(Parallel, SingleIterationRunsInline) {
  int value = 0;
  parallel_for(1, [&](std::int64_t i) { value = static_cast<int>(i) + 42; });
  EXPECT_EQ(value, 42);
}

TEST(Parallel, RepeatedInvocationsAreStable) {
  for (int round = 0; round < 50; ++round) {
    std::atomic<std::int64_t> sum{0};
    parallel_for(100, [&](std::int64_t i) { sum += i; });
    EXPECT_EQ(sum.load(), 4950);
  }
}

TEST(Parallel, BackToBackShortJobsRunEachIndexOnce) {
  // The sharded engine's pattern: a few iterations per job, jobs published
  // back to back. A worker still leaving one job must not read the next
  // job's bounds or claim its indices (ThreadSanitizer checks the former).
  constexpr std::int64_t kCount = 4;
  for (int round = 0; round < 5000; ++round) {
    std::vector<std::atomic<int>> hits(kCount);
    parallel_for(kCount, [&](std::int64_t i) { hits[static_cast<std::size_t>(i)]++; });
    for (const auto& h : hits) {
      ASSERT_EQ(h.load(), 1) << "round " << round;
    }
  }
}

TEST(Parallel, WorkerCountIsPositive) { EXPECT_GE(parallel_worker_count(), 1); }

TEST(Parallel, NestedCallRunsInlineOnTheCallingThread) {
  // A parallel_for inside a pool task used to wait for the pool to drain the
  // outer job, which it was part of: a deadlock. ctest gives this test a
  // short timeout so a regression fails instead of hanging the suite.
  const int previous = parallel_worker_count();
  set_worker_count(4);
  std::vector<std::atomic<int>> hits(4 * 8);
  std::atomic<int> moved{0};  // inner iterations that left their outer thread
  parallel_for(4, [&](std::int64_t o) {
    const std::thread::id outer = std::this_thread::get_id();
    parallel_for(8, [&](std::int64_t i) {
      hits[static_cast<std::size_t>(o * 8 + i)]++;
      moved += std::this_thread::get_id() != outer ? 1 : 0;
    });
  });
  for (const auto& h : hits) {
    EXPECT_EQ(h.load(), 1);
  }
  EXPECT_EQ(moved.load(), 0);
  // The pool still runs ordinary jobs afterwards.
  std::atomic<std::int64_t> sum{0};
  parallel_for(100, [&](std::int64_t i) { sum += i; });
  EXPECT_EQ(sum.load(), 4950);
  set_worker_count(previous);
}

}  // namespace
}  // namespace adaflow
