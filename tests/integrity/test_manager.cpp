#include "adaflow/integrity/manager.hpp"

#include <gtest/gtest.h>

#include <memory>

#include "adaflow/common/error.hpp"
#include "adaflow/core/library.hpp"

namespace adaflow::integrity {
namespace {

/// Inner policy that records every notification the decorator forwards.
class RecordingPolicy final : public edge::ServingPolicy {
 public:
  explicit RecordingPolicy(edge::ServingMode initial) : initial_(std::move(initial)) {}
  edge::ServingMode initial_mode() override { return initial_; }
  std::optional<edge::SwitchAction> on_poll(double, double) override {
    ++polls;
    return poll_answer;
  }
  void on_switch_applied(double, const edge::ServingMode& mode) override {
    ++applied;
    last_applied = mode;
  }
  std::optional<edge::SwitchAction> on_switch_failed(double,
                                                     const edge::SwitchAction&) override {
    ++failed;
    return std::nullopt;
  }

  int polls = 0;
  int applied = 0;
  int failed = 0;
  edge::ServingMode last_applied;
  std::optional<edge::SwitchAction> poll_answer;

 private:
  edge::ServingMode initial_;
};

edge::ServingMode fixed_top(const core::AcceleratorLibrary& lib) {
  const core::ModelVersion& v = lib.versions.front();
  edge::ServingMode mode;
  mode.model_version = v.version;
  mode.accelerator = "Fixed@" + v.version;
  mode.fps = v.fps_fixed;
  mode.accuracy = v.accuracy;
  mode.power_busy_w = v.power_busy_fixed_w;
  mode.power_idle_w = v.power_idle_fixed_w;
  return mode;
}

struct ManagerFixture {
  core::AcceleratorLibrary lib = core::synthetic_library();
  RecordingPolicy* inner = nullptr;
  std::unique_ptr<IntegrityManager> manager;

  explicit ManagerFixture(IntegrityPolicyConfig config) {
    auto owned = std::make_unique<RecordingPolicy>(fixed_top(lib));
    inner = owned.get();
    manager = std::make_unique<IntegrityManager>(std::move(owned), lib, config);
    manager->initial_mode();
  }
};

TEST(IntegrityPolicyConfig, RejectsBadFields) {
  IntegrityPolicyConfig c;
  c.scrub_period_s = -1.0;
  EXPECT_THROW(c.validate(), Error);
  c.scrub_period_s = 0.0;
  c.repair_cooldown_s = -0.5;
  EXPECT_THROW(c.validate(), Error);
}

TEST(IntegrityManager, TransparentWhenBothChannelsAreIdle) {
  ManagerFixture f(IntegrityPolicyConfig{/*scrub_period_s=*/0.0, /*repair_cooldown_s=*/1.0});
  // No scrubbing, no repair request: every poll forwards to the inner policy.
  for (int i = 0; i < 5; ++i) {
    EXPECT_FALSE(f.manager->on_poll(0.5 * i, 300.0).has_value());
  }
  EXPECT_EQ(f.inner->polls, 5);
}

TEST(IntegrityManager, ScrubChannelReloadsTheLiveModePeriodically) {
  ManagerFixture f(IntegrityPolicyConfig{/*scrub_period_s=*/2.0, /*repair_cooldown_s=*/0.5});
  int scrubs = 0;
  f.manager->set_reload_hook([&](double, bool scrub) { scrubs += scrub ? 1 : 0; });

  // t=2.0: the first scrub fires; a full reconfiguration of the live mode.
  auto action = f.manager->on_poll(2.0, 300.0);
  ASSERT_TRUE(action.has_value());
  EXPECT_TRUE(action->is_reconfiguration);
  EXPECT_EQ(action->target.accelerator, fixed_top(f.lib).accelerator);
  f.manager->on_switch_applied(2.1, action->target);
  // The same-mode reload must NOT reach the inner policy (a scrub must not
  // reset e.g. the Runtime Manager's switch-interval clock).
  EXPECT_EQ(f.inner->applied, 0);

  // Next scrub waits a full period; polls in between forward to the inner.
  EXPECT_FALSE(f.manager->on_poll(3.0, 300.0).has_value());
  EXPECT_EQ(f.inner->polls, 1);
  EXPECT_TRUE(f.manager->on_poll(4.0, 300.0).has_value());
  EXPECT_EQ(scrubs, 2);
}

TEST(IntegrityManager, RepairChannelHonorsTheCooldown) {
  ManagerFixture f(IntegrityPolicyConfig{/*scrub_period_s=*/0.0, /*repair_cooldown_s=*/2.0});
  f.manager->request_repair(0.9);
  auto action = f.manager->on_poll(1.0, 300.0);
  ASSERT_TRUE(action.has_value());
  f.manager->on_switch_applied(1.1, action->target);

  // A second request inside the cooldown waits; the poll forwards inward.
  f.manager->request_repair(1.5);
  EXPECT_FALSE(f.manager->on_poll(2.0, 300.0).has_value());
  EXPECT_TRUE(f.manager->repair_pending());
  // Once cooled, the pending request issues.
  EXPECT_TRUE(f.manager->on_poll(3.5, 300.0).has_value());
  EXPECT_FALSE(f.manager->repair_pending());
}

TEST(IntegrityManager, FailedReloadFallsBackToFlexibleAndNotifiesInner) {
  ManagerFixture f(IntegrityPolicyConfig{/*scrub_period_s=*/0.0, /*repair_cooldown_s=*/0.5});
  f.manager->request_repair(0.0);
  auto reload = f.manager->on_poll(1.0, 300.0);
  ASSERT_TRUE(reload.has_value());
  ASSERT_TRUE(reload->is_reconfiguration);

  // The reload's retry ladder exhausts: the manager answers with the
  // Flexible overlay on the same model version. Off the live Fixed bitstream
  // that is a "Change of Dataflow" reconfiguration, priced as one.
  auto fallback = f.manager->on_switch_failed(1.5, *reload);
  ASSERT_TRUE(fallback.has_value());
  EXPECT_EQ(fallback->target.accelerator, "Flexible");
  EXPECT_EQ(fallback->target.model_version, f.lib.versions.front().version);
  EXPECT_TRUE(fallback->is_reconfiguration);
  EXPECT_EQ(fallback->switch_time_s, f.lib.reconfig_time_s);
  // The inner policy heard nothing yet (its bookkeeping never advanced).
  EXPECT_EQ(f.inner->failed, 0);

  // The fallback lands: it MOVED the live mode, so the inner policy's live
  // bookkeeping must follow.
  f.manager->on_switch_applied(1.6, fallback->target);
  EXPECT_EQ(f.inner->applied, 1);
  EXPECT_EQ(f.inner->last_applied.accelerator, "Flexible");

  // The live mode is now Flexible: the next reload is a cheap fast switch.
  f.manager->request_repair(2.0);
  auto next = f.manager->on_poll(3.0, 300.0);
  ASSERT_TRUE(next.has_value());
  EXPECT_FALSE(next->is_reconfiguration);
}

TEST(IntegrityManager, FallbackFailureGivesUpWithoutLooping) {
  ManagerFixture f(IntegrityPolicyConfig{/*scrub_period_s=*/0.0, /*repair_cooldown_s=*/0.5});
  f.manager->request_repair(0.0);
  auto reload = f.manager->on_poll(1.0, 300.0);
  ASSERT_TRUE(reload.has_value());
  auto fallback = f.manager->on_switch_failed(1.5, *reload);
  ASSERT_TRUE(fallback.has_value());
  // The Flexible fallback fails too: stay put, try again on fresh evidence.
  EXPECT_FALSE(f.manager->on_switch_failed(1.8, *fallback).has_value());
  EXPECT_EQ(f.inner->failed, 0);
}

TEST(IntegrityManager, ForeignSwitchesForwardUntouched) {
  ManagerFixture f(IntegrityPolicyConfig{/*scrub_period_s=*/0.0, /*repair_cooldown_s=*/1.0});
  // A switch the inner policy issued comes back through the decorator.
  edge::SwitchAction inner_action;
  inner_action.target = fixed_top(f.lib);
  inner_action.is_reconfiguration = true;
  f.manager->on_switch_applied(1.0, inner_action.target);
  EXPECT_EQ(f.inner->applied, 1);
  EXPECT_FALSE(f.manager->on_switch_failed(2.0, inner_action).has_value());
  EXPECT_EQ(f.inner->failed, 1);
}

}  // namespace
}  // namespace adaflow::integrity
