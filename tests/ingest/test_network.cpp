#include "adaflow/ingest/network.hpp"

#include <gtest/gtest.h>

#include <utility>
#include <vector>

#include "adaflow/common/error.hpp"
#include "adaflow/faults/fault_injector.hpp"

namespace adaflow::ingest {
namespace {

using Arrival = std::pair<std::int64_t, double>;  // (seq, arrival time)

NetworkConfig clean_link() {
  NetworkConfig c;
  c.base_delay_s = 0.02;
  c.jitter_s = 0.0;
  c.loss_p = 0.0;
  c.p_good_to_bad = 0.0;
  c.duplicate_p = 0.0;
  return c;
}

/// Transmits \p frames frames spaced \p spacing_s apart and returns the
/// arrivals in delivery order.
std::vector<Arrival> run_link(const NetworkConfig& config, std::uint64_t seed, int frames,
                              double spacing_s, NetworkStats* stats_out = nullptr,
                              faults::FaultInjector* injector = nullptr) {
  sim::EventQueue queue;
  NetworkLink link(queue, config, seed, injector);
  std::vector<Arrival> arrivals;
  link.set_on_deliver([&](std::int64_t seq, double) { arrivals.emplace_back(seq, queue.now()); });
  for (int i = 0; i < frames; ++i) {
    queue.schedule_at(static_cast<double>(i) * spacing_s,
                      [&link, i] { link.transmit(i, 0.0); });
  }
  queue.run_until(static_cast<double>(frames) * spacing_s + 10.0);
  if (stats_out != nullptr) {
    *stats_out = link.stats();
  }
  return arrivals;
}

TEST(NetworkLink, RejectsInvalidConfig) {
  sim::EventQueue queue;
  NetworkConfig bad = clean_link();
  bad.loss_p = 1.5;
  EXPECT_THROW(NetworkLink(queue, bad, 1), ConfigError);
  bad = clean_link();
  bad.base_delay_s = -0.1;
  EXPECT_THROW(NetworkLink(queue, bad, 1), ConfigError);
}

TEST(NetworkLink, CleanLinkDeliversEverythingInOrderAfterBaseDelay) {
  NetworkStats stats;
  const std::vector<Arrival> arrivals = run_link(clean_link(), 5, 50, 0.05, &stats);
  EXPECT_EQ(stats.transmitted, 50);
  EXPECT_EQ(stats.delivered, 50);
  EXPECT_EQ(stats.lost(), 0);
  EXPECT_EQ(stats.in_flight(), 0);
  ASSERT_EQ(arrivals.size(), 50u);
  for (std::size_t i = 0; i < arrivals.size(); ++i) {
    EXPECT_EQ(arrivals[i].first, static_cast<std::int64_t>(i));
    EXPECT_NEAR(arrivals[i].second, static_cast<double>(i) * 0.05 + 0.02, 1e-9);
  }
}

TEST(NetworkLink, CertainIidLossDropsEveryFrame) {
  NetworkConfig config = clean_link();
  config.loss_p = 1.0;
  NetworkStats stats;
  const std::vector<Arrival> arrivals = run_link(config, 5, 20, 0.05, &stats);
  EXPECT_TRUE(arrivals.empty());
  EXPECT_EQ(stats.lost_iid, 20);
  EXPECT_EQ(stats.lost_burst, 0);
  EXPECT_EQ(stats.delivered, 0);
}

TEST(NetworkLink, BurstStateLossesAreAccountedSeparately) {
  NetworkConfig config = clean_link();
  // The link falls into the bad state on the first frame (the state draw
  // precedes the loss draw) and back into it right after every recovery.
  // The good state loses nothing (loss_p 0), so every loss is a burst loss.
  config.p_good_to_bad = 1.0;
  NetworkStats stats;
  const std::vector<Arrival> arrivals = run_link(config, 5, 200, 0.05, &stats);
  EXPECT_GT(stats.lost_burst, 0);
  EXPECT_EQ(stats.lost_iid, 0);
  EXPECT_EQ(stats.lost_burst + stats.delivered, 200);
  EXPECT_EQ(static_cast<std::int64_t>(arrivals.size()), stats.delivered);
}

TEST(NetworkLink, DuplicatesArriveLateAndAreCounted) {
  NetworkConfig config = clean_link();
  config.duplicate_p = 1.0;
  NetworkStats stats;
  const std::vector<Arrival> arrivals = run_link(config, 5, 10, 1.0, &stats);
  EXPECT_EQ(stats.duplicates, 10);
  EXPECT_EQ(stats.delivered, 20);
  ASSERT_EQ(arrivals.size(), 20u);
  // Frames are spaced far apart, so each original is followed by its copy,
  // 30 ms later.
  for (int i = 0; i < 10; ++i) {
    EXPECT_EQ(arrivals[2 * i].first, i);
    EXPECT_EQ(arrivals[2 * i + 1].first, i);
    EXPECT_NEAR(arrivals[2 * i + 1].second - arrivals[2 * i].second, 0.03, 1e-9);
  }
}

TEST(NetworkLink, ScheduledOutageWindowDropsInWindowFrames) {
  // Frames every 0.1s; the outage covers [0.45, 1.05) -> frames 5..10 die.
  faults::FaultInjector injector(faults::network_outage_window(0.45, 1.05), 99);
  NetworkStats stats;
  const std::vector<Arrival> arrivals = run_link(clean_link(), 5, 20, 0.1, &stats, &injector);
  EXPECT_EQ(stats.lost_outage, 6);
  EXPECT_EQ(stats.delivered, 14);
  EXPECT_EQ(injector.injected(faults::FaultKind::kNetworkOutage), 6);
  for (const Arrival& a : arrivals) {
    EXPECT_TRUE(a.first < 5 || a.first > 10) << "frame " << a.first << " survived the outage";
  }
}

TEST(NetworkLink, SameSeedLinkReplaysBitIdentically) {
  NetworkConfig config = clean_link();
  config.jitter_s = 0.04;
  config.loss_p = 0.1;
  config.p_good_to_bad = 0.05;
  config.duplicate_p = 0.05;
  NetworkStats sa;
  NetworkStats sb;
  const std::vector<Arrival> a = run_link(config, 77, 500, 0.01, &sa);
  const std::vector<Arrival> b = run_link(config, 77, 500, 0.01, &sb);
  EXPECT_EQ(a, b);
  EXPECT_EQ(sa.lost_iid, sb.lost_iid);
  EXPECT_EQ(sa.lost_burst, sb.lost_burst);
  EXPECT_EQ(sa.duplicates, sb.duplicates);
}

TEST(StaleFilter, AdmitsMonotoneSequences) {
  StaleFilter f;
  for (std::int64_t seq : {0, 1, 2, 5, 9}) {  // gaps (lost frames) are fine
    EXPECT_TRUE(f.admit(seq));
  }
  EXPECT_EQ(f.stats().accepted, 5);
  EXPECT_EQ(f.stats().dropped_stale, 0);
  EXPECT_EQ(f.stats().reordered, 0);
}

TEST(StaleFilter, DropsDuplicatesOnTheSpot) {
  StaleFilter f;
  EXPECT_TRUE(f.admit(0));
  EXPECT_TRUE(f.admit(1));
  EXPECT_FALSE(f.admit(1));  // duplicate: equal seq is stale, not reordered
  EXPECT_EQ(f.stats().dropped_stale, 1);
  EXPECT_EQ(f.stats().reordered, 0);
}

TEST(StaleFilter, DropsLateFramesAfterANewerOneWasAccepted) {
  StaleFilter f;
  EXPECT_TRUE(f.admit(0));
  EXPECT_TRUE(f.admit(2));   // jitter pushed 1 past 2
  EXPECT_FALSE(f.admit(1));  // late: a newer frame already went downstream
  EXPECT_EQ(f.stats().dropped_stale, 1);
  EXPECT_EQ(f.stats().reordered, 1);
  EXPECT_TRUE(f.admit(3));
  EXPECT_EQ(f.stats().accepted, 3);
  EXPECT_EQ(f.stats().arrived, 4);
}

TEST(StaleFilter, JitterReorderingEndToEnd) {
  // Jitter several times the frame spacing: arrivals invert, and the filter
  // must drop exactly the late ones while conserving the arrival count.
  NetworkConfig config = clean_link();
  config.jitter_s = 0.05;
  const std::vector<Arrival> arrivals = run_link(config, 21, 400, 0.005);
  StaleFilter f;
  for (const Arrival& a : arrivals) {
    f.admit(a.first);
  }
  EXPECT_GT(f.stats().reordered, 0);
  EXPECT_GT(f.stats().dropped_stale, 0);
  EXPECT_EQ(f.stats().arrived, static_cast<std::int64_t>(arrivals.size()));
  EXPECT_EQ(f.stats().accepted + f.stats().dropped_stale, f.stats().arrived);
}

}  // namespace
}  // namespace adaflow::ingest
