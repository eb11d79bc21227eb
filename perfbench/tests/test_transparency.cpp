// Transparency tests for the benchmark's decorators: a traced run must do
// exactly the work of an untraced one, and the Transport decorator must
// not change what the runtime learns about its medium.
#include <gtest/gtest.h>

#include <memory>

#include "analysis/scenario.hpp"
#include "net/live_scenario.hpp"
#include "net/runtime.hpp"
#include "net/transport.hpp"
#include "trace.hpp"
#include "workloads.hpp"

namespace perfbench {
namespace {

TEST(Transparency, CampaignStepsMatch) {
  const CampaignConfig cfg{3000, 2, 7};
  const CampaignRun plain = run_campaign(cfg, nullptr, nullptr);
  Recorder rec;
  OracleStats oracle(cfg.n, cfg.shards);
  const CampaignRun traced = run_campaign(cfg, &rec, &oracle);
  EXPECT_EQ(plain.steps, traced.steps);
  EXPECT_EQ(plain.exits, traced.exits);
  EXPECT_EQ(plain.epoch_s.size(), traced.epoch_s.size());
  EXPECT_EQ(rec.durations("sim.epoch").size(), traced.epoch_s.size());
  EXPECT_GT(oracle.calls(), 0u);
  EXPECT_TRUE(check_campaign(cfg, traced).failure.empty());
}

TEST(Transparency, CheckedStepsMatchPerTrial) {
  const CheckedConfig cfg{24, 4, 2, 3};
  const CheckedSweep plain = run_checked(cfg);
  const CheckedTrace traced = run_checked_traced(cfg);
  ASSERT_EQ(plain.result.trials.size(), traced.trials.size());
  for (std::size_t i = 0; i < traced.trials.size(); ++i) {
    EXPECT_EQ(plain.result.trials[i].run.steps, traced.trials[i].steps) << i;
    EXPECT_TRUE(traced.trials[i].clean) << i;
    EXPECT_GT(traced.trials[i].rec.leaf_total(Leaf::Safety).calls, 0u) << i;
  }
  EXPECT_TRUE(plain.result.agg.clean());
}

TEST(Transparency, ChurnExactCountsMatch) {
  ChurnConfig cfg;
  cfg.n = 96;
  cfg.lookups = 40;
  cfg.seed = 5;
  const ChurnRun plain = run_churn(cfg, nullptr, nullptr);
  Recorder rec;
  OracleStats oracle(cfg.n, 1);
  const ChurnRun traced = run_churn(cfg, &rec, &oracle);
  const fdp::net::NetRuntime& a = *plain.sc.net;
  const fdp::net::NetRuntime& b = *traced.sc.net;
  EXPECT_EQ(a.clock(), b.clock());
  EXPECT_EQ(a.deliveries(), b.deliveries());
  EXPECT_EQ(a.sends(), b.sends());
  EXPECT_EQ(a.timeouts(), b.timeouts());
  EXPECT_EQ(a.ticks(), b.ticks());
  EXPECT_EQ(a.exits(), b.exits());
  EXPECT_EQ(plain.report.resolved, traced.report.resolved);
  EXPECT_EQ(plain.report.p50_clock, traced.report.p50_clock);
  EXPECT_EQ(plain.report.p95_clock, traced.report.p95_clock);
  EXPECT_GT(rec.leaf_total(Leaf::Rx).calls, 0u);
  EXPECT_GT(rec.leaf_total(Leaf::Observe).calls, 0u);
  EXPECT_GT(oracle.calls(), 0u);
  EXPECT_EQ(check_churn(cfg, traced), "");
}

TEST(TimedTransport, ForwardsLossyAndName) {
  const TimedTransport mem(std::make_unique<fdp::net::MemTransport>(),
                           nullptr);
  EXPECT_FALSE(mem.lossy());
  EXPECT_STREQ(mem.name(), "mem");
  const TimedTransport drop(std::make_unique<fdp::net::DropMemTransport>(5),
                            nullptr);
  EXPECT_TRUE(drop.lossy());
  const TimedTransport udp(std::make_unique<fdp::net::UdpTransport>(),
                           nullptr);
  EXPECT_TRUE(udp.lossy());
  EXPECT_STREQ(udp.name(), "udp");
}

// NetRuntime samples lossy() at start(). Behind a decorator that did not
// forward it, dropped frames would never be retransmitted and these
// departures would stall.
TEST(TimedTransport, RuntimeStillRetransmitsThroughIt) {
  Recorder rec;
  ChurnConfig cfg;
  cfg.n = 64;
  cfg.seed = 11;
  fdp::net::LiveScenario sc = fdp::net::build_live_framework_scenario(
      churn_scenario(cfg), "linearization",
      std::make_unique<TimedTransport>(
          std::make_unique<fdp::net::DropMemTransport>(7), &rec));
  for (int i = 0; i < 20'000 && !fdp::all_leaving_gone(*sc.net); ++i) {
    const ScopedSpan span(&rec, "net.pump");
    sc.net->pump(0);
  }
  EXPECT_GT(sc.net->retransmits(), 0u);
  EXPECT_TRUE(fdp::all_leaving_gone(*sc.net));
  EXPECT_GT(rec.leaf_total(Leaf::Send).calls, 0u);
}

}  // namespace
}  // namespace perfbench
