// Unit and end-to-end tests for the run-health monitor (obs/health.h):
// EWMA determinism, alert-rule raise/clear transitions with hysteresis
// (among them the latency straggler, the run's one straggler signal),
// deterministic down/rejoin straggler alerts through a faulted simulated
// run, the die_at partial-telemetry path, and the passive-monitor
// bit-identity guarantee.

#include <gtest/gtest.h>

#include <fstream>
#include <set>
#include <string>
#include <vector>

#include "driver/runner.h"
#include "obs/health.h"
#include "obs/json.h"
#include "obs/trace.h"
#include "stream/worldcup.h"

namespace fgm {
namespace {

TEST(Ewma, FirstSampleSeedsThenFoldsDeterministically) {
  Ewma e;
  EXPECT_EQ(e.samples(), 0);
  e.Observe(10.0);
  EXPECT_DOUBLE_EQ(e.value(), 10.0);  // first sample seeds, no decay
  e.Observe(20.0);
  EXPECT_DOUBLE_EQ(e.value(), 13.0);  // 0.3·20 + 0.7·10
  e.Observe(20.0);
  EXPECT_DOUBLE_EQ(e.value(), 15.1);  // 0.3·20 + 0.7·13
  EXPECT_EQ(e.samples(), 3);
}

SiteNetSample Sample(int64_t delivered, int64_t dropped,
                     int64_t latency_ticks, int64_t latency_samples) {
  SiteNetSample s;
  s.delivered_msgs = delivered;
  s.dropped_msgs = dropped;
  s.latency_ticks = latency_ticks;
  s.latency_samples = latency_samples;
  return s;
}

TEST(HealthMonitor, LossyLinkRaisesAndClearsWithHysteresis) {
  HealthMonitor hm(3);
  const double thr = HealthMonitor::kLossyDropThreshold;

  // Site 1 drops 40% of its messages for one round: EWMA seeds at 0.4,
  // well over the 0.15 threshold.
  SiteNetSample cum = Sample(60, 40, 60, 60);
  hm.ObserveNet(1, cum);
  hm.EvaluateAlerts(/*round=*/1, /*t=*/100);
  EXPECT_TRUE(hm.alert_active(AlertRule::kLossyLink, 1));
  EXPECT_FALSE(hm.alert_active(AlertRule::kLossyLink, 0));
  EXPECT_EQ(hm.alerts_raised(), 1);

  // One clean round is not enough: hysteresis holds the alert until the
  // EWMA decays below threshold·clear_factor, not just below threshold.
  cum.delivered_msgs += 100;
  cum.latency_ticks += 100;
  cum.latency_samples += 100;
  hm.ObserveNet(1, cum);
  hm.EvaluateAlerts(2, 200);
  ASSERT_GT(hm.drop_fraction(1), thr * HealthMonitor::kClearFactor);
  EXPECT_TRUE(hm.alert_active(AlertRule::kLossyLink, 1));
  EXPECT_EQ(hm.alerts_cleared(), 0);

  // Clean rounds until the EWMA crosses the clear bar.
  for (int round = 3; round < 20; ++round) {
    cum.delivered_msgs += 100;
    cum.latency_ticks += 100;
    cum.latency_samples += 100;
    hm.ObserveNet(1, cum);
    hm.EvaluateAlerts(round, round * 100);
    if (!hm.alert_active(AlertRule::kLossyLink, 1)) break;
  }
  EXPECT_FALSE(hm.alert_active(AlertRule::kLossyLink, 1));
  EXPECT_LT(hm.drop_fraction(1), thr * HealthMonitor::kClearFactor);
  EXPECT_EQ(hm.alerts_raised(), 1);
  EXPECT_EQ(hm.alerts_cleared(), 1);
}

// The latency form of straggler_site: a site whose delivery-latency EWMA
// reaches kStragglerLatencyFactor times the fleet mean raises with reason
// "slow", and clears once it falls below factor · kClearFactor times the
// mean. The mean includes the slow site, so among five sites it must run
// at least 6x the others to reach 3x the mean.
TEST(HealthMonitor, SlowSiteRaisesAndClearsTheStragglerAlert) {
  MemoryTraceSink sink;
  const int sites = 5;
  const int slow = 3;
  HealthMonitor hm(sites);
  hm.set_trace(&sink);
  std::vector<SiteNetSample> cum(sites);
  // One round: every site delivers 10 messages, 1 tick each, except the
  // slow site at `slow_delay` ticks.
  auto round = [&](int64_t slow_delay) {
    for (int i = 0; i < sites; ++i) {
      SiteNetSample& c = cum[static_cast<size_t>(i)];
      c.delivered_msgs += 10;
      c.latency_ticks += 10 * (i == slow ? slow_delay : 1);
      c.latency_samples += 10;
      hm.ObserveNet(i, c);
    }
  };
  auto fleet_mean = [&] {
    double sum = 0.0;
    for (int i = 0; i < sites; ++i) sum += hm.latency(i);
    return sum / sites;
  };

  // No site is judged before it has kStragglerMinSamples rounds.
  int64_t r = 0;
  while (r < HealthMonitor::kStragglerMinSamples) {
    ++r;
    round(100);
    hm.EvaluateAlerts(r, r * 100);
    EXPECT_EQ(hm.alert_active(AlertRule::kStragglerSite, slow),
              r == HealthMonitor::kStragglerMinSamples)
        << "round " << r;
  }
  const double raise_mean = fleet_mean();
  ASSERT_GE(hm.latency(slow),
            HealthMonitor::kStragglerLatencyFactor * raise_mean);
  ASSERT_EQ(sink.events_log().size(), 1u);
  const TraceEvent& raise = sink.events_log()[0];
  EXPECT_EQ(raise.kind, TraceEventKind::kAlertRaised);
  EXPECT_STREQ(raise.label, "straggler_site");
  EXPECT_EQ(raise.site, slow);
  EXPECT_STREQ(raise.reason, "slow");
  EXPECT_DOUBLE_EQ(raise.value, 100.0);
  EXPECT_DOUBLE_EQ(raise.theta,
                   HealthMonitor::kStragglerLatencyFactor * raise_mean);

  // The slow site recovers. Hysteresis holds the alert below the raise
  // bar, and it clears once the EWMA falls under 1.5x the fleet mean.
  const double clear_factor =
      HealthMonitor::kStragglerLatencyFactor * HealthMonitor::kClearFactor;
  bool held = false;
  while (hm.alert_active(AlertRule::kStragglerSite, slow) && r < 60) {
    ++r;
    round(1);
    const double lat = hm.latency(slow);
    const double mean = fleet_mean();
    hm.EvaluateAlerts(r, r * 100);
    EXPECT_EQ(hm.alert_active(AlertRule::kStragglerSite, slow),
              lat >= clear_factor * mean)
        << "round " << r;
    if (hm.alert_active(AlertRule::kStragglerSite, slow) &&
        lat < HealthMonitor::kStragglerLatencyFactor * mean) {
      held = true;
    }
  }
  EXPECT_TRUE(held) << "hysteresis never held the alert";
  EXPECT_FALSE(hm.alert_active(AlertRule::kStragglerSite, slow));
  EXPECT_EQ(hm.alerts_raised(), 1);
  EXPECT_EQ(hm.alerts_cleared(), 1);
  ASSERT_EQ(sink.events_log().size(), 2u);
  const TraceEvent& clear = sink.events_log()[1];
  EXPECT_EQ(clear.kind, TraceEventKind::kAlertCleared);
  EXPECT_STREQ(clear.label, "straggler_site");
  EXPECT_EQ(clear.site, slow);
  EXPECT_STREQ(clear.reason, "slow");
}

TEST(HealthMonitor, DownAndRejoinAreDeterministicAndDeduped) {
  MemoryTraceSink sink;
  HealthMonitor hm(5);
  hm.set_trace(&sink);

  hm.NoteSiteDown(2, /*round=*/7, /*t=*/1000);
  hm.NoteSiteDown(2, 7, 1001);  // duplicate signal: no double raise
  EXPECT_TRUE(hm.alert_active(AlertRule::kStragglerSite, 2));
  EXPECT_TRUE(hm.site_down(2));
  EXPECT_EQ(hm.alerts_raised(), 1);

  hm.NoteSiteUp(2, 9, 2000);
  EXPECT_FALSE(hm.alert_active(AlertRule::kStragglerSite, 2));
  EXPECT_FALSE(hm.site_down(2));
  EXPECT_EQ(hm.alerts_cleared(), 1);

  ASSERT_EQ(sink.events_log().size(), 2u);
  const TraceEvent& raise = sink.events_log()[0];
  EXPECT_EQ(raise.kind, TraceEventKind::kAlertRaised);
  EXPECT_STREQ(raise.label, "straggler_site");
  EXPECT_EQ(raise.site, 2);
  EXPECT_EQ(raise.round, 7);
  EXPECT_STREQ(raise.reason, "down");
  const TraceEvent& clear = sink.events_log()[1];
  EXPECT_EQ(clear.kind, TraceEventKind::kAlertCleared);
  EXPECT_STREQ(clear.reason, "rejoin");
}

TEST(HealthMonitor, PsiMarginAlertNeedsWarmup) {
  HealthMonitor hm(3);
  // Every round ends 2·|stop| past the stop level: overshoot EWMA = 2.
  for (int round = 1; round <= 2; ++round) {
    hm.ObservePsiMargin(/*last_psi=*/1.0, /*stop_level=*/-1.0);
    hm.EvaluateAlerts(round, round);
    EXPECT_FALSE(hm.alert_active(AlertRule::kPsiMargin, -1))
        << "fired before min_rounds warmup";
  }
  hm.ObservePsiMargin(1.0, -1.0);
  hm.EvaluateAlerts(3, 3);
  EXPECT_TRUE(hm.alert_active(AlertRule::kPsiMargin, -1));
}

TEST(HealthMonitor, StuckSubroundRaisesAndClears) {
  HealthMonitor hm(3);
  const int64_t need = HealthMonitor::kStuckProgressSamples;
  hm.ObserveProgress(/*round=*/1, /*total_subrounds=*/5, /*t=*/1);
  for (int64_t i = 0; i < need; ++i) hm.ObserveProgress(1, 5, i + 2);
  EXPECT_TRUE(hm.alert_active(AlertRule::kStuckSubround, -1));
  hm.ObserveProgress(2, 6, 99);  // subrounds advanced: recovers
  EXPECT_FALSE(hm.alert_active(AlertRule::kStuckSubround, -1));
}

TEST(HealthMonitor, ShipCostReflectsLinkQuality) {
  HealthMonitor hm(3);
  EXPECT_DOUBLE_EQ(hm.ShipCostFactor(0), 1.0);  // clean link

  // 50% drop: every shipped word is expected to be sent twice.
  hm.ObserveNet(1, Sample(50, 50, 50, 50));
  EXPECT_NEAR(hm.ShipCostFactor(1), 2.0, 1e-9);

  hm.NoteSiteDown(2, 1, 1);
  EXPECT_DOUBLE_EQ(hm.ShipCostFactor(2), HealthMonitor::kMaxShipCost);
  EXPECT_GT(hm.RebalanceCostFactor(), 1.0);
}

TEST(HealthMonitor, PrometheusTextExposition) {
  HealthMonitor hm(2);
  hm.NoteSiteDown(1, 3, 50);
  const std::string text = hm.PrometheusText(/*records=*/1234, /*rounds=*/7,
                                             /*total_words=*/999, /*psi=*/-2.5);
  EXPECT_NE(text.find("# TYPE fgm_records_total counter\n"),
            std::string::npos);
  EXPECT_NE(text.find("fgm_records_total 1234\n"), std::string::npos);
  EXPECT_NE(text.find("fgm_rounds_total 7\n"), std::string::npos);
  EXPECT_NE(text.find("fgm_psi -2.5\n"), std::string::npos);
  EXPECT_NE(text.find("fgm_site_down{site=\"1\"} 1\n"), std::string::npos);
  EXPECT_NE(text.find("fgm_alert_active{rule=\"straggler_site\",site=\"1\"}"),
            std::string::npos);
  // Exposition discipline: every metric line is "name[{labels}] value".
  for (size_t pos = 0; pos < text.size();) {
    size_t end = text.find('\n', pos);
    ASSERT_NE(end, std::string::npos) << "unterminated exposition line";
    const std::string line = text.substr(pos, end - pos);
    if (!line.empty() && line[0] != '#') {
      EXPECT_NE(line.find(' '), std::string::npos) << line;
    }
    pos = end + 1;
  }
}

TEST(HealthMonitor, HeartbeatJsonParses) {
  HealthMonitor hm(2);
  hm.NoteSiteDown(0, 1, 1);
  const std::string line = hm.HeartbeatJson(500, 3, 4200, -1.25);
  JsonNode node;
  std::string error;
  ASSERT_TRUE(ParseJson(line, &node, &error)) << error;
  EXPECT_EQ(node.Find("records")->AsInt(), 500);
  EXPECT_EQ(node.Find("rounds")->AsInt(), 3);
  EXPECT_EQ(node.Find("words")->AsInt(), 4200);
  EXPECT_DOUBLE_EQ(node.Find("psi")->AsDouble(), -1.25);
  EXPECT_EQ(node.Find("alerts_active")->AsInt(), 1);
  EXPECT_EQ(node.Find("alerts_raised")->AsInt(), 1);
}

// ---------------------------------------------------------------------------
// End-to-end: the chaos grid drives the deterministic straggler alert.

std::vector<StreamRecord> SmallTrace(int64_t updates) {
  WorldCupConfig wc;
  wc.sites = 5;
  wc.total_updates = updates;
  return GenerateWorldCupTrace(wc);
}

RunConfig SmallConfig() {
  RunConfig config;
  config.protocol = ProtocolKind::kFgm;
  config.query = QueryKind::kSelfJoin;
  config.sites = 5;
  config.depth = 5;
  config.width = 60;
  config.check_every = 1000;
  return config;
}

TEST(HealthEndToEnd, FaultedSiteRaisesAndRecoveredSiteClears) {
  MemoryTraceSink sink;
  HealthMonitor hm(5);
  RunConfig config = SmallConfig();
  config.net.latency = "uniform:1-16";
  config.net.drop = 0.2;
  config.net.fault_plan = "crash:site=2,at=20000,rejoin=26000";
  config.trace = &sink;
  config.health = &hm;

  const RunResult r = ::fgm::Run(config, SmallTrace(30000));
  EXPECT_EQ(r.net.site_downs, 1);
  EXPECT_EQ(r.net.resyncs, 1);
  EXPECT_GT(r.alerts_raised, 0);

  bool saw_down = false, saw_rejoin = false;
  for (const TraceEvent& e : sink.events_log()) {
    if (e.kind == TraceEventKind::kAlertRaised && e.site == 2 &&
        std::string(e.label) == "straggler_site" && e.reason != nullptr &&
        std::string(e.reason) == "down") {
      saw_down = true;
    }
    if (e.kind == TraceEventKind::kAlertCleared && e.site == 2 &&
        std::string(e.label) == "straggler_site" && e.reason != nullptr &&
        std::string(e.reason) == "rejoin") {
      EXPECT_TRUE(saw_down) << "clear before raise";
      saw_rejoin = true;
    }
  }
  EXPECT_TRUE(saw_down) << "crash did not raise a straggler_site alert";
  EXPECT_TRUE(saw_rejoin) << "rejoin did not clear the straggler_site alert";
}

TEST(HealthEndToEnd, PassiveMonitorKeepsTrafficBitIdentical) {
  // The monitor observing a run (health_planning off) must not perturb
  // the protocol: plans, rounds and every traffic word stay identical.
  RunConfig plain = SmallConfig();
  plain.protocol = ProtocolKind::kFgmOpt;
  const std::vector<StreamRecord> trace = SmallTrace(30000);
  const RunResult base = ::fgm::Run(plain, trace);

  HealthMonitor hm(5);
  RunConfig monitored = plain;
  monitored.health = &hm;
  const RunResult obs = ::fgm::Run(monitored, trace);

  EXPECT_EQ(base.traffic.total_words(), obs.traffic.total_words());
  EXPECT_EQ(base.traffic.upstream_words, obs.traffic.upstream_words);
  EXPECT_EQ(base.rounds, obs.rounds);
  EXPECT_EQ(base.subrounds, obs.subrounds);
  EXPECT_EQ(base.rebalances, obs.rebalances);
}

TEST(HealthEndToEnd, DieAtStopsEarlyAndStillReports) {
  RunConfig config = SmallConfig();
  config.die_at = 9000;
  const RunResult r = ::fgm::Run(config, SmallTrace(30000));
  EXPECT_TRUE(r.stopped_early);
  EXPECT_EQ(r.events, 9000);  // cash-register: events == records
  EXPECT_GT(r.rounds, 0);
  EXPECT_GT(r.traffic.total_words(), 0);
}

TEST(HealthEndToEnd, HealthPlanningKeepsGuaranteeUnderChaos) {
  RunConfig config = SmallConfig();
  config.protocol = ProtocolKind::kFgmOpt;
  config.net.latency = "fixed:4";
  config.net.drop = 0.1;
  config.net.fault_plan = "crash:site=2,at=10000,rejoin=16000";
  config.health_planning = true;
  const RunResult r = ::fgm::Run(config, SmallTrace(30000));
  EXPECT_EQ(r.max_violation, 0.0);
  EXPECT_GT(r.rounds, 0);
}

// The coordinator feeds the monitor one entry per ROOT CHILD, so a tree
// run's exposition must label exactly the tier-1 aggregators — not one
// phantom site per leaf, and not a rebalance cost factor diluted by them.
TEST(HealthEndToEnd, TreeRunMonitorsRootChildren) {
  RunConfig config = SmallConfig();
  config.protocol = ProtocolKind::kFgmOpt;
  config.sites = 64;
  config.topology = "tree:8";
  config.check_every = 0;
  config.net.latency = "fixed:4";
  config.net.drop = 0.3;
  config.health_planning = true;
  config.prom_out = ::testing::TempDir() + "tree_health.prom";
  WorldCupConfig wc;
  wc.sites = config.sites;
  wc.total_updates = 30000;
  const RunResult r = ::fgm::Run(config, GenerateWorldCupTrace(wc));
  EXPECT_GT(r.rounds, 0);

  std::ifstream in(config.prom_out);
  ASSERT_TRUE(in) << config.prom_out;
  std::set<std::string> sites;
  for (std::string line; std::getline(in, line);) {
    const size_t at = line.find("site=\"");
    if (line.rfind("fgm_site_", 0) != 0 || at == std::string::npos) continue;
    const size_t begin = at + 6;
    sites.insert(line.substr(begin, line.find('"', begin) - begin));
  }
  EXPECT_EQ(sites.size(), 8u);
}

}  // namespace
}  // namespace fgm
