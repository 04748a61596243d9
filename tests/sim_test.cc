// Simulated-network suite (src/sim).
//
// Two contracts under test:
//
//  1. Null-mode parity — with --net_latency=0, no loss and no fault plan,
//     the discrete-event network is a pass-through: the run is
//     bit-identical (trace line for line, traffic word for word, same
//     rounds/subrounds and final estimate) to the synchronous strict-wire
//     path, for every protocol.
//
//  2. Chaos grid — under seeded loss, latency jitter and site
//     crash/rejoin plans, every run still completes with zero
//     threshold-violation misses at the certified check points, and the
//     trace-replay checker re-certifies ψ-safety at every delivery point
//     plus exact send/deliver/drop conservation.
//
// `ctest -L sim` runs this suite plus the runner → trace_check fixtures.

#include <gtest/gtest.h>

#include <sstream>
#include <string>
#include <tuple>
#include <vector>

#include "driver/runner.h"
#include "obs/replay.h"
#include "obs/trace.h"
#include "sim/net_config.h"
#include "stream/worldcup.h"

namespace fgm {
namespace {

struct SimRunOutput {
  RunResult result;
  std::vector<std::string> trace_lines;
};

SimRunOutput RunOnce(ProtocolKind protocol, const sim::NetSimConfig& net,
                     bool strict_wire, int64_t updates = 20000) {
  RunConfig config;
  config.protocol = protocol;
  config.query = QueryKind::kSelfJoin;
  config.sites = 5;
  config.depth = 5;
  config.width = 60;
  config.check_every = 1000;
  config.strict_wire = strict_wire;
  config.net = net;
  MemoryTraceSink sink;
  config.trace = &sink;

  WorldCupConfig wc;
  wc.sites = config.sites;
  wc.total_updates = updates;
  const std::vector<StreamRecord> trace = GenerateWorldCupTrace(wc);

  SimRunOutput out;
  out.result = Run(config, trace);
  out.trace_lines.reserve(sink.events_log().size());
  for (const TraceEvent& e : sink.events_log()) {
    out.trace_lines.push_back(JsonlTraceSink::EventJson(e));
  }
  return out;
}

/// Re-runs the replay checker over the in-memory trace.
ReplayReport Recheck(const SimRunOutput& out) {
  std::ostringstream joined;
  for (const std::string& line : out.trace_lines) joined << line << "\n";
  std::istringstream in(joined.str());
  return CheckTrace(in);
}

/// True when some round started with only 4 of the 5 sites.
bool HasReducedRound(const SimRunOutput& out) {
  for (const std::string& line : out.trace_lines) {
    if (line.find("\"ev\":\"RoundStart\"") != std::string::npos &&
        line.find("\"k\":4") != std::string::npos) {
      return true;
    }
  }
  return false;
}

// ---------------------------------------------------------------------
// Null-mode parity.

class NullModeParity : public ::testing::TestWithParam<ProtocolKind> {};

TEST_P(NullModeParity, BitIdenticalToSynchronousStrictWire) {
  const ProtocolKind protocol = GetParam();
  const SimRunOutput sync = RunOnce(protocol, sim::NetSimConfig{},
                                    /*strict_wire=*/true);
  ASSERT_FALSE(sync.result.net_enabled);

  sim::NetSimConfig net;
  net.latency = "0";  // simulator on, null mode
  const SimRunOutput null = RunOnce(protocol, net, /*strict_wire=*/false);
  ASSERT_TRUE(null.result.net_enabled);

  const TrafficStats& a = sync.result.traffic;
  const TrafficStats& b = null.result.traffic;
  EXPECT_EQ(a.total_words(), b.total_words());
  EXPECT_EQ(a.upstream_words, b.upstream_words);
  EXPECT_EQ(a.downstream_words, b.downstream_words);
  EXPECT_EQ(a.upstream_messages, b.upstream_messages);
  EXPECT_EQ(a.downstream_messages, b.downstream_messages);
  for (size_t i = 0; i < a.words_by_kind.size(); ++i) {
    EXPECT_EQ(a.words_by_kind[i], b.words_by_kind[i]) << "msg kind " << i;
  }
  EXPECT_EQ(sync.result.rounds, null.result.rounds);
  EXPECT_EQ(sync.result.subrounds, null.result.subrounds);
  EXPECT_EQ(sync.result.rebalances, null.result.rebalances);
  EXPECT_EQ(sync.result.events, null.result.events);
  // Bit-exact floating-point agreement, not approximate.
  EXPECT_EQ(sync.result.max_violation, null.result.max_violation);
  EXPECT_EQ(sync.result.final_estimate, null.result.final_estimate);

  // Null mode delivers instantly: nothing dropped or retransmitted, and
  // no net trace events (the traces stay identical). A counter datagram
  // is still queued for one drain cycle, so at most one word is ever in
  // flight.
  EXPECT_EQ(null.result.net.dropped_msgs, 0);
  EXPECT_EQ(null.result.net.retransmitted_msgs, 0);
  EXPECT_LE(null.result.net.max_in_flight_words, 1);

  ASSERT_EQ(sync.trace_lines.size(), null.trace_lines.size());
  for (size_t i = 0; i < sync.trace_lines.size(); ++i) {
    ASSERT_EQ(sync.trace_lines[i], null.trace_lines[i])
        << "trace line " << i;
  }
}

std::string ProtocolParamName(
    const ::testing::TestParamInfo<ProtocolKind>& info) {
  std::string name = ProtocolKindName(info.param);
  for (char& c : name) {
    if (c == '/' || c == '-') c = '_';
  }
  return name;
}

INSTANTIATE_TEST_SUITE_P(Protocols, NullModeParity,
                         ::testing::Values(ProtocolKind::kFgm,
                                           ProtocolKind::kFgmOpt,
                                           ProtocolKind::kGm,
                                           ProtocolKind::kCentral),
                         ProtocolParamName);

// ---------------------------------------------------------------------
// Chaos grid: loss × latency, no faults.

using ChaosParam = std::tuple<double, const char*>;

class ChaosGrid : public ::testing::TestWithParam<ChaosParam> {};

TEST_P(ChaosGrid, CompletesWithZeroMissesAndCertifiedTrace) {
  const auto [drop, latency] = GetParam();
  sim::NetSimConfig net;
  net.latency = latency;
  net.drop = drop;
  const SimRunOutput out = RunOnce(ProtocolKind::kFgm, net,
                                   /*strict_wire=*/false);
  EXPECT_EQ(out.result.events, 20000);
  EXPECT_GT(out.result.rounds, 0);
  EXPECT_GT(out.result.checks, 0);
  // Zero threshold-violation misses at every certified instant.
  EXPECT_EQ(out.result.max_violation, 0.0);
  // The configured loss actually bit.
  EXPECT_GT(out.result.net.dropped_msgs, 0);
  EXPECT_GT(out.result.net.retransmitted_msgs, 0);

  const ReplayReport report = Recheck(out);
  EXPECT_TRUE(report.ok()) << report.Summary();
  EXPECT_EQ(report.drops, out.result.net.dropped_msgs);
  EXPECT_EQ(report.deliveries, out.result.net.delivered_msgs);
}

std::string ChaosParamName(const ::testing::TestParamInfo<ChaosParam>& info) {
  std::string name = "drop" + std::to_string(
      static_cast<int>(std::get<0>(info.param) * 100));
  name += "_";
  for (const char* p = std::get<1>(info.param); *p != '\0'; ++p) {
    name += (*p == ':' || *p == '-') ? '_' : *p;
  }
  return name;
}

INSTANTIATE_TEST_SUITE_P(
    LossLatency, ChaosGrid,
    ::testing::Combine(::testing::Values(0.05, 0.2, 0.5),
                       ::testing::Values("fixed:4", "uniform:1-16", "exp:8")),
    ChaosParamName);

// ---------------------------------------------------------------------
// Fault plans: crash/rejoin and outage windows.

TEST(FaultPlans, CrashRejoinWithinDeadlineResyncsTheSite) {
  sim::NetSimConfig net;
  net.latency = "uniform:1-16";
  net.drop = 0.1;
  // Down for 2000 ticks < sim::kDeadSiteTicks (4096): the site stays a round
  // member and rejoins through the kResync handshake.
  net.fault_plan = "crash:site=2,at=20000,rejoin=22000";
  const SimRunOutput out = RunOnce(ProtocolKind::kFgm, net,
                                   /*strict_wire=*/false);
  EXPECT_EQ(out.result.max_violation, 0.0);
  EXPECT_EQ(out.result.net.site_downs, 1);
  EXPECT_GE(out.result.net.resyncs, 1);

  const ReplayReport report = Recheck(out);
  EXPECT_TRUE(report.ok()) << report.Summary();
  EXPECT_GE(report.resyncs, 1);

  // The rejoin's SiteResync announces the words of the resync message
  // that ships them; every attempt of that message must restate them.
  SimRunOutput edited = out;
  size_t i = 0;
  while (i < edited.trace_lines.size() &&
         edited.trace_lines[i].find("\"reason\":\"rejoin\"") ==
             std::string::npos) {
    ++i;
  }
  ASSERT_LT(i, edited.trace_lines.size()) << "no rejoin SiteResync";
  TraceEvent e;
  std::string error;
  ASSERT_TRUE(ParseTraceEventJson(edited.trace_lines[i], &e, &error)) << error;
  ASSERT_EQ(e.kind, TraceEventKind::kSiteResync);
  ++e.words;
  edited.trace_lines[i] = JsonlTraceSink::EventJson(e);
  EXPECT_FALSE(Recheck(edited).ok());
}

TEST(FaultPlans, CrashPastDeadlineDegradesToReducedKAndRecovers) {
  sim::NetSimConfig net;
  net.latency = "uniform:1-16";
  net.drop = 0.1;
  // Down for 10000 ticks > sim::kDeadSiteTicks: the coordinator ends the round
  // without the site (reduced k) and reconfigures back at rejoin.
  net.fault_plan = "crash:site=2,at=20000,rejoin=30000";
  const SimRunOutput out = RunOnce(ProtocolKind::kFgm, net,
                                   /*strict_wire=*/false);
  EXPECT_EQ(out.result.max_violation, 0.0);
  EXPECT_EQ(out.result.net.site_downs, 1);
  EXPECT_GE(out.result.net.resyncs, 1);

  const ReplayReport report = Recheck(out);
  EXPECT_TRUE(report.ok()) << report.Summary();

  // The trace must contain a reduced-k RoundStart while the site is out.
  EXPECT_TRUE(HasReducedRound(out));
}

TEST(FaultPlans, OptimizerReducedRoundPlansEveryChild) {
  sim::NetSimConfig net;
  net.latency = "uniform:1-16";
  net.drop = 0.1;
  net.fault_plan = "crash:site=2,at=20000,rejoin=30000";
  const SimRunOutput out = RunOnce(ProtocolKind::kFgmOpt, net,
                                   /*strict_wire=*/false);
  EXPECT_EQ(out.result.max_violation, 0.0);
  ASSERT_TRUE(HasReducedRound(out));

  // A reduced round's PlanChosen still names all 5 children.
  const ReplayReport report = Recheck(out);
  EXPECT_TRUE(report.ok()) << report.Summary();
  EXPECT_EQ(report.plans, report.rounds);
}

TEST(FaultPlans, OutageWindowAndMultiSitePlan) {
  sim::NetSimConfig net;
  net.latency = "exp:8";
  net.drop = 0.05;
  net.fault_plan =
      "outage:site=1,from=15000,to=16000;crash:site=3,at=40000,rejoin=42000";
  const SimRunOutput out = RunOnce(ProtocolKind::kFgm, net,
                                   /*strict_wire=*/false);
  EXPECT_EQ(out.result.max_violation, 0.0);
  EXPECT_EQ(out.result.net.site_downs, 2);

  const ReplayReport report = Recheck(out);
  EXPECT_TRUE(report.ok()) << report.Summary();
}

TEST(FaultPlans, OptimizerProtocolSurvivesChaos) {
  sim::NetSimConfig net;
  net.latency = "uniform:1-16";
  net.drop = 0.2;
  net.fault_plan = "crash:site=0,at=25000,rejoin=27000";
  const SimRunOutput out = RunOnce(ProtocolKind::kFgmOpt, net,
                                   /*strict_wire=*/false);
  EXPECT_EQ(out.result.max_violation, 0.0);
  EXPECT_GE(out.result.net.site_downs, 1);

  const ReplayReport report = Recheck(out);
  EXPECT_TRUE(report.ok()) << report.Summary();
}

// ---------------------------------------------------------------------
// Determinism.

TEST(SimDeterminism, SameSeedSameRun) {
  sim::NetSimConfig net;
  net.latency = "uniform:1-16";
  net.drop = 0.2;
  net.fault_plan = "crash:site=2,at=20000,rejoin=26000";
  const SimRunOutput a = RunOnce(ProtocolKind::kFgm, net,
                                 /*strict_wire=*/false);
  const SimRunOutput b = RunOnce(ProtocolKind::kFgm, net,
                                 /*strict_wire=*/false);
  EXPECT_EQ(a.result.traffic.total_words(), b.result.traffic.total_words());
  EXPECT_EQ(a.result.net.final_tick, b.result.net.final_tick);
  ASSERT_EQ(a.trace_lines.size(), b.trace_lines.size());
  for (size_t i = 0; i < a.trace_lines.size(); ++i) {
    ASSERT_EQ(a.trace_lines[i], b.trace_lines[i]) << "trace line " << i;
  }
}

TEST(SimDeterminism, DifferentSeedDifferentSchedule) {
  sim::NetSimConfig net;
  net.latency = "uniform:1-16";
  net.drop = 0.2;
  const SimRunOutput a = RunOnce(ProtocolKind::kFgm, net,
                                 /*strict_wire=*/false);
  net.seed = 0xfeedbeef;
  const SimRunOutput b = RunOnce(ProtocolKind::kFgm, net,
                                 /*strict_wire=*/false);
  EXPECT_NE(a.result.net.final_tick, b.result.net.final_tick);
}

}  // namespace
}  // namespace fgm
