// Causal span layer (obs/span.h): sink mechanics, Chrome Trace Event
// export/parse round-trip, the CheckSpans invariants, the critical-path
// time split, and end-to-end span emission — FGM and FGM/O on the
// synchronous link and in the simulator's null mode, which record only
// scopes, and the chaos grid (loss × latency × crash), where every span
// must still close and the per-direction span word sums must re-add to
// the run's traffic totals.

#include <cstdint>
#include <map>
#include <string>
#include <tuple>
#include <vector>

#include <gtest/gtest.h>

#include "driver/runner.h"
#include "obs/span.h"
#include "stream/worldcup.h"

namespace fgm {
namespace {

// ---------------------------------------------------------------------
// Sink mechanics.

TEST(SpanSink, AutoParentFollowsTheOpenStack) {
  SpanSink sink;
  const int64_t run = sink.Begin(SpanKind::kRun);
  const int64_t round = sink.Begin(SpanKind::kRound, -1, 1);
  const int64_t sub = sink.Begin(SpanKind::kSubround, -1, 1, 1);
  sink.End(sub);
  sink.End(round);
  sink.End(run);
  const std::vector<Span> spans = sink.Snapshot();
  ASSERT_EQ(spans.size(), 3u);
  EXPECT_EQ(spans[0].parent, 0) << "first span is the root";
  EXPECT_EQ(spans[1].parent, run);
  EXPECT_EQ(spans[2].parent, round);
  for (const Span& s : spans) EXPECT_GE(s.end, s.begin);
  EXPECT_EQ(sink.open_spans(), 0);
}

TEST(SpanSink, EndToleratesOutOfOrderCloses) {
  SpanSink sink;
  const int64_t run = sink.Begin(SpanKind::kRun);
  const int64_t round = sink.Begin(SpanKind::kRound, -1, 1);
  const int64_t sub = sink.Begin(SpanKind::kSubround, -1, 1, 1);
  // A resync can force-close the round from inside the subround scope.
  sink.End(round, "forced");
  EXPECT_EQ(sink.open_spans(), 2);
  sink.End(sub);
  sink.End(run);
  EXPECT_EQ(sink.open_spans(), 0);
  EXPECT_EQ(sink.Snapshot()[1].reason, std::string("forced"));
}

TEST(SpanSink, CloseAllClosesEverythingInnermostFirst) {
  SpanSink sink;
  sink.Begin(SpanKind::kRun);
  sink.Begin(SpanKind::kRound, -1, 1);
  sink.Begin(SpanKind::kRpc, 2);
  sink.CloseAll("run-end");
  ASSERT_EQ(sink.open_spans(), 0);
  for (const Span& s : sink.Snapshot()) {
    EXPECT_GE(s.end, s.begin);
    EXPECT_EQ(s.reason, std::string("run-end"));
  }
}

TEST(SpanSink, EndWithStatsRecordsWordsAndAttempts) {
  SpanSink sink;
  sink.Begin(SpanKind::kRun);
  const int64_t rpc = sink.Begin(SpanKind::kRpc, 3);
  sink.EndWithStats(rpc, nullptr, /*words=*/17, /*count=*/2);
  const Span s = sink.Snapshot()[1];
  EXPECT_EQ(s.words, 17);
  EXPECT_EQ(s.count, 2);
  sink.CloseAll(nullptr);
}

TEST(SpanSink, TickClockRebasesOpenSpans) {
  SpanSink sink;
  sink.Begin(SpanKind::kRun);
  int64_t now = 100;
  sink.UseTickClock(&now);
  now = 250;
  const int64_t rpc = sink.Begin(SpanKind::kRpc, 0);
  now = 300;
  sink.End(rpc);
  sink.CloseAll(nullptr);
  const std::vector<Span> spans = sink.Snapshot();
  EXPECT_EQ(spans[1].begin, 250);
  EXPECT_EQ(spans[1].end, 300);
  EXPECT_LE(spans[0].begin, spans[1].begin) << "open span rebased";
  EXPECT_GE(spans[0].end, spans[1].end);
}

// ---------------------------------------------------------------------
// Export / parse / check.

TEST(SpanExport, ChromeTraceRoundTripsThroughParser) {
  SpanSink sink;
  sink.Begin(SpanKind::kRun);
  int64_t now = 10;
  sink.UseTickClock(&now);
  const int64_t round = sink.Begin(SpanKind::kRound, -1, 1);
  Span msg;
  msg.kind = SpanKind::kMsg;
  msg.site = 2;
  msg.round = 1;
  msg.begin = now;
  msg.words = 9;
  msg.count = 1;
  msg.dir = +1;
  msg.label = "quantum";
  sink.EmitComplete(msg);
  sink.End(round);
  sink.CloseAll(nullptr);

  std::vector<ParsedSpan> parsed;
  std::string error;
  ASSERT_TRUE(ParseSpanJson(sink.ChromeTraceJson(), &parsed, &error)) << error;
  ASSERT_EQ(parsed.size(), 3u);
  EXPECT_EQ(parsed[0].kind, "run");
  EXPECT_EQ(parsed[1].kind, "round");
  EXPECT_EQ(parsed[2].kind, "msg");
  EXPECT_EQ(parsed[2].site, 2);
  EXPECT_EQ(parsed[2].words, 9);
  EXPECT_EQ(parsed[2].dir, 1);
  EXPECT_EQ(parsed[2].label, "quantum");
  EXPECT_EQ(parsed[2].parent, parsed[1].id);
  EXPECT_TRUE(parsed[2].closed);

  SpanCheckStats stats;
  const std::vector<std::string> issues =
      CheckSpans(parsed, /*expect_up=*/9, /*expect_down=*/0, &stats);
  EXPECT_TRUE(issues.empty()) << issues.front();
  EXPECT_EQ(stats.spans, 3);
  EXPECT_EQ(stats.msg_up_words, 9);
}

// Every entry must carry the fields a Chrome Trace Event viewer reads;
// the parser rejects an entry that lacks any of them.
TEST(SpanExport, ParserRejectsAnEntryWithoutAViewerField) {
  SpanSink sink;
  sink.Begin(SpanKind::kRun);
  sink.CloseAll(nullptr);
  const std::string text = sink.ChromeTraceJson();
  std::vector<ParsedSpan> parsed;
  std::string error;
  ASSERT_TRUE(ParseSpanJson(text, &parsed, &error)) << error;
  for (const std::string key : {"name", "ph", "ts", "pid", "tid"}) {
    // Renaming the key keeps the document valid JSON without it.
    std::string cut = text;
    const size_t at = cut.find("\"" + key + "\":");
    ASSERT_NE(at, std::string::npos) << key;
    cut.insert(at + 1, "no_");
    EXPECT_FALSE(ParseSpanJson(cut, &parsed, &error)) << key;
  }
}

// Older span files carry an always-0 "queue" arg and, on tree runs, the
// "tier" of a synchronous link's message span; they still parse.
TEST(SpanExport, ParserAcceptsRetiredArgs) {
  SpanSink sink;
  sink.Begin(SpanKind::kRun);
  sink.CloseAll(nullptr);
  std::string text = sink.ChromeTraceJson();
  EXPECT_EQ(text.find("\"queue\""), std::string::npos);
  EXPECT_EQ(text.find("\"tier\""), std::string::npos);
  const size_t at = text.find("\"transit\":");
  ASSERT_NE(at, std::string::npos);
  text.insert(at, "\"queue\":0,\"tier\":1,");
  std::vector<ParsedSpan> parsed;
  std::string error;
  ASSERT_TRUE(ParseSpanJson(text, &parsed, &error)) << error;
  ASSERT_EQ(parsed.size(), 1u);
  EXPECT_EQ(parsed[0].kind, "run");
  EXPECT_TRUE(parsed[0].closed);
}

TEST(SpanCheck, FlagsOpenSpansContainmentAndWordMismatch) {
  SpanSink sink;
  sink.Begin(SpanKind::kRun);
  sink.Begin(SpanKind::kRpc, 1);  // leaked: never closed
  std::vector<ParsedSpan> parsed;
  std::string error;
  ASSERT_TRUE(ParseSpanJson(sink.ChromeTraceJson(), &parsed, &error)) << error;
  SpanCheckStats stats;
  EXPECT_FALSE(CheckSpans(parsed, -1, -1, &stats).empty());
  EXPECT_EQ(stats.open, 2);

  // Child interval escaping its (closed) parent.
  SpanSink sink2;
  const int64_t run = sink2.Begin(SpanKind::kRun);
  sink2.CloseAll(nullptr);
  Span stray;
  stray.kind = SpanKind::kMsg;
  stray.parent = run;
  stray.site = 0;
  stray.dir = -1;
  stray.begin = sink2.Snapshot()[0].end + 1000;
  stray.end = stray.begin + 1;
  stray.words = 3;
  sink2.EmitComplete(stray);
  ASSERT_TRUE(ParseSpanJson(sink2.ChromeTraceJson(), &parsed, &error))
      << error;
  EXPECT_FALSE(CheckSpans(parsed, -1, -1, nullptr).empty())
      << "child outside parent must be flagged";

  // Word-sum mismatch against the expected totals.
  EXPECT_FALSE(CheckSpans(parsed, /*expect_up=*/0, /*expect_down=*/999,
                          nullptr)
                   .empty());
}

TEST(CriticalPath, SplitsRunRoundAndNetworkTime) {
  SpanSink sink;
  sink.Begin(SpanKind::kRun);
  int64_t now = 0;
  sink.UseTickClock(&now);
  const int64_t round = sink.Begin(SpanKind::kRound, -1, 1);
  const int64_t sub = sink.Begin(SpanKind::kSubround, -1, 1, 1);
  for (int site = 0; site < 3; ++site) {
    Span rpc;
    rpc.kind = SpanKind::kRpc;
    rpc.parent = sub;
    rpc.site = site;
    rpc.begin = 0;
    rpc.end = site == 1 ? 40 : 10;  // site 1 took two retransmits
    rpc.count = site == 1 ? 3 : 1;
    sink.EmitComplete(rpc);
  }
  Span datagram;
  datagram.kind = SpanKind::kDatagram;
  datagram.site = 2;
  datagram.dir = -1;
  datagram.begin = 5;
  datagram.end = 30;  // 7 ticks on the wire, 18 waiting for the drain
  datagram.transit = 7;
  datagram.drain = 18;
  sink.EmitComplete(datagram);
  now = 40;
  sink.End(sub);
  sink.End(round);
  now = 50;
  sink.CloseAll(nullptr);

  std::vector<ParsedSpan> parsed;
  std::string error;
  ASSERT_TRUE(ParseSpanJson(sink.ChromeTraceJson(), &parsed, &error)) << error;
  const CriticalPathSummary cp = SummarizeCriticalPath(parsed);
  EXPECT_EQ(cp.run_time, 50);
  EXPECT_EQ(cp.round_time, 40);
  EXPECT_EQ(cp.network_time, 60 + 7)
      << "rpc durations plus datagram transit, not its drain wait";
  EXPECT_EQ(cp.retransmits, 2);
}

// ---------------------------------------------------------------------
// End-to-end: runner-level span emission.

struct SpanRun {
  RunResult result;
  std::vector<ParsedSpan> spans;
  SpanCheckStats stats;
  std::vector<std::string> issues;
};

// Only a timed simulated network records message spans, so the span word
// target is the run's traffic on a timed run and 0 otherwise.
SpanRun RunWithSpans(ProtocolKind protocol, const sim::NetSimConfig& net,
                     bool timed, int64_t updates = 20000) {
  RunConfig config;
  config.protocol = protocol;
  config.query = QueryKind::kSelfJoin;
  config.sites = 5;
  config.depth = 5;
  config.width = 60;
  config.net = net;
  SpanSink sink;
  config.spans = &sink;

  WorldCupConfig wc;
  wc.sites = config.sites;
  wc.total_updates = updates;
  const std::vector<StreamRecord> trace = GenerateWorldCupTrace(wc);

  SpanRun out;
  out.result = Run(config, trace);
  std::string error;
  EXPECT_TRUE(ParseSpanJson(sink.ChromeTraceJson(), &out.spans, &error))
      << error;
  out.issues = CheckSpans(out.spans,
                          timed ? out.result.traffic.upstream_words : 0,
                          timed ? out.result.traffic.downstream_words : 0,
                          &out.stats);
  return out;
}

// A synchronous run records each message in the trace alone, so its span
// file holds only the scopes. The simulator's null mode takes no span
// sink, so its file is the synchronous one, span for span.
TEST(SpanEndToEnd, SynchronousAndNullModeRecordOnlyScopes) {
  const SpanRun sync =
      RunWithSpans(ProtocolKind::kFgm, sim::NetSimConfig(), false);
  EXPECT_TRUE(sync.issues.empty()) << sync.issues.front();
  EXPECT_EQ(sync.stats.open, 0);
  std::map<std::string, int64_t> counts;
  for (const ParsedSpan& s : sync.spans) ++counts[s.kind];
  EXPECT_EQ(counts.size(), 3u) << "run, round and subround only";
  EXPECT_EQ(counts.at("run"), 1);
  EXPECT_EQ(counts.at("round"), sync.result.rounds);
  EXPECT_EQ(counts.at("subround"), sync.result.subrounds);
  EXPECT_GT(SummarizeCriticalPath(sync.spans).run_time, 0);

  sim::NetSimConfig null_net;
  null_net.latency = "0";
  const SpanRun null = RunWithSpans(ProtocolKind::kFgm, null_net, false);
  EXPECT_TRUE(null.issues.empty()) << null.issues.front();
  ASSERT_EQ(null.spans.size(), sync.spans.size());
  for (size_t i = 0; i < sync.spans.size(); ++i) {
    EXPECT_EQ(null.spans[i].kind, sync.spans[i].kind) << i;
    EXPECT_EQ(null.spans[i].parent, sync.spans[i].parent) << i;
    EXPECT_EQ(null.spans[i].round, sync.spans[i].round) << i;
    EXPECT_EQ(null.spans[i].subround, sync.spans[i].subround) << i;
  }
}

TEST(SpanEndToEnd, OptimizerProtocolConserves) {
  const SpanRun out =
      RunWithSpans(ProtocolKind::kFgmOpt, sim::NetSimConfig(), false);
  EXPECT_TRUE(out.issues.empty()) << out.issues.front();
  EXPECT_EQ(out.stats.open, 0);
}

// Chaos grid: every span still closes under loss, latency and a crash —
// dropped attempts and datagrams get their own spans, and the word sums
// still re-add to the (drop-inclusive) charged traffic.
using SpanChaosParam = std::tuple<double, const char*>;

class SpanChaosGrid : public ::testing::TestWithParam<SpanChaosParam> {};

TEST_P(SpanChaosGrid, EverySpanClosesAndWordsConserve) {
  const auto [drop, latency] = GetParam();
  sim::NetSimConfig net;
  net.latency = latency;
  net.drop = drop;
  net.fault_plan = "crash:site=2,at=10000,rejoin=14000";
  const SpanRun out = RunWithSpans(ProtocolKind::kFgm, net, true);
  EXPECT_TRUE(out.issues.empty()) << out.issues.front();
  EXPECT_EQ(out.stats.open, 0);
  EXPECT_EQ(out.result.net.site_downs, 1);
  bool saw_resync = false, saw_rpc = false;
  for (const ParsedSpan& s : out.spans) {
    if (s.kind == "resync") saw_resync = true;
    if (s.kind == "rpc") saw_rpc = true;
  }
  EXPECT_TRUE(saw_rpc);
  if (out.result.net.resyncs > 0) {
    EXPECT_TRUE(saw_resync);
  }
  if (drop > 0.0) {
    const CriticalPathSummary cp = SummarizeCriticalPath(out.spans);
    EXPECT_EQ(cp.retransmits, out.result.net.retransmitted_msgs);
  }
}

INSTANTIATE_TEST_SUITE_P(
    LossLatency, SpanChaosGrid,
    ::testing::Combine(::testing::Values(0.0, 0.2),
                       ::testing::Values("uniform:1-16", "exp:8")),
    [](const ::testing::TestParamInfo<SpanChaosParam>& info) {
      std::string name = "drop" + std::to_string(static_cast<int>(
                                      std::get<0>(info.param) * 100));
      name += "_";
      for (const char* p = std::get<1>(info.param); *p != '\0'; ++p) {
        name += (*p == ':' || *p == '-') ? '_' : *p;
      }
      return name;
    });

// Spans must not perturb the run: same protocol, same stream, with and
// without a sink — traffic, rounds and subrounds are bit-identical.
TEST(SpanEndToEnd, SpansOffAndOnProduceIdenticalTraffic) {
  RunConfig config;
  config.protocol = ProtocolKind::kFgm;
  config.query = QueryKind::kSelfJoin;
  config.sites = 5;
  config.depth = 5;
  config.width = 60;
  WorldCupConfig wc;
  wc.sites = config.sites;
  wc.total_updates = 20000;
  const std::vector<StreamRecord> trace = GenerateWorldCupTrace(wc);

  const RunResult off = fgm::Run(config, trace);
  SpanSink sink;
  config.spans = &sink;
  const RunResult on = fgm::Run(config, trace);
  EXPECT_EQ(on.traffic.total_words(), off.traffic.total_words());
  EXPECT_EQ(on.rounds, off.rounds);
  EXPECT_EQ(on.subrounds, off.subrounds);
  EXPECT_EQ(on.traffic.upstream_messages, off.traffic.upstream_messages);
  EXPECT_EQ(on.traffic.downstream_messages, off.traffic.downstream_messages);
}

}  // namespace
}  // namespace fgm
