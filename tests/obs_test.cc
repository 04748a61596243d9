// Observability layer: trace-sink event ordering under a real multi-round
// FGM run, the runner's metrics.json summary, and the JSONL event schema
// (golden lines + parse round-trip).

#include <cmath>
#include <cstdint>
#include <fstream>
#include <limits>
#include <map>
#include <memory>
#include <sstream>
#include <string>

#include <gtest/gtest.h>

#include "core/fgm_protocol.h"
#include "driver/runner.h"
#include "net/transport.h"
#include "obs/json.h"
#include "obs/replay.h"
#include "obs/timeseries.h"
#include "obs/trace.h"
#include "query/query.h"
#include "sketch/fast_agms.h"
#include "stream/record.h"
#include "stream/worldcup.h"
#include "util/rng.h"

namespace fgm {
namespace {

TEST(TraceSink, FgmRunEventOrdering) {
  auto proj = std::make_shared<const AgmsProjection>(5, 100, 42);
  SelfJoinQuery query(proj, 0.1);
  MemoryTraceSink sink;
  FgmConfig config;
  config.trace = &sink;
  const int k = 4;
  FgmProtocol protocol(&query, k, config);
  Xoshiro256ss rng(11);
  StreamRecord rec;
  for (int i = 0; i < 40000; ++i) {
    rec.site = static_cast<int32_t>(rng.NextBounded(static_cast<uint64_t>(k)));
    rec.cid = rng.NextBounded(5000);
    protocol.ProcessRecord(rec);
  }
  ASSERT_GT(protocol.rounds(), 1) << "test needs a multi-round run";

  const auto& events = sink.events_log();
  ASSERT_FALSE(events.empty());
  // The sink stamps dense sequence numbers starting at 0.
  for (size_t i = 0; i < events.size(); ++i) {
    ASSERT_EQ(events[i].seq, static_cast<int64_t>(i));
  }
  // The protocol opens round 1 at construction, before anything else.
  EXPECT_EQ(events[0].kind, TraceEventKind::kRoundStart);
  EXPECT_EQ(events[0].round, 1);

  int64_t round_starts = 0, subround_starts = 0, rebalances = 0;
  int64_t current_round = 0, current_subround = 0;
  for (const TraceEvent& e : events) {
    switch (e.kind) {
      case TraceEventKind::kRoundStart:
        ++round_starts;
        EXPECT_EQ(e.round, round_starts) << "rounds numbered consecutively";
        EXPECT_EQ(e.k, k);
        EXPECT_LT(e.value, 0.0) << "phi(0) < 0";
        current_round = e.round;
        current_subround = 0;
        break;
      case TraceEventKind::kSubroundStart:
        ++subround_starts;
        EXPECT_EQ(e.round, current_round) << "subround outside its round";
        EXPECT_EQ(e.subround, current_subround + 1);
        EXPECT_LT(e.psi, 0.0);
        EXPECT_GT(e.theta, 0.0);
        current_subround = e.subround;
        break;
      case TraceEventKind::kIncrementMsg:
        EXPECT_EQ(e.round, current_round);
        EXPECT_EQ(e.subround, current_subround);
        EXPECT_GE(e.site, 0);
        EXPECT_LT(e.site, k);
        EXPECT_GT(e.counter, 0);
        break;
      case TraceEventKind::kRebalance:
        ++rebalances;
        EXPECT_EQ(e.round, current_round);
        EXPECT_GT(e.lambda, 0.0);
        EXPECT_LE(e.lambda, 1.0);
        break;
      default:
        break;
    }
  }
  EXPECT_EQ(round_starts, protocol.rounds());
  EXPECT_EQ(subround_starts, protocol.subrounds());
  EXPECT_EQ(rebalances, protocol.rebalances());
  EXPECT_EQ(sink.events(), static_cast<int64_t>(events.size()));
}

// Golden JSONL lines: the schema is a contract with the offline checker
// and external tooling; a change here must be deliberate.
TEST(JsonlSchema, GoldenEventLines) {
  TraceEvent e;
  e.kind = TraceEventKind::kRoundStart;
  e.seq = 1;
  e.round = 2;
  e.k = 4;
  e.psi = -4.0;
  e.value = -1.0;
  e.eps = 0.0078125;
  EXPECT_EQ(JsonlTraceSink::EventJson(e),
            "{\"ev\":\"RoundStart\",\"seq\":1,\"round\":2,\"k\":4,"
            "\"psi\":-4,\"phi0\":-1,\"eps_psi\":0.0078125}");

  e = TraceEvent();
  e.kind = TraceEventKind::kSubroundStart;
  e.seq = 2;
  e.round = 2;
  e.subround = 1;
  e.psi = -4.0;
  e.theta = 0.5;
  EXPECT_EQ(JsonlTraceSink::EventJson(e),
            "{\"ev\":\"SubroundStart\",\"seq\":2,\"round\":2,"
            "\"subround\":1,\"psi\":-4,\"theta\":0.5}");

  e = TraceEvent();
  e.kind = TraceEventKind::kMsgSent;
  e.seq = 3;
  e.site = 0;
  e.label = "Quantum";
  e.dir = -1;
  e.words = 3;
  EXPECT_EQ(JsonlTraceSink::EventJson(e),
            "{\"ev\":\"MsgSent\",\"seq\":3,\"site\":0,\"msg\":\"Quantum\","
            "\"dir\":\"down\",\"words\":3}");

  e = TraceEvent();
  e.kind = TraceEventKind::kRunEnd;
  e.seq = 4;
  e.count = 10;
  e.up_words = 100;
  e.down_words = 50;
  e.up_msgs = 7;
  e.down_msgs = 6;
  EXPECT_EQ(JsonlTraceSink::EventJson(e),
            "{\"ev\":\"RunEnd\",\"seq\":4,\"events\":10,\"up_words\":100,"
            "\"down_words\":50,\"up_msgs\":7,\"down_msgs\":6}");
}

// JSON has no inf/nan literal; emitting them raw produces a document no
// parser accepts. The writer serializes every non-finite double as null,
// and the parsers on this side map null numeric fields back to NaN.
TEST(JsonWriter, NonFiniteDoublesSerializeAsNull) {
  const double inf = std::numeric_limits<double>::infinity();
  const double nan = std::nan("");
  EXPECT_EQ(JsonWriter::Number(inf), "null");
  EXPECT_EQ(JsonWriter::Number(-inf), "null");
  EXPECT_EQ(JsonWriter::Number(nan), "null");
  EXPECT_EQ(JsonWriter::Number(1.5), "1.5");

  JsonWriter w;
  w.BeginObject();
  w.Field("x", nan);
  w.EndObject();
  EXPECT_EQ(w.str(), "{\"x\":null}");

  // The parser reads the null back as NaN.
  std::string error;
  JsonNode node;
  ASSERT_TRUE(ParseJson("{\"x\":null}", &node, &error)) << error;
  const JsonNode* x = node.Find("x");
  ASSERT_NE(x, nullptr);
  EXPECT_TRUE(std::isnan(x->AsDouble()));
}

// A trace event carrying a non-finite double must still produce a line
// the replay parser accepts (the value comes back as NaN).
TEST(JsonlSchema, NonFiniteEventFieldRoundTripsAsNull) {
  TraceEvent e;
  e.kind = TraceEventKind::kPlanOutcome;
  e.round = 3;
  e.count = 10;
  e.words = 4;
  e.pred_gain = std::numeric_limits<double>::infinity();
  e.actual_gain = 6.0;
  const std::string line = JsonlTraceSink::EventJson(e);
  EXPECT_NE(line.find("\"pred_gain\":null"), std::string::npos) << line;

  TraceEvent parsed;
  std::string error;
  ASSERT_TRUE(ParseTraceEventJson(line, &parsed, &error)) << error;
  EXPECT_TRUE(std::isnan(parsed.pred_gain));
  EXPECT_EQ(parsed.actual_gain, 6.0);
}

TEST(JsonParse, NestedDocuments) {
  const std::string doc =
      "{\"run\":{\"words\":12,\"cost\":0.5},"
      "\"kinds\":[1,2,3],\"name\":\"fgm\",\"flag\":true,"
      "\"nested\":[{\"a\":[]},{}]}";
  JsonNode root;
  std::string error;
  ASSERT_TRUE(ParseJson(doc, &root, &error)) << error;
  ASSERT_EQ(root.type, JsonNode::Type::kObject);
  // Member order is preserved.
  ASSERT_EQ(root.members.size(), 5u);
  EXPECT_EQ(root.members[0].first, "run");
  EXPECT_EQ(root.members[4].first, "nested");

  const JsonNode* run = root.Find("run");
  ASSERT_NE(run, nullptr);
  EXPECT_EQ(run->Find("words")->AsInt(), 12);
  EXPECT_DOUBLE_EQ(run->Find("cost")->AsDouble(), 0.5);

  const JsonNode* kinds = root.Find("kinds");
  ASSERT_NE(kinds, nullptr);
  ASSERT_EQ(kinds->items.size(), 3u);
  EXPECT_EQ(kinds->items[2].AsInt(), 3);

  EXPECT_EQ(root.Find("name")->str, "fgm");
  EXPECT_TRUE(root.Find("flag")->boolean);
  EXPECT_EQ(root.Find("no_such_key"), nullptr);

  // Malformed documents and trailing garbage are rejected.
  EXPECT_FALSE(ParseJson("{\"a\":1} trailing", &root, &error));
  EXPECT_FALSE(ParseJson("{\"a\":", &root, &error));
  EXPECT_FALSE(ParseJson("[1,2,", &root, &error));
  EXPECT_FALSE(ParseJson("", &root, &error));
}

// A number token must parse in full: no prefix reading ("1-2" as 1), no
// empty reading ("-" as 0), no integer clamped to INT64_MAX and no double
// overflowing to infinity. Subnormals, which %.17g can print, still parse.
TEST(JsonParse, RejectsMalformedNumbers) {
  JsonNode node;
  std::string error;
  for (const char* token : {"1-2", "-", ".", "e", "+", "1e",
                            "99999999999999999999", "1e999", "-1e999"}) {
    EXPECT_FALSE(ParseJson(token, &node, &error)) << token;
    EXPECT_FALSE(ParseJson(std::string("{\"x\":") + token + "}", &node,
                           &error))
        << token;
  }
  ASSERT_TRUE(ParseJson("-9223372036854775808", &node, &error)) << error;
  EXPECT_EQ(node.AsInt(), std::numeric_limits<int64_t>::min());
  const double subnormal = std::numeric_limits<double>::denorm_min();
  ASSERT_TRUE(ParseJson(JsonWriter::Number(subnormal), &node, &error))
      << error;
  EXPECT_EQ(node.AsDouble(), subnormal);
  ASSERT_TRUE(ParseJson("2.5e-3", &node, &error)) << error;
  EXPECT_EQ(node.AsDouble(), 2.5e-3);
  // A non-integral number has no int reading (no out-of-range cast).
  ASSERT_TRUE(ParseJson("1e300", &node, &error)) << error;
  EXPECT_FALSE(node.is_int);
  EXPECT_EQ(node.AsInt(-1), -1);
}

TEST(TimeSeriesTest, RingBufferDropsOldestAndExportsJson) {
  TimeSeries series(4);
  for (int i = 0; i < 6; ++i) {
    RunSnapshot s;
    s.kind = i % 2 == 0 ? "round" : "interval";
    s.records = 100 * (i + 1);
    s.round = i + 1;
    s.round_words = 10 + i;
    s.words_by_kind[0] = 7;
    series.Record(s);
  }
  EXPECT_EQ(series.samples_taken(), 6);
  EXPECT_EQ(series.samples_dropped(), 2);
  const auto samples = series.Samples();
  ASSERT_EQ(samples.size(), 4u);
  EXPECT_EQ(samples.front().seq, 2) << "oldest two samples evicted";
  EXPECT_EQ(samples.back().records, 600);

  JsonWriter w;
  series.WriteJson(&w);
  JsonNode root;
  std::string error;
  ASSERT_TRUE(ParseJson(w.str(), &root, &error)) << error;
  ASSERT_NE(root.Find("version"), nullptr);
  EXPECT_EQ(root.Find("version")->AsInt(), kTimeSeriesSchemaVersion);
  EXPECT_EQ(root.Find("taken")->AsInt(), 6);
  EXPECT_EQ(root.Find("dropped")->AsInt(), 2);
  const JsonNode* out = root.Find("samples");
  ASSERT_NE(out, nullptr);
  ASSERT_EQ(out->items.size(), 4u);
  EXPECT_EQ(out->items[0].Find("seq")->AsInt(), 2);
  EXPECT_EQ(out->items[0].Find("kind")->str, "round");
  ASSERT_EQ(out->items[0].Find("words_by_kind")->items.size(),
            static_cast<size_t>(kSnapshotMsgKinds));
  EXPECT_EQ(out->items[0].Find("words_by_kind")->items[0].AsInt(), 7);
}

// FGM protocols feed the time series at round boundaries only; a short
// multi-round run must produce one "round" sample per completed round,
// with per-round word deltas summing to the cumulative count.
TEST(TimeSeriesTest, FgmRunProducesRoundSamples) {
  auto proj = std::make_shared<const AgmsProjection>(5, 100, 42);
  SelfJoinQuery query(proj, 0.1);
  TimeSeries series(1 << 14);
  FgmConfig config;
  config.timeseries = &series;
  const int k = 4;
  FgmProtocol protocol(&query, k, config);
  Xoshiro256ss rng(11);
  StreamRecord rec;
  for (int i = 0; i < 40000; ++i) {
    rec.site = static_cast<int32_t>(rng.NextBounded(static_cast<uint64_t>(k)));
    rec.cid = rng.NextBounded(5000);
    protocol.ProcessRecord(rec);
  }
  ASSERT_GT(protocol.rounds(), 1);
  EXPECT_EQ(series.samples_taken(), protocol.rounds() - 1)
      << "one sample per completed round";
  int64_t delta_sum = 0;
  int64_t prev_total = 0;
  for (const RunSnapshot& s : series.Samples()) {
    EXPECT_STREQ(s.kind, "round");
    // The boundary snapshot reads ψ after the final counter collection has
    // pushed it past the termination threshold, so it may be positive; it
    // must only be finite.
    EXPECT_TRUE(std::isfinite(s.psi));
    EXPECT_GE(s.total_words, prev_total) << "cumulative words are monotone";
    prev_total = s.total_words;
    delta_sum += s.round_words;
    int64_t kind_sum = 0;
    for (const int64_t v : s.round_words_by_kind) kind_sum += v;
    EXPECT_EQ(kind_sum, s.round_words) << "per-kind deltas cover the round";
    EXPECT_GE(s.site_updates_max, 0);
    EXPECT_GE(s.drift_norm_max, 0.0);
  }
  EXPECT_EQ(delta_sum, series.Samples().back().total_words)
      << "round deltas sum to the last cumulative total";
}

// A capacity smaller than the completed-round count forces the ring
// buffer to wrap mid-run: the retained window must be the LAST `capacity`
// round samples, contiguous and still monotone in cumulative words.
TEST(TimeSeriesTest, CapacitySmallerThanRoundCountKeepsTheTail) {
  auto proj = std::make_shared<const AgmsProjection>(5, 100, 42);
  SelfJoinQuery query(proj, 0.1);
  constexpr size_t kCapacity = 8;
  TimeSeries series(kCapacity);
  FgmConfig config;
  config.timeseries = &series;
  const int k = 4;
  FgmProtocol protocol(&query, k, config);
  Xoshiro256ss rng(11);
  StreamRecord rec;
  for (int i = 0; i < 40000; ++i) {
    rec.site = static_cast<int32_t>(rng.NextBounded(static_cast<uint64_t>(k)));
    rec.cid = rng.NextBounded(5000);
    protocol.ProcessRecord(rec);
  }
  ASSERT_GT(protocol.rounds(), static_cast<int64_t>(kCapacity))
      << "the run must complete more rounds than the ring holds";
  EXPECT_EQ(series.samples_taken(), protocol.rounds() - 1);
  EXPECT_EQ(series.samples_dropped(),
            series.samples_taken() - static_cast<int64_t>(kCapacity));
  const auto samples = series.Samples();
  ASSERT_EQ(samples.size(), kCapacity);
  int64_t prev_seq = samples.front().seq - 1;
  int64_t prev_total = -1;
  for (const RunSnapshot& s : samples) {
    EXPECT_EQ(s.seq, prev_seq + 1) << "retained window is contiguous";
    prev_seq = s.seq;
    EXPECT_GE(s.total_words, prev_total);
    prev_total = s.total_words;
  }
  EXPECT_EQ(samples.back().seq, series.samples_taken() - 1)
      << "the newest sample survives the wrap";
}

// Golden-file regression for the exported time-series document: a
// hand-built series must serialize byte-identically to the committed
// golden. A diff here means the schema changed — update the golden AND
// bump kTimeSeriesSchemaVersion.
TEST(TimeSeriesTest, JsonMatchesGoldenFile) {
  TimeSeries series(4);
  for (int i = 0; i < 3; ++i) {
    RunSnapshot s;
    s.kind = i % 2 == 0 ? "round" : "interval";
    s.records = 100 * (i + 1);
    s.round = i + 1;
    s.subrounds = 2;
    s.total_subrounds = 2 * (i + 1);
    s.psi = -1.5;
    s.theta = 0.25;
    s.lambda = 1.0;
    s.total_words = 40 * (i + 1);
    s.round_words = 40;
    s.words_by_kind[0] = 30;
    s.round_words_by_kind[0] = 30;
    series.Record(s);
  }
  JsonWriter w;
  series.WriteJson(&w);

  const std::string golden_path =
      std::string(FGM_TEST_GOLDEN_DIR) + "/timeseries_v1.json";
  std::ifstream in(golden_path);
  ASSERT_TRUE(in.good()) << "missing golden file " << golden_path;
  std::ostringstream want;
  want << in.rdbuf();
  EXPECT_EQ(w.str(), want.str())
      << "time-series schema drifted from " << golden_path
      << " — update the golden and bump kTimeSeriesSchemaVersion";
}

// Golden lines for the FGM/O plan-audit events (same contract discipline
// as GoldenEventLines above).
TEST(JsonlSchema, GoldenPlanAuditLines) {
  TraceEvent e;
  e.kind = TraceEventKind::kPlanChosen;
  e.seq = 5;
  e.round = 7;
  e.counter = 3;
  e.k = 4;
  e.pred_len = 2.5;
  e.pred_gain = 10.0;
  e.pred_rate = 4.0;
  EXPECT_EQ(JsonlTraceSink::EventJson(e),
            "{\"ev\":\"PlanChosen\",\"seq\":5,\"round\":7,\"full_sites\":3,"
            "\"k\":4,\"pred_len\":2.5,\"pred_gain\":10,\"pred_rate\":4}");

  e = TraceEvent();
  e.kind = TraceEventKind::kPlanSite;
  e.seq = 6;
  e.round = 7;
  e.site = 2;
  e.counter = 1;
  e.alpha = 0.25;
  e.beta = 0.5;
  e.gamma = 0.75;
  EXPECT_EQ(JsonlTraceSink::EventJson(e),
            "{\"ev\":\"PlanSite\",\"seq\":6,\"round\":7,\"site\":2,\"d\":1,"
            "\"alpha\":0.25,\"beta\":0.5,\"gamma\":0.75}");

  e = TraceEvent();
  e.kind = TraceEventKind::kPlanOutcome;
  e.seq = 8;
  e.round = 7;
  e.count = 100;
  e.words = 40;
  e.pred_gain = 55.0;
  e.actual_gain = 60.0;
  EXPECT_EQ(JsonlTraceSink::EventJson(e),
            "{\"ev\":\"PlanOutcome\",\"seq\":8,\"round\":7,\"updates\":100,"
            "\"words\":40,\"pred_gain\":55,\"actual_gain\":60}");
}

TEST(JsonlSchema, ParseRoundTripsBitExactly) {
  TraceEvent e;
  e.kind = TraceEventKind::kSubroundStart;
  e.seq = 9;
  e.round = 3;
  e.subround = 2;
  e.psi = -1.2345678901234567e-3;  // needs full %.17g round-trip
  e.theta = e.psi / -8.0;
  const std::string line = JsonlTraceSink::EventJson(e);

  TraceEvent parsed;
  std::string error;
  ASSERT_TRUE(ParseTraceEventJson(line, &parsed, &error)) << error;
  EXPECT_EQ(parsed.kind, TraceEventKind::kSubroundStart);
  EXPECT_EQ(parsed.seq, 9);
  EXPECT_EQ(parsed.round, 3);
  EXPECT_EQ(parsed.subround, 2);
  EXPECT_EQ(parsed.psi, e.psi) << "double must round-trip bit-exactly";
  EXPECT_EQ(parsed.theta, e.theta);

  EXPECT_FALSE(ParseTraceEventJson("{\"ev\":\"NoSuchEvent\",\"seq\":0}",
                                   &parsed, &error));
  EXPECT_FALSE(ParseTraceEventJson("not json", &parsed, &error));
  // A trace line is one flat object with each key once.
  EXPECT_FALSE(ParseTraceEventJson("[" + line + "]", &parsed, &error));
  EXPECT_FALSE(ParseTraceEventJson(
      "{\"ev\":\"SubroundStart\",\"seq\":0,\"round\":{\"n\":3}}", &parsed,
      &error));
  EXPECT_FALSE(ParseTraceEventJson(
      "{\"ev\":\"SubroundStart\",\"seq\":0,\"round\":3,\"round\":4}",
      &parsed, &error));
}

/// A TraceEvent with every member set to a value no default has, and the
/// kind's `label`/`reason` set to labels its schema accepts.
TraceEvent FullyPopulated(TraceEventKind kind, const char* label,
                          const char* reason) {
  TraceEvent e;
  e.kind = kind;
  e.seq = 41;
  e.site = 3;
  e.round = 7;
  e.subround = 2;
  e.psi = -1.2345678901234567e-3;
  e.theta = 6.5e-4;
  e.lambda = 0.625;
  e.value = -0.1;  // ThresholdCross "psi-exhausted" and RoundStart phi0
  e.eps = 0.01;
  e.k = 5;
  e.counter = 6;
  e.words = 300;
  e.count = 18;
  e.dir = 1;
  e.up_words = 1000;
  e.down_words = 200;
  e.up_msgs = 40;
  e.down_msgs = 30;
  e.alpha = 0.25;
  e.beta = 0.5;
  e.gamma = 0.75;
  e.pred_len = 2.5;
  e.pred_gain = std::numeric_limits<double>::infinity();  // writes null
  e.pred_rate = 4.0;
  e.actual_gain = -282.0;
  e.t = 2041;
  e.label = label;
  e.reason = reason;
  return e;
}

// Every kind survives EventJson → ParseTraceEventJson → EventJson with the
// same line, with optional fields both present and absent and with a tier
// stamp. The parsed event equals the original on every member the line
// carries and keeps the default on every other one.
TEST(JsonlSchema, EveryKindRoundTrips) {
  struct Case {
    TraceEventKind kind;
    const char* label;
    const char* reason;
    bool reason_optional;
  };
  const Case cases[] = {
      {TraceEventKind::kRunStart, "FGM", "tree:4,4", true},
      {TraceEventKind::kRoundStart, nullptr, nullptr, false},
      {TraceEventKind::kSubroundStart, nullptr, nullptr, false},
      {TraceEventKind::kSubroundEnd, nullptr, "resync", true},
      {TraceEventKind::kIncrementMsg, nullptr, "timeout-poll", true},
      {TraceEventKind::kDriftFlush, nullptr, nullptr, false},
      {TraceEventKind::kRebalance, nullptr, nullptr, false},
      {TraceEventKind::kThresholdCross, "psi-exhausted", nullptr, false},
      {TraceEventKind::kMsgSent, "drift-flush", nullptr, false},
      {TraceEventKind::kPlanChosen, nullptr, nullptr, false},
      {TraceEventKind::kPlanSite, nullptr, nullptr, false},
      {TraceEventKind::kPlanOutcome, nullptr, nullptr, false},
      {TraceEventKind::kMsgDelivered, "counter", nullptr, false},
      {TraceEventKind::kMsgDropped, "safe-zone", "loss", false},
      {TraceEventKind::kSiteDown, nullptr, "outage", false},
      {TraceEventKind::kSiteResync, nullptr, "rejoin", false},
      {TraceEventKind::kAlertRaised, "lossy_link", "down", true},
      {TraceEventKind::kAlertCleared, "straggler_site", "rejoin", true},
      {TraceEventKind::kTierEnd, nullptr, nullptr, false},
      {TraceEventKind::kRunEnd, nullptr, nullptr, false},
  };
  ASSERT_EQ(std::size(cases),
            static_cast<size_t>(TraceEventKind::kKindCount));
  const TraceEvent defaults;
  int checked = 0;
  for (const Case& c : cases) {
    for (const bool with_reason : {true, false}) {
      if (!with_reason && !c.reason_optional) continue;
      for (const int tier : {0, 2}) {
        TraceEvent e = FullyPopulated(c.kind, c.label,
                                      with_reason ? c.reason : nullptr);
        e.tier = tier;
        const std::string line = JsonlTraceSink::EventJson(e);
        SCOPED_TRACE(line);
        TraceEvent parsed;
        std::string error;
        ASSERT_TRUE(ParseTraceEventJson(line, &parsed, &error)) << error;
        EXPECT_EQ(JsonlTraceSink::EventJson(parsed), line);
        EXPECT_EQ(parsed.kind, e.kind);
        const auto same_or_default = [&](auto TraceEvent::*m,
                                         const char* name) {
          EXPECT_TRUE(parsed.*m == e.*m || parsed.*m == defaults.*m) << name;
        };
        same_or_default(&TraceEvent::seq, "seq");
        same_or_default(&TraceEvent::site, "site");
        same_or_default(&TraceEvent::round, "round");
        same_or_default(&TraceEvent::subround, "subround");
        same_or_default(&TraceEvent::psi, "psi");
        same_or_default(&TraceEvent::theta, "theta");
        same_or_default(&TraceEvent::lambda, "lambda");
        same_or_default(&TraceEvent::value, "value");
        same_or_default(&TraceEvent::eps, "eps");
        same_or_default(&TraceEvent::k, "k");
        same_or_default(&TraceEvent::counter, "counter");
        same_or_default(&TraceEvent::words, "words");
        same_or_default(&TraceEvent::count, "count");
        same_or_default(&TraceEvent::dir, "dir");
        same_or_default(&TraceEvent::up_words, "up_words");
        same_or_default(&TraceEvent::down_words, "down_words");
        same_or_default(&TraceEvent::up_msgs, "up_msgs");
        same_or_default(&TraceEvent::down_msgs, "down_msgs");
        same_or_default(&TraceEvent::alpha, "alpha");
        same_or_default(&TraceEvent::beta, "beta");
        same_or_default(&TraceEvent::gamma, "gamma");
        same_or_default(&TraceEvent::pred_len, "pred_len");
        same_or_default(&TraceEvent::pred_rate, "pred_rate");
        same_or_default(&TraceEvent::actual_gain, "actual_gain");
        same_or_default(&TraceEvent::t, "t");
        same_or_default(&TraceEvent::tier, "tier");
        // A non-finite double travels as null and reads back as NaN.
        EXPECT_TRUE(std::isnan(parsed.pred_gain) || parsed.pred_gain == 0.0);
        for (const auto& [got, want] :
             {std::pair{parsed.label, e.label},
              std::pair{parsed.reason, e.reason}}) {
          EXPECT_TRUE(got == nullptr ||
                      (want != nullptr && std::string(got) == want));
        }
        ++checked;
      }
    }
  }
  EXPECT_EQ(checked, 2 * (20 + 5));
}


// ---------------------------------------------------------------------
// metrics.json: the runner writes it from RunResult alone. These runs
// pin every number the file holds beyond the "run" totals: the subround
// histogram and the FGM/O plan-audit statistics.

/// Runs `config` over a WorldCup stream of `updates` records and parses
/// the metrics.json it writes.
JsonNode RunAndReadMetrics(RunConfig config, int64_t updates,
                           const std::string& name) {
  config.metrics_out = ::testing::TempDir() + "/" + name + "_metrics.json";
  WorldCupConfig wc;
  wc.sites = config.sites;
  wc.total_updates = updates;
  Run(config, GenerateWorldCupTrace(wc));
  std::ifstream in(config.metrics_out);
  std::stringstream text;
  text << in.rdbuf();
  JsonNode doc;
  std::string error;
  EXPECT_TRUE(ParseJson(text.str(), &doc, &error)) << error;
  return doc;
}

/// The runner's defaults at 5 sites, width 60 and 30,000 updates.
JsonNode RunMetricsFile(RunConfig config, const std::string& name) {
  config.sites = 5;
  config.depth = 5;
  config.width = 60;
  config.window_seconds = 14400.0;
  config.check_every = 5000;
  return RunAndReadMetrics(config, 30000, name);
}

/// The node at a '.'-separated member path, or nullptr.
const JsonNode* At(const JsonNode& doc, const std::string& path) {
  const JsonNode* node = &doc;
  size_t begin = 0;
  while (node != nullptr && begin <= path.size()) {
    size_t end = path.find('.', begin);
    if (end == std::string::npos) end = path.size();
    node = node->Find(path.substr(begin, end - begin));
    begin = end + 1;
  }
  return node;
}

int64_t IntAt(const JsonNode& doc, const std::string& path) {
  const JsonNode* v = At(doc, path);
  EXPECT_NE(v, nullptr) << path;
  return v != nullptr ? v->AsInt(-1) : -1;
}

double DoubleAt(const JsonNode& doc, const std::string& path) {
  const JsonNode* v = At(doc, path);
  EXPECT_NE(v, nullptr) << path;
  return v != nullptr ? v->AsDouble(-1.0) : -1.0;
}

TEST(MetricsFile, SerialFgmKeepsTheSubroundHistogram) {
  RunConfig config;
  config.protocol = ProtocolKind::kFgm;
  const JsonNode doc = RunMetricsFile(config, "serial_fgm");
  const std::string h = "subrounds_per_round.";
  EXPECT_EQ(IntAt(doc, h + "total"), 247);
  EXPECT_DOUBLE_EQ(DoubleAt(doc, h + "mean"), 4.526315789473684);
  EXPECT_EQ(IntAt(doc, h + "max"), 34);
  EXPECT_EQ(IntAt(doc, h + "p50"), 3);
  EXPECT_EQ(IntAt(doc, h + "p95"), 11);
  const std::map<std::string, int64_t> buckets = {
      {"1", 13}, {"2", 37}, {"3", 76}, {"4", 47}, {"5", 20}, {"6", 12},
      {"7", 8},  {"8", 10}, {"9", 8},  {"10", 2}, {"11", 6}, {"12", 2},
      {"14", 1}, {"15", 1}, {"19", 1}, {"20", 1}, {"23", 1}, {"34", 1}};
  const JsonNode* b = At(doc, h + "buckets");
  ASSERT_NE(b, nullptr);
  EXPECT_EQ(b->members.size(), buckets.size());
  for (const auto& [v, count] : buckets) {
    EXPECT_EQ(IntAt(*b, v), count) << "bucket " << v;
  }
  // FGM predicts no plans.
  EXPECT_EQ(At(doc, "plan_gain"), nullptr);
}

TEST(MetricsFile, FgmoKeepsThePlanAuditAndHistogram) {
  RunConfig config;
  config.protocol = ProtocolKind::kFgmOpt;
  const JsonNode doc = RunMetricsFile(config, "fgmo");
  // Plan-audit error statistics.
  const std::string abs = "plan_gain.abs_err.";
  EXPECT_EQ(IntAt(doc, abs + "count"), 730);
  EXPECT_DOUBLE_EQ(DoubleAt(doc, abs + "mean"), 125.29322540184121);
  EXPECT_DOUBLE_EQ(DoubleAt(doc, abs + "stddev"), 1282.6384272095659);
  EXPECT_DOUBLE_EQ(DoubleAt(doc, abs + "min"), 3.30169903639559);
  EXPECT_DOUBLE_EQ(DoubleAt(doc, abs + "max"), 34309.710807577954);
  const std::string rel = "plan_gain.rel_err.";
  EXPECT_EQ(IntAt(doc, rel + "count"), 730);
  EXPECT_DOUBLE_EQ(DoubleAt(doc, rel + "mean"), 0.6628091918723483);
  EXPECT_DOUBLE_EQ(DoubleAt(doc, rel + "stddev"), 0.9577789105631641);
  EXPECT_DOUBLE_EQ(DoubleAt(doc, rel + "min"), 0.003529903053046149);
  EXPECT_DOUBLE_EQ(DoubleAt(doc, rel + "max"), 21.909138446729216);
  // Subround histogram.
  const std::string h = "subrounds_per_round.";
  EXPECT_EQ(IntAt(doc, h + "total"), 735);
  EXPECT_DOUBLE_EQ(DoubleAt(doc, h + "mean"), 3.6666666666666665);
  EXPECT_EQ(IntAt(doc, h + "max"), 37);
  EXPECT_EQ(IntAt(doc, h + "p50"), 3);
  EXPECT_EQ(IntAt(doc, h + "p95"), 9);
  EXPECT_EQ(IntAt(doc, h + "buckets.3"), 294);
  EXPECT_EQ(IntAt(doc, h + "buckets.37"), 1);
}

// "strict_wire" reports the mode the run's root transport used, not the
// --strict_wire flag: a simulated network always serializes.
TEST(MetricsFile, StrictWireReportsTheTransportMode) {
  auto strict_wire = [](RunConfig config, const std::string& name) {
    config.sites = 4;
    config.depth = 5;
    config.width = 60;
    const JsonNode doc = RunAndReadMetrics(config, 5000, name);
    const JsonNode* v = At(doc, "run.strict_wire");
    EXPECT_NE(v, nullptr);
    EXPECT_EQ(v != nullptr ? v->type : JsonNode::Type::kNull,
              JsonNode::Type::kBool);
    return v != nullptr && v->boolean;
  };
  RunConfig sim;
  sim.net.latency = "fixed:4";
  EXPECT_TRUE(strict_wire(sim, "sim"));
  RunConfig strict;
  strict.strict_wire = true;
  EXPECT_TRUE(strict_wire(strict, "strict"));
  // A plain run follows FGM_STRICT_WIRE: false unless it is set.
  EXPECT_EQ(strict_wire(RunConfig{}, "plain"),
            Transport(1, TransportMode::kAuto).strict());
}

}  // namespace
}  // namespace fgm
