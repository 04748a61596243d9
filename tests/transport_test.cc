// Transport-layer tests: unit round trips through the strict transport,
// traffic booking, the per-message contract of every backend, and the
// headline parity property — a full protocol run
// charges bit-identical traffic and produces bit-identical estimates
// whether messages are merely counted or actually encoded, size-checked,
// decoded and delivered (strict wire accounting).

#include <cmath>
#include <memory>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "baseline/central.h"
#include "core/fgm_protocol.h"
#include "driver/runner.h"
#include "gm/gm_protocol.h"
#include "hier/topology.h"
#include "net/transport.h"
#include "net/wire.h"
#include "obs/span.h"
#include "obs/trace.h"
#include "sim/event_network.h"
#include "stream/window.h"
#include "stream/worldcup.h"

namespace fgm {
namespace {

std::vector<StreamRecord> SmallTrace(int sites, int64_t updates) {
  WorldCupConfig config;
  config.sites = sites;
  config.total_updates = updates;
  config.duration = 10000.0;
  config.distinct_clients = 2000;
  config.seed = 20190326;
  return GenerateWorldCupTrace(config);
}

std::unique_ptr<ContinuousQuery> SmallQuery(int sites) {
  RunConfig config;
  config.query = QueryKind::kSelfJoin;
  config.sites = sites;
  config.depth = 5;
  config.width = 32;
  config.epsilon = 0.15;
  return MakeQuery(config);
}

template <typename Protocol>
void Drive(Protocol* protocol, const std::vector<StreamRecord>& trace,
           double window) {
  SlidingWindowStream events(&trace, window);
  while (const StreamRecord* rec = events.Next()) {
    protocol->ProcessRecord(*rec);
  }
}

void ExpectSameTraffic(const TrafficStats& counting,
                       const TrafficStats& serializing) {
  EXPECT_EQ(counting.upstream_words, serializing.upstream_words);
  EXPECT_EQ(counting.downstream_words, serializing.downstream_words);
  EXPECT_EQ(counting.upstream_messages, serializing.upstream_messages);
  EXPECT_EQ(counting.downstream_messages, serializing.downstream_messages);
  for (size_t i = 0; i < counting.words_by_kind.size(); ++i) {
    EXPECT_EQ(counting.words_by_kind[i], serializing.words_by_kind[i])
        << MsgKindName(static_cast<MsgKind>(i));
  }
}

// ---------------------------------------------------------------------
// Unit round trips: each typed send charges exactly the encoded size and
// delivers an identical message.

TEST(StrictTransport, ChargesExactlyTheEncodedWords) {
  Transport transport(4, TransportMode::kSerializing);
  EXPECT_TRUE(transport.strict());

  RealVector e(10);
  e[3] = 2.5;
  const SafeZoneMsg zone = transport.Ship(0, SafeZoneMsg{e});
  EXPECT_DOUBLE_EQ((*zone.reference)[3], 2.5);
  EXPECT_EQ(transport.stats().upstream_words, 10);

  const CheapZoneMsg cheap =
      transport.Ship(1, CheapZoneMsg{1.5, 1.0, -4.0});
  EXPECT_DOUBLE_EQ(cheap.offset, -4.0);
  EXPECT_EQ(transport.stats().upstream_words, 13);
  EXPECT_EQ(transport.stats()
                .words_by_kind[static_cast<size_t>(MsgKind::kSafeZone)],
            13);

  EXPECT_DOUBLE_EQ(transport.Ship(2, QuantumMsg{0.25}).theta, 0.25);
  EXPECT_DOUBLE_EQ(transport.Ship(3, LambdaMsg{0.5}).lambda, 0.5);
  EXPECT_EQ(transport.Ship(0, ControlMsg{ControlOp::kPollPhi}).op,
            ControlOp::kPollPhi);
  EXPECT_EQ(transport.Send(0, ControlMsg{ControlOp::kViolation}).op,
            ControlOp::kViolation);
  const int64_t big = (int64_t{1} << 53) + 7;
  EXPECT_EQ(transport.Send(1, CounterMsg{big}).increment, big);
  EXPECT_DOUBLE_EQ(transport.Send(2, PhiValueMsg{-0.75}).value,
                   -0.75);
  EXPECT_EQ(transport.stats().upstream_words, 16);
  EXPECT_EQ(transport.stats().downstream_words, 3);

  RawUpdateMsg raw;
  raw.key = uint64_t{1} << 63;  // 2-word key
  const RawUpdateMsg raw_delivered = transport.Send(0, raw);
  EXPECT_EQ(raw_delivered.key, uint64_t{1} << 63);
  EXPECT_EQ(transport.stats()
                .words_by_kind[static_cast<size_t>(MsgKind::kRawUpdate)],
            2);
}

TEST(StrictTransport, DriftFlushDeliversWhatWasEncoded) {
  Transport transport(2, TransportMode::kSerializing);

  // Dense: the drift crosses the wire.
  DriftFlushMsg dense;
  dense.update_count = 9;
  dense.dense = true;
  dense.drift = RealVector{1.0, -2.0, 0.5};
  const DriftFlushMsg dense_got = transport.Send(0, dense);
  EXPECT_TRUE(dense_got.dense);
  EXPECT_EQ(dense_got.drift->dim(), 3u);
  EXPECT_DOUBLE_EQ((*dense_got.drift)[1], -2.0);
  EXPECT_EQ(transport.stats()
                .words_by_kind[static_cast<size_t>(MsgKind::kDriftFlush)],
            4);

  // Verbatim: only the raw updates cross; the sender-local dense copy
  // must NOT leak through the wire.
  DriftFlushMsg verbatim;
  verbatim.update_count = 1;
  verbatim.dense = false;
  verbatim.drift = RealVector{1.0, -2.0, 0.5};  // sender-local only
  RawUpdateMsg u;
  u.key = 42;
  verbatim.raw = std::vector<RawUpdateMsg>{u};
  const DriftFlushMsg verbatim_got = transport.Send(1, verbatim);
  EXPECT_FALSE(verbatim_got.dense);
  EXPECT_EQ(verbatim_got.drift->dim(), 0u);
  ASSERT_EQ(verbatim_got.raw->size(), 1u);
  EXPECT_EQ((*verbatim_got.raw)[0].key, 42u);
  EXPECT_EQ(transport.stats()
                .words_by_kind[static_cast<size_t>(MsgKind::kDriftFlush)],
            4 + 2);
}

TEST(Transport, CountingModeDeliversUnchanged) {
  Transport transport(2, TransportMode::kCounting);
  EXPECT_FALSE(transport.strict());
  const RealVector local{7.0};
  DriftFlushMsg verbatim;
  verbatim.update_count = 1;
  verbatim.dense = false;
  verbatim.drift = &local;
  RawUpdateMsg u;
  u.key = 3;
  verbatim.raw = std::vector<RawUpdateMsg>{u};
  // The fast path hands the message through as-is: the receiver reads
  // the sender's own drift, uncopied, and is charged the same wire words
  // as strict mode.
  const DriftFlushMsg got = transport.Send(0, verbatim);
  EXPECT_EQ(&*got.drift, &local);
  EXPECT_EQ(transport.stats()
                .words_by_kind[static_cast<size_t>(MsgKind::kDriftFlush)],
            2);
}

// Booking: directions, totals and the by-kind breakdown. kAuto, so the
// strict-wire rerun books the same through the round trip.

TEST(Transport, DirectionsAndTotals) {
  Transport transport(3, TransportMode::kAuto);
  transport.Send(0, CounterMsg{1});
  DriftFlushMsg flush;
  flush.drift = RealVector(99);
  transport.Send(1, flush);  // count + 99 dense words
  transport.Ship(2, SafeZoneMsg{RealVector(500)});
  const TrafficStats& s = transport.stats();
  EXPECT_EQ(s.downstream_words, 101);
  EXPECT_EQ(s.upstream_words, 500);
  EXPECT_EQ(s.downstream_messages, 2);
  EXPECT_EQ(s.upstream_messages, 1);
  EXPECT_EQ(s.total_words(), 601);
  EXPECT_EQ(s.total_messages(), 3);
  EXPECT_NEAR(s.upstream_fraction(), 500.0 / 601.0, 1e-12);
}

TEST(Transport, EveryChildIsChargedSeparately) {
  // The paper's model has no multicast: shipping θ to k sites costs k
  // one-word messages.
  Transport transport(5, TransportMode::kAuto);
  for (int c = 0; c < 5; ++c) transport.Ship(c, QuantumMsg{0.5});
  EXPECT_EQ(transport.stats().upstream_words, 5);
  EXPECT_EQ(transport.stats().upstream_messages, 5);
}

TEST(Transport, WordsByKindBreakdown) {
  Transport transport(2, TransportMode::kAuto);
  transport.Ship(0, SafeZoneMsg{RealVector(10)});
  transport.Ship(1, SafeZoneMsg{RealVector(10)});
  transport.Send(0, PhiValueMsg{1.0});
  const TrafficStats& s = transport.stats();
  EXPECT_EQ(s.words_by_kind[static_cast<size_t>(MsgKind::kSafeZone)], 20);
  EXPECT_EQ(s.words_by_kind[static_cast<size_t>(MsgKind::kPhiValue)], 1);
  EXPECT_EQ(s.words_by_kind[static_cast<size_t>(MsgKind::kCounter)], 0);
}

TEST(Transport, ZeroTrafficFractionIsZero) {
  Transport transport(1, TransportMode::kAuto);
  EXPECT_DOUBLE_EQ(transport.stats().upstream_fraction(), 0.0);
}

// ---------------------------------------------------------------------
// Per-message contract of every backend: one message of each of the ten
// wire structs, in each direction the protocols send it (ControlMsg goes
// both ways), through the counting link, the strict link and the event
// network in null and in lossy mode. Counting, strict and null mode book
// identical traffic and kMsgSent events; a lossy link books the
// message's words once per attempt; every backend delivers the payload
// bit-equal to what was sent.

enum class Backend { kCounting, kStrict, kSimNull, kSimLossy };

struct ContractCase {
  const char* label;
  Backend backend;
};

// The backend-binding shim: how a test builds a transport and moves one
// typed message across it.
std::unique_ptr<Transport> MakeBackend(Backend backend, int sites) {
  TransportMode mode = TransportMode::kCounting;
  sim::NetSimConfig net;
  switch (backend) {
    case Backend::kCounting:
      break;
    case Backend::kStrict:
      mode = TransportMode::kSerializing;
      break;
    case Backend::kSimNull:
      net.latency = "0";
      break;
    case Backend::kSimLossy:
      net.latency = "fixed:3";
      net.drop = 0.3;
      net.seed = 77;
      break;
  }
  return sim::MakeTransport(mode, net, sites);
}

// Parent → child.
template <typename Msg>
Msg CarryDown(Transport* t, int c, const Msg& m) {
  return t->Ship(c, m);
}

// Child → parent.
template <typename Msg>
Msg CarryUp(Transport* t, int c, const Msg& m) {
  return t->Send(c, m);
}

struct Booked {
  TrafficStats traffic;
  std::vector<TraceEvent> sent;  // the kMsgSent events, in order
};

Booked SendEveryMessage(const ContractCase& param) {
  const int sites = 3;
  std::unique_ptr<Transport> transport = MakeBackend(param.backend, sites);
  auto* net = dynamic_cast<sim::EventNetwork*>(transport.get());
  MemoryTraceSink trace;
  SpanSink spans;
  transport->set_trace(&trace);
  if (net != nullptr) net->set_spans(&spans);
  // Message spans nest under the run span, as in a protocol run.
  spans.Begin(SpanKind::kRun);

  int sent_so_far = 0;
  int64_t booked_words = 0;
  // Checks one delivery: the payload crossed bit-equal (a verbatim drift
  // flush encodes its raw updates only, so those are what must match),
  // and the link booked its wire words once per attempt.
  auto check = [&](int child, int dir, const auto& msg, const auto& got) {
    WordBuffer want_bits;
    WordBuffer got_bits;
    msg.Encode(&want_bits);
    got.Encode(&got_bits);
    EXPECT_TRUE(want_bits.SameBits(got_bits)) << "message " << sent_so_far;
    const int64_t words = static_cast<int64_t>(want_bits.size_words());
    int64_t attempts = 0;
    for (const TraceEvent& e : trace.events_log()) {
      if (e.kind != TraceEventKind::kMsgSent) continue;
      if (attempts++ < sent_so_far) continue;
      EXPECT_EQ(e.site, child);
      EXPECT_EQ(e.dir, dir);
      EXPECT_EQ(e.words, words);
    }
    attempts -= sent_so_far;
    EXPECT_GE(attempts, 1);
    if (param.backend != Backend::kSimLossy) {
      EXPECT_EQ(attempts, 1);
    }
    sent_so_far += static_cast<int>(attempts);
    booked_words += attempts * words;
    EXPECT_EQ(transport->stats().total_messages(), sent_so_far);
    EXPECT_EQ(transport->stats().total_words(), booked_words);
  };
  auto down = [&](int child, const auto& msg) {
    check(child, +1, msg, CarryDown(transport.get(), child, msg));
  };
  auto up = [&](int child, const auto& msg) {
    check(child, -1, msg, CarryUp(transport.get(), child, msg));
  };

  down(0, SafeZoneMsg{RealVector{0.5, -1.25, 3.0}});
  down(1, CheapZoneMsg{1.5, 1.0, -4.0});
  down(2, QuantumMsg{0.25});
  down(0, LambdaMsg{0.5});
  down(1, ControlMsg{ControlOp::kPollPhi});
  ResyncMsg resync;
  resync.reference = RealVector{2.0, 0.0, -7.5};
  resync.theta = -0.5;
  resync.round = 4;
  resync.subround = 2;
  down(2, resync);
  up(0, ControlMsg{ControlOp::kViolation});
  up(1, CounterMsg{(int64_t{1} << 53) + 7});
  up(2, PhiValueMsg{-0.75});
  DriftFlushMsg dense;
  dense.update_count = 9;
  dense.drift = RealVector{1.0, -2.0, 0.5};
  up(0, dense);
  DriftFlushMsg verbatim;
  verbatim.update_count = 2;
  verbatim.dense = false;
  verbatim.drift = RealVector{7.0, 0.0, 0.0};  // sender-local only
  std::vector<RawUpdateMsg> updates(2);
  updates[0].key = 42;
  updates[1].key = uint64_t{1} << 63;  // a 2-word update
  updates[1].is_delete = true;
  verbatim.raw = std::move(updates);
  up(1, verbatim);
  RawUpdateMsg raw;
  raw.key = uint64_t{1} << 62;
  up(2, raw);

  Booked out;
  out.traffic = transport->stats();
  for (const TraceEvent& e : trace.events_log()) {
    if (e.kind == TraceEventKind::kMsgSent) out.sent.push_back(e);
  }
  if (param.backend == Backend::kSimLossy) {
    // Every attempt after the first is a retransmission of the same words.
    EXPECT_EQ(net->net_stats().retransmitted_msgs, sent_so_far - 12);
    EXPECT_GT(net->net_stats().retransmitted_msgs, 0);
  }
  // Only a timed link records messages as spans, one per attempt; the
  // synchronous links and the null event network book them in the trace
  // alone.
  spans.CloseAll(nullptr);
  int64_t msg_spans = 0;
  int64_t span_words = 0;
  for (const Span& s : spans.Snapshot()) {
    if (s.kind != SpanKind::kMsg) continue;
    ++msg_spans;
    span_words += s.words;
  }
  const bool timed = param.backend == Backend::kSimLossy;
  EXPECT_EQ(msg_spans, timed ? sent_so_far : 0);
  EXPECT_EQ(span_words, timed ? booked_words : 0);
  return out;
}

class MessageContract : public ::testing::TestWithParam<ContractCase> {};

TEST_P(MessageContract, BooksAndDeliversEveryWireStruct) {
  const ContractCase& param = GetParam();
  const Booked got = SendEveryMessage(param);
  if (param.backend == Backend::kSimLossy) return;
  const Booked counting =
      SendEveryMessage(ContractCase{"ref", Backend::kCounting});
  ExpectSameTraffic(counting.traffic, got.traffic);
  EXPECT_EQ(got.traffic.total_messages(), 12);
  ASSERT_EQ(counting.sent.size(), got.sent.size());
  for (size_t i = 0; i < got.sent.size(); ++i) {
    EXPECT_EQ(counting.sent[i].site, got.sent[i].site) << i;
    EXPECT_EQ(counting.sent[i].dir, got.sent[i].dir) << i;
    EXPECT_EQ(counting.sent[i].words, got.sent[i].words) << i;
    EXPECT_EQ(counting.sent[i].tier, got.sent[i].tier) << i;
    EXPECT_STREQ(counting.sent[i].label, got.sent[i].label) << i;
  }
}

INSTANTIATE_TEST_SUITE_P(
    AllBackends, MessageContract,
    ::testing::Values(ContractCase{"counting", Backend::kCounting},
                      ContractCase{"strict", Backend::kStrict},
                      ContractCase{"sim_null", Backend::kSimNull},
                      ContractCase{"sim_lossy", Backend::kSimLossy}),
    [](const ::testing::TestParamInfo<ContractCase>& info) {
      return std::string(info.param.label);
    });

// ---------------------------------------------------------------------
// Parity: counting and serializing runs of every protocol are
// indistinguishable — identical traffic in every breakdown and identical
// (bit-exact) estimates. The windowed FGM runs exercise rebalancing and
// verbatim flushes; FGM/O exercises cheap-zone shipments. The tree case
// folds leaf flushes that a counting link lends uncopied, and ships
// zones that lend E, on its aggregator → leaf tier.

struct FgmParityCase {
  const char* label;
  bool rebalance;
  bool optimizer;
  double window;
  int sites = 5;
  const char* topology = nullptr;  ///< nullptr: the flat star
};

class FgmParity : public ::testing::TestWithParam<FgmParityCase> {};

TEST_P(FgmParity, CountingAndSerializingRunsAreBitIdentical) {
  const FgmParityCase& param = GetParam();
  const int sites = param.sites;
  const auto trace = SmallTrace(sites, 25000);
  auto query = SmallQuery(sites);
  hier::TreeTopology topo = hier::TreeTopology::Star(sites);
  if (param.topology != nullptr) {
    std::string error;
    ASSERT_TRUE(hier::TreeTopology::Parse(param.topology, sites, &topo,
                                          &error))
        << error;
  }

  FgmConfig counting_config;
  counting_config.transport = TransportMode::kCounting;
  counting_config.rebalance = param.rebalance;
  counting_config.optimizer = param.optimizer;
  FgmConfig strict_config = counting_config;
  strict_config.transport = TransportMode::kSerializing;

  FgmProtocol counting(query.get(), topo, counting_config);
  FgmProtocol strict(query.get(), topo, strict_config);
  Drive(&counting, trace, param.window);
  Drive(&strict, trace, param.window);

  EXPECT_FALSE(counting.transport().strict());
  EXPECT_TRUE(strict.transport().strict());
  ASSERT_EQ(counting.tiers(), strict.tiers());
  for (int t = 0; t < counting.tiers(); ++t) {
    SCOPED_TRACE(t);
    ExpectSameTraffic(counting.tier_traffic(t), strict.tier_traffic(t));
  }
  EXPECT_EQ(counting.local_polls(), strict.local_polls());
  EXPECT_EQ(counting.rounds(), strict.rounds());
  EXPECT_EQ(counting.subrounds(), strict.subrounds());
  EXPECT_EQ(counting.rebalances(), strict.rebalances());
  EXPECT_EQ(counting.Estimate(), strict.Estimate());
  EXPECT_DOUBLE_EQ(Distance(counting.GlobalEstimate(),
                            strict.GlobalEstimate()),
                   0.0);
  if (param.rebalance && param.window > 0) {
    // The turnstile case must actually exercise the rebalancing path.
    EXPECT_GT(counting.rebalances(), 0);
  }
}

INSTANTIATE_TEST_SUITE_P(
    AllVariants, FgmParity,
    ::testing::Values(FgmParityCase{"basic", false, false, 0.0},
                      FgmParityCase{"fgm", true, false, 0.0},
                      FgmParityCase{"fgm_turnstile", true, false, 1200.0},
                      FgmParityCase{"fgmo_turnstile", true, true, 1200.0},
                      FgmParityCase{"tree_turnstile", true, false, 1200.0,
                                    16, "tree:4"}),
    [](const ::testing::TestParamInfo<FgmParityCase>& info) {
      return std::string(info.param.label);
    });

TEST(GmParity, CountingAndSerializingRunsAreBitIdentical) {
  const int sites = 5;
  const auto trace = SmallTrace(sites, 25000);
  auto query = SmallQuery(sites);

  GmConfig counting_config;
  counting_config.transport = TransportMode::kCounting;
  GmConfig strict_config = counting_config;
  strict_config.transport = TransportMode::kSerializing;

  GmProtocol counting(query.get(), sites, counting_config);
  GmProtocol strict(query.get(), sites, strict_config);
  Drive(&counting, trace, /*window=*/1200.0);
  Drive(&strict, trace, /*window=*/1200.0);

  ExpectSameTraffic(counting.traffic(), strict.traffic());
  EXPECT_EQ(counting.rounds(), strict.rounds());
  EXPECT_EQ(counting.violations(), strict.violations());
  EXPECT_EQ(counting.partial_rebalances(), strict.partial_rebalances());
  EXPECT_GT(counting.partial_rebalances(), 0);
  EXPECT_EQ(counting.Estimate(), strict.Estimate());
  EXPECT_DOUBLE_EQ(Distance(counting.GlobalEstimate(),
                            strict.GlobalEstimate()),
                   0.0);
}

TEST(CentralParity, CountingAndSerializingRunsAreBitIdentical) {
  const int sites = 3;
  const auto trace = SmallTrace(sites, 8000);
  auto query = SmallQuery(sites);

  CentralProtocol counting(query.get(), sites, TransportMode::kCounting);
  CentralProtocol strict(query.get(), sites, TransportMode::kSerializing);
  Drive(&counting, trace, /*window=*/800.0);
  Drive(&strict, trace, /*window=*/800.0);

  ExpectSameTraffic(counting.traffic(), strict.traffic());
  EXPECT_EQ(counting.Estimate(), strict.Estimate());
  // WorldCup keys are small, so every raw update is one word and the
  // baseline's normalized cost stays exactly 1 under strict accounting.
  EXPECT_EQ(counting.traffic().downstream_words,
            counting.traffic().downstream_messages);
}

// ---------------------------------------------------------------------
// Decode errors fail loudly. A corrupted or truncated wire message must
// never be silently coerced into a plausible value: every decoder aborts
// through FGM_CHECK on the first inconsistent word.

TEST(WireDecodeDeath, TruncatedSafeZonePayload) {
  WordBuffer wire;
  SafeZoneMsg{RealVector{1.0, 2.0, 3.0}}.Encode(&wire);
  // The receiver expects the query dimension; a 3-word payload for a
  // 5-dim zone is a truncated message.
  EXPECT_DEATH(SafeZoneMsg::Decode(wire, 5), "FGM_CHECK failed");
}

TEST(WireDecodeDeath, TruncatedResyncPayload) {
  ResyncMsg msg;
  msg.reference = RealVector{1.0, 2.0};
  msg.theta = -0.5;
  msg.lambda = 1.0;
  msg.round = 3;
  msg.subround = 1;
  WordBuffer wire;
  msg.Encode(&wire);  // 2 + 4 words
  EXPECT_DEATH(ResyncMsg::Decode(wire, 4), "FGM_CHECK failed");
}

TEST(WireDecodeDeath, CorruptedControlOpByte) {
  WordBuffer wire;
  wire.PutCount(99);  // not a ControlOp
  EXPECT_DEATH(ControlMsg::Decode(wire), "FGM_CHECK failed");
}

TEST(WireDecodeDeath, EmptyControlPayload) {
  WordBuffer wire;
  EXPECT_DEATH(ControlMsg::Decode(wire), "FGM_CHECK failed");
}

TEST(WireDecodeDeath, DriftFlushClaimsMoreUpdatesThanEncoded) {
  // Verbatim header announcing 3 raw updates, but only one on the wire.
  WordBuffer wire;
  wire.PutCount(-3);
  RawUpdateMsg u;
  u.key = 7;
  u.Encode(&wire);
  EXPECT_DEATH(DriftFlushMsg::Decode(wire), "FGM_CHECK failed");
}

TEST(WireDecodeDeath, DriftFlushLengthMismatchTrailingWords) {
  // Correct raw updates followed by stray words the header doesn't cover.
  WordBuffer wire;
  wire.PutCount(-1);
  RawUpdateMsg u;
  u.key = 7;
  u.Encode(&wire);
  wire.PutReal(0.0);  // junk past the declared payload
  EXPECT_DEATH(DriftFlushMsg::Decode(wire), "FGM_CHECK failed");
}

TEST(WireDecodeDeath, NonCanonicalRawUpdateExtensionWord) {
  // Extension flag set but the extension word carries no high key bits —
  // a canonical encoder never produces this.
  WordBuffer wire;
  wire.PutBits(uint64_t{2});  // flags: extended=1, delete=0, key=0
  wire.PutBits(uint64_t{0});
  EXPECT_DEATH(RawUpdateMsg::Decode(wire, 0), "FGM_CHECK failed");
}

// ---------------------------------------------------------------------
// Graceful subround-cap handling (the run used to abort on FGM_CHECK).

TEST(FgmProtocol, SubroundCapEndsTheRoundInsteadOfAborting) {
  const int sites = 5;
  const auto trace = SmallTrace(sites, 20000);
  auto query = SmallQuery(sites);
  FgmConfig config;
  config.max_subrounds_per_round = 2;  // far below the typical ~7
  FgmProtocol protocol(query.get(), sites, config);
  Drive(&protocol, trace, /*window=*/0.0);
  EXPECT_GT(protocol.overflow_rounds(), 0);
  EXPECT_GT(protocol.rounds(), 1);
  EXPECT_TRUE(std::isfinite(protocol.Estimate()));

  // An uncapped run of the same workload never overflows.
  FgmConfig uncapped;
  FgmProtocol reference(query.get(), sites, uncapped);
  Drive(&reference, trace, /*window=*/0.0);
  EXPECT_EQ(reference.overflow_rounds(), 0);
}

}  // namespace
}  // namespace fgm
