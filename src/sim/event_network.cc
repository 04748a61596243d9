#include "sim/event_network.h"

#include <cmath>

#include "obs/span.h"
#include "obs/trace.h"
#include "util/check.h"

namespace fgm {
namespace sim {

namespace {

// Runaway backstop for the RPC retransmission loop: with drop < 1 the
// expected attempt count is 1/(1-drop); ten thousand failures in a row
// means the configuration (or the generator) is broken.
constexpr int kMaxRpcAttempts = 10000;

}  // namespace

EventNetwork::EventNetwork(int sites, const NetSimConfig& config)
    : Transport(sites, TransportMode::kSerializing),
      config_(config),
      rng_(config.seed),
      site_up_(static_cast<size_t>(sites), 1),
      site_stats_(static_cast<size_t>(sites)) {
  FGM_CHECK(ParseLatencySpec(config.latency, &latency_));
  FGM_CHECK(config.drop >= 0.0 && config.drop < 1.0);
  FGM_CHECK(ParseFaultPlan(config.fault_plan, sites, &transitions_));
  null_ = latency_.kind == LatencySpec::Kind::kZero && config.drop == 0.0 &&
          transitions_.empty();
}

void EventNetwork::set_spans(SpanSink* spans) {
  if (null_) return;
  spans_ = spans;
  if (spans != nullptr) spans->UseTickClock(&now_);
}

bool EventNetwork::SiteUp(int site) const {
  FGM_CHECK(site >= 0 && site < sites());
  return site_up_[static_cast<size_t>(site)] != 0;
}

void EventNetwork::Advance(int64_t ticks) {
  FGM_CHECK_GE(ticks, 0);
  now_ += ticks;
}

bool EventNetwork::SampleDrop() {
  return config_.drop > 0.0 && rng_.NextDouble() < config_.drop;
}

int64_t EventNetwork::SampleLatency() {
  switch (latency_.kind) {
    case LatencySpec::Kind::kZero:
      return 0;
    case LatencySpec::Kind::kFixed:
      return static_cast<int64_t>(latency_.a);
    case LatencySpec::Kind::kUniform:
      return rng_.NextInt(static_cast<int64_t>(latency_.a),
                          static_cast<int64_t>(latency_.b));
    case LatencySpec::Kind::kExp:
      return static_cast<int64_t>(
          std::floor(rng_.NextExponential(1.0 / latency_.a)));
  }
  FGM_CHECK(false);
  return 0;
}

void EventNetwork::EmitNetEvent(TraceEventKind kind, int site, int dir,
                                MsgKind msg_kind, int64_t words, int64_t t,
                                const char* reason) {
  if (trace_ == nullptr || null_) return;
  TraceEvent e;
  e.kind = kind;
  e.site = site;
  e.label = MsgKindName(msg_kind);
  e.dir = dir;
  e.words = words;
  e.t = t;
  e.reason = reason;
  trace_->Emit(e);
}

void EventNetwork::Deliver(int child, int dir, MsgKind kind,
                           int64_t words) {
  // The protocols never address a down endpoint over the control plane;
  // the pause/resync machinery (core/fgm_protocol.cc) guarantees it.
  FGM_CHECK(SiteUp(child));
  int64_t rpc_span = 0;
  if (spans_ != nullptr) {
    // One kMsg child per attempt follows.
    rpc_span = spans_->Begin(SpanKind::kRpc, child, 0, 0, MsgKindName(kind));
  }
  SiteNetStats& ss = site_stats_[static_cast<size_t>(child)];
  int64_t total_words = 0;
  for (int attempt = 0;; ++attempt) {
    FGM_CHECK_LT(attempt, kMaxRpcAttempts);
    Book(child, dir, kind, words);
    total_words += words;
    if (attempt > 0) {
      ++net_stats_.retransmitted_msgs;
      net_stats_.retransmitted_words += words;
    }
    if (SampleDrop()) {
      ++net_stats_.dropped_msgs;
      net_stats_.dropped_words += words;
      ++ss.dropped_msgs;
      EmitNetEvent(TraceEventKind::kMsgDropped, child, dir, kind, words, now_,
                   kReasonLoss);
      if (spans_ != nullptr) {
        // The lost attempt occupies the sender until its timeout fires.
        Span s;
        s.kind = SpanKind::kMsg;
        s.site = child;
        s.begin = now_;
        s.end = now_ + kRetransmitTicks;
        s.words = words;
        s.count = 1;
        s.dir = dir;
        s.label = MsgKindName(kind);
        s.reason = "loss";
        spans_->EmitComplete(s);
      }
      // The sender detects the loss by timeout and resends.
      Advance(kRetransmitTicks);
      continue;
    }
    const int64_t delay = SampleLatency();
    const int64_t sent = now_;
    Advance(delay);
    ++net_stats_.delivered_msgs;
    net_stats_.delivered_words += words;
    ++ss.delivered_msgs;
    ss.latency_ticks += delay;
    ++ss.latency_samples;
    EmitNetEvent(TraceEventKind::kMsgDelivered, child, dir, kind, words, now_,
                 nullptr);
    if (spans_ != nullptr) {
      Span s;
      s.kind = SpanKind::kMsg;
      s.site = child;
      s.begin = sent;
      s.end = now_;
      s.words = words;
      s.count = 1;
      s.dir = dir;
      s.transit = delay;
      s.label = MsgKindName(kind);
      spans_->EmitComplete(s);
      spans_->EndWithStats(rpc_span, nullptr, total_words, attempt + 1);
    }
    return;
  }
}

void EventNetwork::PostCounter(int site, CounterMsg msg, int64_t round,
                               int64_t subround) {
  FGM_CHECK(SiteUp(site));
  const int64_t wire_words = CounterMsg::kWords;
  // Charged once when posted: the datagram has no retransmissions.
  const CounterMsg decoded = RoundTrip(
      msg, [&](int64_t words) { Book(site, -1, MsgKind::kCounter, words); });
  if (SampleDrop()) {
    ++net_stats_.dropped_msgs;
    net_stats_.dropped_words += wire_words;
    ++site_stats_[static_cast<size_t>(site)].dropped_msgs;
    EmitNetEvent(TraceEventKind::kMsgDropped, site, -1, MsgKind::kCounter,
                 wire_words, now_, kReasonLoss);
    if (spans_ != nullptr) {
      // Charged but never delivered: a point span keeps the word sums
      // conserved against MsgSent.
      Span s;
      s.kind = SpanKind::kDatagram;
      s.parent = spans_->root();
      s.site = site;
      s.round = round;
      s.subround = subround;
      s.begin = now_;
      s.words = wire_words;
      s.count = 1;
      s.dir = -1;
      s.label = MsgKindName(MsgKind::kCounter);
      s.reason = "loss";
      spans_->EmitComplete(s);
    }
    return;  // no retransmission: cumulative counters self-heal
  }
  Envelope env;
  env.due = now_ + SampleLatency();
  env.seq = next_seq_++;
  env.delivery.site = site;
  env.delivery.msg = decoded;
  env.delivery.round = round;
  env.delivery.subround = subround;
  env.delivery.due = env.due;
  env.delivery.posted = now_;
  queue_.push(env);
  net_stats_.in_flight_words += wire_words;
  if (net_stats_.in_flight_words > net_stats_.max_in_flight_words) {
    net_stats_.max_in_flight_words = net_stats_.in_flight_words;
  }
}

bool EventNetwork::PopCounter(CounterDelivery* out) {
  if (queue_.empty() || queue_.top().due > now_) return false;
  *out = queue_.top().delivery;
  queue_.pop();
  const int64_t wire_words = CounterMsg::kWords;
  net_stats_.in_flight_words -= wire_words;
  ++net_stats_.delivered_msgs;
  net_stats_.delivered_words += wire_words;
  SiteNetStats& ss = site_stats_[static_cast<size_t>(out->site)];
  ++ss.delivered_msgs;
  ss.latency_ticks += out->due - out->posted;
  ++ss.latency_samples;
  EmitNetEvent(TraceEventKind::kMsgDelivered, out->site, -1,
               MsgKind::kCounter, wire_words, out->due, nullptr);
  if (spans_ != nullptr) {
    // post → due is wire time; due → drain is how long the datagram sat
    // waiting for the protocol to reach a safe drain point.
    Span s;
    s.kind = SpanKind::kDatagram;
    s.parent = spans_->root();
    s.site = out->site;
    s.round = out->round;
    s.subround = out->subround;
    s.begin = out->posted;
    s.end = now_;
    s.words = wire_words;
    s.count = 1;
    s.dir = -1;
    s.transit = out->due - out->posted;
    s.drain = now_ - out->due;
    s.label = MsgKindName(MsgKind::kCounter);
    spans_->EmitComplete(s);
  }
  return true;
}

bool EventNetwork::PopFault(FaultNotice* out) {
  if (next_transition_ >= transitions_.size() ||
      transitions_[next_transition_].at > now_) {
    return false;
  }
  const FaultTransition& t = transitions_[next_transition_++];
  site_up_[static_cast<size_t>(t.site)] = t.up ? 1 : 0;
  out->site = t.site;
  out->up = t.up;
  out->reason = t.reason;
  if (!t.up) {
    ++net_stats_.site_downs;
    if (trace_ != nullptr) {
      TraceEvent e;
      e.kind = TraceEventKind::kSiteDown;
      e.site = t.site;
      e.t = t.at;
      e.reason = t.reason;
      trace_->Emit(e);
    }
  }
  return true;
}

void EventNetwork::FinishRun() {
  // Let every in-flight datagram land (the protocol drains after this),
  // and dispatch any fault transition already in the past.
  if (!queue_.empty()) {
    // The latest due tick is not necessarily at the top; advance until
    // the queue can fully drain.
    std::priority_queue<Envelope, std::vector<Envelope>, EnvelopeLater>
        copy = queue_;
    int64_t last = now_;
    while (!copy.empty()) {
      if (copy.top().due > last) last = copy.top().due;
      copy.pop();
    }
    if (last > now_) Advance(last - now_);
  }
  net_stats_.final_tick = now_;
}

std::unique_ptr<Transport> MakeTransport(TransportMode mode,
                                         const NetSimConfig& net,
                                         int endpoints) {
  if (net.enabled()) return std::make_unique<EventNetwork>(endpoints, net);
  return std::make_unique<Transport>(endpoints, mode);
}

}  // namespace sim
}  // namespace fgm
