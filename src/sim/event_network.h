// Discrete-event network simulator behind Transport.
//
// EventNetwork carries the *real* serialized wire messages of
// net/wire.h over simulated links with per-link latency distributions,
// probabilistic drop and scheduled endpoint outages. It always runs
// strict: every message takes Transport's encode → size-check → decode →
// bit-verify round trip, and only the link delivery between child
// endpoint and parent is overridden — delayed, possibly lost, and charged
// once per attempt.
//
// One instance models the links of one star: the root's children and the
// root. Only the root tier of a run goes over the simulator (the fault
// plan addresses the root's children), so every RPC runs between a child
// and the root and every datagram flows child → root.
//
// Two delivery disciplines:
//
//  * RPC (every Ship / Send): the caller blocks while the simulated clock
//    advances by the sampled delay; a lost message is detected by timeout
//    and retransmitted (each attempt is charged — retransmissions are
//    real words on the wire). This models the request/response control
//    plane (zone shipments, polls, flushes).
//  * Async (PostCounter): FGM's subround counter increments are
//    fire-and-forget datagrams. They sit in the event queue until their
//    due tick and are drained by the protocol at safe points
//    (PopCounter). Lost datagrams are NOT retransmitted — sites send
//    cumulative per-subround counters, so a later datagram or a
//    coordinator re-poll heals the gap.
//
// Determinism: one seeded generator drives drops and latencies in
// program order; the same config and stream reproduce a run bit-exactly.
// Fault-plan transitions take effect when the protocol drains them
// (PopFault) — i.e. at record granularity — never in the middle of an
// RPC, which keeps the site set stable across a multi-message exchange.
//
// Spans: the event network is the one emitter of message spans (kRpc,
// kMsg, kDatagram), stamped in simulated ticks, because only here does a
// message occupy time: an RPC spans its retransmit chain, each attempt
// its wire delay or timeout, a datagram its post → drain interval.
//
// Null mode (zero latency, no loss, no faults):
// every datagram is due immediately, no randomness is consumed, the
// MsgDelivered/MsgDropped trace events are suppressed, and set_spans takes
// neither the sink nor its clock, so traces, TrafficStats and span files
// are those of the synchronous transports.

#ifndef FGM_SIM_EVENT_NETWORK_H_
#define FGM_SIM_EVENT_NETWORK_H_

#include <cstdint>
#include <memory>
#include <queue>
#include <vector>

#include "net/transport.h"
#include "obs/trace.h"
#include "sim/net_config.h"
#include "util/rng.h"

namespace fgm {

class SpanSink;
enum class TraceEventKind : int;

namespace sim {

/// Aggregate counters for a simulated run. Message/word counts obey
/// conservation per direction: sent = delivered + dropped (the replay
/// checker re-verifies this from the trace).
struct SimNetStats {
  int64_t delivered_msgs = 0;
  int64_t delivered_words = 0;
  int64_t dropped_msgs = 0;
  int64_t dropped_words = 0;
  int64_t retransmitted_msgs = 0;  ///< RPC attempts after the first
  int64_t retransmitted_words = 0;
  int64_t stale_msgs = 0;   ///< counter datagrams from a closed subround
  int64_t timeouts = 0;     ///< coordinator silence-timeout re-polls
  int64_t resyncs = 0;      ///< completed crash/rejoin handshakes
  int64_t site_downs = 0;   ///< down transitions dispatched
  int64_t in_flight_words = 0;      ///< datagram words currently queued
  int64_t max_in_flight_words = 0;  ///< high-water mark of the above
  int64_t final_tick = 0;           ///< clock at FinishRun
};

/// Per-site attribution of the aggregate counters above. Maintained
/// alongside SimNetStats at zero extra randomness (pure bookkeeping on
/// the same events), so enabling consumers never perturbs a seeded run.
/// The health monitor (obs/health.h) derives per-site drop-rate and
/// latency EWMAs from these cumulative counts.
struct SiteNetStats {
  int64_t delivered_msgs = 0;
  int64_t dropped_msgs = 0;
  int64_t latency_ticks = 0;    ///< summed post→delivery delays
  int64_t latency_samples = 0;  ///< deliveries contributing to the above
};

/// A counter datagram handed to the protocol at its due tick.
struct CounterDelivery {
  int site = 0;          ///< sending child endpoint
  CounterMsg msg{0};
  int64_t round = 0;     ///< epoch the datagram was sent in
  int64_t subround = 0;
  int64_t due = 0;       ///< wire arrival tick
  int64_t posted = 0;    ///< tick the site posted it (span begin)
};

/// A fault-plan transition handed to the protocol at a safe point.
struct FaultNotice {
  int site = 0;
  bool up = false;
  const char* reason = kReasonCrash;
};

class EventNetwork final : public Transport {
 public:
  EventNetwork(int sites, const NetSimConfig& config);

  /// Fire-and-forget counter datagram, site → root. Charges one word,
  /// samples loss and delay, and queues the delivery. The site must be
  /// up.
  void PostCounter(int site, CounterMsg msg, int64_t round, int64_t subround);

  /// Pops the next datagram whose due tick has been reached, in
  /// (due, send order) — random latencies produce genuine reordering.
  /// Returns false when nothing is deliverable yet.
  bool PopCounter(CounterDelivery* out);

  /// Pops the next fault transition scheduled at or before the current
  /// tick, applying its link-state flip (and emitting SiteDown for down
  /// flips). Returns false when none is pending.
  bool PopFault(FaultNotice* out);

  /// Whether PopFault or PopCounter would hand something over now.
  bool Due() const {
    return (next_transition_ < transitions_.size() &&
            transitions_[next_transition_].at <= now_) ||
           (!queue_.empty() && queue_.top().due <= now_);
  }

  /// Sends the link's message spans to `spans` (nullptr disables; the
  /// default) and rebases the sink onto the simulated clock. Null mode
  /// takes neither: its messages take no time.
  void set_spans(SpanSink* spans);

  /// Advances the simulated clock (protocols tick once per record; RPCs
  /// advance by their sampled delays internally).
  void Advance(int64_t ticks);
  int64_t now() const { return now_; }

  /// Link state as of the last drained transition.
  bool SiteUp(int site) const;

  /// Advances the clock past the last queued datagram so a final drain
  /// delivers everything, and records the final tick.
  void FinishRun();

  bool null_mode() const { return null_; }
  const NetSimConfig& config() const { return config_; }
  const SimNetStats& net_stats() const { return net_stats_; }
  /// Per-site attribution (one entry per site, cumulative).
  const std::vector<SiteNetStats>& site_stats() const { return site_stats_; }

  // Protocol-side accounting surfaced with the network counters.
  void NoteTimeout() { ++net_stats_.timeouts; }
  void NoteResync() { ++net_stats_.resyncs; }
  void NoteStale() { ++net_stats_.stale_msgs; }

 private:
  struct Envelope {
    int64_t due = 0;
    int64_t seq = 0;
    CounterDelivery delivery;
  };
  struct EnvelopeLater {
    bool operator()(const Envelope& a, const Envelope& b) const {
      if (a.due != b.due) return a.due > b.due;
      return a.seq > b.seq;
    }
  };

  /// The RPC: opens its kRpc span, then charges, samples and delays
  /// one attempt after another until one is delivered.
  void Deliver(int child, int dir, MsgKind kind, int64_t words) override;

  bool SampleDrop();
  int64_t SampleLatency();
  void EmitNetEvent(TraceEventKind kind, int site, int dir,
                    MsgKind msg_kind, int64_t words, int64_t t,
                    const char* reason);

  SpanSink* spans_ = nullptr;
  NetSimConfig config_;
  LatencySpec latency_;
  bool null_ = false;
  int64_t now_ = 0;
  int64_t next_seq_ = 0;
  Xoshiro256ss rng_;
  std::vector<char> site_up_;
  std::vector<FaultTransition> transitions_;
  size_t next_transition_ = 0;
  std::priority_queue<Envelope, std::vector<Envelope>, EnvelopeLater>
      queue_;
  SimNetStats net_stats_;
  std::vector<SiteNetStats> site_stats_;
};

/// The transport of a run's root star: the event network when `net` is
/// enabled, else the synchronous link in `mode`.
std::unique_ptr<Transport> MakeTransport(TransportMode mode,
                                         const NetSimConfig& net,
                                         int endpoints);

}  // namespace sim
}  // namespace fgm

#endif  // FGM_SIM_EVENT_NETWORK_H_
