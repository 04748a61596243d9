// The one message path. Every coordinator ↔ child message of the
// protocols travels through a Transport as a typed wire message
// (net/wire.h): Ship carries it parent → child, Send child → parent, and
// the message's type fixes the MsgKind it books under and how the
// receiver decodes it.
//
// Transport books each message once: its words into TrafficStats (the
// paper's cost model, §2.2) and one kMsgSent trace event, stamped with
// the star's tree tier. It records no span: the trace is the message
// record, and only a timed link (sim::EventNetwork) gives a message an
// interval worth a span. The strict flag (TransportMode
// kSerializing, or FGM_STRICT_WIRE under kAuto) picks how the payload
// crosses:
//
//  * counting — the fast simulation path: the message is handed through
//    unchanged.
//  * strict — the message is ENCODED into a WordBuffer, the encoded size
//    is checked against the charged word count, a fresh copy is DECODED,
//    the decode is verified to re-encode to the identical bits, and the
//    decoded copy is delivered. Any divergence between the cost model and
//    the real wire format aborts loudly (FGM_CHECK), which is the point:
//    the paper's headline metric is words on the wire, so a drift between
//    "charged" and "transmitted" must be impossible to miss.
//
// Both modes charge identical word counts from the same message objects,
// so reported costs are bit-identical across modes. The link itself is
// one virtual hook, Deliver: the synchronous link books the message
// once; sim::EventNetwork (src/sim) overrides it with latency, loss,
// retransmission and message spans, and always runs strict.
// sim::MakeTransport builds the right one for a run.

#ifndef FGM_NET_TRANSPORT_H_
#define FGM_NET_TRANSPORT_H_

#include <utility>
#include <vector>

#include "net/network.h"
#include "net/wire.h"
#include "query/query.h"
#include "util/check.h"
#include "util/real_vector.h"

namespace fgm {

class TraceSink;

// What a message's type fixes on the wire. First, the cost-breakdown
// class it books under.
inline MsgKind KindOf(const SafeZoneMsg&) { return MsgKind::kSafeZone; }
// Cheap bounds are safe-zone shipments in the cost breakdown.
inline MsgKind KindOf(const CheapZoneMsg&) { return MsgKind::kSafeZone; }
inline MsgKind KindOf(const QuantumMsg&) { return MsgKind::kQuantum; }
inline MsgKind KindOf(const LambdaMsg&) { return MsgKind::kLambda; }
inline MsgKind KindOf(const ControlMsg&) { return MsgKind::kControl; }
inline MsgKind KindOf(const ResyncMsg&) { return MsgKind::kResync; }
inline MsgKind KindOf(const CounterMsg&) { return MsgKind::kCounter; }
inline MsgKind KindOf(const PhiValueMsg&) { return MsgKind::kPhiValue; }
inline MsgKind KindOf(const DriftFlushMsg&) { return MsgKind::kDriftFlush; }
inline MsgKind KindOf(const RawUpdateMsg&) { return MsgKind::kRawUpdate; }

// Second, its payload size in words ...
template <typename Msg>
int64_t WireWords(const Msg& msg) {
  if constexpr (requires { msg.Words(); }) {
    return msg.Words();
  } else {
    return Msg::kWords;
  }
}

// ... and how the receiver decodes it. Zone and resync payloads decode at
// the dimension the receiver already knows (the query's), so a truncated
// payload fails the decode instead of arriving as a shorter vector.
template <typename Msg>
Msg DecodeAs(const WordBuffer& in, const Msg&) {
  return Msg::Decode(in);
}
inline SafeZoneMsg DecodeAs(const WordBuffer& in, const SafeZoneMsg& sent) {
  return SafeZoneMsg::Decode(in, sent.reference->dim());
}
inline ResyncMsg DecodeAs(const WordBuffer& in, const ResyncMsg& sent) {
  return ResyncMsg::Decode(in, sent.reference.dim());
}
inline RawUpdateMsg DecodeAs(const WordBuffer& in, const RawUpdateMsg&) {
  return RawUpdateMsg::Decode(in, 0);
}

class Transport {
 public:
  /// The synchronous star between one parent and `sites` child endpoints.
  /// kAuto resolves against the FGM_STRICT_WIRE environment variable.
  Transport(int sites, TransportMode mode);
  virtual ~Transport() = default;

  int sites() const { return sites_; }
  /// True when every message takes the strict encode/decode round trip.
  bool strict() const { return strict_; }
  const TrafficStats& stats() const { return stats_; }

  /// Tree tier this star carries (src/hier): stamped onto every kMsgSent
  /// event. The root star keeps 0, so flat traces stay in the flat
  /// schema.
  void set_tier(int tier) { tier_ = tier; }

  /// Sends one kMsgSent event per booked message to `trace` (nullptr
  /// disables; the default). The event network also emits its delivery,
  /// drop and fault events there.
  void set_trace(TraceSink* trace) { trace_ = trace; }

  /// Parent → child: charges the message's words and returns the message
  /// as the child receives it.
  template <typename Msg>
  Msg Ship(int child, Msg msg) {
    return Carry(child, +1, std::move(msg));
  }

  /// Child → parent.
  template <typename Msg>
  Msg Send(int child, Msg msg) {
    return Carry(child, -1, std::move(msg));
  }

 protected:
  /// Carries one message of `words` wire words over `child`'s link,
  /// parent → child for dir = +1 and child → parent for dir = -1. The
  /// synchronous link books it once.
  virtual void Deliver(int child, int dir, MsgKind kind, int64_t words) {
    Book(child, dir, kind, words);
  }

  /// Books one message: its words into the traffic stats, and the
  /// kMsgSent event.
  void Book(int child, int dir, MsgKind kind, int64_t words);

  /// The strict round trip: encode, check the encoded size against the
  /// charged words, `carry(words)` the message across, decode, check the
  /// decode re-encodes to identical bits, and deliver the decoded copy.
  template <typename Msg, typename CarryFn>
  Msg RoundTrip(const Msg& msg, CarryFn carry);

  TraceSink* trace_ = nullptr;

 private:
  template <typename Msg>
  Msg Carry(int child, int dir, Msg msg);

  // Kept out of Book, so a message with tracing off pays for no event
  // construction.
  void EmitSent(int child, int dir, MsgKind kind, int64_t words);

  int sites_;
  bool strict_;
  int tier_ = 0;
  TrafficStats stats_;
};

template <typename Msg, typename CarryFn>
Msg Transport::RoundTrip(const Msg& msg, CarryFn carry) {
  WordBuffer wire;
  msg.Encode(&wire);
  const int64_t words = WireWords(msg);
  FGM_CHECK_EQ(static_cast<int64_t>(wire.size_words()), words);
  carry(words);
  Msg decoded = DecodeAs(wire, msg);
  WordBuffer reencoded;
  decoded.Encode(&reencoded);
  FGM_CHECK(wire.SameBits(reencoded));
  return decoded;
}

// Declared inline so the counting path folds into the caller, leaving
// one indirect call (Deliver) per message.
template <typename Msg>
inline Msg Transport::Carry(int child, int dir, Msg msg) {
  const MsgKind kind = KindOf(msg);
  if (!strict_) {
    Deliver(child, dir, kind, WireWords(msg));
    return msg;
  }
  return RoundTrip(msg,
                   [&](int64_t words) { Deliver(child, dir, kind, words); });
}

/// Re-projects verbatim raw updates through the shared query, summing the
/// resulting deltas into `out` (which must be zeroed, query-dimensioned) —
/// what the coordinator of a real deployment does on receiving the
/// verbatim drift representation. Applying the same deltas in the same
/// order as the site makes the reconstruction bit-exact.
void ReprojectRawUpdates(const ContinuousQuery& query, int site,
                         const std::vector<RawUpdateMsg>& raw,
                         RealVector* out);

/// The drift delivered by a flush message: the carried dense vector when
/// present (the sender's own vector in counting mode, or a strict-mode
/// dense decode), otherwise the re-projection of the verbatim updates
/// into `*scratch`.
const RealVector& DeliveredDrift(const DriftFlushMsg& msg,
                                 const ContinuousQuery& query, int site,
                                 RealVector* scratch);

}  // namespace fgm

#endif  // FGM_NET_TRANSPORT_H_
