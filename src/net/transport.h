// Message-path transport with strict accounting.
//
// All coordinator ↔ site interactions of the protocols go through this
// interface as typed wire messages (net/wire.h). Two implementations:
//
//  * CountingTransport — the fast simulation path: charges each message's
//    word count to SimNetwork and hands the message through unchanged.
//  * SerializingTransport — the strict path: ENCODES every message into a
//    WordBuffer, cross-checks the encoded size against the charged word
//    count, DECODES a fresh copy, verifies the decode re-encodes to the
//    identical bits, and delivers the decoded copy. Any divergence
//    between the cost model and the real wire format aborts loudly
//    (FGM_CHECK), which is the point: the paper's headline metric is
//    words on the wire, so a drift between "charged" and "transmitted"
//    must be impossible to miss.
//
// Both modes charge identical word counts from the same message objects,
// so reported costs are bit-identical across modes; strict mode only adds
// the encode/decode/verify work. sim::EventNetwork (src/sim) implements
// this same interface over a discrete-event queue with latency, loss and
// fault injection; a future socket backend would slot in the same way.

#ifndef FGM_NET_TRANSPORT_H_
#define FGM_NET_TRANSPORT_H_

#include <memory>

#include "net/network.h"
#include "net/wire.h"
#include "query/query.h"
#include "util/real_vector.h"

namespace fgm {

/// Resolves kAuto against the FGM_STRICT_WIRE environment variable.
TransportMode ResolveTransportMode(TransportMode mode);

class Transport {
 public:
  explicit Transport(int sites) : network_(sites) {}
  virtual ~Transport() = default;

  int sites() const { return network_.sites(); }
  const TrafficStats& stats() const { return network_.stats(); }
  /// The traffic-accounting star under this transport. Exposed so tree
  /// topologies (src/hier) can stamp each per-tier transport with its
  /// tier (SimNetwork::set_tier) before wiring sinks.
  SimNetwork& network() { return network_; }
  virtual const char* name() const = 0;

  /// Forwards per-message kMsgSent events to `trace` (nullptr disables).
  /// Virtual: the event-network backend also emits delivery/drop events.
  virtual void set_trace(TraceSink* trace) { network_.set_trace(trace); }

  /// Forwards per-message spans to `spans` (nullptr disables). Virtual:
  /// the event-network backend emits latency-stamped spans itself instead
  /// of the point spans SimNetwork records.
  virtual void set_spans(SpanSink* spans) {
    spans_ = spans;
    network_.set_spans(spans);
  }

  /// Enables the span-id wire envelope: every message carries the id of
  /// the innermost open span as one trailing word, charged like any other
  /// payload word (and, on the serializing path, actually encoded so the
  /// charge stays provably honest). Off by default — default traffic is
  /// bit-identical with spans compiled in.
  void set_span_wire(bool on) { span_wire_ = on; }

  // Coordinator → site. Each call charges the message's words and returns
  // the message as the site receives it.
  virtual SafeZoneMsg ShipSafeZone(int site, SafeZoneMsg msg) = 0;
  virtual CheapZoneMsg ShipCheapZone(int site, CheapZoneMsg msg) = 0;
  virtual QuantumMsg ShipQuantum(int site, QuantumMsg msg) = 0;
  virtual LambdaMsg ShipLambda(int site, LambdaMsg msg) = 0;
  virtual ControlMsg ShipControl(int site, ControlMsg msg) = 0;
  virtual ResyncMsg ShipResync(int site, ResyncMsg msg) = 0;

  // Site → coordinator.
  virtual ControlMsg SendControl(int site, ControlMsg msg) = 0;
  virtual CounterMsg SendCounter(int site, CounterMsg msg) = 0;
  virtual PhiValueMsg SendPhiValue(int site, PhiValueMsg msg) = 0;
  virtual DriftFlushMsg SendDriftFlush(int site, DriftFlushMsg msg) = 0;
  virtual RawUpdateMsg SendRawUpdate(int site, RawUpdateMsg msg) = 0;

 protected:
  /// Extra words per message charged by the span-id envelope.
  int64_t SpanWireExtra() const { return span_wire_ ? 1 : 0; }

  SimNetwork network_;
  SpanSink* spans_ = nullptr;
  bool span_wire_ = false;
};

/// Builds the transport for `mode` (kAuto resolves via the environment).
std::unique_ptr<Transport> MakeTransport(TransportMode mode, int sites);

/// Re-projects verbatim raw updates through the shared query, summing the
/// resulting deltas into `out` (which must be zeroed, query-dimensioned) —
/// what the coordinator of a real deployment does on receiving the
/// verbatim drift representation. Applying the same deltas in the same
/// order as the site makes the reconstruction bit-exact.
void ReprojectRawUpdates(const ContinuousQuery& query, int site,
                         const std::vector<RawUpdateMsg>& raw,
                         RealVector* out);

/// The drift delivered by a flush message: the carried dense vector when
/// present (counting mode, or a strict-mode dense decode), otherwise the
/// re-projection of the verbatim updates into `*scratch`.
const RealVector& DeliveredDrift(const DriftFlushMsg& msg,
                                 const ContinuousQuery& query, int site,
                                 RealVector* scratch);

}  // namespace fgm

#endif  // FGM_NET_TRANSPORT_H_
