#include "net/transport.h"

#include <cstdlib>
#include <utility>
#include <vector>

#include "obs/span.h"
#include "util/check.h"

namespace fgm {

namespace {

bool StrictWireEnv() {
  const char* env = std::getenv("FGM_STRICT_WIRE");
  return env != nullptr && env[0] != '\0' && !(env[0] == '0' && env[1] == '\0');
}

class CountingTransport final : public Transport {
 public:
  explicit CountingTransport(int sites) : Transport(sites) {}

  const char* name() const override { return "counting"; }

  SafeZoneMsg ShipSafeZone(int site, SafeZoneMsg msg) override {
    network_.Upstream(site, MsgKind::kSafeZone, msg.Words() + SpanWireExtra());
    return msg;
  }
  CheapZoneMsg ShipCheapZone(int site, CheapZoneMsg msg) override {
    // Cheap bounds are safe-zone shipments in the cost breakdown.
    network_.Upstream(site, MsgKind::kSafeZone,
                      CheapZoneMsg::kWords + SpanWireExtra());
    return msg;
  }
  QuantumMsg ShipQuantum(int site, QuantumMsg msg) override {
    network_.Upstream(site, MsgKind::kQuantum,
                      QuantumMsg::kWords + SpanWireExtra());
    return msg;
  }
  LambdaMsg ShipLambda(int site, LambdaMsg msg) override {
    network_.Upstream(site, MsgKind::kLambda,
                      LambdaMsg::kWords + SpanWireExtra());
    return msg;
  }
  ControlMsg ShipControl(int site, ControlMsg msg) override {
    network_.Upstream(site, MsgKind::kControl,
                      ControlMsg::kWords + SpanWireExtra());
    return msg;
  }
  ResyncMsg ShipResync(int site, ResyncMsg msg) override {
    network_.Upstream(site, MsgKind::kResync, msg.Words() + SpanWireExtra());
    return msg;
  }
  ControlMsg SendControl(int site, ControlMsg msg) override {
    network_.Downstream(site, MsgKind::kControl,
                        ControlMsg::kWords + SpanWireExtra());
    return msg;
  }
  CounterMsg SendCounter(int site, CounterMsg msg) override {
    network_.Downstream(site, MsgKind::kCounter,
                        CounterMsg::kWords + SpanWireExtra());
    return msg;
  }
  PhiValueMsg SendPhiValue(int site, PhiValueMsg msg) override {
    network_.Downstream(site, MsgKind::kPhiValue,
                        PhiValueMsg::kWords + SpanWireExtra());
    return msg;
  }
  DriftFlushMsg SendDriftFlush(int site, DriftFlushMsg msg) override {
    network_.Downstream(site, MsgKind::kDriftFlush,
                        msg.Words() + SpanWireExtra());
    return msg;
  }
  RawUpdateMsg SendRawUpdate(int site, RawUpdateMsg msg) override {
    network_.Downstream(site, MsgKind::kRawUpdate,
                        msg.Words() + SpanWireExtra());
    return msg;
  }
};

class SerializingTransport final : public Transport {
 public:
  explicit SerializingTransport(int sites) : Transport(sites) {}

  const char* name() const override { return "serializing"; }

  SafeZoneMsg ShipSafeZone(int site, SafeZoneMsg msg) override {
    const size_t dim = msg.reference.dim();
    return RoundTrip(
        msg, msg.Words(),
        [dim](const WordBuffer& in) { return SafeZoneMsg::Decode(in, dim); },
        [&](int64_t words) {
          network_.Upstream(site, MsgKind::kSafeZone, words);
        });
  }
  CheapZoneMsg ShipCheapZone(int site, CheapZoneMsg msg) override {
    return RoundTrip(
        msg, CheapZoneMsg::kWords,
        [](const WordBuffer& in) { return CheapZoneMsg::Decode(in); },
        [&](int64_t words) {
          network_.Upstream(site, MsgKind::kSafeZone, words);
        });
  }
  QuantumMsg ShipQuantum(int site, QuantumMsg msg) override {
    return RoundTrip(
        msg, QuantumMsg::kWords,
        [](const WordBuffer& in) { return QuantumMsg::Decode(in); },
        [&](int64_t words) {
          network_.Upstream(site, MsgKind::kQuantum, words);
        });
  }
  LambdaMsg ShipLambda(int site, LambdaMsg msg) override {
    return RoundTrip(
        msg, LambdaMsg::kWords,
        [](const WordBuffer& in) { return LambdaMsg::Decode(in); },
        [&](int64_t words) {
          network_.Upstream(site, MsgKind::kLambda, words);
        });
  }
  ControlMsg ShipControl(int site, ControlMsg msg) override {
    return RoundTrip(
        msg, ControlMsg::kWords,
        [](const WordBuffer& in) { return ControlMsg::Decode(in); },
        [&](int64_t words) {
          network_.Upstream(site, MsgKind::kControl, words);
        });
  }
  ResyncMsg ShipResync(int site, ResyncMsg msg) override {
    const size_t dim = msg.reference.dim();
    return RoundTrip(
        msg, msg.Words(),
        [dim](const WordBuffer& in) { return ResyncMsg::Decode(in, dim); },
        [&](int64_t words) {
          network_.Upstream(site, MsgKind::kResync, words);
        });
  }
  ControlMsg SendControl(int site, ControlMsg msg) override {
    return RoundTrip(
        msg, ControlMsg::kWords,
        [](const WordBuffer& in) { return ControlMsg::Decode(in); },
        [&](int64_t words) {
          network_.Downstream(site, MsgKind::kControl, words);
        });
  }
  CounterMsg SendCounter(int site, CounterMsg msg) override {
    return RoundTrip(
        msg, CounterMsg::kWords,
        [](const WordBuffer& in) { return CounterMsg::Decode(in); },
        [&](int64_t words) {
          network_.Downstream(site, MsgKind::kCounter, words);
        });
  }
  PhiValueMsg SendPhiValue(int site, PhiValueMsg msg) override {
    return RoundTrip(
        msg, PhiValueMsg::kWords,
        [](const WordBuffer& in) { return PhiValueMsg::Decode(in); },
        [&](int64_t words) {
          network_.Downstream(site, MsgKind::kPhiValue, words);
        });
  }
  DriftFlushMsg SendDriftFlush(int site, DriftFlushMsg msg) override {
    return RoundTrip(
        msg, msg.Words(),
        [](const WordBuffer& in) { return DriftFlushMsg::Decode(in); },
        [&](int64_t words) {
          network_.Downstream(site, MsgKind::kDriftFlush, words);
        });
  }
  RawUpdateMsg SendRawUpdate(int site, RawUpdateMsg msg) override {
    return RoundTrip(
        msg, msg.Words(),
        [](const WordBuffer& in) { return RawUpdateMsg::Decode(in, 0); },
        [&](int64_t words) {
          network_.Downstream(site, MsgKind::kRawUpdate, words);
        });
  }

 private:
  /// The strict message path: encode, check encoded size == charged
  /// words, charge, decode, check the decode re-encodes to identical
  /// bits, deliver the decoded copy.
  template <typename Msg, typename DecodeFn, typename ChargeFn>
  Msg RoundTrip(const Msg& msg, int64_t charged_words, DecodeFn decode,
                ChargeFn charge) {
    WordBuffer wire;
    msg.Encode(&wire);
    FGM_CHECK_EQ(static_cast<int64_t>(wire.size_words()), charged_words);
    charge(charged_words + SpanWireExtra());
    // Decode sees the payload only — a receiver strips the known trailing
    // span-id word before decoding (some payloads infer their length from
    // the buffer size).
    Msg decoded = decode(wire);
    WordBuffer reencoded;
    decoded.Encode(&reencoded);
    if (span_wire_) {
      // The span-id envelope is one trailing word, actually appended to
      // the wire bits so the +1 charge is backed by transmitted words,
      // and cross-checked bit-exactly like the payload.
      const int64_t span_id = spans_ != nullptr ? spans_->CurrentId() : 0;
      wire.PutCount(span_id);
      reencoded.PutCount(span_id);
    }
    FGM_CHECK(wire.SameBits(reencoded));
    return decoded;
  }
};

}  // namespace

TransportMode ResolveTransportMode(TransportMode mode) {
  if (mode != TransportMode::kAuto) return mode;
  return StrictWireEnv() ? TransportMode::kSerializing
                         : TransportMode::kCounting;
}

std::unique_ptr<Transport> MakeTransport(TransportMode mode, int sites) {
  switch (ResolveTransportMode(mode)) {
    case TransportMode::kCounting:
      return std::make_unique<CountingTransport>(sites);
    case TransportMode::kSerializing:
      return std::make_unique<SerializingTransport>(sites);
    case TransportMode::kAuto:
      break;
  }
  FGM_CHECK(false);
  return nullptr;
}

void ReprojectRawUpdates(const ContinuousQuery& query, int site,
                         const std::vector<RawUpdateMsg>& raw,
                         RealVector* out) {
  FGM_CHECK_EQ(out->dim(), query.dimension());
  std::vector<CellUpdate> deltas;
  for (const RawUpdateMsg& u : raw) {
    deltas.clear();
    query.MapRecord(u.ToRecord(site), &deltas);
    for (const CellUpdate& d : deltas) (*out)[d.index] += d.delta;
  }
}

const RealVector& DeliveredDrift(const DriftFlushMsg& msg,
                                 const ContinuousQuery& query, int site,
                                 RealVector* scratch) {
  if (msg.drift.dim() != 0) {
    FGM_CHECK_EQ(msg.drift.dim(), query.dimension());
    return msg.drift;
  }
  if (scratch->dim() != query.dimension()) {
    *scratch = RealVector(query.dimension());
  } else {
    scratch->SetZero();
  }
  ReprojectRawUpdates(query, site, msg.raw, scratch);
  return *scratch;
}

}  // namespace fgm
