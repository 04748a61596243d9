// Wire encodings for the protocol messages.
//
// The paper's cost model (§2.2) counts messages in *words*, each wide
// enough for one real number. This header makes those counts concrete:
// every message type has an explicit encoding into a word buffer, and the
// transport layer (net/transport.h) cross-checks that the encoded sizes
// equal the word counts it charges — in strict mode every message is
// actually encoded, decoded and delivered from the decoded copy. A deployment on a real transport can serialize exactly these
// structures.
//
// Drift transfers use whichever representation is smaller (§2.1): the
// dense D-word vector, or the verbatim list of raw updates received since
// the last flush (normally one word each, re-projected by the
// coordinator).

#ifndef FGM_NET_WIRE_H_
#define FGM_NET_WIRE_H_

#include <cstdint>
#include <utility>
#include <vector>

#include "stream/record.h"
#include "util/real_vector.h"

namespace fgm {

/// A sequence of words; one word stores one real number or one counter.
/// Counters are bit-cast through the word, NOT value-cast: a double can
/// only represent integers exactly up to 2^53, and a real transport must
/// not corrupt large counts.
class WordBuffer {
 public:
  size_t size_words() const { return words_.size(); }

  void PutReal(double value) { words_.push_back(value); }
  void PutCount(int64_t value);
  void PutBits(uint64_t bits);
  void PutVector(const RealVector& v);

  double GetReal(size_t index) const;
  int64_t GetCount(size_t index) const;
  uint64_t GetBits(size_t index) const;
  /// Reads `dim` words starting at `index` into a vector.
  RealVector GetVector(size_t index, size_t dim) const;

  /// Bitwise equality with another buffer (strict-mode re-encode check;
  /// value comparison would miss NaN payloads and count words).
  bool SameBits(const WordBuffer& other) const;

 private:
  std::vector<double> words_;
};

/// A message's bulk payload, lent by the sender or owned.
///
/// A sender's message lends its own storage (the coordinator's E, a
/// site's drift and raw-update log), which must outlive the message's
/// use at the receiver. A counting link hands the message through, so it
/// copies no payload; a strict link encodes the lent payload and
/// delivers a decoded copy that owns its data.
template <typename T>
class Payload {
 public:
  Payload() = default;
  /// Owns `value`: a decode, a summed subtree drift.
  Payload(T value) : owned_(std::move(value)) {}
  /// Lends `*value`, which must outlive every copy of the message.
  Payload(const T* value) : lent_(value) {}

  const T& operator*() const { return lent_ != nullptr ? *lent_ : owned_; }
  const T* operator->() const { return &**this; }

 private:
  const T* lent_ = nullptr;
  T owned_{};
};

/// Subround quantum θ (coordinator → site), 1 word.
struct QuantumMsg {
  double theta;
  void Encode(WordBuffer* out) const { out->PutReal(theta); }
  static QuantumMsg Decode(const WordBuffer& in) {
    return QuantumMsg{in.GetReal(0)};
  }
  static constexpr int64_t kWords = 1;
};

/// Rebalancing scale λ (coordinator → site), 1 word.
struct LambdaMsg {
  double lambda;
  void Encode(WordBuffer* out) const { out->PutReal(lambda); }
  static LambdaMsg Decode(const WordBuffer& in) {
    return LambdaMsg{in.GetReal(0)};
  }
  static constexpr int64_t kWords = 1;
};

/// Counter increment (site → coordinator), 1 word.
struct CounterMsg {
  int64_t increment;
  void Encode(WordBuffer* out) const { out->PutCount(increment); }
  static CounterMsg Decode(const WordBuffer& in) {
    return CounterMsg{in.GetCount(0)};
  }
  static constexpr int64_t kWords = 1;
};

/// φ-value reply (site → coordinator), 1 word.
struct PhiValueMsg {
  double value;
  void Encode(WordBuffer* out) const { out->PutReal(value); }
  static PhiValueMsg Decode(const WordBuffer& in) {
    return PhiValueMsg{in.GetReal(0)};
  }
  static constexpr int64_t kWords = 1;
};

/// Control opcodes: poll/flush requests, drift requests and violation
/// alerts. One word on the wire.
enum class ControlOp : int64_t {
  kPollPhi = 1,    ///< coordinator asks a site for its current φ-value
  kFlushRequest,   ///< coordinator asks a site to flush its drift
  kDriftRequest,   ///< GM coordinator collects a rebalancing peer's drift
  kViolation,      ///< GM site reports a local safe-zone violation
  kPollCounter,    ///< FGM coordinator re-polls a site's cumulative counter
};

struct ControlMsg {
  ControlOp op;
  void Encode(WordBuffer* out) const {
    out->PutCount(static_cast<int64_t>(op));
  }
  static ControlMsg Decode(const WordBuffer& in);
  static constexpr int64_t kWords = 1;
};

/// Full safe-zone shipment (coordinator → site): the reference vector E,
/// from which the site reconstructs φ (§2.4 step 1). D words. The
/// coordinator lends its E, so shipping a zone to k sites over counting
/// links copies no vector.
struct SafeZoneMsg {
  Payload<RealVector> reference;
  void Encode(WordBuffer* out) const { out->PutVector(*reference); }
  static SafeZoneMsg Decode(const WordBuffer& in, size_t dim) {
    return SafeZoneMsg{in.GetVector(0, dim)};
  }
  int64_t Words() const { return static_cast<int64_t>(reference->dim()); }
};

/// Crash/rejoin state snapshot (coordinator → site): the round's reference
/// vector E plus the current quantum θ, scale λ and the (round, subround)
/// epoch, from which a recovering site rebuilds its safe function and
/// re-enters the protocol. D + 4 words, charged like any other message.
struct ResyncMsg {
  RealVector reference;
  double theta = 0.0;
  double lambda = 1.0;
  int64_t round = 0;
  int64_t subround = 0;

  void Encode(WordBuffer* out) const {
    out->PutVector(reference);
    out->PutReal(theta);
    out->PutReal(lambda);
    out->PutCount(round);
    out->PutCount(subround);
  }
  static ResyncMsg Decode(const WordBuffer& in, size_t dim) {
    ResyncMsg msg;
    msg.reference = in.GetVector(0, dim);
    msg.theta = in.GetReal(dim);
    msg.lambda = in.GetReal(dim + 1);
    msg.round = in.GetCount(dim + 2);
    msg.subround = in.GetCount(dim + 3);
    return msg;
  }
  int64_t Words() const { return static_cast<int64_t>(reference.dim()) + 4; }
};

/// Cheap safe-function shipment (§4.2.1): (p, q, a) — here the Lipschitz
/// bound, an unused degree slot kept for parity with the paper's (p, q),
/// and the offset a = φ(0). 3 words.
struct CheapZoneMsg {
  double lipschitz;
  double degree;
  double offset;
  void Encode(WordBuffer* out) const {
    out->PutReal(lipschitz);
    out->PutReal(degree);
    out->PutReal(offset);
  }
  static CheapZoneMsg Decode(const WordBuffer& in) {
    return CheapZoneMsg{in.GetReal(0), in.GetReal(1), in.GetReal(2)};
  }
  static constexpr int64_t kWords = 3;
};

/// One raw stream update, shipped verbatim and re-projected by the
/// coordinator through the shared query.
///
/// The first word packs the delete flag (bit 0), an extension flag
/// (bit 1) and the low 62 key bits (bits 2..63); a key needing more than
/// 62 bits spills its high bits into a second word, so NO key bit is ever
/// silently dropped (the old single-word `key << 1` packing lost the MSB
/// of large keys).
struct RawUpdateMsg {
  uint64_t key = 0;
  bool is_delete = false;

  /// Words on the wire: 1 for keys below 2^62, 2 beyond.
  int64_t Words() const { return (key >> 62) != 0 ? 2 : 1; }
  void Encode(WordBuffer* out) const;
  /// Reads the update starting at `index`; the caller advances by the
  /// returned message's Words().
  static RawUpdateMsg Decode(const WordBuffer& in, size_t index);

  /// Packs a stream record: key = (cid << 3) | file type, delete flag from
  /// the weight's sign. Checks cid fits 61 bits and |weight| = 1.
  static RawUpdateMsg FromRecord(const StreamRecord& record);
  /// Reconstructs the record at the coordinator (time is not transmitted;
  /// it is irrelevant to re-projection).
  StreamRecord ToRecord(int site) const;
};

/// Site-local log of the raw updates received since the last flush,
/// backing the verbatim DriftFlushMsg representation. Recording stops —
/// and the verbatim option lapses — once the log would cost at least as
/// much as the dense vector, or when an update cannot be packed (non-unit
/// weight, cid beyond 61 bits) or bypassed the log.
class RawUpdateLog {
 public:
  void Record(const StreamRecord& record, size_t dense_words);
  void Reset();
  /// Marks the log out of sync with the drift (an update was applied
  /// without Record); the verbatim representation becomes unavailable.
  /// Entries already logged are kept (and ignored) until the next Reset.
  void Invalidate();

  bool valid() const { return valid_; }
  int64_t words() const { return words_; }
  const std::vector<RawUpdateMsg>& updates() const { return updates_; }

 private:
  std::vector<RawUpdateMsg> updates_;
  int64_t words_ = 0;
  bool valid_ = true;
};

/// Drift flush (site → coordinator): update count plus either the dense
/// vector or the verbatim updates, whichever is smaller.
///
/// A SENDING site's message lends its drift whatever the representation
/// (the receiver of a counting link folds it in place, before the site
/// resets); only the representation selected by `dense` goes on the wire,
/// so a strict-mode decode of a verbatim flush delivers the raw updates
/// and an empty drift for the coordinator to re-project.
struct DriftFlushMsg {
  int64_t update_count = 0;
  bool dense = true;
  Payload<RealVector> drift;                // when dense (or sender-local)
  Payload<std::vector<RawUpdateMsg>> raw;   // when !dense

  /// Builds the message a site sends for its current drift, choosing the
  /// cheaper representation (verbatim requires a valid, complete log).
  /// The message lends `drift` and the log's updates, copying neither.
  static DriftFlushMsg ForFlush(const RealVector& drift,
                                int64_t update_count,
                                const RawUpdateLog& log);

  void Encode(WordBuffer* out) const;
  static DriftFlushMsg Decode(const WordBuffer& in);

  /// Words on the wire: 1 (count, whose sign encodes dense/verbatim) plus
  /// D (dense) or the summed raw-update words (verbatim). This is also
  /// the amount the transport charges — one definition for both.
  int64_t Words() const;

  /// The analytic charge of the paper's cost model: min(D, n) + 1. Equals
  /// Words() of a ForFlush message whenever every raw update packs into
  /// one word (always true for the paper's workloads).
  static int64_t ChargedWords(size_t dim, int64_t update_count);
};

}  // namespace fgm

#endif  // FGM_NET_WIRE_H_
