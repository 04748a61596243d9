// Structured protocol event traces.
//
// The FGM/GM protocols compute the quantities that define their behaviour
// — the ψ trajectory across subrounds, the quantum θ = -ψ/2k, counter
// increments c_i, rebalance scales λ, per-message word costs — and then
// throw them away. A TraceSink captures them as typed events so a run can
// be debugged, plotted, or re-verified offline (obs/replay.h checks the
// protocol invariants event by event).
//
// Tracing is OFF by default and must stay free when off: every emitter
// holds a raw `TraceSink*` that is null when disabled, and each hook is a
// single pointer test (`if (trace_ != nullptr) { build event; emit; }`) —
// the event is only constructed inside the branch. bench_micro measures
// the disabled hook to keep this honest.

#ifndef FGM_OBS_TRACE_H_
#define FGM_OBS_TRACE_H_

#include <cstdint>
#include <cstdio>
#include <mutex>
#include <string>
#include <vector>

namespace fgm {

enum class TraceEventKind : int {
  kRunStart = 0,    ///< driver: protocol/query identity, k
  kRoundStart,      ///< coordinator: new round, φ(0), ε_ψ, initial ψ
  kSubroundStart,   ///< coordinator: ψ at entry and the quantum θ = -ψ/2k
  kSubroundEnd,     ///< coordinator: recomputed ψ after the φ-value poll
  kIncrementMsg,    ///< site → coordinator counter increment (c_i raise)
  kDriftFlush,      ///< site → coordinator drift flush (words, updates)
  kRebalance,       ///< coordinator: accepted rebalance (λ, ψ_B, new ψ)
  kThresholdCross,  ///< ψ reached the termination level / GM site violation
  kMsgSent,         ///< one wire message (kind, direction, words)
  kPlanChosen,      ///< FGM/O: round plan (full sites, τ, predicted gain)
  kPlanSite,        ///< FGM/O: per-site d_i with the α/β/γ rate estimates
  kPlanOutcome,     ///< FGM/O: round's actual words/updates vs prediction
  kMsgDelivered,    ///< sim: a queued wire message reached its endpoint
  kMsgDropped,      ///< sim: a wire message was lost (loss or down target)
  kSiteDown,        ///< sim: a site crashed or its link went down
  kSiteResync,      ///< coordinator: crash/rejoin handshake completed
  kAlertRaised,     ///< health monitor: an alert rule started firing
  kAlertCleared,    ///< health monitor: a previously raised rule recovered
  kTierEnd,         ///< hier: per-tier traffic totals (before RunEnd)
  kRunEnd,          ///< driver: final TrafficStats totals
  kKindCount,
};

const char* TraceEventKindName(TraceEventKind kind);

// The reasons events carry (ThresholdCross in `label`, the rest in
// `reason`). Emitters set these constants, and the schema in trace.cc
// builds each kind's accepted set from them.
inline constexpr const char* kReasonResync = "resync";
inline constexpr const char* kReasonReconfig = "reconfig";
inline constexpr const char* kReasonDeadline = "deadline";
inline constexpr const char* kReasonRebaseline = "rebaseline";
inline constexpr const char* kReasonTimeoutPoll = "timeout-poll";
inline constexpr const char* kReasonPsiExhausted = "psi-exhausted";
inline constexpr const char* kReasonLocalViolation = "local-violation";
inline constexpr const char* kReasonLoss = "loss";
inline constexpr const char* kReasonCrash = "crash";
inline constexpr const char* kReasonOutage = "outage";
inline constexpr const char* kReasonRejoin = "rejoin";
inline constexpr const char* kReasonDown = "down";
inline constexpr const char* kReasonSlow = "slow";

/// One protocol event. Flat by design: every field is a plain scalar so
/// sinks can store or serialize events without allocation; each event
/// kind populates (and serializes) only the fields its schema row in
/// trace.cc lists.
struct TraceEvent {
  TraceEventKind kind = TraceEventKind::kRunStart;
  int64_t seq = 0;       ///< assigned by the sink, dense from 0
  int site = -1;         ///< -1 = coordinator / whole run
  int64_t round = 0;     ///< 1-based protocol round
  int64_t subround = 0;  ///< 1-based subround within the round
  double psi = 0.0;      ///< coordinator's ψ (incl. ψ_B) for the event
  double theta = 0.0;    ///< subround quantum
  double lambda = 0.0;   ///< rebalancing scale
  double value = 0.0;    ///< φ(0) (RoundStart), ψ_B (Rebalance), φ (GM)
  double eps = 0.0;      ///< ε_ψ (RoundStart)
  int k = 0;             ///< number of sites (RunStart / RoundStart)
  int64_t counter = 0;   ///< counter increment / post-poll counter total
  int64_t words = 0;     ///< words on the wire (MsgSent, DriftFlush)
  int64_t count = 0;     ///< update count (DriftFlush), events (RunEnd)
  int dir = 0;           ///< MsgSent: +1 coord → site, -1 site → coord
  int64_t up_words = 0, down_words = 0;  ///< RunEnd traffic totals
  int64_t up_msgs = 0, down_msgs = 0;
  double alpha = 0.0;        ///< PlanSite: site update rate estimate
  double beta = 0.0;         ///< PlanSite: full-function drain rate estimate
  double gamma = 0.0;        ///< PlanSite: cheap-bound drain rate estimate
  double pred_len = 0.0;     ///< PlanChosen: predicted round length τ
  double pred_gain = 0.0;    ///< PlanChosen/PlanOutcome: predicted gain g−C
  double pred_rate = 0.0;    ///< PlanChosen: predicted gain rate (g−C)/τ
  double actual_gain = 0.0;  ///< PlanOutcome: measured gain for the round
  int64_t t = 0;             ///< sim tick (delivery/drop/fault events)
  /// Tree topologies (src/hier): which tier's link or local subround the
  /// event belongs to. 0 = the root star (the flat protocol's only tier;
  /// never serialized, keeping flat traces byte-identical); tier t ≥ 1 =
  /// the links between tier-t nodes and their children / a tier-t
  /// aggregator's local subround machinery.
  int tier = 0;
  const char* label = nullptr;  ///< static string: msg kind, protocol name
  const char* reason = nullptr;  ///< static string: drop cause, poll cause
};

/// Event consumer. Emitters call Emit(), which stamps the sequence number
/// and forwards to the implementation. Emit is serialized by a mutex so
/// concurrent emitters cannot tear the sequence numbering or the sink's
/// buffer; the disabled path never reaches Emit and stays one
/// null-pointer test.
class TraceSink {
 public:
  virtual ~TraceSink() = default;

  void Emit(TraceEvent event) {
    std::lock_guard<std::mutex> lock(mu_);
    event.seq = next_seq_++;
    OnEvent(event);
  }

  int64_t events() const {
    std::lock_guard<std::mutex> lock(mu_);
    return next_seq_;
  }

 protected:
  virtual void OnEvent(const TraceEvent& event) = 0;

 private:
  mutable std::mutex mu_;
  int64_t next_seq_ = 0;
};

/// Buffers all events in memory (tests, in-process analysis).
class MemoryTraceSink : public TraceSink {
 public:
  const std::vector<TraceEvent>& events_log() const { return events_; }

 protected:
  void OnEvent(const TraceEvent& event) override { events_.push_back(event); }

 private:
  std::vector<TraceEvent> events_;
};

/// Counts events and otherwise discards them (overhead measurement).
class CountingTraceSink : public TraceSink {
 protected:
  void OnEvent(const TraceEvent&) override {}
};

/// Writes one JSON object per event (JSONL). Doubles are emitted with
/// round-trip precision so the replay checker can re-verify the protocol
/// arithmetic bit-exactly. Schema: every line carries "ev" and "seq",
/// then the fields its kind's row in trace.cc lists ({key, type, member,
/// presence}), and "tier" last on tree-tier events. ParseTraceEventJson
/// walks the same table, so the writer and the reader cannot drift apart.
class JsonlTraceSink : public TraceSink {
 public:
  /// Opens `path` for writing; FGM_CHECKs on failure.
  explicit JsonlTraceSink(const std::string& path);
  ~JsonlTraceSink() override;

  /// Renders one event as its JSONL line (no trailing newline).
  static std::string EventJson(const TraceEvent& event);

 protected:
  void OnEvent(const TraceEvent& event) override;

 private:
  std::FILE* out_;
};

/// Parses one JSONL trace line by EventJson's schema. Returns false and
/// sets `*error` on malformed JSON, an unknown kind, a missing or foreign
/// key, an optional key without its condition, a wrong JSON type, a
/// non-integral or negative integer, null outside a double field, or a
/// label outside its known set. Free-form labels are interned.
bool ParseTraceEventJson(const std::string& line, TraceEvent* event,
                         std::string* error);

}  // namespace fgm

#endif  // FGM_OBS_TRACE_H_
