// Causal span tracing for protocol runs.
//
// A trace (obs/trace.h) records *events*, each message once as a
// MsgSent; spans record *intervals* with causal parent/child structure:
// the run contains rounds, rounds contain subrounds, and resyncs hang off
// the run. A message gets a span only where it takes time: over a timed
// sim::EventNetwork, subrounds contain the RPCs that drive them, RPCs
// contain their per-attempt wire messages (retransmissions included), and
// counter datagrams span post → drain. A synchronous run (or the
// simulator's null mode) records only the scopes. Timestamps come from
// the simulated event clock when the event network is timed
// (UseTickClock), else from a monotonic nanosecond clock, so simulated
// latency is attributed per message and real compute time per phase.
//
// Same zero-cost discipline as TraceSink: producers hold a raw
// `SpanSink*` that is null when disabled, and every hook is a single
// pointer test. bench_micro measures the disabled hook to keep this
// honest.
//
// Export is Chrome Trace Event JSON ({"traceEvents":[...]}, "ph":"X"
// complete events), loadable in Perfetto / chrome://tracing. Spans that
// were never closed export as "ph":"B" begin events; CheckSpans flags
// them — a finished run must close every span.

#ifndef FGM_OBS_SPAN_H_
#define FGM_OBS_SPAN_H_

#include <chrono>
#include <cstdint>
#include <mutex>
#include <string>
#include <vector>

namespace fgm {

enum class SpanKind : int {
  kRun = 0,         ///< whole run (root; every other span nests inside)
  kRound,           ///< one protocol round
  kSubround,        ///< one subround within a round
  kRpc,             ///< blocking request/response incl. retransmit chain
  kMsg,             ///< one charged wire message (one RPC attempt)
  kDatagram,        ///< fire-and-forget counter datagram (post → drain)
  kResync,          ///< crash/rejoin handshake (resync or reconfigure)
  kKindCount,
};

const char* SpanKindName(SpanKind kind);

/// One causal interval. Flat by design (plain scalars + static strings)
/// so the sink stores spans without per-span allocation.
struct Span {
  /// parent value meaning "assign the innermost open span (else the
  /// root) when emitted".
  static constexpr int64_t kAutoParent = -1;

  int64_t id = 0;                 ///< dense from 1, assigned by the sink
  int64_t parent = kAutoParent;   ///< parent span id; 0 = none (root)
  SpanKind kind = SpanKind::kMsg;
  int site = -1;                  ///< -1 = coordinator / whole run
  int64_t round = 0;
  int64_t subround = 0;
  int64_t begin = 0;              ///< ticks (sim clock) or ns (wall)
  int64_t end = 0;
  int64_t words = 0;   ///< charged wire words (kMsg/kDatagram: exact)
  int64_t count = 0;   ///< attempts (kRpc)
  int dir = 0;         ///< +1 coordinator → site, -1 site → coordinator
  int64_t transit = 0; ///< ticks on the wire (the sampled latency)
  int64_t drain = 0;   ///< ticks between arrival and the protocol drain
  const char* label = nullptr;   ///< static string: msg kind, phase name
  const char* reason = nullptr;  ///< static string: loss / forced close
};

/// Thread-safe span collector with scope stack and Chrome-trace export.
///
/// Begin/End manage *scoped* spans (run, round, subround, RPC, resync):
/// Begin pushes the span onto an open-scope stack and End closes it
/// (removal tolerates out-of-stack-order closes — forced round ends close
/// a subround from inside a resync scope). EmitComplete records a closed
/// leaf span in one call; its parent defaults to the innermost open scope
/// at emission time.
class SpanSink {
 public:
  SpanSink();

  /// Opens a scoped span whose parent is the innermost open span (the
  /// root when none). Returns the span id.
  int64_t Begin(SpanKind kind, int site = -1, int64_t round = 0,
                int64_t subround = 0, const char* label = nullptr);
  /// Opens a scoped span with an explicit parent id (0 = none). Used
  /// where causal parentage differs from the current scope: rounds parent
  /// to the run, resyncs to the run (they straddle subround boundaries).
  int64_t BeginWithParent(SpanKind kind, int site, int64_t round,
                          int64_t subround, const char* label,
                          int64_t parent);
  /// Closes an open scoped span, stamping its end time. `reason`, when
  /// given, labels why the scope closed (forced round end, run end).
  void End(int64_t id, const char* reason = nullptr);
  /// End() that also records totals only known at close time: an RPC's
  /// attempt count and total charged words across its retransmit chain.
  void EndWithStats(int64_t id, const char* reason, int64_t words,
                    int64_t count);

  /// Records an already-delimited span (begin/end set by the caller; a
  /// zero `end` means instantaneous: end = begin). Span::kAutoParent
  /// resolves to the innermost open scope.
  void EmitComplete(Span span);

  /// Closes every still-open scope, innermost first, with `reason`. The
  /// close timestamp is max(now, latest end seen) so parents always
  /// contain their children. Call once when the run finishes.
  void CloseAll(const char* reason);

  /// Id of the first span opened (the run span); 0 before any Begin.
  int64_t root() const;

  /// Switches timestamps to the simulated event clock `*ticks` and
  /// rebases any open span onto it (the run span opens on the wall clock
  /// before the network exists).
  void UseTickClock(const int64_t* ticks);

  int64_t spans() const;       ///< total spans recorded
  int64_t open_spans() const;  ///< still-open scoped spans
  std::vector<Span> Snapshot() const;  ///< all spans, in id order

  /// Renders {"traceEvents":[...]} (Chrome Trace Event JSON). Closed
  /// spans are "ph":"X" complete events; open spans are "ph":"B".
  std::string ChromeTraceJson() const;
  /// Writes ChromeTraceJson() to `path`; FGM_CHECKs on I/O failure.
  void WriteChromeTrace(const std::string& path) const;

 private:
  /// Current timestamp: the registered tick clock when present, else
  /// nanoseconds since sink construction.
  int64_t NowUnlocked() const;
  void EndUnlocked(int64_t id, const char* reason);

  mutable std::mutex mu_;
  const int64_t* ticks_ = nullptr;  // set once during setup
  std::chrono::steady_clock::time_point epoch_;
  std::vector<Span> spans_;   // id = index + 1
  std::vector<char> open_;    // parallel to spans_
  std::vector<int64_t> stack_;  // ids of open scoped spans, outermost first
};

// ---- Offline side: parse exported spans and re-verify invariants ----

/// A span read back from Chrome Trace Event JSON (strings owned).
struct ParsedSpan {
  int64_t id = 0;
  int64_t parent = 0;
  std::string kind;
  int site = -1;
  int64_t round = 0;
  int64_t subround = 0;
  int64_t begin = 0;
  int64_t end = 0;
  int64_t words = 0;
  int64_t count = 0;
  int dir = 0;
  int64_t transit = 0;
  int64_t drain = 0;
  std::string label;
  std::string reason;
  bool closed = true;  ///< "ph":"X"; false for a leaked "ph":"B"
};

/// Parses a Chrome Trace Event JSON file written by WriteChromeTrace.
/// Returns false and sets `*error` on malformed input, including an
/// entry without "name", "ph", "ts", "pid" or "tid".
bool ReadSpanFile(const std::string& path, std::vector<ParsedSpan>* out,
                  std::string* error);
/// Same, from the document text.
bool ParseSpanJson(const std::string& text, std::vector<ParsedSpan>* out,
                   std::string* error);

struct SpanCheckStats {
  int64_t spans = 0;
  int64_t open = 0;            ///< spans exported as "ph":"B"
  int64_t msg_up_words = 0;    ///< Σ words over kMsg/kDatagram, dir > 0
  int64_t msg_down_words = 0;  ///< Σ words over kMsg/kDatagram, dir < 0
};

/// Span conservation invariants: every span closed with end ≥ begin, ids
/// unique, every parent exists and contains its child's interval, and —
/// when `expect_up_words` / `expect_down_words` are ≥ 0 — the
/// per-direction word sums over message-level spans (kMsg + kDatagram)
/// equal the expectation (ReplayReport::SpanWords: the root link's
/// MsgSent totals on a timed simulated run, 0 otherwise). Returns one
/// message per violation (empty = all invariants hold).
std::vector<std::string> CheckSpans(const std::vector<ParsedSpan>& spans,
                                    int64_t expect_up_words,
                                    int64_t expect_down_words,
                                    SpanCheckStats* stats = nullptr);

// ---- Critical-path extraction ----

/// Run-level time split, computed purely from exported spans.
struct CriticalPathSummary {
  int64_t run_time = 0;        ///< run span duration
  int64_t round_time = 0;      ///< Σ round-span durations
  int64_t network_time = 0;    ///< Σ kRpc durations + datagram transit
  int64_t retransmits = 0;     ///< RPC attempts beyond the first
};

CriticalPathSummary SummarizeCriticalPath(
    const std::vector<ParsedSpan>& spans);

}  // namespace fgm

#endif  // FGM_OBS_SPAN_H_
