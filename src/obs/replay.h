// Trace-replay invariant checker, and the one reader of a trace.
//
// Reads a JSONL event trace (obs/trace.h) and re-verifies the protocol
// invariants offline, independent of the code that produced the trace.
// In the same pass it books the run ledger that fgm_report renders (per
// round, site and tier; the network tallies; the alert log), so every
// tool that reads a trace reads it once, through here.
// ParseTraceEventJson rejects any line the schema does not allow; the
// checker adds the rules that need run context. The trace opens with
// RunStart, and every site and tier lies in the range it announces (the
// root's k sites; a tree's tiers, each with its TierEnd endpoint count).
// An event that names a round names the latest RoundStart's (0 before
// the first), and a ledger total past INT64_MAX fails the trace. Then:
//
//  * ψ ≤ 0 at every certified instant — every subround starts with
//    ψ ≤ ε_ψ·k·φ(0) < 0, and the value matches the one announced by the
//    preceding RoundStart / SubroundEnd / Rebalance event bit-exactly;
//  * the quantum obeys θ = -ψ/2k (recomputed from the traced ψ);
//  * subround termination obeys the ε_ψ·k·φ(0) test: a ThresholdCross
//    with reason "psi-exhausted" requires ψ ≥ ε_ψ·k·φ(0), and subrounds
//    only continue below it;
//  * counter totals match the quantum arithmetic: the coordinator total
//    at each poll equals the sum of the positive per-site increments of
//    that subround and exceeds k;
//  * rebalances restore slack: λ ∈ (0,1], ψ_B ≤ 0, and the restored
//    ψ = kλφ(0) + ψ_B stays at or below the termination level;
//  * summed per-message MsgSent words equal the RunEnd TrafficStats
//    totals exactly (closing the loop on strict wire accounting);
//  * FGM/O plan audit: each PlanOutcome's word count re-sums the round's
//    MsgSent events bit-exactly (the per-round ledger), its actual gain
//    equals updates - words, it restates its PlanChosen's predicted gain,
//    and PlanChosen/PlanSite events carry sane d/γ values for the current
//    round (a plan covers RunStart's k children, also in a reduced round).
//
// Traces produced over the simulated network (src/sim) additionally carry
// MsgDelivered / MsgDropped / SiteDown / SiteResync events, and the
// checker verifies delivery-point safety on top:
//
//  * conservation: per direction, summed MsgSent words and messages equal
//    summed MsgDelivered + MsgDropped words and messages (every charged
//    attempt is accounted exactly once);
//  * no coordinator→site delivery addresses a site inside a
//    SiteDown..SiteResync window, and the down/up transitions alternate
//    per site;
//  * forced polls (SubroundEnd with a "reason": resync or timeout) are
//    exempt from the counter>k rule but only legal in simulated runs, as
//    are reduced-k rounds after a site-set change — k may then shrink or
//    recover within [1, RunStart k];
//  * outside a down window, no unreasoned increment lands on a counter
//    total already past k (the coordinator must have polled first);
//  * a rejoin SiteResync announces the words of the resync RPC that
//    follows it: every attempt's MsgSent to that site restates them, and
//    one attempt is delivered before the run ends.
//
// Tree-topology runs (src/hier) stamp aggregator-tier events with
// "tier" >= 1. Those live outside the root star's state machine: the
// checker keeps a separate per-tier ledger (words/messages by direction,
// drift flushes, local polls) closed bit-exactly by each TierEnd event,
// requires unreasoned aggregator polls to carry a local counter above the
// node's fan-in, and at RunEnd checks that every tier flushed the root's
// updates in at least as many messages as the tier above — drift only
// reaches the root through a complete chain of per-tier flushes. On every
// tier, a DriftFlush restates the words of the drift-flush MsgSent it
// follows for the same site. The root tier itself is certified verbatim
// by the flat invariants with k = the root's fan-in.
//
// Health-monitor alerts (obs/health.h) pair like down windows: an
// AlertRaised for a (rule, site) must not re-raise while active, and an
// AlertCleared must clear an outstanding raise of the same (rule, site).
// Alerts still active at RunEnd are legal (the condition simply persisted).
//
// All double comparisons are exact: the JSONL sink prints with round-trip
// precision and the checker recomputes with the same operation order the
// protocol used, so any mismatch is a real divergence, not rounding.

#ifndef FGM_OBS_REPLAY_H_
#define FGM_OBS_REPLAY_H_

#include <array>
#include <cstdint>
#include <iosfwd>
#include <map>
#include <string>
#include <vector>

#include "net/network.h"
#include "obs/trace.h"

namespace fgm {

struct ReplayIssue {
  int64_t seq = -1;  ///< event sequence number, -1 = whole-trace issue
  std::string message;
};

/// One protocol round of the run ledger. MsgSent and MsgDropped events
/// count toward the round whose RoundStart last preceded them; every
/// other event names its round.
struct RoundRow {
  int64_t round = 0;
  int64_t msgs = 0;
  int64_t up_words = 0;
  int64_t down_words = 0;
  std::array<int64_t, static_cast<size_t>(MsgKind::kKindCount)>
      words_by_kind{};
  int64_t subrounds = 0;
  int64_t rebalances = 0;
  int64_t dropped_words = 0;  ///< sim MsgDropped words
  int64_t resyncs = 0;        ///< sim SiteResync events
  double psi_start = 0.0;

  bool has_plan = false;  ///< saw PlanChosen
  int64_t full_sites = 0;
  double pred_len = 0.0;
  double pred_gain = 0.0;  ///< PlanChosen's, which PlanOutcome restates
  double pred_rate = 0.0;

  bool has_outcome = false;  ///< saw PlanOutcome
  int64_t updates = 0;
  double actual_gain = 0.0;

  int64_t words() const { return up_words + down_words; }
};

/// One root child's drift flushes and counter increments.
struct SiteRow {
  int64_t flushes = 0;
  int64_t flush_words = 0;
  int64_t flush_updates = 0;
  int64_t increments = 0;
};

/// One aggregator tier of a tree run (tier 1 = just below the root): the
/// MsgSent ledger of its links, which its TierEnd must restate, and the
/// tallies of its tier-stamped flushes and local polls.
struct TierRow {
  bool closed = false;  ///< saw its TierEnd
  int endpoints = 0;    ///< TierEnd k: child endpoints of the tier's links
  int64_t up_words = 0, down_words = 0;
  int64_t up_msgs = 0, down_msgs = 0;
  int64_t flushes = 0;
  int64_t flush_words = 0;
  int64_t flush_updates = 0;
  int64_t local_polls = 0;
  int64_t polled_units = 0;  ///< summed local-poll counters
  bool has_psi = false;
  double min_psi = 0.0;  ///< most negative polled subtree sum
  double max_psi = 0.0;  ///< closest-to-zero polled subtree sum
};

/// One health-monitor alert transition (obs/health.h).
struct AlertRow {
  bool raised = false;  ///< true = AlertRaised, false = AlertCleared
  std::string rule;
  int site = -1;  ///< -1 = run-global rule
  int64_t round = 0;
  double value = 0.0;
  double threshold = 0.0;
  std::string reason;
};

struct ReplayReport {
  // Tallies of what the trace contained.
  int64_t events = 0;
  int64_t rounds = 0;
  int64_t subrounds = 0;
  int64_t increments = 0;
  int64_t flushes = 0;
  int64_t rebalances = 0;
  int64_t messages = 0;
  int64_t plans = 0;          ///< FGM/O PlanChosen events
  int64_t plan_outcomes = 0;  ///< FGM/O PlanOutcome events
  int64_t deliveries = 0;     ///< sim MsgDelivered events
  int64_t drops = 0;          ///< sim MsgDropped events
  int64_t resyncs = 0;        ///< sim SiteResync events
  int64_t alerts_raised = 0;  ///< health AlertRaised events
  int64_t alerts_cleared = 0; ///< health AlertCleared events
  int64_t tier_ends = 0;      ///< hier TierEnd ledgers (tree runs only)
  int64_t tier_words = 0;     ///< total words on aggregator-tier links
  int64_t up_words = 0;
  int64_t down_words = 0;
  bool saw_run_end = false;

  // The run ledger. round_rows[0] holds what precedes the first
  // RoundStart (empty for FGM; CENTRAL has no rounds at all), and
  // round_rows[r] is round r. Only a RoundStart adds a row, and sites and
  // tiers are keyed by id, so no table is sized by a number read from the
  // trace.
  std::vector<RoundRow> round_rows = std::vector<RoundRow>(1);
  std::map<int, SiteRow> site_rows;
  std::map<int, TierRow> tier_rows;
  std::vector<AlertRow> alert_rows;
  // Simulated-network words and site downs (src/sim); zero on
  // synchronous runs and in the simulator's null mode, which emits no
  // network events.
  int64_t delivered_words = 0;
  int64_t dropped_words = 0;
  int64_t site_downs = 0;
  int64_t resync_words = 0;
  // RunStart's fields: tree runs add the topology spec ("tree:16") and
  // the leaf count.
  std::string protocol = "?";
  int k = 0;
  std::string topology;
  int64_t leaves = 0;
  // RunEnd's fields (zero without one): its event count and traffic.
  int64_t run_events = 0;
  int64_t run_up_words = 0;
  int64_t run_down_words = 0;

  /// The first line the ledger cannot book, as "line N: why": one that
  /// does not parse, an event naming a round no RoundStart opened, or
  /// counts that sum past INT64_MAX (every count a line carries adds to
  /// one volume total, so no sum of ledger entries can overflow). Empty
  /// when every line was booked; each such line also fails the trace.
  std::string read_error;

  /// Total violations found; `issues` records the first few in detail.
  int64_t issue_count = 0;
  std::vector<ReplayIssue> issues;

  bool ok() const { return issue_count == 0; }
  /// Completed-round count: the highest round a RoundStart opened.
  int64_t last_round() const { return round_rows.back().round; }
  /// Human-readable one-line summary (+ issue lines when failing).
  std::string Summary() const;
  /// The words a run's span file re-adds to. Only the timed simulated
  /// network records message spans, and only on the root links, so this
  /// is RunEnd's root totals when the trace carries network events
  /// (MsgDelivered / MsgDropped), and 0 otherwise.
  void SpanWords(int64_t* up, int64_t* down) const;
};

/// Checks a trace read line-by-line from `in`.
ReplayReport CheckTrace(std::istream& in);

/// Checks a trace given as the events ParseTraceEventJson read, in order.
ReplayReport CheckTraceEvents(const std::vector<TraceEvent>& events);

/// Checks a trace file; reports an issue when the file cannot be opened.
ReplayReport CheckTraceFile(const std::string& path);

}  // namespace fgm

#endif  // FGM_OBS_REPLAY_H_
