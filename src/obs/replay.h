// Trace-replay invariant checker.
//
// Reads a JSONL event trace (obs/trace.h) and re-verifies the protocol
// invariants offline, independent of the code that produced the trace.
// ParseTraceEventJson rejects any line the schema does not allow; the
// checker adds the rules that need run context. The trace opens with
// RunStart, and every site and tier lies in the range it announces (the
// root's k sites; a tree's tiers, each with its TierEnd endpoint count).
// A ledger total past INT64_MAX fails the trace. Then:
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
//    equals updates - words, and PlanChosen/PlanSite events carry sane
//    d/γ values for the current round (a plan covers RunStart's k
//    children, also in a reduced round).
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
//    total already past k (the coordinator must have polled first).
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

#include <cstdint>
#include <iosfwd>
#include <string>
#include <vector>

#include "obs/trace.h"

namespace fgm {

struct ReplayIssue {
  int64_t seq = -1;  ///< event sequence number, -1 = whole-trace issue
  std::string message;
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
  int64_t tier_up_words = 0;    ///< upstream share of tier_words
  int64_t tier_down_words = 0;  ///< downstream share of tier_words
  int64_t up_words = 0;
  int64_t down_words = 0;
  bool saw_run_end = false;

  /// Total violations found; `issues` records the first few in detail.
  int64_t issue_count = 0;
  std::vector<ReplayIssue> issues;

  bool ok() const { return issue_count == 0; }
  /// Human-readable one-line summary (+ issue lines when failing).
  std::string Summary() const;
};

/// Checks a trace read line-by-line from `in`.
ReplayReport CheckTrace(std::istream& in);

/// Checks a trace given as the events ParseTraceEventJson read, in order.
ReplayReport CheckTraceEvents(const std::vector<TraceEvent>& events);

/// Checks a trace file; reports an issue when the file cannot be opened.
ReplayReport CheckTraceFile(const std::string& path);

}  // namespace fgm

#endif  // FGM_OBS_REPLAY_H_
