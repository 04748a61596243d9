// The Functional Geometric Monitoring protocol (paper §2.4, §4.1, §4.2),
// over the flat star or a tree of aggregators (hier/topology.h).
//
// Rounds: the coordinator knows E = S at the start of a round, builds the
// (A, E, k)-safe function φ via the query, and ships it (or the 3-word
// cheap bound, under the FGM/O optimizer) to every site. The round
// monitors ψ = Σ_i φ(X_i) ≤ 0 through subrounds with quantum θ = -ψ/2k
// and per-site counters; when the global counter exceeds k the
// coordinator polls all φ-values and either starts another subround,
// rebalances (flush drifts into the balance vector B, rescale by λ), or
// ends the round by folding the collected drift into E.
//
// One coordinator, any depth (Theorem 2.2). The coordinator runs that
// machinery at the ROOT over its m children. In the flat star (depth 1)
// the children are the k sites themselves. In a deeper tree they are
// tier-1 AGGREGATORS: each runs the subround machinery over its own
// children as a local coordinator — counters in its child quantum
// θ_local, φ-value mini-polls, quantum re-baselines — and acts as one
// site toward its parent by exporting the sum-composed safe value of its
// subtree (Σ_i φ(X_i) ≤ 0 site-wise implies the global bound, and the sum
// over any subtree is itself a valid summand of the parent's sum). Only
// the per-child steps (value, re-baseline, zone/quantum/λ install, flush,
// resync, counter read-back) branch on whether a child is a leaf or an
// aggregator.
//
// Composition invariant (per aggregator a with fan f children counting
// against quantum θ_local = θ_up / 2f):
//
//   v̂(a) = z_local + (counter_local + f)·θ_local  ≥  Σ_{leaves under a} λφ(x_i)
//
// since each child's value stays below its last-reported value plus
// (counted units + 1)·θ_local (the per-site counter argument, applied per
// child and summed). Aggregators export ⌊(v̂ − z_up)/θ_up⌋ units upward
// monotonically, so the root's counter is a conservative lower bound on
// subtree growth in θ_root units — polls can only happen EARLIER than
// flat, never later. Rebalancing and the FGM/O plan work at root
// granularity (per tier-1 subtree). The root's trace events carry k = m
// and φ(0)' = leaves·φ(0)/m, so the replay checker certifies the root
// tier with the flat arithmetic; at depth 1 φ(0)' is φ(0) itself.
//
// The simulation is synchronous, but every parent ↔ child interaction
// goes through a Transport (one per link tier) as a typed wire message
// (net/wire.h): the receiving side acts on the DELIVERED message, and
// every word the real protocol would transmit is charged by the
// transport. Under TransportMode::kSerializing each message is
// additionally encoded, cross-checked against the charge, decoded and
// verified (strict wire accounting).
//
// Faults (sim::EventNetwork on the root tier's links) address the root's
// children. A down child pauses subround progress; on rejoin the resync
// handshake rebuilds a site's evaluator, or re-baselines an aggregator's
// export (its subtree kept running and is its stable storage); a child
// dead past the deadline drops out of the round (reduced-m rounds).

#ifndef FGM_CORE_FGM_PROTOCOL_H_
#define FGM_CORE_FGM_PROTOCOL_H_

#include <array>
#include <cstdint>
#include <initializer_list>
#include <memory>
#include <string>
#include <vector>

#include "core/fgm_config.h"
#include "core/fgm_site.h"
#include "core/optimizer.h"
#include "hier/topology.h"
#include "net/network.h"
#include "net/protocol.h"
#include "net/transport.h"
#include "query/query.h"
#include "safezone/cheap_bound.h"
#include "safezone/safe_function.h"
#include "sim/event_network.h"
#include "util/stats.h"

namespace fgm {

class FgmProtocol : public MonitoringProtocol {
 public:
  /// The flat star over `num_sites` sites. `query` must outlive the
  /// protocol.
  FgmProtocol(const ContinuousQuery* query, int num_sites, FgmConfig config);
  /// Over the leaves of `topo` (the run's sites); depth 1 is the flat
  /// star.
  FgmProtocol(const ContinuousQuery* query, const hier::TreeTopology& topo,
              FgmConfig config);

  std::string name() const override;
  void ProcessRecord(const StreamRecord& record) override;
  const RealVector& GlobalEstimate() const override { return estimate_; }
  double Estimate() const override { return query_value_; }
  ThresholdPair CurrentThresholds() const override { return thresholds_; }
  /// Root tier: the coordinator's own links (all of them at depth 1),
  /// whose traffic() is the bottleneck the paper's evaluation measures.
  /// Lower tiers are reported by tier_traffic().
  const Transport& transport() const override { return *transports_[0]; }
  int64_t rounds() const override { return rounds_; }
  bool BoundsCertified() const override;
  void Finish() override;
  const sim::SimNetStats* net_stats() const override {
    return sim_ != nullptr ? &sim_->net_stats() : nullptr;
  }

  const hier::TreeTopology& topology() const { return topo_; }
  /// Link tiers (= tree depth): tier 0 is the root star, tier t the links
  /// between tier-t nodes and their children.
  int tiers() const { return depth_; }
  const TrafficStats& tier_traffic(int tier) const {
    return transports_[static_cast<size_t>(tier)]->stats();
  }
  /// Aggregator-local φ-value mini-polls (always 0 at depth 1).
  int64_t local_polls() const { return local_polls_; }

  int64_t subrounds() const { return subrounds_; }
  int64_t rebalances() const { return rebalances_; }
  /// Histogram of subrounds per completed round (§2.5.1 observation).
  const CountHistogram& subrounds_per_round() const {
    return subround_histogram_;
  }
  /// FGM/O plan audit: |predicted − actual gain| per predicted round, and
  /// the same error relative to max(|actual gain|, 1).
  const RunningStats& plan_gain_abs_err() const { return plan_gain_abs_err_; }
  const RunningStats& plan_gain_rel_err() const { return plan_gain_rel_err_; }
  /// Fraction of root children given the full safe function, averaged
  /// over rounds (diagnostics for the FGM/O optimizer).
  double mean_full_function_fraction() const;
  const FgmConfig& config() const { return config_; }

  /// Current ψ + ψ_B as known to the coordinator after the last poll
  /// (testing hook).
  double last_psi() const { return last_psi_; }

  /// Most recent subround quantum θ = -ψ/2k (observability hook).
  double last_quantum() const { return last_theta_; }
  /// Current rebalance scale λ (1 when no rebalance is active).
  double current_lambda() const { return lambda_; }
  /// Subrounds completed so far in the current round.
  int64_t subrounds_this_round() const { return subrounds_this_round_; }

  /// Accumulated ψ-variability V = Σ_n |Δψ_n|/|ψ_n| over all completed
  /// subrounds (§2.5.1). Theorem 2.7 bounds the total subround traffic by
  /// (9k+3)·V words; see SubroundWords(). Depth 1 only: aggregators
  /// report a bound, not a value range, so deeper trees keep it at 0.
  double psi_variability() const { return psi_variability_; }

  /// Root-tier words spent on subround machinery so far (quanta,
  /// counters, φ-value polls).
  int64_t SubroundWords() const;

  /// Rounds forcibly ended because the subround cap was hit (graceful
  /// degradation instead of aborting the run).
  int64_t overflow_rounds() const { return overflow_rounds_; }

 private:
  /// One mid-tier aggregator's protocol state. The node is a local
  /// coordinator for its children (z_local/counter_local against
  /// theta_local) and a site toward its parent (z_up/sent_up against
  /// theta_up).
  struct AggNode {
    int child_begin = 0;  ///< first child (global index at tier + 1)
    int child_end = 0;
    int leaves = 0;            ///< leaf sites under this node
    double theta_up = 0.0;     ///< quantum on the up-link
    double theta_local = 0.0;  ///< = theta_up / (2 · fan)
    double z_up = 0.0;         ///< export baseline toward the parent
    double z_local = 0.0;      ///< Σ children's last-reported values
    int64_t counter_local = 0;  ///< child units since the last re-baseline
    int64_t sent_up = 0;        ///< units exported since the last re-baseline
    double last_reported = 0.0;  ///< last value shipped in a poll reply
    int fan() const { return child_end - child_begin; }
  };

  // Child (tier, node) hangs off its tier-(tier-1) parent through
  // Link(tier). It is a leaf site at tier == depth_, else an aggregator.
  Transport& Link(int tier) {
    return *transports_[static_cast<size_t>(tier - 1)];
  }
  bool IsLeaf(int tier) const { return tier == depth_; }
  AggNode& Agg(int tier, int node) {
    return aggs_[static_cast<size_t>(tier)][static_cast<size_t>(node)];
  }
  /// Conservative upper bound on Σ λφ(x_i) over the node's subtree.
  double VHat(const AggNode& a) const {
    return a.z_local +
           static_cast<double>(a.counter_local + a.fan()) * a.theta_local;
  }
  int64_t FullPlanCount() const;

  // Root coordinator (tier 0).
  void StartRound();
  /// Plan audit + time-series emission for the round that just ended.
  /// Runs at the top of StartRound, after EndRound's flush but before any
  /// per-round state is reset, so it sees the finished round verbatim.
  void EmitRoundObservability();
  /// `analytic`: every drift is zero (round start, post-rebalance), so
  /// aggregators re-baseline without polling their children.
  void StartSubround(double psi_total, bool analytic);
  /// `reason` labels the SubroundEnd trace event when the poll was forced
  /// by the network machinery (resync) rather than by the counter
  /// crossing live_m_; nullptr for the ordinary trigger.
  void PollAndAdvance(const char* reason = nullptr);
  void TryRebalance();
  void EndRound(bool already_flushed);
  /// True when a mostly-cheap round has outspent its budget (see
  /// kFeedbackBudgetFactor in fgm_protocol.cc).
  bool CheapRoundOverBudget() const;
  /// Root side of the end-of-round / rebalance flush over every member.
  void FlushAll();
  /// Bisection for µ* = inf{µ : φ(B/(µk)) ≥ 0} with k = the live leaves;
  /// returns a value in [0, 1], or 1 when even µ = 1 fails.
  double FindMuStar() const;
  /// Applies one counter-increment message from root child `child`
  /// (synchronous transports); returns true when the accumulated total
  /// crossed live_m_ and the coordinator must poll.
  bool SendCounterIncrement(int child, int64_t increment);

  // Per-child steps.
  /// The value child (tier, node) reports to a φ-value poll: a site's
  /// λφ(x) after its last committed record (FgmSite::ReadValue, which
  /// evaluates the records a serial site skipped), an aggregator's v̂.
  double ChildValue(int tier, int node);
  /// One φ-value poll of child (tier, node): request + one-word reply.
  double PollChild(int tier, int node);
  /// Root child `child`'s cumulative per-subround counter: a site's c_i,
  /// an aggregator's exported units.
  int64_t ChildCounter(int child) const;
  /// Updates root child `child` saw this round: a site's own count, an
  /// aggregator's flushed subtree total.
  int64_t ChildUpdates(int child) const;
  /// Ships the round's zone (full reference or cheap bound) down to child
  /// (tier, node) and its whole subtree.
  void InstallZone(int tier, int node, bool full);
  /// Ships quantum θ down to child (tier, node): a site re-anchors, an
  /// aggregator re-baselines (analytically or by mini-poll) and hands
  /// its children their local quantum.
  void InstallQuantum(int tier, int node, double theta, bool analytic);
  void InstallLambda(int tier, int node, double lambda);
  /// Re-baselines child (tier, node) after its parent's mini-poll: sites
  /// re-anchor (BeginSubround), aggregators reset their export baseline
  /// to the value they just reported (quantum unchanged — no recursion).
  void RebaselineChild(int tier, int node, double theta);
  /// Flush exchange with child (tier, node): the request, then the site's
  /// own drift or the subtree's summed drift as one message. Adds the
  /// delivered drift to each vector of `into` and returns its update
  /// count; a site that shipped drift restarts from zero after the fold.
  int64_t FlushChild(int tier, int node,
                     std::initializer_list<RealVector*> into);

  // Aggregators (tiers 1 .. depth-1).
  /// Polls every child of aggregator (tier, node), emits the tier's
  /// SubroundEnd and returns the summed replies.
  double PollSubtree(int tier, int node, int64_t counter, const char* reason);
  /// Aggregator-local subround end: counter_local crossed the fan-in.
  /// Polls the children, re-baselines them, resets the local counter.
  void LocalPoll(int tier, int node);
  /// Books `units` child quantum-units at aggregator (tier, node),
  /// exports upward, and runs the local poll when the counter crosses
  /// the fan-in.
  void NoteChildUnits(int tier, int node, int64_t units);
  /// Ships ⌊(v̂ − z_up)/θ_up⌋ − sent_up fresh units up the tree.
  void ExportUp(int tier, int node);
  /// Child (tier, node) reports `units` fresh quantum units to its parent:
  /// a synchronous increment below the root; at the root a counter
  /// datagram under sim, else a synchronous increment that may poll.
  void ReportUnits(int tier, int node, int64_t units);
  /// Collects subtree (tier, node)'s drift: flush requests to every
  /// child, drifts summed into the tier's scratch, returned as ONE dense
  /// upward message that lends it (or the 1-word empty acknowledgement).
  DriftFlushMsg CollectSubtreeFlush(int tier, int node);
  /// Per-tier kTierEnd traffic events (emitted once, from Finish()).
  void EmitTierEnds();

  // Simulated-network machinery (all no-ops when sim_ == nullptr).
  /// Per-record clock tick, called at the top of ProcessRecord. It drains
  /// only when the drain has work: a fault or datagram is due, a round
  /// member is paused (CheckDeadlines watches every tick) or the silence
  /// timer is due.
  void SimTick();
  /// Drains due fault transitions and counter datagrams, then checks the
  /// dead-child deadline and the silence timeout.
  void DrainNetwork();
  void HandleFault(const sim::FaultNotice& fault);
  void HandleCounterDelivery(const sim::CounterDelivery& delivery);
  /// Applies a cumulative per-subround counter value from root child
  /// `child`, emitting kIncrementMsg for the positive delta (if any).
  void ApplyCounterDelta(int child, int64_t cumulative, const char* reason);
  /// Coordinator re-polls every live member's cumulative counter after
  /// sim::kSilenceTicks without counter activity (lossy links only —
  /// a dropped datagram whose sender then goes quiet would otherwise
  /// stall the subround forever).
  void MaybeSilencePoll();
  /// Whether MaybeSilencePoll would re-poll at the current tick.
  bool SilencePollDue() const;
  /// Drops members dead past sim::kDeadSiteTicks from the round: ends
  /// the round over the surviving children (reduced-m graceful
  /// degradation).
  void CheckDeadlines();
  /// Crash/rejoin handshake for a child still in the round: re-ships the
  /// round state (E, θ, λ, epoch) as a kResync message and rebuilds the
  /// child's subround state; once no member is down, the caller forces a
  /// fresh labelled subround (the interrupted one is unsound).
  void ResyncChild(int child);
  /// Rejoin of a child that is not a round member (it was dropped by the
  /// deadline): flush its surviving drift into the balance vector, then
  /// end the round so the next one reconfigures back to full m.
  void RejoinReconfigure(int child);
  /// Emits a labelled kSubroundEnd for a subround abandoned by a forced
  /// round end (no φ-value poll happened).
  void CloseSubroundForced(const char* reason);
  bool AnyInRoundChildDown() const;
  /// Counter weight the children have accumulated this subround but the
  /// coordinator has not yet seen (in flight or dropped).
  int64_t PendingCounterWeight() const;

  const ContinuousQuery* query_;
  hier::TreeTopology topo_;
  int depth_;  ///< link tiers (1 = the flat star)
  int m_;      ///< root children: the sites at depth 1, else tier-1 nodes
  int k_;      ///< leaf sites
  FgmConfig config_;
  /// transports_[t] carries every tier-t parent ↔ child link, with the
  /// child's GLOBAL tier-(t+1) index as the endpoint id. Tier 0 is the
  /// root star (the sim::EventNetwork when the net sim is enabled);
  /// lower tiers are synchronous.
  std::vector<std::unique_ptr<Transport>> transports_;

  // Simulated network (non-owning view into transports_[0]; nullptr when
  // the protocol runs over a synchronous transport). The root's view of
  // its children mirrors the network's link state as of the last drain.
  sim::EventNetwork* sim_ = nullptr;
  bool lossy_net_ = false;           ///< sim_ && (drop > 0 || fault plan)
  int live_m_;                       ///< root children in the current round
  int live_leaves_;                  ///< leaves under those children
  std::vector<uint8_t> child_ok_;    ///< link up, as of the last drain
  std::vector<uint8_t> in_round_;    ///< membership in the current round
  std::vector<int64_t> down_since_;  ///< tick of the last down transition
  std::vector<int64_t> coord_seen_ci_;  ///< cumulative counter seen/child
  bool paused_ = false;  ///< a round member is down: polls suppressed
  int64_t last_counter_activity_ = 0;

  // Observability (non-owning; null when disabled).
  TraceSink* trace_ = nullptr;
  TimeSeries* timeseries_ = nullptr;
  SpanSink* spans_ = nullptr;
  HealthMonitor* health_ = nullptr;
  int64_t round_span_ = 0;     ///< open kRound span id (0 = none)
  int64_t subround_span_ = 0;  ///< open kSubround span id (0 = none)

  RealVector estimate_;  // E
  double query_value_ = 0.0;
  ThresholdPair thresholds_{0.0, 0.0};

  std::unique_ptr<SafeFunction> safe_fn_;
  std::unique_ptr<CheapBoundFunction> cheap_fn_;
  /// Safe functions of earlier rounds still referenced by the evaluators
  /// of sites under currently-down children (sim mode); freed at the
  /// first all-up round.
  std::vector<std::unique_ptr<SafeFunction>> retired_safe_fns_;
  double phi_zero_ = -1.0;
  /// The per-root-child φ(0) the root's arithmetic and trace events use:
  /// live_leaves·φ(0)/live_m on deeper trees, φ(0) itself at depth 1
  /// ((n·x)/n is not always x in floating point).
  double phi0_prime_ = -1.0;

  std::vector<FgmSite> sites_;              ///< the k leaves
  std::vector<std::vector<AggNode>> aggs_;  ///< [tier][node], tiers 1..D-1
  std::vector<uint8_t> plan_;  ///< FGM/O d_j per root child (1 = full)

  // Rebalancing state (§4.1).
  RealVector balance_;  // B
  double lambda_ = 1.0;
  double psi_b_ = 0.0;

  // Subround tracking.
  int64_t counter_total_ = 0;  // c
  double last_psi_ = 0.0;
  double last_theta_ = 0.0;
  int64_t subrounds_this_round_ = 0;
  double psi_variability_ = 0.0;

  // Plan audit: the prediction behind the current round's plan, kept so
  // the round's outcome can be compared against it at the next boundary.
  bool plan_predicted_ = false;
  double plan_pred_len_ = 0.0;
  double plan_pred_gain_ = 0.0;
  double plan_pred_rate_ = 0.0;
  std::array<int64_t, static_cast<size_t>(MsgKind::kKindCount)>
      round_start_words_by_kind_{};

  // Optimizer inputs gathered during the round, per root child.
  std::vector<RealVector> round_drift_;  ///< Σ flushed drifts
  std::vector<int64_t> round_updates_;   ///< Σ flushed update counts
  bool have_rates_ = false;
  std::vector<SiteRates> prev_rates_;
  mutable std::vector<SiteRates> scratch_rates_;

  // Optimizer feedback guard: measured words/update of mostly-full vs
  // mostly-cheap rounds (EWMA), see kFeedbackMargin in fgm_protocol.cc.
  int64_t round_start_words_ = 0;
  int64_t round_start_updates_ = 0;
  int64_t total_updates_ = 0;
  double class_cost_ewma_[2] = {0.0, 0.0};  // [0]=mostly full, [1]=cheap
  int64_t class_cost_count_[2] = {0, 0};

  // Statistics.
  int64_t rounds_ = 0;
  int64_t subrounds_ = 0;
  int64_t rebalances_ = 0;
  int64_t overflow_rounds_ = 0;
  int64_t local_polls_ = 0;
  CountHistogram subround_histogram_{64};
  RunningStats plan_gain_abs_err_;
  RunningStats plan_gain_rel_err_;
  int64_t full_function_ships_ = 0;
  int64_t total_function_ships_ = 0;
  bool tier_ends_emitted_ = false;

  RealVector flush_scratch_;  // verbatim-flush re-projection target
  /// Per aggregator tier (index 0 unused): the subtree drift sum that
  /// CollectSubtreeFlush fills and its upward message lends.
  std::vector<RealVector> subtree_sums_;
};

}  // namespace fgm

#endif  // FGM_CORE_FGM_PROTOCOL_H_
