#include "obs/replay.h"

#include <algorithm>
#include <climits>
#include <cmath>
#include <cstring>
#include <fstream>
#include <istream>
#include <map>
#include <set>
#include <sstream>
#include <utility>

#include "hier/topology.h"
#include "net/network.h"

namespace fgm {

namespace {

constexpr size_t kMaxRecordedIssues = 20;

bool Is(const char* label, const char* name) {
  return label != nullptr && std::strcmp(label, name) == 0;
}

class Checker {
 public:
  ReplayReport Run(std::istream& in) {
    std::string line;
    while (std::getline(in, line)) {
      if (line.empty()) continue;
      TraceEvent e;
      std::string error;
      if (ParseTraceEventJson(line, &e, &error)) {
        Event(e);
      } else {
        ++lines_;
        Unreadable(error);
        Fail(next_seq_, "unparseable line: " + error);
        if (next_seq_ < INT64_MAX) ++next_seq_;
      }
    }
    return Finish();
  }

  void Event(const TraceEvent& e) {
    ++lines_;
    if (e.seq != next_seq_) {
      Fail(e.seq, "sequence gap: expected seq " + std::to_string(next_seq_));
    }
    next_seq_ = e.seq < INT64_MAX ? e.seq + 1 : e.seq;
    ++report_.events;
    Check(e);
  }

  ReplayReport Finish() {
    report_.up_words = up_words_;
    report_.down_words = down_words_;
    return std::move(report_);
  }

 private:
  void Fail(int64_t seq, std::string message) {
    ++report_.issue_count;
    if (report_.issues.size() < kMaxRecordedIssues) {
      report_.issues.push_back(ReplayIssue{seq, std::move(message)});
    }
  }

  /// Records the first line the ledger cannot book; the caller also
  /// fails the trace.
  void Unreadable(const std::string& why) {
    if (report_.read_error.empty()) {
      report_.read_error = "line " + std::to_string(lines_) + ": " + why;
    }
  }

  /// Adds a non-negative amount to a ledger total; a total past
  /// INT64_MAX saturates and fails the trace (once).
  bool Tally(int64_t* total, int64_t amount, const TraceEvent& e) {
    if (!__builtin_add_overflow(*total, amount, total)) return true;
    *total = INT64_MAX;
    if (!overflowed_) Fail(e.seq, "ledger total overflows int64");
    overflowed_ = true;
    return false;
  }

  /// Finds the ledger row of the round `e` names, adding one at its
  /// RoundStart. An event naming a round no RoundStart opened is
  /// unreadable (the round rules fail it) and books to the last row.
  /// Every count on the line also adds to the volume, so once the trace
  /// reads no sum of ledger entries can overflow.
  RoundRow& Book(const TraceEvent& e) {
    std::vector<RoundRow>& rows = report_.round_rows;
    if (e.kind == TraceEventKind::kRoundStart &&
        e.round == static_cast<int64_t>(rows.size())) {
      rows.emplace_back().round = e.round;
    }
    if (e.round >= static_cast<int64_t>(rows.size())) {
      Unreadable("round " + std::to_string(e.round) + " has no RoundStart");
    }
    if (report_.read_error.empty()) {
      for (const int64_t n : {e.words, e.count, e.up_words, e.down_words}) {
        if (!Tally(&volume_, n, e)) Unreadable("counts overflow int64");
      }
    }
    return rows[std::min(static_cast<size_t>(e.round), rows.size() - 1)];
  }

  /// Round 0 until the first RoundStart.
  void CheckRound(const TraceEvent& e) {
    if (e.round != round_) {
      Fail(e.seq, "event round " + std::to_string(e.round) +
                      " != current round " + std::to_string(round_));
    }
  }

  bool fgm_round() const { return in_round_ && eps_ > 0.0; }

  /// RunStart fixes the range of every later site and tier: tier t's
  /// links reach endpoints_[t] children, so its events name sites below
  /// that (the root tier's endpoints are the `k` sites).
  void StartRun(const TraceEvent& e) {
    if (report_.events != 1) Fail(e.seq, "RunStart is not the first event");
    if (e.k < 1) Fail(e.seq, "RunStart announces no sites");
    k_ = e.k;
    endpoints_ = {e.k};
    report_.protocol = e.label;
    report_.k = e.k;
    if (e.reason == nullptr) return;
    report_.topology = e.reason;
    report_.leaves = e.counter;
    hier::TreeTopology topo;
    std::string error;
    if (e.counter < 1 || e.counter > INT_MAX ||
        !hier::TreeTopology::Parse(e.reason, static_cast<int>(e.counter),
                                   &topo, &error)) {
      Fail(e.seq, "RunStart topology does not parse: " + error);
      return;
    }
    if (topo.NodesAt(1) != e.k) {
      Fail(e.seq, "RunStart k is not the topology's root fan-in");
    }
    for (int t = 1; t < topo.depth(); ++t) {
      endpoints_.push_back(topo.NodesAt(t + 1));
    }
  }

  /// A DriftFlush restates the words of the drift-flush MsgSent it
  /// follows, on the same tier and site.
  void PairFlush(const TraceEvent& e) {
    const std::pair<int, int> link{e.tier, e.site};
    if (e.kind == TraceEventKind::kMsgSent) {
      flush_words_[link] = e.words;
      return;
    }
    const auto sent = flush_words_.find(link);
    const bool paired = sent != flush_words_.end() && sent->second == e.words;
    if (sent != flush_words_.end()) flush_words_.erase(sent);
    if (!paired) Fail(e.seq, "drift flush words != its drift-flush MsgSent");
  }

  /// A rejoin SiteResync announces the words of the resync RPC that
  /// follows it: each attempt's MsgSent to that site restates them, up
  /// to the delivered one.
  void PairResync(const TraceEvent& e) {
    if (e.kind == TraceEventKind::kSiteResync) {
      if (!rejoins_.emplace(e.site, e.words).second) {
        Fail(e.seq, "rejoin while the last resync is undelivered");
      }
      return;
    }
    const auto rejoin = rejoins_.find(e.site);
    if (rejoin == rejoins_.end() || rejoin->second != e.words) {
      Fail(e.seq, "resync words != its rejoin SiteResync");
    }
  }

  /// Aggregator-tier events of a tree-topology run. They live outside the
  /// root star's protocol state machine, so they bypass every flat
  /// invariant (round ledger, up/down word totals, subround pairing) and
  /// feed a per-tier ledger instead, closed bit-exactly by kTierEnd.
  void CheckTier(const TraceEvent& e) {
    TierRow& tier = report_.tier_rows[e.tier];
    switch (e.kind) {
      case TraceEventKind::kMsgSent:
        if (e.words < 1) Fail(e.seq, "wire message below 1 word");
        if (e.dir > 0) {
          Tally(&tier.up_words, e.words, e);
          ++tier.up_msgs;
        } else {
          Tally(&tier.down_words, e.words, e);
          ++tier.down_msgs;
        }
        break;

      case TraceEventKind::kSubroundEnd:
        // An aggregator's local poll, during the root's current subround:
        // unreasoned polls fire only once the local counter passed the
        // node's fan-in (carried in `k`); cascade re-baselines carry
        // reason "rebaseline".
        CheckRound(e);
        if (e.subround != subround_) Fail(e.seq, "subround id mismatch");
        Tally(&tier.polled_units, e.counter, e);
        if (e.reason == nullptr && e.counter <= e.k) {
          Fail(e.seq, "local poll before the counter exceeded the fan-in");
        }
        ++tier.local_polls;
        if (!tier.has_psi || e.psi < tier.min_psi) tier.min_psi = e.psi;
        if (!tier.has_psi || e.psi > tier.max_psi) tier.max_psi = e.psi;
        tier.has_psi = true;
        break;

      case TraceEventKind::kDriftFlush:
        ++tier.flushes;
        CheckRound(e);
        if (e.words < 1) Fail(e.seq, "drift flush below 1 word");
        Tally(&tier.flush_words, e.words, e);
        Tally(&tier.flush_updates, e.count, e);
        break;

      case TraceEventKind::kTierEnd:
        ++report_.tier_ends;
        if (tier.closed) {
          Fail(e.seq, "duplicate TierEnd for tier " + std::to_string(e.tier));
        }
        tier.closed = true;
        tier.endpoints = e.k;
        // Close the tier's ledger exactly, like RunEnd closes the root's.
        if (e.up_words != tier.up_words || e.down_words != tier.down_words ||
            e.up_msgs != tier.up_msgs || e.down_msgs != tier.down_msgs) {
          Fail(e.seq, "tier " + std::to_string(e.tier) +
                          " MsgSent words or messages != TierEnd totals");
        }
        if (e.k != endpoints_[static_cast<size_t>(e.tier)]) {
          Fail(e.seq, "TierEnd k != the tier's endpoint count");
        }
        break;

      default:
        Fail(e.seq, std::string("unexpected tier-stamped event kind \"") +
                        TraceEventKindName(e.kind) + "\"");
        break;
    }
  }

  void Check(const TraceEvent& e) {
    RoundRow& row = Book(e);
    if (e.kind == TraceEventKind::kRunStart && e.tier == 0) {
      StartRun(e);
      return;
    }
    // Every site and tier lies in the range RunStart announced.
    const auto tier = static_cast<size_t>(e.tier);
    if (tier >= endpoints_.size()) {
      Fail(e.seq, "tier " + std::to_string(e.tier) + " outside RunStart's");
      return;
    }
    if (e.site >= endpoints_[tier]) {
      Fail(e.seq, "site " + std::to_string(e.site) + " outside tier " +
                      std::to_string(e.tier) + "'s range");
    }
    if (e.kind == TraceEventKind::kDriftFlush ||
        (e.kind == TraceEventKind::kMsgSent &&
         Is(e.label, MsgKindName(MsgKind::kDriftFlush)))) {
      PairFlush(e);
    }
    if (e.tier != 0) {
      CheckTier(e);
      return;
    }
    switch (e.kind) {
      case TraceEventKind::kRoundStart: {
        ++report_.rounds;
        if (subround_open_) {
          Fail(e.seq, "round started while a subround is still open");
          subround_open_ = false;
        }
        if (e.round - 1 != last_round_) {
          Fail(e.seq, "round numbering jumped from " +
                          std::to_string(last_round_) + " to " +
                          std::to_string(e.round));
        }
        last_round_ = e.round;
        round_ = e.round;
        in_round_ = true;
        round_msg_words_ = 0;
        current_row_ = static_cast<size_t>(&row - report_.round_rows.data());
        row.psi_start = e.psi;
        if (e.k >= 1) {
          if (k_ > 0 && e.k != k_) {
            // Reduced-k (or recovered) rounds are legal only after the
            // simulated network changed the live site set, and k must
            // stay within [1, RunStart k].
            if (!(sim_mode_ && site_set_changed_ && e.k <= endpoints_[0])) {
              Fail(e.seq, "site count k changed");
            }
          }
          k_ = e.k;
        }
        phi0_ = e.value;
        eps_ = e.eps;
        subround_ = 0;
        if (!(phi0_ < 0.0)) Fail(e.seq, "round started with phi(0) >= 0");
        if (eps_ > 0.0) {
          // FGM round: the termination level and initial psi, recomputed
          // exactly as the coordinator computes them.
          stop_level_ = eps_ * static_cast<double>(k_) * phi0_;
          const double initial_psi = static_cast<double>(k_) * phi0_;
          if (e.psi != initial_psi) {
            Fail(e.seq, "round-start psi != k*phi(0)");
          }
          expected_psi_ = e.psi;
          have_expected_psi_ = true;
        } else {
          have_expected_psi_ = false;
        }
        break;
      }

      case TraceEventKind::kSubroundStart: {
        ++report_.subrounds;
        ++row.subrounds;
        CheckRound(e);
        if (!fgm_round()) {
          Fail(e.seq, "subround outside an FGM round");
          break;
        }
        if (subround_open_) Fail(e.seq, "nested subround");
        if (e.subround - 1 != subround_) {
          Fail(e.seq, "subround numbering jumped to " +
                          std::to_string(e.subround));
        }
        subround_ = e.subround;
        subround_open_ = true;
        increment_sum_ = 0;
        if (have_expected_psi_ && e.psi != expected_psi_) {
          Fail(e.seq, "psi discontinuity: subround psi differs from the "
                      "value announced by the preceding event");
        }
        have_expected_psi_ = false;
        // Certified instant: psi at or below the (negative) termination
        // level, hence psi < 0.
        if (!(e.psi <= stop_level_)) {
          Fail(e.seq, "subround started with psi above eps_psi*k*phi(0)");
        }
        const double want_theta =
            -e.psi / (2.0 * static_cast<double>(k_));
        if (e.theta != want_theta) {
          Fail(e.seq, "quantum theta != -psi/2k");
        }
        break;
      }

      case TraceEventKind::kIncrementMsg:
        ++report_.increments;
        ++report_.site_rows[e.site].increments;
        CheckRound(e);
        if (!subround_open_) {
          Fail(e.seq, "counter increment outside a subround");
          break;
        }
        if (e.subround != subround_) Fail(e.seq, "subround id mismatch");
        if (e.counter <= 0) Fail(e.seq, "non-positive counter increment");
        if (e.reason != nullptr && !sim_mode_) {
          Fail(e.seq, "reasoned increment outside a simulated run");
        }
        // Delivery-point safety: while every site is reachable the
        // coordinator polls as soon as the total passes k, so no further
        // unreasoned increment may land on a total already past it.
        // During a down window deliveries accumulate (the poll is
        // deferred), and timeout-poll batches apply several deltas
        // back-to-back — both carry exemptions the trace makes explicit.
        if (e.reason == nullptr && down_sites_.empty() &&
            increment_sum_ > k_) {
          Fail(e.seq, "increment delivered after the counter total passed "
                      "k without a poll");
        }
        Tally(&increment_sum_, e.counter, e);
        break;

      case TraceEventKind::kSubroundEnd:
        CheckRound(e);
        if (!subround_open_) {
          Fail(e.seq, "subround end without a matching start");
          break;
        }
        subround_open_ = false;
        if (e.subround != subround_) Fail(e.seq, "subround id mismatch");
        if (e.counter != increment_sum_) {
          Fail(e.seq, "poll counter total " + std::to_string(e.counter) +
                          " != sum of increments " +
                          std::to_string(increment_sum_));
        }
        if (e.reason != nullptr) {
          // Forced polls (resync after a rejoin, silence-timeout) may
          // legitimately fire at any counter total, but only simulated
          // networks produce them.
          if (!sim_mode_) {
            Fail(e.seq, "forced poll outside a simulated run");
          }
        } else if (e.counter <= k_) {
          Fail(e.seq, "phi-value poll before the counter exceeded k");
        }
        expected_psi_ = e.psi;
        have_expected_psi_ = true;
        break;

      case TraceEventKind::kRebalance:
        ++report_.rebalances;
        ++row.rebalances;
        CheckRound(e);
        if (!fgm_round()) break;  // GM partial rebalances: tally only
        if (!(e.lambda > 0.0 && e.lambda <= 1.0)) {
          Fail(e.seq, "rebalance lambda outside (0, 1]");
        }
        if (!(e.value <= 0.0)) Fail(e.seq, "rebalance with psi_B > 0");
        {
          const double want =
              static_cast<double>(k_) * e.lambda * phi0_ + e.value;
          if (e.psi != want) {
            Fail(e.seq, "rebalance psi != k*lambda*phi(0) + psi_B");
          }
        }
        if (!(e.psi <= stop_level_)) {
          Fail(e.seq, "rebalance accepted without restored slack");
        }
        expected_psi_ = e.psi;
        have_expected_psi_ = true;
        break;

      case TraceEventKind::kThresholdCross:
        CheckRound(e);
        if (Is(e.label, kReasonPsiExhausted)) {
          if (!fgm_round()) {
            Fail(e.seq, "psi-exhausted cross outside an FGM round");
          } else if (!(e.psi >= stop_level_)) {
            Fail(e.seq, "round ended as psi-exhausted below the "
                        "termination level");
          }
        } else if (Is(e.label, kReasonLocalViolation) && !(e.value > 0.0)) {
          Fail(e.seq, "local violation reported with phi <= 0");
        }
        break;

      case TraceEventKind::kDriftFlush: {
        ++report_.flushes;
        CheckRound(e);
        if (e.words < 1) Fail(e.seq, "drift flush below 1 word");
        Tally(&flushed_updates_, e.count, e);
        SiteRow& site = report_.site_rows[e.site];
        ++site.flushes;
        Tally(&site.flush_words, e.words, e);
        Tally(&site.flush_updates, e.count, e);
        break;
      }

      case TraceEventKind::kMsgSent: {
        ++report_.messages;
        if (e.words < 1) Fail(e.seq, "wire message below 1 word");
        RoundRow& current = report_.round_rows[current_row_];
        ++current.msgs;
        if (e.dir > 0) {
          Tally(&up_words_, e.words, e);
          Tally(&current.up_words, e.words, e);
          ++up_msgs_;
        } else {
          Tally(&down_words_, e.words, e);
          Tally(&current.down_words, e.words, e);
          ++down_msgs_;
        }
        Tally(&round_msg_words_, e.words, e);
        for (size_t kind = 0; kind < kMsgKindNames.size(); ++kind) {
          if (Is(e.label, kMsgKindNames[kind])) {
            Tally(&current.words_by_kind[kind], e.words, e);
          }
        }
        if (Is(e.label, MsgKindName(MsgKind::kResync))) PairResync(e);
        break;
      }

      case TraceEventKind::kPlanChosen:
        ++report_.plans;
        CheckRound(e);
        // The plan covers every child, live or not: a reduced round's
        // plan still names RunStart's k.
        if (e.k != endpoints_[0]) Fail(e.seq, "plan k != RunStart's k");
        if (e.counter > e.k) Fail(e.seq, "plan with full_sites above k");
        row.has_plan = true;
        row.full_sites = e.counter;
        row.pred_len = e.pred_len;
        row.pred_gain = e.pred_gain;
        row.pred_rate = e.pred_rate;
        break;

      case TraceEventKind::kPlanSite:
        CheckRound(e);
        if (e.counter != 0 && e.counter != 1) {
          Fail(e.seq, "plan site d outside {0, 1}");
        }
        if (e.site >= k_) Fail(e.seq, "plan for a site outside the round");
        if (!(e.gamma >= 0.0 && e.gamma <= 1.0)) {
          Fail(e.seq, "plan site gamma outside [0, 1]");
        }
        break;

      case TraceEventKind::kPlanOutcome:
        ++report_.plan_outcomes;
        CheckRound(e);
        // The outcome closes the round's word ledger: its `words` must
        // re-sum the round's individual MsgSent events bit-exactly (the
        // per-round analogue of the RunEnd totals check), and the gain is
        // recomputable from the traced operands.
        if (e.words != round_msg_words_) {
          Fail(e.seq, "plan outcome words " + std::to_string(e.words) +
                          " != summed MsgSent words of the round " +
                          std::to_string(round_msg_words_));
        }
        if (e.actual_gain != static_cast<double>(e.count) -
                                 static_cast<double>(e.words)) {
          Fail(e.seq, "plan outcome actual_gain != updates - words");
        }
        // It restates its round's plan (bit-exactly; null = not finite).
        if (row.has_plan && e.pred_gain != row.pred_gain &&
            !(std::isnan(e.pred_gain) && std::isnan(row.pred_gain))) {
          Fail(e.seq, "plan outcome pred_gain != its PlanChosen's");
        }
        row.has_outcome = true;
        row.updates = e.count;
        row.pred_gain = e.pred_gain;
        row.actual_gain = e.actual_gain;
        break;

      case TraceEventKind::kMsgDelivered:
        ++report_.deliveries;
        sim_mode_ = true;
        if (e.words < 1) Fail(e.seq, "delivered message below 1 word");
        if (e.dir > 0) {
          // Coordinator→site traffic: the protocols never address a site
          // inside a SiteDown..SiteResync window, so a delivery there is
          // a hardening bug (the pause/resync machinery was bypassed).
          if (down_sites_.count(e.site) != 0) {
            Fail(e.seq, "delivery to site " + std::to_string(e.site) +
                            " while it is down");
          }
          Tally(&delivered_up_words_, e.words, e);
          ++delivered_up_msgs_;
        } else {
          Tally(&delivered_down_words_, e.words, e);
          ++delivered_down_msgs_;
        }
        Tally(&report_.delivered_words, e.words, e);
        // The delivered attempt completes a rejoin's resync RPC.
        if (Is(e.label, MsgKindName(MsgKind::kResync))) {
          rejoins_.erase(e.site);
        }
        break;

      case TraceEventKind::kMsgDropped:
        ++report_.drops;
        sim_mode_ = true;
        if (e.words < 1) Fail(e.seq, "dropped message below 1 word");
        if (e.dir > 0) {
          Tally(&dropped_up_words_, e.words, e);
          ++dropped_up_msgs_;
        } else {
          Tally(&dropped_down_words_, e.words, e);
          ++dropped_down_msgs_;
        }
        Tally(&report_.dropped_words, e.words, e);
        Tally(&report_.round_rows[current_row_].dropped_words, e.words, e);
        break;

      case TraceEventKind::kSiteDown:
        ++report_.site_downs;
        sim_mode_ = true;
        site_set_changed_ = true;
        if (!down_sites_.insert(e.site).second) {
          Fail(e.seq, "site " + std::to_string(e.site) +
                          " went down while already down");
        }
        break;

      case TraceEventKind::kSiteResync:
        ++report_.resyncs;
        ++row.resyncs;
        Tally(&report_.resync_words, e.words, e);
        sim_mode_ = true;
        site_set_changed_ = true;
        CheckRound(e);
        // A rejoin ships a resync message; a reconfiguration ships none.
        if (Is(e.reason, kReasonRejoin)) {
          PairResync(e);
        } else if (e.words != 0) {
          Fail(e.seq, "reconfig resync with words");
        }
        if (down_sites_.erase(e.site) == 0) {
          Fail(e.seq, "resync for site " + std::to_string(e.site) +
                          " which was not down");
        }
        break;

      case TraceEventKind::kAlertRaised: {
        ++report_.alerts_raised;
        CheckRound(e);
        const std::string rule = e.label;
        if (!active_alerts_.insert({rule, e.site}).second) {
          Fail(e.seq, "alert \"" + rule + "\" re-raised for site " +
                          std::to_string(e.site) + " while already active");
        }
        LogAlert(e);
        break;
      }

      case TraceEventKind::kAlertCleared: {
        ++report_.alerts_cleared;
        CheckRound(e);
        const std::string rule = e.label;
        if (active_alerts_.erase({rule, e.site}) == 0) {
          Fail(e.seq, "alert \"" + rule + "\" cleared for site " +
                          std::to_string(e.site) + " without being raised");
        }
        LogAlert(e);
        break;
      }

      case TraceEventKind::kTierEnd:
        Fail(e.seq, "TierEnd without a tier stamp");
        break;

      case TraceEventKind::kRunEnd:
        report_.saw_run_end = true;
        report_.run_events = e.count;
        report_.run_up_words = e.up_words;
        report_.run_down_words = e.down_words;
        if (e.count != e.seq) Fail(e.seq, "RunEnd events != its seq");
        if (!rejoins_.empty()) {
          Fail(e.seq, "rejoin resync to site " +
                          std::to_string(rejoins_.begin()->first) +
                          " never delivered");
        }
        // Tree runs: every tier closed its ledger, and drift only reaches
        // the root through a complete chain of per-tier flushes — each
        // tier flushes the same updates as the root, in at least as many
        // messages as the tier above it.
        {
          int64_t prev_flushes = report_.flushes;
          for (size_t t = 1; t < endpoints_.size(); ++t) {
            const TierRow& tally = report_.tier_rows[static_cast<int>(t)];
            const std::string tier = "tier " + std::to_string(t);
            if (!tally.closed) Fail(e.seq, tier + " never emitted TierEnd");
            if (tally.flushes < prev_flushes) {
              Fail(e.seq, tier + " saw " + std::to_string(tally.flushes) +
                              " drift flushes, fewer than the " +
                              std::to_string(prev_flushes) + " above it");
            }
            if (tally.flush_updates != flushed_updates_) {
              Fail(e.seq, tier + " flushed " +
                              std::to_string(tally.flush_updates) +
                              " updates, the root " +
                              std::to_string(flushed_updates_));
            }
            prev_flushes = tally.flushes;
            Tally(&report_.tier_words, tally.up_words, e);
            Tally(&report_.tier_words, tally.down_words, e);
          }
        }
        if (e.up_words != up_words_ || e.down_words != down_words_) {
          Fail(e.seq,
               "summed MsgSent words (" + std::to_string(up_words_) + " up, " +
                   std::to_string(down_words_) + " down) != TrafficStats (" +
                   std::to_string(e.up_words) + " up, " +
                   std::to_string(e.down_words) + " down)");
        }
        if (e.up_msgs != up_msgs_ || e.down_msgs != down_msgs_) {
          Fail(e.seq, "MsgSent message counts != TrafficStats");
        }
        // Delivery conservation: when the trace carries network events,
        // every charged send must surface exactly once as a delivery or a
        // drop. (Null-mode sim runs suppress network events entirely and
        // skip this, preserving byte parity with synchronous traces.)
        if (report_.deliveries + report_.drops > 0) {
          if (delivered_up_words_ != up_words_ - dropped_up_words_ ||
              delivered_down_words_ != down_words_ - dropped_down_words_) {
            Fail(e.seq, "delivered+dropped words != sent words (" +
                            std::to_string(up_words_) + " up, " +
                            std::to_string(down_words_) + " down)");
          }
          if (delivered_up_msgs_ + dropped_up_msgs_ != up_msgs_ ||
              delivered_down_msgs_ + dropped_down_msgs_ != down_msgs_) {
            Fail(e.seq, "delivered+dropped message counts != sent counts");
          }
        }
        break;

      case TraceEventKind::kRunStart:
      case TraceEventKind::kKindCount:
        break;
    }
  }

  void LogAlert(const TraceEvent& e) {
    report_.alert_rows.push_back(
        AlertRow{e.kind == TraceEventKind::kAlertRaised, e.label, e.site,
                 e.round, e.value, e.theta,
                 e.reason != nullptr ? e.reason : ""});
  }

  ReplayReport report_;
  int64_t next_seq_ = 0;
  int64_t lines_ = 0;   ///< lines read, blank ones aside
  int64_t volume_ = 0;  ///< every count read (see Book)
  bool overflowed_ = false;  ///< a ledger total saturated
  size_t current_row_ = 0;  ///< ledger row of the latest RoundStart
  int k_ = 0;
  std::vector<int> endpoints_;  ///< per tier, from RunStart (empty before)
  /// Words of the last unpaired drift-flush MsgSent, by (tier, site).
  std::map<std::pair<int, int>, int64_t> flush_words_;
  /// Words of each rejoin's resync RPC until an attempt is delivered.
  std::map<int, int64_t> rejoins_;
  int64_t flushed_updates_ = 0;  ///< root-tier DriftFlush updates
  bool sim_mode_ = false;        ///< any sim network event seen
  bool site_set_changed_ = false;  ///< any SiteDown/SiteResync seen
  std::set<int> down_sites_;
  /// Currently-firing (rule, site) alert pairs; raise/clear must alternate.
  std::set<std::pair<std::string, int>> active_alerts_;
  bool in_round_ = false;
  int64_t round_ = 0;
  int64_t last_round_ = 0;
  double phi0_ = 0.0;
  double eps_ = 0.0;
  double stop_level_ = 0.0;
  bool subround_open_ = false;
  int64_t subround_ = 0;
  int64_t increment_sum_ = 0;
  int64_t round_msg_words_ = 0;
  double expected_psi_ = 0.0;
  bool have_expected_psi_ = false;
  int64_t up_words_ = 0, down_words_ = 0;
  int64_t up_msgs_ = 0, down_msgs_ = 0;
  int64_t delivered_up_words_ = 0, delivered_down_words_ = 0;
  int64_t delivered_up_msgs_ = 0, delivered_down_msgs_ = 0;
  int64_t dropped_up_words_ = 0, dropped_down_words_ = 0;
  int64_t dropped_up_msgs_ = 0, dropped_down_msgs_ = 0;
};

}  // namespace

std::string ReplayReport::Summary() const {
  std::ostringstream out;
  out << "events=" << events << " rounds=" << rounds << " subrounds="
      << subrounds << " increments=" << increments << " flushes=" << flushes
      << " rebalances=" << rebalances << " messages=" << messages
      << " plans=" << plans << " words="
      << (up_words > INT64_MAX - down_words ? INT64_MAX
                                            : up_words + down_words);
  if (deliveries + drops + resyncs > 0) {
    out << " deliveries=" << deliveries << " drops=" << drops
        << " resyncs=" << resyncs;
  }
  if (alerts_raised + alerts_cleared > 0) {
    out << " alerts_raised=" << alerts_raised
        << " alerts_cleared=" << alerts_cleared;
  }
  if (tier_ends > 0) {
    out << " tiers=" << tier_ends << " tier_words=" << tier_words;
  }
  out << (saw_run_end ? "" : " (no RunEnd totals)");
  if (ok()) {
    out << " — all invariants hold";
  } else {
    out << " — " << issue_count << " violation(s)";
    for (const ReplayIssue& issue : issues) {
      out << "\n  seq " << issue.seq << ": " << issue.message;
    }
    if (issue_count > static_cast<int64_t>(issues.size())) {
      out << "\n  ... and " << (issue_count - issues.size()) << " more";
    }
  }
  return out.str();
}

void ReplayReport::SpanWords(int64_t* up, int64_t* down) const {
  const bool timed = deliveries + drops > 0;
  *up = timed ? run_up_words : 0;
  *down = timed ? run_down_words : 0;
}

ReplayReport CheckTrace(std::istream& in) { return Checker().Run(in); }

ReplayReport CheckTraceEvents(const std::vector<TraceEvent>& events) {
  Checker checker;
  for (const TraceEvent& e : events) checker.Event(e);
  return checker.Finish();
}

ReplayReport CheckTraceFile(const std::string& path) {
  std::ifstream in(path);
  if (!in) {
    ReplayReport report;
    report.read_error = "cannot open " + path;
    report.issue_count = 1;
    report.issues.push_back(ReplayIssue{-1, report.read_error});
    return report;
  }
  return CheckTrace(in);
}

}  // namespace fgm
