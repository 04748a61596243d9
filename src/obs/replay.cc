#include "obs/replay.h"

#include <cmath>
#include <cstring>
#include <fstream>
#include <istream>
#include <map>
#include <set>
#include <sstream>
#include <utility>

#include "obs/json.h"

namespace fgm {

namespace {

/// Labels parsed from traces must outlive the returned TraceEvent;
/// interning into a process-lifetime set gives them static storage.
const char* Intern(const std::string& s) {
  static std::set<std::string>* pool = new std::set<std::string>();
  return pool->insert(s).first->c_str();
}

int64_t GetInt(const JsonNode& obj, const std::string& key,
               int64_t fallback = 0) {
  const JsonNode* v = obj.Find(key);
  return v != nullptr ? v->AsInt(fallback) : fallback;
}

// The writer serializes non-finite doubles as null; AsDouble reads them
// back as NaN so "the value was not finite" stays observable.
double GetDouble(const JsonNode& obj, const std::string& key,
                 double fallback = 0.0) {
  const JsonNode* v = obj.Find(key);
  return v != nullptr ? v->AsDouble(fallback) : fallback;
}

const char* GetLabel(const JsonNode& obj, const std::string& key) {
  const JsonNode* v = obj.Find(key);
  if (v == nullptr || v->type != JsonNode::Type::kString) return nullptr;
  return Intern(v->str);
}

}  // namespace

bool ParseTraceEventJson(const std::string& line, TraceEvent* event,
                         std::string* error) {
  JsonNode obj;
  if (!ParseJson(line, &obj, error)) return false;
  // A trace line is one flat object with each key once.
  if (obj.type != JsonNode::Type::kObject) {
    *error = "trace line is not a JSON object";
    return false;
  }
  for (size_t m = 0; m < obj.members.size(); ++m) {
    const auto& [key, value] = obj.members[m];
    if (value.type == JsonNode::Type::kObject ||
        value.type == JsonNode::Type::kArray) {
      *error = "nested value for \"" + key + "\"";
      return false;
    }
    for (size_t prior = 0; prior < m; ++prior) {
      if (obj.members[prior].first == key) {
        *error = "duplicate key \"" + key + "\"";
        return false;
      }
    }
  }
  const JsonNode* ev = obj.Find("ev");
  if (ev == nullptr || ev->type != JsonNode::Type::kString) {
    *error = "missing \"ev\" kind";
    return false;
  }
  *event = TraceEvent{};
  bool known = false;
  for (int i = 0; i < static_cast<int>(TraceEventKind::kKindCount); ++i) {
    const auto kind = static_cast<TraceEventKind>(i);
    if (ev->str == TraceEventKindName(kind)) {
      event->kind = kind;
      known = true;
      break;
    }
  }
  if (!known) {
    *error = "unknown event kind \"" + ev->str + "\"";
    return false;
  }
  event->seq = GetInt(obj, "seq", -1);
  event->site = static_cast<int>(GetInt(obj, "site", -1));
  event->round = GetInt(obj, "round");
  event->subround = GetInt(obj, "subround");
  event->psi = GetDouble(obj, "psi");
  event->theta = GetDouble(obj, "theta");
  event->lambda = GetDouble(obj, "lambda");
  event->eps = GetDouble(obj, "eps_psi");
  event->k = static_cast<int>(GetInt(obj, "k"));
  event->words = GetInt(obj, "words");
  event->up_words = GetInt(obj, "up_words");
  event->down_words = GetInt(obj, "down_words");
  event->up_msgs = GetInt(obj, "up_msgs");
  event->down_msgs = GetInt(obj, "down_msgs");
  event->t = GetInt(obj, "t");
  event->tier = static_cast<int>(GetInt(obj, "tier"));
  switch (event->kind) {
    case TraceEventKind::kRunStart:
      event->label = GetLabel(obj, "protocol");
      // Tree runs announce their spec; `k` is then the root fan-in and
      // `leaves` the true site count (flat runs omit both).
      event->reason = GetLabel(obj, "topology");
      event->counter = GetInt(obj, "leaves");
      break;
    case TraceEventKind::kRoundStart:
      event->value = GetDouble(obj, "phi0");
      break;
    case TraceEventKind::kSubroundEnd:
      event->counter = GetInt(obj, "counter");
      event->reason = GetLabel(obj, "reason");
      break;
    case TraceEventKind::kIncrementMsg:
      event->counter = GetInt(obj, "increment");
      event->reason = GetLabel(obj, "reason");
      break;
    case TraceEventKind::kDriftFlush:
      event->count = GetInt(obj, "updates");
      break;
    case TraceEventKind::kRebalance:
      event->value = GetDouble(obj, "psi_b");
      break;
    case TraceEventKind::kThresholdCross:
      event->value = GetDouble(obj, "value");
      event->label = GetLabel(obj, "reason");
      break;
    case TraceEventKind::kMsgSent: {
      event->label = GetLabel(obj, "msg");
      const char* dir = GetLabel(obj, "dir");
      event->dir = (dir != nullptr && std::strcmp(dir, "up") == 0) ? 1 : -1;
      break;
    }
    case TraceEventKind::kPlanChosen:
      event->counter = GetInt(obj, "full_sites");
      event->pred_len = GetDouble(obj, "pred_len");
      event->pred_gain = GetDouble(obj, "pred_gain");
      event->pred_rate = GetDouble(obj, "pred_rate");
      break;
    case TraceEventKind::kPlanSite:
      event->counter = GetInt(obj, "d");
      event->alpha = GetDouble(obj, "alpha");
      event->beta = GetDouble(obj, "beta");
      event->gamma = GetDouble(obj, "gamma");
      break;
    case TraceEventKind::kPlanOutcome:
      event->count = GetInt(obj, "updates");
      event->pred_gain = GetDouble(obj, "pred_gain");
      event->actual_gain = GetDouble(obj, "actual_gain");
      break;
    case TraceEventKind::kMsgDelivered:
    case TraceEventKind::kMsgDropped: {
      event->label = GetLabel(obj, "msg");
      const char* dir = GetLabel(obj, "dir");
      event->dir = (dir != nullptr && std::strcmp(dir, "up") == 0) ? 1 : -1;
      event->reason = GetLabel(obj, "reason");
      break;
    }
    case TraceEventKind::kSiteDown:
    case TraceEventKind::kSiteResync:
      event->reason = GetLabel(obj, "reason");
      break;
    case TraceEventKind::kAlertRaised:
    case TraceEventKind::kAlertCleared:
      event->label = GetLabel(obj, "rule");
      event->value = GetDouble(obj, "value");
      event->theta = GetDouble(obj, "threshold");
      event->reason = GetLabel(obj, "reason");
      break;
    case TraceEventKind::kRunEnd:
      event->count = GetInt(obj, "events");
      break;
    default:
      break;
  }
  return true;
}

namespace {

constexpr size_t kMaxRecordedIssues = 20;

class Checker {
 public:
  ReplayReport Run(std::istream& in) {
    std::string line;
    int64_t next_seq = 0;
    while (std::getline(in, line)) {
      if (line.empty()) continue;
      TraceEvent e;
      std::string error;
      if (!ParseTraceEventJson(line, &e, &error)) {
        Fail(next_seq, "unparseable line: " + error);
        ++next_seq;
        continue;
      }
      if (e.seq != next_seq) {
        Fail(e.seq, "sequence gap: expected seq " + std::to_string(next_seq));
      }
      next_seq = e.seq + 1;
      ++report_.events;
      Check(e);
    }
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

  void CheckRound(const TraceEvent& e) {
    if (in_round_ && e.round != round_) {
      Fail(e.seq, "event round " + std::to_string(e.round) +
                      " != current round " + std::to_string(round_));
    }
  }

  bool fgm_round() const { return in_round_ && eps_ > 0.0; }

  /// Aggregator-tier events of a tree-topology run. They live outside the
  /// root star's protocol state machine, so they bypass every flat
  /// invariant (round ledger, up/down word totals, subround pairing) and
  /// feed a per-tier ledger instead, closed bit-exactly by kTierEnd.
  void CheckTier(const TraceEvent& e) {
    TierTally& tally = tiers_[e.tier];
    switch (e.kind) {
      case TraceEventKind::kMsgSent:
        if (e.words < 1) Fail(e.seq, "wire message below 1 word");
        if (e.dir > 0) {
          tally.up_words += e.words;
          ++tally.up_msgs;
        } else {
          tally.down_words += e.words;
          ++tally.down_msgs;
        }
        break;

      case TraceEventKind::kSubroundEnd:
        // An aggregator's local poll: unreasoned polls fire only once the
        // local counter passed the node's fan-in (carried in `k`);
        // cascade re-baselines carry reason "rebaseline".
        ++tally.local_polls;
        if (e.counter < 0) Fail(e.seq, "negative aggregator counter");
        if (e.reason == nullptr && e.counter <= e.k) {
          Fail(e.seq, "tier " + std::to_string(e.tier) +
                          " local poll before the counter exceeded the "
                          "fan-in");
        }
        break;

      case TraceEventKind::kDriftFlush:
        ++tally.flushes;
        if (e.words < 1) Fail(e.seq, "drift flush below 1 word");
        if (e.count < 0) Fail(e.seq, "negative flush update count");
        break;

      case TraceEventKind::kTierEnd:
        ++report_.tier_ends;
        if (tally.tier_end) {
          Fail(e.seq, "duplicate TierEnd for tier " + std::to_string(e.tier));
        }
        tally.tier_end = true;
        // Close the tier's word ledger exactly, like RunEnd closes the
        // root's.
        if (e.up_words != tally.up_words ||
            e.down_words != tally.down_words) {
          Fail(e.seq, "tier " + std::to_string(e.tier) +
                          " summed MsgSent words (" +
                          std::to_string(tally.up_words) + " up, " +
                          std::to_string(tally.down_words) +
                          " down) != TierEnd totals (" +
                          std::to_string(e.up_words) + " up, " +
                          std::to_string(e.down_words) + " down)");
        }
        if (e.up_msgs != tally.up_msgs || e.down_msgs != tally.down_msgs) {
          Fail(e.seq, "tier " + std::to_string(e.tier) +
                          " MsgSent message counts != TierEnd totals");
        }
        if (e.k < 1) Fail(e.seq, "TierEnd with no endpoints");
        break;

      default:
        Fail(e.seq, std::string("unexpected tier-stamped event kind \"") +
                        TraceEventKindName(e.kind) + "\"");
        break;
    }
  }

  void Check(const TraceEvent& e) {
    if (e.tier != 0) {
      if (e.tier < 0) {
        Fail(e.seq, "negative tier stamp");
        return;
      }
      CheckTier(e);
      return;
    }
    switch (e.kind) {
      case TraceEventKind::kRunStart:
        if (e.k >= 1) {
          k_ = e.k;
          run_k_ = e.k;
        }
        hier_mode_ = e.reason != nullptr;
        break;

      case TraceEventKind::kRoundStart: {
        ++report_.rounds;
        if (subround_open_) {
          Fail(e.seq, "round started while a subround is still open");
          subround_open_ = false;
        }
        if (e.round != last_round_ + 1) {
          Fail(e.seq, "round numbering jumped from " +
                          std::to_string(last_round_) + " to " +
                          std::to_string(e.round));
        }
        last_round_ = e.round;
        round_ = e.round;
        in_round_ = true;
        round_msg_words_ = 0;
        if (e.k >= 1) {
          if (k_ > 0 && e.k != k_) {
            // Reduced-k (or recovered) rounds are legal only after the
            // simulated network changed the live site set, and k must
            // stay within [1, RunStart k].
            if (!(sim_mode_ && site_set_changed_ &&
                  (run_k_ == 0 || e.k <= run_k_))) {
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
        CheckRound(e);
        if (!fgm_round()) {
          Fail(e.seq, "subround outside an FGM round");
          break;
        }
        if (subround_open_) Fail(e.seq, "nested subround");
        if (e.subround != subround_ + 1) {
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
        CheckRound(e);
        if (!subround_open_) {
          Fail(e.seq, "counter increment outside a subround");
          break;
        }
        if (e.counter <= 0) Fail(e.seq, "non-positive counter increment");
        if (e.site < 0 || (run_k_ > 0 && e.site >= run_k_)) {
          Fail(e.seq, "increment from invalid site");
        }
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
        increment_sum_ += e.counter;
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
        if (e.label != nullptr &&
            std::strcmp(e.label, "psi-exhausted") == 0) {
          if (!fgm_round()) {
            Fail(e.seq, "psi-exhausted cross outside an FGM round");
          } else if (!(e.psi >= stop_level_)) {
            Fail(e.seq, "round ended as psi-exhausted below the "
                        "termination level");
          }
        } else if (e.label != nullptr &&
                   std::strcmp(e.label, "local-violation") == 0) {
          if (!(e.value > 0.0)) {
            Fail(e.seq, "local violation reported with phi <= 0");
          }
        }
        break;

      case TraceEventKind::kDriftFlush:
        ++report_.flushes;
        CheckRound(e);
        if (e.words < 1) Fail(e.seq, "drift flush below 1 word");
        if (e.count < 0) Fail(e.seq, "negative flush update count");
        break;

      case TraceEventKind::kMsgSent:
        ++report_.messages;
        if (e.words < 1) Fail(e.seq, "wire message below 1 word");
        if (e.dir > 0) {
          up_words_ += e.words;
          ++up_msgs_;
        } else {
          down_words_ += e.words;
          ++down_msgs_;
        }
        round_msg_words_ += e.words;
        break;

      case TraceEventKind::kPlanChosen:
        ++report_.plans;
        CheckRound(e);
        if (e.counter < 0 || (e.k > 0 && e.counter > e.k)) {
          Fail(e.seq, "plan with full_sites outside [0, k]");
        }
        break;

      case TraceEventKind::kPlanSite:
        CheckRound(e);
        if (e.counter != 0 && e.counter != 1) {
          Fail(e.seq, "plan site d outside {0, 1}");
        }
        if (e.site < 0 || (k_ > 0 && e.site >= k_)) {
          Fail(e.seq, "plan for invalid site");
        }
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
          delivered_up_words_ += e.words;
          ++delivered_up_msgs_;
        } else {
          delivered_down_words_ += e.words;
          ++delivered_down_msgs_;
        }
        break;

      case TraceEventKind::kMsgDropped:
        ++report_.drops;
        sim_mode_ = true;
        if (e.words < 1) Fail(e.seq, "dropped message below 1 word");
        if (e.dir > 0) {
          dropped_up_words_ += e.words;
          ++dropped_up_msgs_;
        } else {
          dropped_down_words_ += e.words;
          ++dropped_down_msgs_;
        }
        break;

      case TraceEventKind::kSiteDown:
        sim_mode_ = true;
        site_set_changed_ = true;
        if (e.site < 0 || (run_k_ > 0 && e.site >= run_k_)) {
          Fail(e.seq, "SiteDown for invalid site");
        } else if (!down_sites_.insert(e.site).second) {
          Fail(e.seq, "site " + std::to_string(e.site) +
                          " went down while already down");
        }
        break;

      case TraceEventKind::kSiteResync:
        ++report_.resyncs;
        sim_mode_ = true;
        site_set_changed_ = true;
        if (e.words < 0) Fail(e.seq, "negative resync word count");
        if (down_sites_.erase(e.site) == 0) {
          Fail(e.seq, "resync for site " + std::to_string(e.site) +
                          " which was not down");
        }
        break;

      case TraceEventKind::kAlertRaised: {
        ++report_.alerts_raised;
        const std::string rule = e.label != nullptr ? e.label : "?";
        if (!active_alerts_.insert({rule, e.site}).second) {
          Fail(e.seq, "alert \"" + rule + "\" re-raised for site " +
                          std::to_string(e.site) + " while already active");
        }
        break;
      }

      case TraceEventKind::kAlertCleared: {
        ++report_.alerts_cleared;
        const std::string rule = e.label != nullptr ? e.label : "?";
        if (active_alerts_.erase({rule, e.site}) == 0) {
          Fail(e.seq, "alert \"" + rule + "\" cleared for site " +
                          std::to_string(e.site) + " without being raised");
        }
        break;
      }

      case TraceEventKind::kTierEnd:
        Fail(e.seq, "TierEnd without a tier stamp");
        break;

      case TraceEventKind::kRunEnd:
        report_.saw_run_end = true;
        // Tree runs: every aggregator tier that carried traffic must have
        // closed its ledger, and flush fan-out must widen towards the
        // leaves — each root-tier flush collection pulls at least as many
        // flush messages across every deeper tier (word conservation
        // across tiers: drift only reaches the root through a complete
        // chain of per-tier flushes).
        {
          int64_t prev_flushes = report_.flushes;
          int prev_tier = 0;
          for (const auto& entry : tiers_) {
            const TierTally& tally = entry.second;
            if (!tally.tier_end &&
                tally.up_words + tally.down_words > 0) {
              Fail(e.seq, "tier " + std::to_string(entry.first) +
                              " carried traffic but never emitted TierEnd");
            }
            if (entry.first == prev_tier + 1 &&
                tally.flushes < prev_flushes) {
              Fail(e.seq, "tier " + std::to_string(entry.first) + " saw " +
                              std::to_string(tally.flushes) +
                              " drift flushes, fewer than tier " +
                              std::to_string(prev_tier) + "'s " +
                              std::to_string(prev_flushes));
            }
            prev_flushes = tally.flushes;
            prev_tier = entry.first;
            report_.tier_words += tally.up_words + tally.down_words;
            report_.tier_up_words += tally.up_words;
            report_.tier_down_words += tally.down_words;
          }
          if (!tiers_.empty() && !hier_mode_) {
            Fail(e.seq, "tier-stamped events in a run whose RunStart "
                        "announced no topology");
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
          if (delivered_up_words_ + dropped_up_words_ != up_words_ ||
              delivered_down_words_ + dropped_down_words_ != down_words_) {
            Fail(e.seq, "delivered+dropped words (" +
                            std::to_string(delivered_up_words_ +
                                           dropped_up_words_) +
                            " up, " +
                            std::to_string(delivered_down_words_ +
                                           dropped_down_words_) +
                            " down) != sent words (" +
                            std::to_string(up_words_) + " up, " +
                            std::to_string(down_words_) + " down)");
          }
          if (delivered_up_msgs_ + dropped_up_msgs_ != up_msgs_ ||
              delivered_down_msgs_ + dropped_down_msgs_ != down_msgs_) {
            Fail(e.seq, "delivered+dropped message counts != sent counts");
          }
        }
        break;

      case TraceEventKind::kKindCount:
        break;
    }
  }

  /// Per-tier ledger of a tree-topology run, keyed by tier (1 = the tier
  /// just below the root).
  struct TierTally {
    int64_t up_words = 0, down_words = 0;
    int64_t up_msgs = 0, down_msgs = 0;
    int64_t flushes = 0;
    int64_t local_polls = 0;
    bool tier_end = false;
  };

  ReplayReport report_;
  int k_ = 0;
  int run_k_ = 0;  ///< site count announced at RunStart (never shrinks)
  bool hier_mode_ = false;  ///< RunStart announced a tree topology
  std::map<int, TierTally> tiers_;
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
      << " plans=" << plans << " words=" << (up_words + down_words);
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

ReplayReport CheckTrace(std::istream& in) { return Checker().Run(in); }

ReplayReport CheckTraceFile(const std::string& path) {
  std::ifstream in(path);
  if (!in) {
    ReplayReport report;
    report.issue_count = 1;
    report.issues.push_back(ReplayIssue{-1, "cannot open " + path});
    return report;
  }
  return CheckTrace(in);
}

}  // namespace fgm
