// Offline run-report analyzer.
//
//   ./build/tools/fgm_report --trace=trace.jsonl [--metrics=metrics.json]
//       [--timeseries=ts.json] [--spans=spans.json]
//       [--json_out=report.json] [--max_rounds=24] [--check=true]
//
// Renders the observability triple a runner invocation writes
// (--trace_out / --metrics_out / --timeseries_out) into a human-readable
// run report: per-round communication table, site-skew summary, FGM/O
// optimizer audit (predicted vs actual gain per round), and — for runs
// over the simulated network (src/sim) — delivery/drop/retransmit/resync
// counters, with a flag on any round whose in-flight backlog exceeded the
// 3k+1-word subround budget. With --json_out the same report is written
// as machine-readable JSON.
//
// The trace is read once, by the replay checker (obs/replay.h): one pass
// certifies it, exactly as trace_check does, and books the run ledger
// (per round, site and tier; network tallies; the alert log) that every
// table here renders, so the input may be a pipe. The three files
// describe one run three ways, so the report cross-checks them against
// each other bit-exactly (the trace_check discipline):
//
//  * the trace replays clean and reaches its RunEnd;
//  * metrics.json's run totals and words_by_kind equal the trace's;
//  * every time-series round sample's cumulative and per-round word counts
//    (total and per message kind), subround count and plan-audit numbers
//    equal the ledger's.
//
// --spans adds the causal-span file (--spans_out, obs/span.h) as a fourth
// view: the span invariants must hold (every span closed, children inside
// their parents) and the per-direction msg/datagram span word sums must
// equal ReplayReport::SpanWords, the target trace_check takes too (the
// trace's RunEnd totals on a timed simulated run, whose root links alone
// record message spans, else 0). The report then prints the run's time
// split: run, rounds and network time, and the RPC retransmits. It names
// no straggler: a synchronous run polls its children one blocking call
// at a time, so the last reply of a subround marks poll order, not a
// slow site; the health monitor's straggler_site rule reads per-site
// delivery latency instead.
//
// Exit: 0 = all checks pass, 1 = the replay or a cross-check failed
// (suppress with --check=false), 2 = usage / file / parse error, or a
// trace line the ledger cannot book (reported as "line N: ...").

#include <algorithm>
#include <array>
#include <cmath>
#include <cstdarg>
#include <cstdint>
#include <cstdio>
#include <fstream>
#include <sstream>
#include <string>
#include <vector>

#include "net/network.h"
#include "obs/json.h"
#include "obs/replay.h"
#include "obs/span.h"
#include "util/flags.h"
#include "util/table.h"

namespace {

constexpr int kKinds = static_cast<int>(fgm::MsgKind::kKindCount);

/// Schema version of the --json_out document. Bump on any
/// backwards-incompatible change to the report layout.
/// v2: added the "speculation" object (parallel-runner efficiency:
/// windows/barriers/soft_commits, committed/wasted/replayed tallies and
/// the derived waste ratio, replayed-per-window and barrier rate).
/// v3: added the "alerts" object (health-monitor AlertRaised/AlertCleared
/// tallies, per-rule counts and the full event list).
/// v4: added the tree-topology fields for hierarchical runs (src/hier):
/// top-level "topology"/"leaves" and the "tiers" array (per-tier
/// endpoints, mean fan-in, up/down words and messages, drift flushes,
/// aggregator local polls and the composed-ψ range each tier reported).
/// v5: removed the "speculation" object and the "spans" object's
/// speculate_time/barrier_time/replay_time/commit_time fields; runs are
/// single-threaded and metrics.json carries no speculation numbers.
/// v6: removed the "spans" object's gated_subrounds and top_sites
/// (the straggler table read poll order, not stragglers).
constexpr int64_t kReportSchemaVersion = 6;

std::string Format(const char* fmt, ...) {
  char buf[512];
  va_list args;
  va_start(args, fmt);
  std::vsnprintf(buf, sizeof(buf), fmt, args);
  va_end(args);
  return buf;
}

/// Whether the trace carries simulated-network events (src/sim); the
/// simulator's null mode emits none.
bool HasNet(const fgm::ReplayReport& t) {
  return t.deliveries + t.drops + t.site_downs + t.resyncs > 0;
}

bool ReadJsonFile(const std::string& path, fgm::JsonNode* out,
                  std::string* error) {
  std::ifstream in(path);
  if (!in) {
    *error = "cannot open " + path;
    return false;
  }
  std::ostringstream text;
  text << in.rdbuf();
  return fgm::ParseJson(text.str(), out, error);
}

/// Collects cross-check failures; every Check* helper appends here.
struct Checker {
  int64_t performed = 0;
  std::vector<std::string> failures;

  void Expect(bool ok, const std::string& what) {
    ++performed;
    if (!ok) failures.push_back(what);
  }
  void ExpectEqInt(int64_t got, int64_t want, const std::string& what) {
    Expect(got == want,
           Format("%s: %lld != %lld", what.c_str(),
                  static_cast<long long>(got), static_cast<long long>(want)));
  }
  void ExpectEqDouble(double got, double want, const std::string& what) {
    // Bit-exact by design: both sides round-trip through %.17g.
    Expect(got == want || (std::isnan(got) && std::isnan(want)),
           Format("%s: %.17g != %.17g", what.c_str(), got, want));
  }
  bool ok() const { return failures.empty(); }
};

/// metrics.json carries the same run totals the trace's RunEnd does.
void CheckMetrics(const fgm::ReplayReport& t, const fgm::JsonNode& m,
                  Checker* c) {
  const fgm::JsonNode* run = m.Find("run");
  c->Expect(run != nullptr, "metrics.json has no \"run\" object");
  if (run == nullptr) return;
  const fgm::JsonNode* total = run->Find("total_words");
  c->Expect(total != nullptr, "metrics.json run has no total_words");
  if (total != nullptr) {
    c->ExpectEqInt(total->AsInt(), t.run_up_words + t.run_down_words,
                   "metrics run.total_words vs trace RunEnd");
  }
  const fgm::JsonNode* rounds = run->Find("rounds");
  if (rounds != nullptr && t.last_round() > 0) {
    c->ExpectEqInt(rounds->AsInt(), t.last_round(),
                   "metrics run.rounds vs trace RoundStart count");
  }
  // Simulated-network runs: metrics.json's "net" section (SimNetStats)
  // must re-state the trace's delivery/drop/fault tallies exactly. Null
  // mode suppresses network events, so only compare when the trace has
  // them.
  const fgm::JsonNode* net = m.Find("net");
  if (net != nullptr && HasNet(t)) {
    auto net_int = [&](const char* name) {
      const fgm::JsonNode* v = net->Find(name);
      return v != nullptr ? v->AsInt() : -1;
    };
    c->ExpectEqInt(net_int("delivered_msgs"), t.deliveries,
                   "metrics net.delivered_msgs vs trace MsgDelivered count");
    c->ExpectEqInt(net_int("delivered_words"), t.delivered_words,
                   "metrics net.delivered_words vs trace MsgDelivered words");
    c->ExpectEqInt(net_int("dropped_msgs"), t.drops,
                   "metrics net.dropped_msgs vs trace MsgDropped count");
    c->ExpectEqInt(net_int("dropped_words"), t.dropped_words,
                   "metrics net.dropped_words vs trace MsgDropped words");
    c->ExpectEqInt(net_int("site_downs"), t.site_downs,
                   "metrics net.site_downs vs trace SiteDown count");
    c->ExpectEqInt(net_int("resyncs"), t.resyncs,
                   "metrics net.resyncs vs trace SiteResync count");
  }
  const fgm::JsonNode* by_kind = m.Find("words_by_kind");
  c->Expect(by_kind != nullptr, "metrics.json has no words_by_kind");
  if (by_kind != nullptr) {
    for (int i = 0; i < kKinds; ++i) {
      const char* name = fgm::MsgKindName(static_cast<fgm::MsgKind>(i));
      int64_t trace_sum = 0;
      for (const fgm::RoundRow& r : t.round_rows) {
        trace_sum += r.words_by_kind[static_cast<size_t>(i)];
      }
      const fgm::JsonNode* v = by_kind->Find(name);
      c->Expect(v != nullptr,
                Format("metrics words_by_kind missing \"%s\"", name));
      if (v != nullptr) {
        c->ExpectEqInt(v->AsInt(), trace_sum,
                       Format("metrics words_by_kind[%s] vs trace", name));
      }
    }
  }
}

/// Every retained round sample must restate the trace's per-round and
/// cumulative ledgers bit-exactly (same booking instants by construction).
void CheckTimeSeries(const fgm::ReplayReport& t, const fgm::JsonNode& ts,
                     Checker* c, int64_t* round_samples,
                     int64_t* interval_samples) {
  const fgm::JsonNode* samples = ts.Find("samples");
  c->Expect(samples != nullptr && samples->type == fgm::JsonNode::Type::kArray,
            "timeseries has no samples array");
  if (samples == nullptr) return;

  // Cumulative word prefix sums per round, matching the protocol's booking
  // instants (prefix[r] = words shipped through the end of round r).
  const size_t n = t.round_rows.size();
  std::vector<int64_t> prefix_words(n, 0);
  std::vector<std::array<int64_t, kKinds>> prefix_kind(n);
  std::vector<int64_t> prefix_subrounds(n, 0);
  int64_t acc = 0, acc_sub = 0;
  std::array<int64_t, kKinds> acc_kind{};
  for (size_t r = 0; r < n; ++r) {
    acc += t.round_rows[r].words();
    acc_sub += t.round_rows[r].subrounds;
    for (int i = 0; i < kKinds; ++i) {
      acc_kind[static_cast<size_t>(i)] +=
          t.round_rows[r].words_by_kind[static_cast<size_t>(i)];
    }
    prefix_words[r] = acc;
    prefix_kind[r] = acc_kind;
    prefix_subrounds[r] = acc_sub;
  }

  int64_t prev_records = -1;
  for (const fgm::JsonNode& s : samples->items) {
    const fgm::JsonNode* kind = s.Find("kind");
    const bool is_round =
        kind != nullptr && kind->type == fgm::JsonNode::Type::kString &&
        kind->str == "round";
    const int64_t records =
        s.Find("records") != nullptr ? s.Find("records")->AsInt() : 0;
    c->Expect(records >= prev_records,
              Format("timeseries records not monotone at sample %lld",
                     (long long)(s.Find("seq") ? s.Find("seq")->AsInt() : -1)));
    prev_records = records;
    if (!is_round) {
      ++*interval_samples;
      continue;
    }
    ++*round_samples;
    const int64_t round = s.Find("round") ? s.Find("round")->AsInt() : -1;
    const std::string tag = Format("timeseries round %lld", (long long)round);
    c->Expect(round >= 1 && static_cast<size_t>(round) < n,
              tag + " out of trace range");
    if (round < 1 || static_cast<size_t>(round) >= n) continue;
    const fgm::RoundRow& r = t.round_rows[static_cast<size_t>(round)];
    c->ExpectEqInt(s.Find("round_words") ? s.Find("round_words")->AsInt() : -1,
                   r.words(), tag + " round_words vs trace");
    c->ExpectEqInt(s.Find("total_words") ? s.Find("total_words")->AsInt() : -1,
                   prefix_words[static_cast<size_t>(round)],
                   tag + " total_words vs trace prefix");
    c->ExpectEqInt(s.Find("subrounds") ? s.Find("subrounds")->AsInt() : -1,
                   r.subrounds, tag + " subrounds vs trace");
    c->ExpectEqInt(
        s.Find("total_subrounds") ? s.Find("total_subrounds")->AsInt() : -1,
        prefix_subrounds[static_cast<size_t>(round)],
        tag + " total_subrounds vs trace prefix");
    const fgm::JsonNode* cum = s.Find("words_by_kind");
    const fgm::JsonNode* delta = s.Find("round_words_by_kind");
    c->Expect(cum != nullptr && delta != nullptr &&
                  cum->items.size() == static_cast<size_t>(kKinds) &&
                  delta->items.size() == static_cast<size_t>(kKinds),
              tag + " kind arrays missing or wrong length");
    if (cum != nullptr && delta != nullptr &&
        cum->items.size() == static_cast<size_t>(kKinds) &&
        delta->items.size() == static_cast<size_t>(kKinds)) {
      for (int i = 0; i < kKinds; ++i) {
        const char* name = fgm::MsgKindName(static_cast<fgm::MsgKind>(i));
        c->ExpectEqInt(
            cum->items[static_cast<size_t>(i)].AsInt(),
            prefix_kind[static_cast<size_t>(round)][static_cast<size_t>(i)],
            tag + Format(" words_by_kind[%s] vs trace prefix", name));
        c->ExpectEqInt(delta->items[static_cast<size_t>(i)].AsInt(),
                       r.words_by_kind[static_cast<size_t>(i)],
                       tag + Format(" round_words_by_kind[%s] vs trace", name));
      }
    }
    if (r.has_outcome) {
      c->ExpectEqDouble(
          s.Find("actual_gain") ? s.Find("actual_gain")->AsDouble() : 0.0,
          r.actual_gain, tag + " actual_gain vs PlanOutcome");
      c->ExpectEqDouble(
          s.Find("pred_gain") ? s.Find("pred_gain")->AsDouble() : 0.0,
          r.pred_gain, tag + " pred_gain vs PlanOutcome");
    }
    if (r.has_plan) {
      c->ExpectEqInt(
          s.Find("plan_full_sites") ? s.Find("plan_full_sites")->AsInt() : -1,
          r.full_sites, tag + " plan_full_sites vs PlanChosen");
    }
  }
}

// ---------------------------------------------------------------------------
// Report rendering.

void PrintHeader(const std::string& path, const fgm::ReplayReport& t) {
  fgm::PrintBanner("FGM run report: " + path);
  std::printf(
      "protocol %s  k=%d  trace-events=%lld  rounds=%lld  messages=%lld\n"
      "words: total=%lld  upstream=%lld  downstream=%lld\n",
      t.protocol.c_str(), t.k, static_cast<long long>(t.run_events),
      static_cast<long long>(t.last_round()),
      static_cast<long long>(t.messages),
      static_cast<long long>(t.run_up_words + t.run_down_words),
      static_cast<long long>(t.run_up_words),
      static_cast<long long>(t.run_down_words));
}

void PrintRoundTable(const fgm::ReplayReport& t, int64_t max_rounds) {
  if (t.last_round() == 0) return;
  fgm::PrintBanner("Per-round communication");
  fgm::TablePrinter table({"round", "subr", "rebal", "msgs", "words", "up",
                           "down", "safe-zone", "quantum", "counter",
                           "phi-value", "drift-flush", "other"});
  const int64_t first =
      std::max<int64_t>(1, t.last_round() - max_rounds + 1);
  if (first > 1) {
    std::printf("(showing the last %lld of %lld rounds)\n",
                static_cast<long long>(t.last_round() - first + 1),
                static_cast<long long>(t.last_round()));
  }
  for (size_t i = static_cast<size_t>(first); i < t.round_rows.size(); ++i) {
    const fgm::RoundRow& r = t.round_rows[i];
    auto kind = [&r](fgm::MsgKind k) {
      return fgm::TablePrinter::Cell(
          r.words_by_kind[static_cast<size_t>(k)]);
    };
    int64_t other = r.words();
    for (fgm::MsgKind k :
         {fgm::MsgKind::kSafeZone, fgm::MsgKind::kQuantum,
          fgm::MsgKind::kCounter, fgm::MsgKind::kPhiValue,
          fgm::MsgKind::kDriftFlush}) {
      other -= r.words_by_kind[static_cast<size_t>(k)];
    }
    table.AddRow({fgm::TablePrinter::Cell(r.round),
                  fgm::TablePrinter::Cell(r.subrounds),
                  fgm::TablePrinter::Cell(r.rebalances),
                  fgm::TablePrinter::Cell(r.msgs),
                  fgm::TablePrinter::Cell(r.words()),
                  fgm::TablePrinter::Cell(r.up_words),
                  fgm::TablePrinter::Cell(r.down_words),
                  kind(fgm::MsgKind::kSafeZone), kind(fgm::MsgKind::kQuantum),
                  kind(fgm::MsgKind::kCounter), kind(fgm::MsgKind::kPhiValue),
                  kind(fgm::MsgKind::kDriftFlush),
                  fgm::TablePrinter::Cell(other)});
  }
  table.Print();
}

void PrintSiteSkew(const fgm::ReplayReport& t) {
  if (t.site_rows.empty()) return;
  fgm::PrintBanner("Site skew (drift flushes)");
  int64_t total_updates = 0, total_words = 0;
  int64_t max_updates = 0, max_words = 0;
  int hot_updates = -1, hot_words = -1;
  for (const auto& [site, s] : t.site_rows) {
    total_updates += s.flush_updates;
    total_words += s.flush_words;
    if (s.flush_updates > max_updates) {
      max_updates = s.flush_updates;
      hot_updates = site;
    }
    if (s.flush_words > max_words) {
      max_words = s.flush_words;
      hot_words = site;
    }
  }
  // The mean is over every site RunStart announced, flushed or not (more
  // only when the trace names a site past k, which fails its replay).
  const size_t sites = std::max(static_cast<size_t>(t.k), t.site_rows.size());
  const double n = static_cast<double>(sites);
  std::printf(
      "sites=%zu  flushed updates: mean=%.1f max=%lld (site %d, %.2fx mean)\n"
      "flush words: mean=%.1f max=%lld (site %d)\n",
      sites, static_cast<double>(total_updates) / n,
      static_cast<long long>(max_updates), hot_updates,
      total_updates > 0
          ? static_cast<double>(max_updates) * n /
                static_cast<double>(total_updates)
          : 0.0,
      static_cast<double>(total_words) / n, static_cast<long long>(max_words),
      hot_words);
}

void PrintOptimizerAudit(const fgm::ReplayReport& t, int64_t max_rounds) {
  int64_t outcomes = 0;
  for (const fgm::RoundRow& r : t.round_rows) outcomes += r.has_outcome ? 1 : 0;
  if (outcomes == 0) return;
  fgm::PrintBanner("FGM/O plan audit: predicted vs actual gain");
  fgm::TablePrinter table({"round", "full", "pred_len", "pred_gain",
                           "actual_gain", "abs_err", "rel_err"});
  double sum_abs = 0.0, sum_rel = 0.0, max_abs = 0.0;
  int64_t shown = 0, audited = 0;
  for (const fgm::RoundRow& r : t.round_rows) {
    if (!r.has_outcome) continue;
    const double err = std::fabs(r.pred_gain - r.actual_gain);
    const double rel = err / std::max(std::fabs(r.actual_gain), 1.0);
    ++audited;
    sum_abs += err;
    sum_rel += rel;
    max_abs = std::max(max_abs, err);
    if (outcomes - audited < max_rounds && shown < max_rounds) {
      ++shown;
      table.AddRow({fgm::TablePrinter::Cell(r.round),
                    fgm::TablePrinter::Cell(r.full_sites),
                    fgm::TablePrinter::Cell(r.pred_len),
                    fgm::TablePrinter::Cell(r.pred_gain),
                    fgm::TablePrinter::Cell(r.actual_gain),
                    fgm::TablePrinter::Cell(err),
                    fgm::TablePrinter::Cell(rel)});
    }
  }
  if (shown < outcomes) {
    std::printf("(showing the last %lld of %lld audited rounds)\n",
                static_cast<long long>(shown),
                static_cast<long long>(outcomes));
  }
  table.Print();
  std::printf(
      "gain prediction error: mean_abs=%.4g max_abs=%.4g mean_rel=%.4g "
      "over %lld rounds\n",
      sum_abs / static_cast<double>(audited), max_abs,
      sum_rel / static_cast<double>(audited),
      static_cast<long long>(audited));
}

/// Simulated-network health: counters from the trace and metrics.json,
/// plus a flag on every round whose end-of-round in-flight backlog
/// exceeded the 3k+1-word subround budget (2k quantum/poll words + k
/// counter increments + 1 — more than one subround's worth of counter
/// traffic still queued means the network cannot keep up with the
/// protocol's cadence).
void PrintNetwork(const fgm::ReplayReport& t, const fgm::JsonNode* m,
                  const fgm::JsonNode* ts) {
  const fgm::JsonNode* net = m != nullptr ? m->Find("net") : nullptr;
  if (!HasNet(t) && net == nullptr) return;
  fgm::PrintBanner("Simulated network");
  std::printf(
      "delivered: msgs=%lld words=%lld   dropped: msgs=%lld words=%lld\n"
      "site_downs=%lld  resyncs=%lld (resync words=%lld)\n",
      static_cast<long long>(t.deliveries),
      static_cast<long long>(t.delivered_words),
      static_cast<long long>(t.drops),
      static_cast<long long>(t.dropped_words),
      static_cast<long long>(t.site_downs),
      static_cast<long long>(t.resyncs),
      static_cast<long long>(t.resync_words));
  if (net != nullptr) {
    auto net_int = [&](const char* name) {
      const fgm::JsonNode* v = net->Find(name);
      return static_cast<long long>(v != nullptr ? v->AsInt() : 0);
    };
    std::printf(
        "retransmitted: msgs=%lld words=%lld  stale=%lld  timeouts=%lld\n"
        "max_in_flight_words=%lld  final_tick=%lld\n",
        net_int("retransmitted_msgs"), net_int("retransmitted_words"),
        net_int("stale_msgs"), net_int("timeouts"),
        net_int("max_in_flight_words"), net_int("final_tick"));
  }

  const int64_t budget = 3 * static_cast<int64_t>(t.k) + 1;
  int64_t flagged = 0;
  if (ts != nullptr) {
    const fgm::JsonNode* samples = ts->Find("samples");
    if (samples != nullptr &&
        samples->type == fgm::JsonNode::Type::kArray) {
      for (const fgm::JsonNode& s : samples->items) {
        const fgm::JsonNode* kind = s.Find("kind");
        if (kind == nullptr || kind->type != fgm::JsonNode::Type::kString ||
            kind->str != "round") {
          continue;
        }
        const fgm::JsonNode* in_flight = s.Find("in_flight_words");
        if (in_flight == nullptr || in_flight->AsInt() <= budget) continue;
        ++flagged;
        std::printf(
            "FLAG round %lld: in_flight_words=%lld exceeds the subround "
            "budget %lld (3k+1)\n",
            static_cast<long long>(
                s.Find("round") ? s.Find("round")->AsInt() : -1),
            static_cast<long long>(in_flight->AsInt()),
            static_cast<long long>(budget));
      }
    }
  }
  if (net != nullptr) {
    const fgm::JsonNode* hw = net->Find("max_in_flight_words");
    if (hw != nullptr && hw->AsInt() > budget) {
      std::printf(
          "note: peak in-flight backlog %lld exceeded the subround budget "
          "%lld at some instant\n",
          static_cast<long long>(hw->AsInt()),
          static_cast<long long>(budget));
    }
  }
  if (flagged == 0 && ts != nullptr) {
    std::printf("no round ended with in-flight words over the subround "
                "budget %lld\n",
                static_cast<long long>(budget));
  }
}

/// Tree-topology tier table (src/hier): one row per aggregator tier with
/// its TierEnd word ledger, drift-flush and local-poll tallies, and the
/// range of composed subtree sums its polls observed. fan-in is the mean
/// child count per parent on that tier's links (endpoints[t-1] parents,
/// endpoints[t] children; tier 1's parents are the root's k endpoints).
void PrintTiers(const fgm::ReplayReport& t) {
  if (t.tier_rows.empty()) return;
  fgm::PrintBanner("Tree topology");
  std::printf("topology=%s  tiers=%lld  leaves=%lld  root endpoints k=%d\n",
              t.topology.empty() ? "?" : t.topology.c_str(),
              static_cast<long long>(t.tier_rows.size() + 1),
              static_cast<long long>(t.leaves), t.k);
  fgm::TablePrinter table({"tier", "endpoints", "fan-in", "up_words",
                           "down_words", "up_msgs", "down_msgs", "flushes",
                           "local_polls", "min_psi", "max_psi"});
  int prev_endpoints = t.k;
  for (const auto& [id, tier] : t.tier_rows) {
    const double fan_in =
        prev_endpoints > 0
            ? static_cast<double>(tier.endpoints) / prev_endpoints
            : 0.0;
    table.AddRow({fgm::TablePrinter::Cell(static_cast<int64_t>(id)),
                  fgm::TablePrinter::Cell(static_cast<int64_t>(tier.endpoints)),
                  fgm::TablePrinter::Cell(fan_in),
                  fgm::TablePrinter::Cell(tier.up_words),
                  fgm::TablePrinter::Cell(tier.down_words),
                  fgm::TablePrinter::Cell(tier.up_msgs),
                  fgm::TablePrinter::Cell(tier.down_msgs),
                  fgm::TablePrinter::Cell(tier.flushes),
                  fgm::TablePrinter::Cell(tier.local_polls),
                  fgm::TablePrinter::Cell(tier.has_psi ? tier.min_psi : 0.0),
                  fgm::TablePrinter::Cell(tier.has_psi ? tier.max_psi : 0.0)});
    prev_endpoints = tier.endpoints;
  }
  table.Print();
}

/// Health-monitor alert log: every raise/clear transition with the
/// measured value vs the rule threshold at the instant it fired.
void PrintAlerts(const fgm::ReplayReport& t, int64_t max_rounds) {
  if (t.alert_rows.empty()) return;
  fgm::PrintBanner("Health alerts");
  std::printf("raised=%lld cleared=%lld (%lld still active at run end)\n",
              static_cast<long long>(t.alerts_raised),
              static_cast<long long>(t.alerts_cleared),
              static_cast<long long>(t.alerts_raised - t.alerts_cleared));
  fgm::TablePrinter table(
      {"event", "rule", "site", "round", "value", "threshold", "reason"});
  const int64_t total = static_cast<int64_t>(t.alert_rows.size());
  const int64_t first = std::max<int64_t>(0, total - max_rounds);
  if (first > 0) {
    std::printf("(showing the last %lld of %lld transitions)\n",
                static_cast<long long>(total - first),
                static_cast<long long>(total));
  }
  for (size_t i = static_cast<size_t>(first); i < t.alert_rows.size(); ++i) {
    const fgm::AlertRow& a = t.alert_rows[i];
    table.AddRow({fgm::TablePrinter::Cell(a.raised ? "RAISE" : "clear"),
                  fgm::TablePrinter::Cell(a.rule),
                  fgm::TablePrinter::Cell(static_cast<int64_t>(a.site)),
                  fgm::TablePrinter::Cell(a.round),
                  fgm::TablePrinter::Cell(a.value),
                  fgm::TablePrinter::Cell(a.threshold),
                  fgm::TablePrinter::Cell(a.reason)});
  }
  table.Print();
}

/// Run-level time split, computed from the span file alone
/// (SummarizeCriticalPath).
void PrintCriticalPath(const fgm::SpanCheckStats& stats,
                       const fgm::CriticalPathSummary& cp) {
  fgm::PrintBanner("Critical path (spans)");
  const double run = cp.run_time > 0 ? static_cast<double>(cp.run_time) : 1.0;
  auto pct = [run](int64_t v) { return 100.0 * static_cast<double>(v) / run; };
  std::printf("spans=%lld  run_time=%lld  round_time=%lld (%.1f%%)\n",
              static_cast<long long>(stats.spans),
              static_cast<long long>(cp.run_time),
              static_cast<long long>(cp.round_time), pct(cp.round_time));
  std::printf("network=%lld (%.1f%%)  retransmits=%lld\n",
              static_cast<long long>(cp.network_time), pct(cp.network_time),
              static_cast<long long>(cp.retransmits));
}

void WriteJsonReport(const std::string& path, const std::string& trace_path,
                     const fgm::ReplayReport& t, const Checker& checks,
                     const fgm::SpanCheckStats* span_stats,
                     const fgm::CriticalPathSummary* cp) {
  fgm::JsonWriter w;
  w.BeginObject();
  w.Field("version", kReportSchemaVersion);
  w.Field("trace", trace_path);
  w.Field("protocol", t.protocol);
  w.Field("k", static_cast<int64_t>(t.k));
  w.Field("trace_events", t.run_events);
  w.Field("rounds", t.last_round());
  w.Field("up_words", t.run_up_words);
  w.Field("down_words", t.run_down_words);
  w.Key("per_round");
  w.BeginArray();
  for (const fgm::RoundRow& r : t.round_rows) {
    if (r.round == 0 && r.msgs == 0) continue;  // empty pre-round bucket
    w.BeginObject();
    w.Field("round", r.round);
    w.Field("subrounds", r.subrounds);
    w.Field("rebalances", r.rebalances);
    w.Field("msgs", r.msgs);
    w.Field("up_words", r.up_words);
    w.Field("down_words", r.down_words);
    w.Key("words_by_kind");
    w.BeginArray();
    for (const int64_t v : r.words_by_kind) w.Int(v);
    w.EndArray();
    if (r.has_plan) {
      w.Field("full_sites", r.full_sites);
      w.Field("pred_len", r.pred_len);
      w.Field("pred_rate", r.pred_rate);
    }
    if (r.has_outcome) {
      w.Field("updates", r.updates);
      w.Field("pred_gain", r.pred_gain);
      w.Field("actual_gain", r.actual_gain);
    }
    w.EndObject();
  }
  w.EndArray();
  w.Key("sites");
  w.BeginArray();
  for (const auto& [site, s] : t.site_rows) {
    w.BeginObject();
    w.Field("site", static_cast<int64_t>(site));
    w.Field("flushes", s.flushes);
    w.Field("flush_words", s.flush_words);
    w.Field("flush_updates", s.flush_updates);
    w.Field("increments", s.increments);
    w.EndObject();
  }
  w.EndArray();
  if (!t.tier_rows.empty()) {
    if (!t.topology.empty()) w.Field("topology", t.topology);
    w.Field("leaves", t.leaves);
    w.Key("tiers");
    w.BeginArray();
    for (const auto& [id, tier] : t.tier_rows) {
      w.BeginObject();
      w.Field("tier", static_cast<int64_t>(id));
      w.Field("endpoints", static_cast<int64_t>(tier.endpoints));
      w.Field("up_words", tier.up_words);
      w.Field("down_words", tier.down_words);
      w.Field("up_msgs", tier.up_msgs);
      w.Field("down_msgs", tier.down_msgs);
      w.Field("flushes", tier.flushes);
      w.Field("flush_words", tier.flush_words);
      w.Field("local_polls", tier.local_polls);
      if (tier.has_psi) {
        w.Field("min_psi", tier.min_psi);
        w.Field("max_psi", tier.max_psi);
      }
      w.EndObject();
    }
    w.EndArray();
  }
  if (HasNet(t)) {
    w.Key("net");
    w.BeginObject();
    w.Field("delivered_msgs", t.deliveries);
    w.Field("delivered_words", t.delivered_words);
    w.Field("dropped_msgs", t.drops);
    w.Field("dropped_words", t.dropped_words);
    w.Field("site_downs", t.site_downs);
    w.Field("resyncs", t.resyncs);
    w.Field("resync_words", t.resync_words);
    w.EndObject();
  }
  if (span_stats != nullptr && cp != nullptr) {
    w.Key("spans");
    w.BeginObject();
    w.Field("count", span_stats->spans);
    w.Field("open", span_stats->open);
    w.Field("up_words", span_stats->msg_up_words);
    w.Field("down_words", span_stats->msg_down_words);
    w.Field("run_time", cp->run_time);
    w.Field("round_time", cp->round_time);
    w.Field("network_time", cp->network_time);
    w.Field("retransmits", cp->retransmits);
    w.EndObject();
  }
  if (!t.alert_rows.empty()) {
    w.Key("alerts");
    w.BeginObject();
    w.Field("raised", t.alerts_raised);
    w.Field("cleared", t.alerts_cleared);
    w.Field("active_at_end", t.alerts_raised - t.alerts_cleared);
    w.Key("events");
    w.BeginArray();
    for (const fgm::AlertRow& a : t.alert_rows) {
      w.BeginObject();
      w.Field("event", a.raised ? "raise" : "clear");
      w.Field("rule", a.rule);
      w.Field("site", static_cast<int64_t>(a.site));
      w.Field("round", a.round);
      w.Field("value", a.value);
      w.Field("threshold", a.threshold);
      if (!a.reason.empty()) w.Field("reason", a.reason);
      w.EndObject();
    }
    w.EndArray();
    w.EndObject();
  }
  w.Key("replay");
  w.BeginObject();
  w.Field("ok", t.ok());
  w.Field("issues", t.issue_count);
  w.EndObject();
  w.Key("checks");
  w.BeginObject();
  w.Field("performed", checks.performed);
  w.Field("ok", checks.ok());
  w.Key("failures");
  w.BeginArray();
  for (const std::string& f : checks.failures) w.String(f);
  w.EndArray();
  w.EndObject();
  w.EndObject();

  std::FILE* f = std::fopen(path.c_str(), "w");
  if (f == nullptr) {
    std::fprintf(stderr, "fgm_report: cannot write %s\n", path.c_str());
    return;
  }
  const std::string text = w.Take();
  std::fwrite(text.data(), 1, text.size(), f);
  std::fputc('\n', f);
  std::fclose(f);
}

}  // namespace

int main(int argc, char** argv) {
  fgm::Flags flags(argc, argv);
  std::string trace_path = flags.GetString("trace", "");
  const std::string metrics_path = flags.GetString("metrics", "");
  const std::string ts_path = flags.GetString("timeseries", "");
  const std::string spans_path = flags.GetString("spans", "");
  const std::string json_out = flags.GetString("json_out", "");
  const int64_t max_rounds = flags.GetInt("max_rounds", 24);
  const bool check = flags.GetBool("check", true);
  // Fixture hook: fail unless the trace carries at least one AlertRaised
  // event (health monitor). Guards the alert pipeline against silently
  // disappearing.
  const bool expect_alerts = flags.GetBool("alerts", false);
  if (trace_path.empty() && !flags.positional().empty()) {
    trace_path = flags.positional().front();
  }
  // Validate prints one line per unknown flag or malformed value.
  if (!flags.Validate(nullptr) || trace_path.empty()) {
    std::fprintf(stderr,
                 "usage: fgm_report --trace=trace.jsonl "
                 "[--metrics=metrics.json] [--timeseries=ts.json] "
                 "[--spans=spans.json] [--json_out=report.json] "
                 "[--max_rounds=N] [--check=true] [--alerts]\n");
    return 2;
  }

  // One pass over the trace: the replay certifies it and books the run
  // ledger every table below renders.
  const fgm::ReplayReport trace = fgm::CheckTraceFile(trace_path);
  if (!trace.read_error.empty()) {
    std::fprintf(stderr, "fgm_report: %s: %s\n", trace_path.c_str(),
                 trace.read_error.c_str());
    return 2;
  }

  Checker checks;
  checks.Expect(trace.ok(), "trace replay: " + trace.Summary());
  checks.Expect(trace.saw_run_end, "trace has no RunEnd event");

  std::string error;
  fgm::JsonNode metrics;
  bool have_metrics = false;
  if (!metrics_path.empty()) {
    if (!ReadJsonFile(metrics_path, &metrics, &error)) {
      std::fprintf(stderr, "fgm_report: %s: %s\n", metrics_path.c_str(),
                   error.c_str());
      return 2;
    }
    have_metrics = true;
    CheckMetrics(trace, metrics, &checks);
  }
  if (expect_alerts) {
    checks.Expect(trace.alerts_raised > 0,
                  "alerts: trace carries no AlertRaised event");
  }

  int64_t round_samples = 0, interval_samples = 0;
  bool have_ts = false;
  fgm::JsonNode ts;
  if (!ts_path.empty()) {
    if (!ReadJsonFile(ts_path, &ts, &error)) {
      std::fprintf(stderr, "fgm_report: %s: %s\n", ts_path.c_str(),
                   error.c_str());
      return 2;
    }
    have_ts = true;
    CheckTimeSeries(trace, ts, &checks, &round_samples, &interval_samples);
  }

  bool have_spans = false;
  std::vector<fgm::ParsedSpan> spans;
  fgm::SpanCheckStats span_stats;
  fgm::CriticalPathSummary critical_path;
  if (!spans_path.empty()) {
    if (!fgm::ReadSpanFile(spans_path, &spans, &error)) {
      std::fprintf(stderr, "fgm_report: %s: %s\n", spans_path.c_str(),
                   error.c_str());
      return 2;
    }
    have_spans = true;
    // The span file is the fourth view of the same run: its invariants
    // must hold and its wire-word sums must re-add to the trace's totals.
    int64_t span_up_target = 0, span_down_target = 0;
    trace.SpanWords(&span_up_target, &span_down_target);
    const std::vector<std::string> span_issues = fgm::CheckSpans(
        spans, span_up_target, span_down_target, &span_stats);
    for (const std::string& issue : span_issues) {
      checks.Expect(false, "spans: " + issue);
    }
    if (span_issues.empty()) checks.Expect(true, "spans");
    critical_path = fgm::SummarizeCriticalPath(spans);
  }

  PrintHeader(trace_path, trace);
  PrintRoundTable(trace, max_rounds);
  PrintTiers(trace);
  PrintSiteSkew(trace);
  PrintOptimizerAudit(trace, max_rounds);
  PrintAlerts(trace, max_rounds);
  PrintNetwork(trace, have_metrics ? &metrics : nullptr,
               have_ts ? &ts : nullptr);
  if (have_spans) PrintCriticalPath(span_stats, critical_path);
  if (have_ts) {
    fgm::PrintBanner("Time series");
    const fgm::JsonNode* taken = ts.Find("taken");
    const fgm::JsonNode* dropped = ts.Find("dropped");
    std::printf("samples: taken=%lld dropped=%lld round=%lld interval=%lld\n",
                static_cast<long long>(taken ? taken->AsInt() : 0),
                static_cast<long long>(dropped ? dropped->AsInt() : 0),
                static_cast<long long>(round_samples),
                static_cast<long long>(interval_samples));
  }

  fgm::PrintBanner("Cross-checks");
  std::printf("replay: %s\n", trace.Summary().c_str());
  std::printf("%lld checks, %zu failed\n",
              static_cast<long long>(checks.performed),
              checks.failures.size());
  size_t show = std::min<size_t>(checks.failures.size(), 20);
  for (size_t i = 0; i < show; ++i) {
    std::printf("FAIL: %s\n", checks.failures[i].c_str());
  }
  if (checks.failures.size() > show) {
    std::printf("... and %zu more failures\n", checks.failures.size() - show);
  }

  if (!json_out.empty()) {
    WriteJsonReport(json_out, trace_path, trace, checks,
                    have_spans ? &span_stats : nullptr,
                    have_spans ? &critical_path : nullptr);
    std::printf("json report: %s\n", json_out.c_str());
  }
  return (check && !checks.ok()) ? 1 : 0;
}
