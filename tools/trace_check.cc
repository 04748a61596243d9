// Offline trace-replay invariant checker (obs/replay.h).
//
//   ./build/tools/trace_check TRACE.jsonl [MORE.jsonl ...] [--spans=S.json]
//
// Exit code 0 when every trace satisfies the protocol invariants
// (ψ-certification, quantum arithmetic, counter totals, wire-word
// accounting) and ends in its RunEnd event, 1 when any violation is found
// or a trace is empty or cut short (a runner that dies before RunEnd
// leaves a tail-truncated trace), 2 on usage errors. Each trace is read
// once; fgm_report reads it through the same checker, so the two tools
// accept the same traces, and fgm_report adds only the cross-checks
// against the run's other files.
//
// With --spans=S.json the Chrome Trace Event span file a runner wrote via
// --spans_out is checked too (obs/span.h CheckSpans): every span closed,
// children inside their parents, and — when exactly one trace file is
// given — the per-direction msg/datagram span word sums must equal
// ReplayReport::SpanWords, the target fgm_report takes too: the trace's
// RunEnd totals when it carries network events (only the timed simulated
// root links record message spans), else 0.
//
// --alerts additionally requires at least one AlertRaised event across
// the given traces (raise/clear pairing is always checked by the replay
// itself). Used by CI fixtures that must prove the health monitor fired.
//
// --tiers additionally requires every trace to be a tree-topology run
// whose aggregator tiers all closed their word ledgers (at least one
// TierEnd event, each certified bit-exactly against its tier's MsgSent
// sum, plus cross-tier flush conservation — all checked by the replay
// whenever tier events appear; the flag turns their absence into a
// failure). Used by CI tree fixtures.

#include <cstdio>
#include <string>
#include <vector>

#include "obs/replay.h"
#include "obs/span.h"
#include "util/flags.h"

int main(int argc, char** argv) {
  fgm::Flags flags(argc, argv);
  const std::string spans_path = flags.GetString("spans", "");
  const bool require_alerts = flags.GetBool("alerts", false);
  const bool require_tiers = flags.GetBool("tiers", false);
  const std::vector<std::string>& traces = flags.positional();
  if (!flags.Validate("trace_check TRACE.jsonl [MORE.jsonl ...] "
                      "[--spans=S.json] [--alerts] [--tiers]") ||
      (traces.empty() && spans_path.empty())) {
    std::fprintf(stderr,
                 "usage: %s TRACE.jsonl [MORE.jsonl ...] [--spans=S.json] "
                 "[--alerts] [--tiers]\n",
                 argv[0]);
    return 2;
  }

  bool ok = true;
  int64_t up_words = -1;
  int64_t down_words = -1;
  int64_t alerts_raised = 0;
  for (const std::string& path : traces) {
    const fgm::ReplayReport report = fgm::CheckTraceFile(path);
    std::printf("%s: %s\n", path.c_str(), report.Summary().c_str());
    ok = ok && report.ok();
    if (!report.saw_run_end) {
      std::printf("FAIL: %s has no RunEnd event (empty or truncated)\n",
                  path.c_str());
      ok = false;
    }
    report.SpanWords(&up_words, &down_words);
    alerts_raised += report.alerts_raised;
    if (require_tiers && report.tier_ends == 0) {
      std::printf("FAIL: --tiers given but %s has no certified tier "
                  "ledgers (flat run?)\n",
                  path.c_str());
      ok = false;
    }
  }
  if (require_alerts && alerts_raised == 0) {
    std::printf("FAIL: --alerts given but no AlertRaised event found\n");
    ok = false;
  }

  if (!spans_path.empty()) {
    std::string error;
    std::vector<fgm::ParsedSpan> spans;
    if (!fgm::ReadSpanFile(spans_path, &spans, &error)) {
      std::fprintf(stderr, "%s: %s\n", spans_path.c_str(), error.c_str());
      return 2;
    }
    // Word-sum conservation only pins down a single run's traffic.
    const bool check_words = traces.size() == 1;
    fgm::SpanCheckStats stats;
    const std::vector<std::string> issues =
        fgm::CheckSpans(spans, check_words ? up_words : -1,
                        check_words ? down_words : -1, &stats);
    std::printf(
        "%s: spans=%lld open=%lld up_words=%lld down_words=%lld %s\n",
        spans_path.c_str(), static_cast<long long>(stats.spans),
        static_cast<long long>(stats.open),
        static_cast<long long>(stats.msg_up_words),
        static_cast<long long>(stats.msg_down_words),
        issues.empty() ? "OK" : "FAIL");
    for (const std::string& issue : issues) {
      std::printf("  %s\n", issue.c_str());
    }
    ok = ok && issues.empty();
  }
  return ok ? 0 : 1;
}
