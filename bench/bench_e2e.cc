// End-to-end word gate: perfbench's three runner lines, once each at
// seed 0.
//
// perfbench (perfbench/README.md) times three closed-loop workloads but
// gates nothing. This binary runs the same inputs through Run() with the
// runner's check cadence, so each row reproduces one runner line:
//
//   q1-k27         --protocol=fgm --query=selfjoin --sites=27
//                  --updates=4000000 --width=111 --window=14400
//   q2-fgmo-k128   --protocol=fgm-o --query=join --sites=128
//                  --updates=2000000 --width=56 --window=3600
//   q1-tree-k1024  --protocol=fgm --query=selfjoin --sites=1024
//                  --updates=3000000 --width=84 --window=0
//                  --topology=tree:32 --net_latency=uniform:1-8
//
// Every exported field is deterministic (seeded trace, seeded network,
// serial protocol) and none is a clock reading, so BENCH_e2e.json diffs
// bit-exactly against bench/baselines/BENCH_e2e.json (bench_gate): a change
// that moves one word, round or estimate bit on any workload has to
// regenerate the baseline on purpose. Any overshoot of the certified
// bounds exits 1.

#include <cstdio>
#include <cstdlib>
#include <string>
#include <vector>

#include "bench_common.h"
#include "driver/runner.h"
#include "stream/worldcup.h"
#include "util/table.h"

namespace fgm {
namespace {

struct Workload {
  const char* name;
  ProtocolKind protocol;
  QueryKind query;
  int sites;
  int64_t updates;
  int width;
  double window_seconds;
  const char* topology;
  const char* net_latency;
};

constexpr Workload kWorkloads[] = {
    {"q1-k27", ProtocolKind::kFgm, QueryKind::kSelfJoin, 27, 4000000, 111,
     14400.0, "", ""},
    {"q2-fgmo-k128", ProtocolKind::kFgmOpt, QueryKind::kJoin, 128, 2000000,
     56, 3600.0, "", ""},
    {"q1-tree-k1024", ProtocolKind::kFgm, QueryKind::kSelfJoin, 1024,
     3000000, 84, 0.0, "tree:32", "uniform:1-8"},
};

RunConfig MakeConfig(const Workload& w) {
  RunConfig c;
  c.protocol = w.protocol;
  c.query = w.query;
  c.sites = w.sites;
  c.topology = w.topology;
  c.depth = 5;
  c.width = w.width;
  c.epsilon = 0.1;
  c.window_seconds = w.window_seconds;
  c.check_every = 5000;
  c.net.latency = w.net_latency;
  return c;
}

double Words(const RunResult& r, MsgKind kind) {
  return static_cast<double>(
      r.traffic.words_by_kind[static_cast<size_t>(kind)]);
}

void RunWorkloads() {
  bench::JsonReport::Get().Init("e2e");
  TablePrinter table({"workload", "protocol", "events", "rounds",
                      "subrounds", "rebalances", "root_words",
                      "all_tier_words", "overshoot"});
  for (const Workload& w : kWorkloads) {
    WorldCupConfig wc;
    wc.sites = w.sites;
    wc.total_updates = w.updates;
    const std::vector<StreamRecord> trace = GenerateWorldCupTrace(wc);
    const RunResult r = Run(MakeConfig(w), trace);
    if (r.max_violation != 0.0 || r.checks == 0) {
      std::fprintf(stderr, "%s: overshoot %.4g over %lld checks\n", w.name,
                   r.max_violation, static_cast<long long>(r.checks));
      std::exit(1);
    }

    // `traffic` is the root tier; tier_traffic lists every link tier of
    // a deeper tree and is empty on the flat star.
    int64_t all_tier_words = r.traffic.total_words();
    if (!r.tier_traffic.empty()) {
      all_tier_words = 0;
      for (const TrafficStats& t : r.tier_traffic) {
        all_tier_words += t.total_words();
      }
    }

    table.AddRow({w.name, r.protocol_name, std::to_string(r.events),
                  std::to_string(r.rounds), std::to_string(r.subrounds),
                  std::to_string(r.rebalances),
                  std::to_string(r.traffic.total_words()),
                  std::to_string(all_tier_words),
                  bench::Fmt("%.3g", r.max_violation)});
    bench::JsonReport::Get().AddEntry(
        w.name,
        {{"events", static_cast<double>(r.events)},
         {"rounds", static_cast<double>(r.rounds)},
         {"subrounds", static_cast<double>(r.subrounds)},
         {"rebalances", static_cast<double>(r.rebalances)},
         {"local_polls", static_cast<double>(r.local_polls)},
         {"words_safe_zone", Words(r, MsgKind::kSafeZone)},
         {"words_quantum", Words(r, MsgKind::kQuantum)},
         {"words_lambda", Words(r, MsgKind::kLambda)},
         {"words_counter", Words(r, MsgKind::kCounter)},
         {"words_phi_value", Words(r, MsgKind::kPhiValue)},
         {"words_drift_flush", Words(r, MsgKind::kDriftFlush)},
         {"words_control", Words(r, MsgKind::kControl)},
         {"words_raw_update", Words(r, MsgKind::kRawUpdate)},
         {"words_resync", Words(r, MsgKind::kResync)},
         {"root_words", static_cast<double>(r.traffic.total_words())},
         {"all_tier_words", static_cast<double>(all_tier_words)},
         {"final_estimate", r.final_estimate}});
  }
  std::printf("\nperfbench runner lines at seed 0 (eps=0.1, depth 5):\n");
  table.Print();
}

}  // namespace
}  // namespace fgm

int main() {
  fgm::RunWorkloads();
  fgm::bench::JsonReport::Get().Write();
  return 0;
}
