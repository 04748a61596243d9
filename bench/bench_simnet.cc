// Simulated-network sweep: FGM over the discrete-event network (src/sim)
// across a latency × drop grid plus a crash/rejoin plan.
//
// Every field exported here is deterministic — the simulator is seeded
// and the protocol is single-threaded — so BENCH_simnet.json diffs
// bit-exactly against bench/baselines/BENCH_simnet.json
// (bench_gate); any divergence is a behaviour change in the simulator or
// the protocol hardening, not noise. Wall-clock times are deliberately
// not exported.
//
// The headline numbers: total words (the honest cost including
// retransmissions and resyncs), rounds/subrounds (protocol progress
// under chaos), and the delivery/drop/retransmit/resync ledger. The
// max_violation column must read 0 in every row — loss, delay and
// crashes may cost traffic, never correctness.
//
// A second sweep pits FGM/O's rate-only planner against health-aware
// planning (--health_plan: the obs/health.h monitor's EWMA rates and
// per-link shipping costs feed the optimizer) on the lossy and faulted
// points. The fgmo+health rows must ship fewer total words than their
// fgmo twins — that delta is the PR-gated payoff of the health loop.

#include <cstdio>
#include <string>
#include <vector>

#include "bench_common.h"
#include "driver/runner.h"
#include "sim/net_config.h"
#include "stream/worldcup.h"
#include "util/table.h"

namespace fgm {
namespace {

struct SweepPoint {
  const char* label;
  const char* latency;
  double drop;
  const char* fault_plan;
};

void RunSweep() {
  bench::JsonReport::Get().Init("simnet");

  const SweepPoint points[] = {
      {"sync", "", 0.0, ""},  // synchronous reference (strict wire)
      {"null", "0", 0.0, ""},
      {"fixed4", "fixed:4", 0.0, ""},
      {"fixed4,drop10", "fixed:4", 0.1, ""},
      {"uniform1-16,drop10", "uniform:1-16", 0.1, ""},
      {"uniform1-16,drop30", "uniform:1-16", 0.3, ""},
      {"exp8,drop10", "exp:8", 0.1, ""},
      {"exp8,drop30", "exp:8", 0.3, ""},
      {"uniform1-16,drop20,crash", "uniform:1-16", 0.2,
       "crash:site=2,at=20000,rejoin=26000"},
      {"uniform1-16,drop20,deadline", "uniform:1-16", 0.2,
       "crash:site=2,at=20000,rejoin=40000"},
  };

  WorldCupConfig wc;
  wc.sites = 5;
  wc.total_updates = 30000;
  const std::vector<StreamRecord> trace = GenerateWorldCupTrace(wc);

  TablePrinter table({"point", "words", "rounds", "subrounds", "delivered",
               "dropped", "retrans", "resyncs", "viol"});
  for (const SweepPoint& p : points) {
    RunConfig config;
    config.protocol = ProtocolKind::kFgm;
    config.query = QueryKind::kSelfJoin;
    config.sites = 5;
    config.depth = 5;
    config.width = 60;
    config.check_every = 1000;
    config.strict_wire = true;  // the sync reference also serializes
    config.net.latency = p.latency;
    config.net.drop = p.drop;
    config.net.fault_plan = p.fault_plan;
    const RunResult r = Run(config, trace);

    if (r.max_violation != 0.0) {
      std::fprintf(stderr, "simnet point %s missed a threshold bound\n",
                   p.label);
      std::exit(1);
    }
    table.AddRow({p.label, std::to_string(r.traffic.total_words()),
                  std::to_string(r.rounds), std::to_string(r.subrounds),
                  std::to_string(r.net.delivered_msgs),
                  std::to_string(r.net.dropped_msgs),
                  std::to_string(r.net.retransmitted_msgs),
                  std::to_string(r.net.resyncs),
                  bench::Fmt("%.3g", r.max_violation)});
    bench::JsonReport::Get().AddEntry(
        p.label,
        {{"total_words", static_cast<double>(r.traffic.total_words())},
         {"upstream_words", static_cast<double>(r.traffic.upstream_words)},
         {"rounds", static_cast<double>(r.rounds)},
         {"subrounds", static_cast<double>(r.subrounds)},
         {"rebalances", static_cast<double>(r.rebalances)},
         {"delivered_msgs", static_cast<double>(r.net.delivered_msgs)},
         {"delivered_words", static_cast<double>(r.net.delivered_words)},
         {"dropped_msgs", static_cast<double>(r.net.dropped_msgs)},
         {"dropped_words", static_cast<double>(r.net.dropped_words)},
         {"retransmitted_words",
          static_cast<double>(r.net.retransmitted_words)},
         {"stale_msgs", static_cast<double>(r.net.stale_msgs)},
         {"timeouts", static_cast<double>(r.net.timeouts)},
         {"resyncs", static_cast<double>(r.net.resyncs)},
         {"site_downs", static_cast<double>(r.net.site_downs)},
         {"max_in_flight_words",
          static_cast<double>(r.net.max_in_flight_words)},
         {"final_tick", static_cast<double>(r.net.final_tick)},
         {"max_violation", r.max_violation}});
  }
  std::printf("\nsimulated-network sweep (Q1 self-join, 30k updates, "
              "5 sites):\n");
  table.Print();

  // FGM/O under chaos: rate-only vs health-aware planning on the lossy
  // and faulted grid points. Same stream, same seeds — the only degree
  // of freedom is the plan source.
  struct OptPoint {
    const char* label;
    const char* latency;
    double drop;
    const char* fault_plan;
    bool health;
  };
  const OptPoint opt_points[] = {
      {"fgmo,fixed4,drop10", "fixed:4", 0.1, "", false},
      {"fgmo+health,fixed4,drop10", "fixed:4", 0.1, "", true},
      {"fgmo,fixed4,drop10,crash", "fixed:4", 0.1,
       "crash:site=2,at=10000,rejoin=16000", false},
      {"fgmo+health,fixed4,drop10,crash", "fixed:4", 0.1,
       "crash:site=2,at=10000,rejoin=16000", true},
      {"fgmo,uniform1-16,drop20,crash", "uniform:1-16", 0.2,
       "crash:site=2,at=20000,rejoin=26000", false},
      {"fgmo+health,uniform1-16,drop20,crash", "uniform:1-16", 0.2,
       "crash:site=2,at=20000,rejoin=26000", true},
  };
  TablePrinter opt_table({"point", "words", "rounds", "subrounds",
                          "delivered", "dropped", "retrans", "resyncs",
                          "viol"});
  for (const OptPoint& p : opt_points) {
    RunConfig config;
    config.protocol = ProtocolKind::kFgmOpt;
    config.query = QueryKind::kSelfJoin;
    config.sites = 5;
    config.depth = 5;
    config.width = 60;
    config.check_every = 1000;
    config.strict_wire = true;
    config.net.latency = p.latency;
    config.net.drop = p.drop;
    config.net.fault_plan = p.fault_plan;
    config.health_planning = p.health;
    const RunResult r = Run(config, trace);

    if (r.max_violation != 0.0) {
      std::fprintf(stderr, "simnet point %s missed a threshold bound\n",
                   p.label);
      std::exit(1);
    }
    opt_table.AddRow({p.label, std::to_string(r.traffic.total_words()),
                      std::to_string(r.rounds), std::to_string(r.subrounds),
                      std::to_string(r.net.delivered_msgs),
                      std::to_string(r.net.dropped_msgs),
                      std::to_string(r.net.retransmitted_msgs),
                      std::to_string(r.net.resyncs),
                      bench::Fmt("%.3g", r.max_violation)});
    bench::JsonReport::Get().AddEntry(
        p.label,
        {{"total_words", static_cast<double>(r.traffic.total_words())},
         {"upstream_words", static_cast<double>(r.traffic.upstream_words)},
         {"rounds", static_cast<double>(r.rounds)},
         {"subrounds", static_cast<double>(r.subrounds)},
         {"rebalances", static_cast<double>(r.rebalances)},
         {"delivered_msgs", static_cast<double>(r.net.delivered_msgs)},
         {"dropped_msgs", static_cast<double>(r.net.dropped_msgs)},
         {"retransmitted_words",
          static_cast<double>(r.net.retransmitted_words)},
         {"resyncs", static_cast<double>(r.net.resyncs)},
         {"alerts_raised", static_cast<double>(r.alerts_raised)},
         {"alerts_cleared", static_cast<double>(r.alerts_cleared)},
         {"max_violation", r.max_violation}});
  }
  std::printf("\nFGM/O rate-only vs health-aware planning under chaos:\n");
  opt_table.Print();
}

}  // namespace
}  // namespace fgm

int main() {
  fgm::RunSweep();
  fgm::bench::JsonReport::Get().Write();
  return 0;
}
