// Ablation study of the FGM design choices called out in DESIGN.md:
//
//  A1 — rebalancing (§4.1): basic FGM vs FGM, plus the min-λ cutoff;
//  A2 — the ψ-quantization accuracy ε_ψ (§2.4/§2.5.1);
//  A3 — the rebalance economy rule (rebalance_min_words_per_site), our
//       conservative flush policy;
//  A4 — the GM slack margin used when accepting a partial rebalance;
//  A5 — the FGM/O optimizer under the typical and the adverse regime.
//
// Each table holds the workload fixed and varies exactly one knob.

#include <cstdio>
#include <memory>

#include "bench_common.h"
#include "core/fgm_protocol.h"
#include "gm/gm_protocol.h"
#include "stream/window.h"

namespace fgm {
namespace bench {
namespace {

struct AblationResult {
  double comm_cost;
  double upstream_fraction;
  int64_t rounds;
  int64_t subrounds;
  int64_t rebalances;
};

AblationResult RunFgm(const std::vector<StreamRecord>& trace,
                      const RunConfig& rc, const FgmConfig& config) {
  auto query = MakeQuery(rc);
  FgmProtocol protocol(query.get(), rc.sites, config);
  SlidingWindowStream events(&trace, rc.window_seconds);
  int64_t n = 0;
  while (const StreamRecord* rec = events.Next()) {
    protocol.ProcessRecord(*rec);
    ++n;
  }
  const TrafficStats& t = protocol.traffic();
  return AblationResult{
      static_cast<double>(t.total_words()) / static_cast<double>(n),
      t.upstream_fraction(), protocol.rounds(), protocol.subrounds(),
      protocol.rebalances()};
}

AblationResult RunGm(const std::vector<StreamRecord>& trace,
                     const RunConfig& rc, const GmConfig& config) {
  auto query = MakeQuery(rc);
  GmProtocol protocol(query.get(), rc.sites, config);
  SlidingWindowStream events(&trace, rc.window_seconds);
  int64_t n = 0;
  while (const StreamRecord* rec = events.Next()) {
    protocol.ProcessRecord(*rec);
    ++n;
  }
  const TrafficStats& t = protocol.traffic();
  return AblationResult{
      static_cast<double>(t.total_words()) / static_cast<double>(n),
      t.upstream_fraction(), protocol.rounds(), protocol.violations(),
      protocol.partial_rebalances()};
}

void AddRow(TablePrinter* table, const std::string& label,
            const AblationResult& r) {
  table->AddRow({label, Fmt("%.4f", r.comm_cost),
                 Fmt("%.1f%%", 100.0 * r.upstream_fraction),
                 TablePrinter::Cell(r.rounds), TablePrinter::Cell(r.subrounds),
                 TablePrinter::Cell(r.rebalances)});
  JsonReport::Get().AddEntry(
      label, {{"comm_cost", r.comm_cost},
              {"upstream_fraction", r.upstream_fraction},
              {"rounds", static_cast<double>(r.rounds)},
              {"subrounds", static_cast<double>(r.subrounds)},
              {"rebalances", static_cast<double>(r.rebalances)}});
}

void Main() {
  JsonReport::Get().Init("ablation");
  const BenchScale scale = DefaultScale();
  const auto trace = PaperTrace(scale);
  const RunConfig typical = BaseConfig(QueryKind::kSelfJoin, kPaperSites,
                                       7000.0, 0.1, 4 * 3600.0, scale);
  std::printf("Ablations on Q1, k=27, paper D=7000, TW=4h, eps=0.1, "
              "%lld updates\n",
              static_cast<long long>(scale.updates));

  {
    PrintBanner("A1: rebalancing (§4.1)");
    TablePrinter table({"variant", "comm.cost", "upstream%", "rounds",
                        "subrounds", "rebalances"});
    FgmConfig off;
    off.rebalance = false;
    AddRow(&table, "no rebalancing (basic §2.4)", RunFgm(trace, typical, off));
    for (const double min_lambda : {0.5, 0.2, 0.05}) {
      FgmConfig on;
      on.min_lambda = min_lambda;
      AddRow(&table, "rebalance, min lambda " + Fmt("%.2f", min_lambda),
             RunFgm(trace, typical, on));
    }
    table.Print();
  }

  {
    PrintBanner("A2: psi quantization accuracy eps_psi (§2.4)");
    TablePrinter table({"eps_psi", "comm.cost", "upstream%", "rounds",
                        "subrounds", "rebalances"});
    for (const double eps_psi : {0.001, 0.01, 0.05, 0.2}) {
      FgmConfig config;
      config.eps_psi = eps_psi;
      AddRow(&table, Fmt("%.3f", eps_psi), RunFgm(trace, typical, config));
    }
    table.Print();
    std::printf("Smaller eps_psi = more subrounds per round, marginally "
                "longer rounds; the paper's 0.01 is a sweet spot.\n");
  }

  {
    PrintBanner("A3: rebalance economy rule (words/site threshold)");
    TablePrinter table({"threshold", "comm.cost", "upstream%", "rounds",
                        "subrounds", "rebalances"});
    for (const double words : {0.0, 16.0, 64.0, 1e9}) {
      FgmConfig config;
      config.rebalance_min_words_per_site = words;
      AddRow(&table, Fmt("%.0f", words), RunFgm(trace, typical, config));
    }
    table.Print();
    std::printf("1e9 disables rebalancing economically (always end the "
                "round); 0 always rebalances.\n");
  }

  {
    PrintBanner("A4: GM partial-rebalance slack margin");
    TablePrinter table({"margin", "comm.cost", "upstream%", "full syncs",
                        "violations", "partial rebalances"});
    for (const double margin : {0.0, 0.1, 0.25, 0.5}) {
      GmConfig config;
      config.slack_margin = margin;
      AddRow(&table, Fmt("%.2f", margin), RunGm(trace, typical, config));
    }
    table.Print();
  }

  {
    PrintBanner("A5: FGM/O optimizer, typical vs adverse");
    TablePrinter table({"regime / optimizer", "comm.cost", "upstream%",
                        "rounds", "subrounds", "rebalances"});
    FgmConfig plain;
    FgmConfig opt;
    opt.optimizer = true;
    AddRow(&table, "typical, FGM", RunFgm(trace, typical, plain));
    AddRow(&table, "typical, FGM/O", RunFgm(trace, typical, opt));
    const RunConfig adverse = BaseConfig(QueryKind::kSelfJoin, kPaperSites,
                                         35000.0, 0.02, 3600.0, scale);
    AddRow(&table, "adverse, FGM", RunFgm(trace, adverse, plain));
    AddRow(&table, "adverse, FGM/O", RunFgm(trace, adverse, opt));
    table.Print();
  }
}

}  // namespace
}  // namespace bench
}  // namespace fgm

int main() {
  fgm::bench::Main();
  return 0;
}
