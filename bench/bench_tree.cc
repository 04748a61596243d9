// Hierarchical-topology sweep: flat star vs two-tier tree (src/hier) on
// the same deterministic stream, scaling k from 32 to 10^4 sites.
//
// The flat FGM coordinator touches all k sites every subround, so its
// root traffic grows linearly in k even when the data distribution is
// unchanged. The tree arranges the k leaves under ~sqrt(k) aggregators
// (fanout f with f*f >= k), each running the counter/quantized-export
// machinery over its children and acting as a single site to the root;
// the root then sees only f endpoints. The headline column is root_words
// — the traffic crossing the coordinator's own links — which must drop
// sub-linearly once aggregation has enough leaves to amortize (gated
// below at k >= 1024). total_words includes every tier's links and is
// expected to stay within a small factor of flat: the tree does not
// reduce total work, it moves it off the root hot-spot.
//
// Every exported field is deterministic (seeded stream, serial
// protocol), so BENCH_tree.json diffs bit-exactly against
// bench/baselines/BENCH_tree.json (bench_gate). The viol column must read
// 0 in every row — topology may cost traffic, never correctness.

#include <cstdio>
#include <string>
#include <vector>

#include "bench_common.h"
#include "driver/runner.h"
#include "stream/worldcup.h"
#include "util/table.h"

namespace fgm {
namespace {

struct SweepPoint {
  int sites;
  const char* topology;  // two-tier spec with fanout ~ sqrt(sites)
  int64_t updates;
};

RunConfig BaseConfig(const SweepPoint& p) {
  RunConfig config;
  config.protocol = ProtocolKind::kFgm;
  config.query = QueryKind::kSelfJoin;
  config.sites = p.sites;
  config.depth = 3;
  config.width = 16;
  config.epsilon = 0.1;
  config.check_every = 5000;
  return config;
}

void RunSweep() {
  bench::JsonReport::Get().Init("tree");

  // Fanouts chosen so fanout^2 covers the leaves in exactly two tiers.
  // The update budget grows with k so the larger trees still see a few
  // updates per leaf.
  const SweepPoint points[] = {
      {32, "tree:6", 100000},
      {128, "tree:12", 100000},
      {1024, "tree:32", 200000},
      {10000, "tree:100", 400000},
  };

  TablePrinter table({"k", "topology", "flat_words", "root_words",
                      "root/flat", "tree_total", "rounds_flat", "rounds_tree",
                      "local_polls", "viol"});
  for (const SweepPoint& p : points) {
    WorldCupConfig wc;
    wc.sites = p.sites;
    wc.total_updates = p.updates;
    const std::vector<StreamRecord> trace = GenerateWorldCupTrace(wc);

    RunConfig flat_config = BaseConfig(p);
    const RunResult flat = Run(flat_config, trace);

    RunConfig tree_config = BaseConfig(p);
    tree_config.topology = p.topology;
    const RunResult tree = Run(tree_config, trace);

    // Self-gating: neither run may ever miss the eps guarantee.
    if (flat.max_violation != 0.0 || tree.max_violation != 0.0) {
      std::fprintf(stderr, "tree sweep k=%d missed a threshold bound\n",
                   p.sites);
      std::exit(1);
    }

    // On tree runs RunResult.traffic covers the root tier only;
    // tier_traffic lists every link tier root-side first (entry 0
    // repeats the root totals).
    const int64_t flat_words = flat.traffic.total_words();
    const int64_t root_words = tree.traffic.total_words();
    int64_t tree_total = 0;
    for (const TrafficStats& t : tree.tier_traffic) {
      tree_total += t.total_words();
    }

    // The payoff this benchmark exists to defend: with enough leaves the
    // root's traffic must be strictly sub-linear vs the flat star.
    if (p.sites >= 1024 && root_words >= flat_words) {
      std::fprintf(stderr,
                   "tree sweep k=%d: root words %lld not below flat %lld\n",
                   p.sites, static_cast<long long>(root_words),
                   static_cast<long long>(flat_words));
      std::exit(1);
    }

    table.AddRow({std::to_string(p.sites), p.topology,
                  std::to_string(flat_words), std::to_string(root_words),
                  bench::Fmt("%.3f", static_cast<double>(root_words) /
                                         static_cast<double>(flat_words)),
                  std::to_string(tree_total), std::to_string(flat.rounds),
                  std::to_string(tree.rounds),
                  std::to_string(tree.local_polls),
                  bench::Fmt("%.3g", tree.max_violation)});
    bench::JsonReport::Get().AddEntry(
        "k" + std::to_string(p.sites),
        {{"flat_words", static_cast<double>(flat_words)},
         {"flat_up_words", static_cast<double>(flat.traffic.upstream_words)},
         {"root_words", static_cast<double>(root_words)},
         {"root_up_words", static_cast<double>(tree.traffic.upstream_words)},
         {"tree_total_words", static_cast<double>(tree_total)},
         {"root_over_flat", static_cast<double>(root_words) /
                                static_cast<double>(flat_words)},
         {"rounds_flat", static_cast<double>(flat.rounds)},
         {"rounds_tree", static_cast<double>(tree.rounds)},
         {"subrounds_flat", static_cast<double>(flat.subrounds)},
         {"subrounds_tree", static_cast<double>(tree.subrounds)},
         {"local_polls", static_cast<double>(tree.local_polls)},
         {"max_violation", tree.max_violation}});
  }
  std::printf("\nflat star vs two-tier tree (Q1 self-join, eps=0.1):\n");
  table.Print();
}

}  // namespace
}  // namespace fgm

int main() {
  fgm::RunSweep();
  fgm::bench::JsonReport::Get().Write();
  return 0;
}
