// Hierarchical-FGM suite (src/hier).
//
// Four contracts under test:
//
//  1. Topology algebra — TreeTopology::Parse accepts exactly the
//     documented specs, and the O(1) index math is self-consistent:
//     Parent() inverts ChildBegin()/ChildEnd(), fan-ins differ by at
//     most one, and LeavesUnder() partitions the leaf set at every tier.
//
//  2. Flat equivalence — a depth-1 tree (fanout >= sites) IS the flat
//     star: same protocol object, bit-identical trace, word-identical
//     traffic, for every protocol that accepts the flag.
//
//  3. Deep-tree correctness — two- and three-tier trees monitor the same
//     query with zero threshold-violation misses, and the trace-replay
//     checker certifies the root tier with the unmodified flat
//     invariants plus the per-tier word ledgers (TierEnd).
//
//  4. Fault tolerance at aggregator granularity — crashing a tier-1
//     aggregator under loss and latency jitter costs resyncs or a
//     reduced-m round, never a missed bound.
//
//  5. Pinned tree behaviour — every deep-tree run above also matches
//     recorded per-tier words/messages, round/subround/rebalance/local-
//     poll counts and the exact bits of its final estimate, so a change
//     to the tree protocol's behaviour cannot pass unnoticed.
//
// `ctest -L hier` runs this suite plus the runner → trace_check --tiers
// and runner → fgm_report fixtures.

#include <gtest/gtest.h>

#include <cstdint>
#include <cstring>
#include <string>
#include <tuple>
#include <vector>

#include "driver/runner.h"
#include "hier/topology.h"
#include "obs/replay.h"
#include "obs/trace.h"
#include "sim/net_config.h"
#include "stream/worldcup.h"

namespace fgm {
namespace {

using hier::TreeTopology;

// ---------------------------------------------------------------------
// Topology parsing.

TEST(TreeTopologyParse, SingleFanoutExtendsDepthToCover) {
  TreeTopology topo;
  std::string error;
  ASSERT_TRUE(TreeTopology::Parse("tree:4", 16, &topo, &error)) << error;
  EXPECT_EQ(topo.depth(), 2);
  EXPECT_EQ(topo.leaves(), 16);
  EXPECT_EQ(topo.NodesAt(0), 1);
  EXPECT_EQ(topo.NodesAt(1), 4);
  EXPECT_EQ(topo.NodesAt(2), 16);
  EXPECT_FALSE(topo.IsFlat());

  // 3^3 = 27: three link tiers for 20 leaves (3^2 = 9 < 20).
  ASSERT_TRUE(TreeTopology::Parse("tree:3", 20, &topo, &error)) << error;
  EXPECT_EQ(topo.depth(), 3);
  EXPECT_EQ(topo.NodesAt(1), 3);
  EXPECT_EQ(topo.leaves(), 20);
}

TEST(TreeTopologyParse, FanoutCoveringAllLeavesIsFlat) {
  TreeTopology topo;
  std::string error;
  ASSERT_TRUE(TreeTopology::Parse("tree:16", 16, &topo, &error)) << error;
  EXPECT_TRUE(topo.IsFlat());
  EXPECT_EQ(topo.depth(), 1);
  ASSERT_TRUE(TreeTopology::Parse("tree:1000", 16, &topo, &error)) << error;
  EXPECT_TRUE(topo.IsFlat());
}

TEST(TreeTopologyParse, MultiLevelSpecSetsPerTierCounts) {
  TreeTopology topo;
  std::string error;
  ASSERT_TRUE(TreeTopology::Parse("tree:2,8", 16, &topo, &error)) << error;
  EXPECT_EQ(topo.depth(), 2);
  EXPECT_EQ(topo.NodesAt(0), 1);
  EXPECT_EQ(topo.NodesAt(1), 2);
  EXPECT_EQ(topo.NodesAt(2), 16);
  ASSERT_EQ(topo.fanouts().size(), 2u);
  EXPECT_EQ(topo.fanouts()[0], 2);
  EXPECT_EQ(topo.fanouts()[1], 8);
}

TEST(TreeTopologyParse, CanonicalSpecRoundTrips) {
  TreeTopology topo;
  std::string error;
  ASSERT_TRUE(TreeTopology::Parse("tree:4", 16, &topo, &error)) << error;
  const std::string canonical = topo.spec();
  TreeTopology again;
  ASSERT_TRUE(TreeTopology::Parse(canonical, 16, &again, &error)) << error;
  EXPECT_EQ(again.spec(), canonical);
  EXPECT_EQ(again.depth(), topo.depth());
}

TEST(TreeTopologyParse, RejectsMalformedSpecs) {
  const char* bad[] = {
      "star:4",      // missing prefix
      "tree:",       // empty level list
      "tree:x",      // non-numeric
      "tree:4x",     // trailing junk
      "tree:1",      // fanout < 2
      "tree:0",      // fanout < 2
      "tree:4,",     // empty trailing level
      "tree:4,,4",   // empty middle level
      "tree:2,2",    // 2*2 = 4 < 16: product does not cover
      "tree:99999999999999",  // overflow
  };
  for (const char* spec : bad) {
    TreeTopology topo;
    std::string error;
    EXPECT_FALSE(TreeTopology::Parse(spec, 16, &topo, &error)) << spec;
    EXPECT_FALSE(error.empty()) << spec;
  }
}

// ---------------------------------------------------------------------
// Index math identities.

TEST(TreeTopologyIndexMath, ParentInvertsChildRangesAndLeavesPartition) {
  const struct {
    const char* spec;
    int leaves;
  } cases[] = {
      {"tree:3", 17},   // irregular: fan-ins must differ by at most one
      {"tree:8,7", 50},
      {"tree:4", 16},
      {"tree:2", 9},    // depth 4
  };
  for (const auto& c : cases) {
    TreeTopology topo;
    std::string error;
    ASSERT_TRUE(TreeTopology::Parse(c.spec, c.leaves, &topo, &error))
        << c.spec << ": " << error;
    for (int tier = 0; tier < topo.depth(); ++tier) {
      const int parents = topo.NodesAt(tier);
      const int children = topo.NodesAt(tier + 1);
      int covered = 0;
      int min_fan = children, max_fan = 0;
      for (int node = 0; node < parents; ++node) {
        const int begin = topo.ChildBegin(tier, node);
        const int end = topo.ChildEnd(tier, node);
        ASSERT_EQ(begin, covered) << c.spec << " tier " << tier;
        ASSERT_GT(end, begin) << c.spec << " tier " << tier;
        for (int child = begin; child < end; ++child) {
          ASSERT_EQ(topo.Parent(tier + 1, child), node)
              << c.spec << " tier " << tier << " child " << child;
        }
        min_fan = std::min(min_fan, end - begin);
        max_fan = std::max(max_fan, end - begin);
        covered = end;
      }
      ASSERT_EQ(covered, children) << c.spec << " tier " << tier;
      EXPECT_LE(max_fan - min_fan, 1) << c.spec << " tier " << tier;

      int leaves_sum = 0;
      for (int node = 0; node < parents; ++node) {
        leaves_sum += topo.LeavesUnder(tier, node);
      }
      EXPECT_EQ(leaves_sum, topo.leaves()) << c.spec << " tier " << tier;
    }
    EXPECT_EQ(topo.LeavesUnder(0, 0), topo.leaves()) << c.spec;
  }
}

// ---------------------------------------------------------------------
// Runner integration helpers.

struct TreeRunOutput {
  RunResult result;
  std::vector<std::string> trace_lines;
};

std::vector<StreamRecord> TestTrace(int sites, int64_t updates) {
  WorldCupConfig wc;
  wc.sites = sites;
  wc.total_updates = updates;
  return GenerateWorldCupTrace(wc);
}

RunConfig TreeConfig(ProtocolKind protocol, int sites,
                     const std::string& topology) {
  RunConfig config;
  config.protocol = protocol;
  config.query = QueryKind::kSelfJoin;
  config.sites = sites;
  config.depth = 5;
  config.width = 60;
  config.check_every = 1000;
  config.topology = topology;
  return config;
}

/// Runs with an in-memory trace sink (flat and depth-1 runs only: deep
/// trees put the topology spec into RunStart by pointer, so their traces
/// must be serialized before Run returns — use RunToFile).
TreeRunOutput RunInMemory(RunConfig config,
                          const std::vector<StreamRecord>& trace) {
  MemoryTraceSink sink;
  config.trace = &sink;
  TreeRunOutput out;
  out.result = Run(config, trace);
  for (const TraceEvent& e : sink.events_log()) {
    out.trace_lines.push_back(JsonlTraceSink::EventJson(e));
  }
  return out;
}

/// Runs with a JSONL trace sink on disk and returns the replay verdict.
RunResult RunToFile(RunConfig config, const std::vector<StreamRecord>& trace,
                    const std::string& path, ReplayReport* report) {
  RunResult result;
  {
    JsonlTraceSink sink(path);
    config.trace = &sink;
    result = Run(config, trace);
  }
  *report = CheckTraceFile(path);
  return result;
}

/// Up/down words and messages of one link tier.
struct TierPin {
  int64_t up_words;
  int64_t down_words;
  int64_t up_msgs;
  int64_t down_msgs;
};

/// A tree run's outcome at the bit level: per-link-tier traffic (root
/// side first), the protocol counters, and the final estimate's bits.
struct TreePin {
  std::vector<TierPin> tiers;
  int64_t rounds;
  int64_t subrounds;
  int64_t rebalances;
  int64_t local_polls;
  uint64_t estimate_bits;
};

void ExpectPinned(const RunResult& r, const TreePin& pin) {
  ASSERT_EQ(r.tier_traffic.size(), pin.tiers.size());
  for (size_t t = 0; t < pin.tiers.size(); ++t) {
    const TrafficStats& s = r.tier_traffic[t];
    EXPECT_EQ(s.upstream_words, pin.tiers[t].up_words) << "tier " << t;
    EXPECT_EQ(s.downstream_words, pin.tiers[t].down_words) << "tier " << t;
    EXPECT_EQ(s.upstream_messages, pin.tiers[t].up_msgs) << "tier " << t;
    EXPECT_EQ(s.downstream_messages, pin.tiers[t].down_msgs) << "tier " << t;
  }
  EXPECT_EQ(r.rounds, pin.rounds);
  EXPECT_EQ(r.subrounds, pin.subrounds);
  EXPECT_EQ(r.rebalances, pin.rebalances);
  EXPECT_EQ(r.local_polls, pin.local_polls);
  uint64_t bits = 0;
  std::memcpy(&bits, &r.final_estimate, sizeof bits);
  EXPECT_EQ(bits, pin.estimate_bits) << "final_estimate " << r.final_estimate;
}

// ---------------------------------------------------------------------
// Flat equivalence: a depth-1 tree is the flat star, bit for bit.

class DepthOneTreeIsFlat : public ::testing::TestWithParam<ProtocolKind> {};

TEST_P(DepthOneTreeIsFlat, TraceAndTrafficBitIdentical) {
  const ProtocolKind protocol = GetParam();
  const std::vector<StreamRecord> trace = TestTrace(16, 20000);

  const TreeRunOutput flat =
      RunInMemory(TreeConfig(protocol, 16, ""), trace);
  const TreeRunOutput tree =
      RunInMemory(TreeConfig(protocol, 16, "tree:16"), trace);

  EXPECT_TRUE(tree.result.topology.empty());
  EXPECT_TRUE(tree.result.tier_traffic.empty());
  const TrafficStats& a = flat.result.traffic;
  const TrafficStats& b = tree.result.traffic;
  EXPECT_EQ(a.total_words(), b.total_words());
  EXPECT_EQ(a.upstream_words, b.upstream_words);
  EXPECT_EQ(a.downstream_words, b.downstream_words);
  EXPECT_EQ(flat.result.rounds, tree.result.rounds);
  EXPECT_EQ(flat.result.subrounds, tree.result.subrounds);
  EXPECT_EQ(flat.result.max_violation, tree.result.max_violation);
  EXPECT_EQ(flat.result.final_estimate, tree.result.final_estimate);

  ASSERT_EQ(flat.trace_lines.size(), tree.trace_lines.size());
  for (size_t i = 0; i < flat.trace_lines.size(); ++i) {
    ASSERT_EQ(flat.trace_lines[i], tree.trace_lines[i])
        << "trace line " << i;
  }
}

std::string ProtocolParamName(
    const ::testing::TestParamInfo<ProtocolKind>& info) {
  std::string name = ProtocolKindName(info.param);
  for (char& c : name) {
    if (c == '/' || c == '-') c = '_';
  }
  return name;
}

INSTANTIATE_TEST_SUITE_P(Protocols, DepthOneTreeIsFlat,
                         ::testing::Values(ProtocolKind::kFgmBasic,
                                           ProtocolKind::kFgm,
                                           ProtocolKind::kFgmOpt,
                                           ProtocolKind::kGm),
                         ProtocolParamName);

// ---------------------------------------------------------------------
// Deep-tree correctness.

TEST(DeepTree, TwoTierSelfJoinMonitorsWithCertifiedTrace) {
  const std::vector<StreamRecord> trace = TestTrace(16, 30000);
  const std::string path = ::testing::TempDir() + "/hier_two_tier.jsonl";

  ReplayReport report;
  const RunResult tree =
      RunToFile(TreeConfig(ProtocolKind::kFgm, 16, "tree:4"), trace, path,
                &report);

  EXPECT_EQ(tree.max_violation, 0.0);
  EXPECT_EQ(tree.topology, "tree:4,4");
  // Per-link-tier traffic, root-side first; entry 0 repeats the root
  // totals the headline TrafficStats carries.
  ASSERT_EQ(tree.tier_traffic.size(), 2u);
  EXPECT_EQ(tree.tier_traffic[0].total_words(), tree.traffic.total_words());
  EXPECT_GT(tree.tier_traffic[1].total_words(), 0);
  EXPECT_GT(tree.local_polls, 0);
  EXPECT_GT(tree.rounds, 0);

  EXPECT_TRUE(report.ok()) << report.Summary();
  EXPECT_GT(report.tier_ends, 0) << report.Summary();
  EXPECT_GT(report.tier_words, 0);

  // The root now talks to 4 aggregators instead of 16 sites; its own
  // traffic must shrink vs the flat star on the same stream.
  const TreeRunOutput flat =
      RunInMemory(TreeConfig(ProtocolKind::kFgm, 16, ""), trace);
  EXPECT_LT(tree.traffic.total_words(), flat.result.traffic.total_words());
  EXPECT_EQ(tree.rounds, flat.result.rounds);

  ExpectPinned(tree, {{{164516, 311696, 12624, 9296},
                       {665432, 60826, 57864, 31456}},
                      127, 1099, 353, 1879, 0x40f5b7f6a0000000});
}

TEST(DeepTree, BasicProtocolTwoTierMonitorsWithCertifiedTrace) {
  const std::vector<StreamRecord> trace = TestTrace(16, 30000);
  const std::string path = ::testing::TempDir() + "/hier_basic.jsonl";

  ReplayReport report;
  const RunResult tree =
      RunToFile(TreeConfig(ProtocolKind::kFgmBasic, 16, "tree:4"), trace,
                path, &report);

  EXPECT_EQ(tree.max_violation, 0.0);
  EXPECT_EQ(tree.topology, "tree:4,4");
  EXPECT_TRUE(report.ok()) << report.Summary();
  EXPECT_GT(report.tier_ends, 0);
  EXPECT_EQ(tree.rebalances, 0);
  ExpectPinned(tree, {{{209628, 192044, 7504, 6344},
                       {850024, 55295, 41528, 25569}},
                      169, 770, 0, 1775, 0x40f6494b10000000});
}

TEST(DeepTree, ThreeTierTreeMonitorsWithCertifiedTrace) {
  const std::vector<StreamRecord> trace = TestTrace(27, 30000);
  const std::string path = ::testing::TempDir() + "/hier_three_tier.jsonl";

  ReplayReport report;
  const RunResult tree =
      RunToFile(TreeConfig(ProtocolKind::kFgm, 27, "tree:3"), trace, path,
                &report);

  EXPECT_EQ(tree.max_violation, 0.0);
  EXPECT_EQ(tree.topology, "tree:3,3,3");
  ASSERT_EQ(tree.tier_traffic.size(), 3u);
  EXPECT_EQ(tree.tier_traffic[0].total_words(), tree.traffic.total_words());
  EXPECT_GT(tree.tier_traffic[1].total_words(), 0);
  EXPECT_GT(tree.tier_traffic[2].total_words(), 0);
  EXPECT_TRUE(report.ok()) << report.Summary();
  EXPECT_GT(report.tier_ends, 0);
  ExpectPinned(tree, {{{113646, 339495, 11388, 8895},
                       {347631, 601496, 40857, 24596},
                       {1040913, 93435, 120591, 64303}},
                      114, 1337, 448, 7498, 0x40ddc3665d68ffa5});
}

TEST(DeepTree, OptimizerProtocolPlansAtRootGranularity) {
  const std::vector<StreamRecord> trace = TestTrace(64, 30000);
  const std::string path = ::testing::TempDir() + "/hier_fgmo.jsonl";

  ReplayReport report;
  const RunResult tree =
      RunToFile(TreeConfig(ProtocolKind::kFgmOpt, 64, "tree:8"), trace,
                path, &report);

  EXPECT_EQ(tree.max_violation, 0.0);
  EXPECT_EQ(tree.topology, "tree:8,8");
  EXPECT_TRUE(report.ok()) << report.Summary();
  EXPECT_GT(report.plans, 0) << "FGM/O must still emit plan events";
  ExpectPinned(tree, {{{249936, 663221, 34208, 23321},
                       {2041248, 185007, 315424, 155008}},
                      118, 1613, 408, 4710, 0x40b4c39cf0000000});
}

// ---------------------------------------------------------------------
// Aggregator-failure chaos grid: drop × latency × tier-1 crash/rejoin.
// Fault-plan site indices address tier-1 aggregators on tree runs.

using HierChaosParam = std::tuple<double, const char*>;

class HierChaosGrid : public ::testing::TestWithParam<HierChaosParam> {};

/// Pinned outcome of each grid point, indexed [drop/0.1][latency].
const TreePin& ChaosPin(double drop, const std::string& latency) {
  static const TreePin kPins[3][2] = {
      {{{{116204, 202226, 5275, 6026}, {488624, 55636, 44908, 27925}},
        94, 448, 126, 3410, 0x40f5393530000000},
       {{{98077, 148882, 3593, 5182}, {418300, 53978, 40364, 26425}},
        80, 308, 67, 3536, 0x40f4f9a150000000}},
      {{{{89118, 145370, 3903, 4670}, {342344, 50399, 33776, 22383}},
        65, 311, 66, 2731, 0x40f5b11050000000},
       {{{87110, 122711, 3390, 4511}, {332556, 50412, 33556, 22683}},
        63, 275, 43, 2893, 0x40f53b0260000000}},
      {{{{93147, 146079, 3746, 4479}, {306796, 49997, 31716, 21507}},
        58, 257, 52, 2725, 0x40f676fd50000000},
       {{{87142, 138080, 3123, 4280}, {305984, 48854, 30904, 21281}},
        58, 216, 42, 2808, 0x40f50120d0000000}},
  };
  const int row = static_cast<int>(drop * 10.0 + 0.5);
  return kPins[row][latency == "fixed:4" ? 0 : 1];
}

TEST_P(HierChaosGrid, AggregatorCrashNeverCostsCorrectness) {
  const double drop = std::get<0>(GetParam());
  const char* latency = std::get<1>(GetParam());
  const std::vector<StreamRecord> trace = TestTrace(16, 30000);

  RunConfig config = TreeConfig(ProtocolKind::kFgm, 16, "tree:4");
  config.check_every = 500;
  config.net.latency = latency;
  config.net.drop = drop;
  config.net.fault_plan = "crash:site=1,at=20000,rejoin=26000";

  std::string name(latency);
  for (char& c : name) {
    if (c == ':' || c == '-') c = '_';
  }
  const std::string path = ::testing::TempDir() + "/hier_chaos_" + name +
                           "_" + std::to_string(static_cast<int>(drop * 100)) +
                           ".jsonl";
  ReplayReport report;
  const RunResult tree = RunToFile(config, trace, path, &report);

  EXPECT_EQ(tree.max_violation, 0.0);
  EXPECT_EQ(tree.net.site_downs, 1);
  EXPECT_GE(tree.net.resyncs, 1);
  EXPECT_TRUE(report.ok()) << report.Summary();
  EXPECT_GT(report.tier_ends, 0);
  ExpectPinned(tree, ChaosPin(drop, latency));
}

INSTANTIATE_TEST_SUITE_P(
    DropByLatency, HierChaosGrid,
    ::testing::Combine(::testing::Values(0.0, 0.1, 0.2),
                       ::testing::Values("fixed:4", "uniform:1-16")),
    [](const ::testing::TestParamInfo<HierChaosParam>& info) {
      std::string name(std::get<1>(info.param));
      for (char& c : name) {
        if (c == ':' || c == '-') c = '_';
      }
      return name + "_drop" +
             std::to_string(static_cast<int>(std::get<0>(info.param) * 100));
    });

TEST(HierFaults, AggregatorPastDeadlineDegradesToReducedKAndRecovers) {
  const std::vector<StreamRecord> trace = TestTrace(16, 30000);

  RunConfig config = TreeConfig(ProtocolKind::kFgm, 16, "tree:4");
  config.check_every = 500;
  config.net.latency = "uniform:1-16";
  config.net.drop = 0.1;
  config.net.fault_plan = "crash:site=1,at=20000,rejoin=30000";

  const std::string path =
      ::testing::TempDir() + "/hier_deadline.jsonl";
  ReplayReport report;
  const RunResult tree = RunToFile(config, trace, path, &report);

  EXPECT_EQ(tree.max_violation, 0.0);
  EXPECT_EQ(tree.net.site_downs, 1);
  EXPECT_TRUE(report.ok()) << report.Summary();
  ExpectPinned(tree, {{{88185, 121707, 3269, 4407},
                       {330432, 49770, 32628, 22121}},
                      64, 265, 44, 2832, 0x40f50c3660000000});
}

// ---------------------------------------------------------------------
// Rejections: parse errors and protocols without subround machinery.

TEST(HierDeathTest, MalformedTopologySpecDiesInRun) {
  const std::vector<StreamRecord> trace = TestTrace(4, 100);
  RunConfig config = TreeConfig(ProtocolKind::kFgm, 4, "tree:0");
  EXPECT_DEATH(::fgm::Run(config, trace), "FGM_CHECK failed");
}

TEST(HierDeathTest, UncoveringTopologySpecDiesInRun) {
  const std::vector<StreamRecord> trace = TestTrace(16, 100);
  RunConfig config = TreeConfig(ProtocolKind::kFgm, 16, "tree:2,2");
  EXPECT_DEATH(::fgm::Run(config, trace), "FGM_CHECK failed");
}

TEST(HierDeathTest, GmProtocolRejectsDeepTrees) {
  const std::vector<StreamRecord> trace = TestTrace(16, 100);
  RunConfig config = TreeConfig(ProtocolKind::kGm, 16, "tree:4");
  EXPECT_DEATH(::fgm::Run(config, trace), "FGM_CHECK failed");
}

TEST(HierDeathTest, CentralProtocolRejectsDeepTrees) {
  const std::vector<StreamRecord> trace = TestTrace(16, 100);
  RunConfig config = TreeConfig(ProtocolKind::kCentral, 16, "tree:4");
  EXPECT_DEATH(::fgm::Run(config, trace), "FGM_CHECK failed");
}

}  // namespace
}  // namespace fgm
