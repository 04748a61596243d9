// End-to-end protocol tests: FGM (all variants), classic GM and the
// centralizing baseline, exercised through the experiment driver with
// per-event verification of the monitoring guarantee against exact ground
// truth.

#include <cmath>
#include <memory>
#include <string>
#include <tuple>
#include <vector>

#include <gtest/gtest.h>

#include "core/fgm_protocol.h"
#include "driver/runner.h"
#include "gm/gm_protocol.h"
#include "stream/partition.h"
#include "stream/window.h"
#include "stream/worldcup.h"

namespace fgm {
namespace {

std::vector<StreamRecord> SmallTrace(int sites, int64_t updates,
                                     uint64_t seed = 20190326) {
  WorldCupConfig config;
  config.sites = sites;
  config.total_updates = updates;
  config.duration = 10000.0;
  config.distinct_clients = 2000;
  config.seed = seed;
  return GenerateWorldCupTrace(config);
}

RunConfig SmallRun(ProtocolKind protocol, QueryKind query, int sites,
                   double window) {
  RunConfig config;
  config.protocol = protocol;
  config.query = query;
  config.sites = sites;
  config.depth = 5;
  config.width = 32;
  config.epsilon = 0.15;
  config.window_seconds = window;
  config.check_every = 1;  // verify the guarantee after EVERY event
  config.fp_dimension = 64;
  return config;
}

// The exhaustive correctness sweep: protocol × query × stream model.
// The monitoring guarantee must hold at every event where the protocol
// certifies its bounds.
using SweepParam = std::tuple<ProtocolKind, QueryKind, double>;

std::string SweepName(const ::testing::TestParamInfo<SweepParam>& info) {
  const ProtocolKind p = std::get<0>(info.param);
  const QueryKind q = std::get<1>(info.param);
  const double w = std::get<2>(info.param);
  std::string name = ProtocolKindName(p);
  for (char& c : name) {
    if (c == '/' || c == '-') c = '_';
  }
  name += q == QueryKind::kSelfJoin  ? "_Q1"
          : q == QueryKind::kJoin    ? "_Q2"
                                     : "_Fp";
  name += w > 0 ? "_turnstile" : "_cashregister";
  return name;
}

class GuaranteeSweep : public ::testing::TestWithParam<SweepParam> {};

TEST_P(GuaranteeSweep, BoundsHoldAtEveryEvent) {
  const auto [protocol, query, window] = GetParam();
  const int sites = 6;
  const auto trace = SmallTrace(sites, 30000);
  RunConfig config = SmallRun(protocol, query, sites, window);
  const RunResult result = ::fgm::Run(config, trace);
  EXPECT_GT(result.checks, 0);
  // Allow only floating-point hairline overshoots (fraction of margin).
  EXPECT_LE(result.max_violation, 1e-6)
      << result.protocol_name << " / " << result.query_name
      << " window=" << window;
  // All protocols must actually have processed the stream.
  const int64_t expected_events =
      window > 0 ? 2 * static_cast<int64_t>(trace.size())
                 : static_cast<int64_t>(trace.size());
  EXPECT_EQ(result.events, expected_events);
}

INSTANTIATE_TEST_SUITE_P(
    AllProtocolsQueriesModels, GuaranteeSweep,
    ::testing::Combine(
        ::testing::Values(ProtocolKind::kFgm, ProtocolKind::kFgmBasic,
                          ProtocolKind::kFgmOpt, ProtocolKind::kGm,
                          ProtocolKind::kCentral),
        ::testing::Values(QueryKind::kSelfJoin, QueryKind::kJoin,
                          QueryKind::kFpNorm),
        ::testing::Values(0.0, 1500.0)),
    SweepName);

TEST(FgmProtocol, TracksTheQueryAcrossRounds) {
  const int sites = 4;
  const auto trace = SmallTrace(sites, 40000);
  RunConfig config = SmallRun(ProtocolKind::kFgm, QueryKind::kSelfJoin,
                              sites, 0.0);
  config.check_every = 100;
  const RunResult result = ::fgm::Run(config, trace);
  EXPECT_GT(result.rounds, 3);
  // At the end the estimate must be within the bound of the truth (the
  // query's threshold floor is 1).
  EXPECT_NEAR(result.final_estimate, result.final_truth,
              config.epsilon * result.final_truth + 2 * 1.0);
}

TEST(FgmProtocol, SubroundsPerRoundStayNearTheoreticalLog) {
  // §2.5.1: the paper observed ≤ 10 subrounds per round, typically
  // ≈ log2(1/ε_ψ) ≈ 7.
  const int sites = 6;
  const auto trace = SmallTrace(sites, 50000);
  auto query = MakeQuery(SmallRun(ProtocolKind::kFgm, QueryKind::kSelfJoin,
                                  sites, 0.0));
  FgmConfig fc;
  FgmProtocol protocol(query.get(), sites, fc);
  SlidingWindowStream events(&trace, 0.0);
  while (const StreamRecord* rec = events.Next()) {
    protocol.ProcessRecord(*rec);
  }
  ASSERT_GT(protocol.rounds(), 5);
  const double mean = protocol.subrounds_per_round().Mean();
  EXPECT_GT(mean, 1.0);
  EXPECT_LT(mean, 20.0);
  EXPECT_LE(protocol.subrounds_per_round().Quantile(0.9), 16);
}

TEST(FgmProtocol, RebalancingExtendsRounds) {
  const int sites = 6;
  const auto trace = SmallTrace(sites, 40000);
  const double window = 1200.0;  // turnstile: drifts partially cancel

  RunConfig with = SmallRun(ProtocolKind::kFgm, QueryKind::kSelfJoin, sites,
                            window);
  with.check_every = 0;
  RunConfig without = with;
  without.protocol = ProtocolKind::kFgmBasic;

  const RunResult r_with = ::fgm::Run(with, trace);
  const RunResult r_without = ::fgm::Run(without, trace);
  EXPECT_GT(r_with.rebalances, 0);
  // Rebalancing must reduce the number of E-shipping rounds.
  EXPECT_LT(r_with.rounds, r_without.rounds);
}

TEST(FgmProtocol, PsiStaysBelowZeroWhileCertified) {
  // Proposition 2.6 at the protocol level: whenever the coordinator's
  // counter is ≤ k (BoundsCertified), the last polled ψ is negative and
  // the estimate bounds are in force.
  const int sites = 5;
  const auto trace = SmallTrace(sites, 20000);
  auto query = MakeQuery(SmallRun(ProtocolKind::kFgm, QueryKind::kSelfJoin,
                                  sites, 0.0));
  FgmConfig fc;
  FgmProtocol protocol(query.get(), sites, fc);
  SlidingWindowStream events(&trace, 0.0);
  while (const StreamRecord* rec = events.Next()) {
    protocol.ProcessRecord(*rec);
    ASSERT_TRUE(protocol.BoundsCertified());
    ASSERT_LT(protocol.last_psi(), 0.0);
  }
}

TEST(FgmProtocol, OptimizerUsesCheapFunctionsUnderPressure) {
  // Huge D relative to the stream: FGM/O should stop shipping safe zones
  // (the Fig. 4 adverse regime).
  const int sites = 8;
  const auto trace = SmallTrace(sites, 30000);
  RunConfig config = SmallRun(ProtocolKind::kFgmOpt, QueryKind::kSelfJoin,
                              sites, 600.0);
  config.width = 512;  // D = 2560 vs ~60k events
  config.epsilon = 0.05;
  config.check_every = 0;
  const RunResult opt = ::fgm::Run(config, trace);
  EXPECT_LT(opt.mean_full_function_fraction, 0.9);

  config.protocol = ProtocolKind::kFgm;
  const RunResult plain = ::fgm::Run(config, trace);
  EXPECT_LT(opt.comm_cost, plain.comm_cost);
}

TEST(GmProtocol, ViolationsAndPartialRebalances) {
  const int sites = 6;
  const auto trace = SmallTrace(sites, 30000);
  RunConfig rc = SmallRun(ProtocolKind::kGm, QueryKind::kSelfJoin, sites,
                          0.0);
  auto query = MakeQuery(rc);
  GmConfig gc;
  GmProtocol protocol(query.get(), sites, gc);
  SlidingWindowStream events(&trace, 0.0);
  while (const StreamRecord* rec = events.Next()) {
    protocol.ProcessRecord(*rec);
  }
  EXPECT_GT(protocol.violations(), 0);
  EXPECT_GT(protocol.partial_rebalances(), 0);
  EXPECT_GT(protocol.rounds(), 1);
  // Rebalancing resolves more violations than full syncs do.
  EXPECT_LT(protocol.rounds(), protocol.violations());
}

TEST(GmProtocol, LoadDriftSetsEvaluatorState) {
  auto proj = std::make_shared<const AgmsProjection>(3, 8, 5);
  RealVector e(proj->dimension());
  e[0] = 4.0;
  SelfJoinQuery query(proj, 0.2);
  auto fn = query.MakeSafeFunction(e);
  auto eval = fn->MakeEvaluator();
  RealVector target(proj->dimension());
  target[3] = 1.5;
  target[17] = -2.5;
  LoadDrift(eval.get(), target);
  EXPECT_NEAR(eval->Value(), fn->Eval(target), 1e-9);
  EXPECT_NEAR(Distance(eval->drift(), target), 0.0, 1e-12);
}

TEST(CentralProtocol, ExactAndUnitCost) {
  const int sites = 3;
  const auto trace = SmallTrace(sites, 5000);
  RunConfig config = SmallRun(ProtocolKind::kCentral, QueryKind::kSelfJoin,
                              sites, 0.0);
  const RunResult result = ::fgm::Run(config, trace);
  EXPECT_DOUBLE_EQ(result.comm_cost, 1.0);
  EXPECT_DOUBLE_EQ(result.upstream_fraction, 0.0);
  EXPECT_NEAR(result.final_estimate, result.final_truth,
              1e-9 * std::fabs(result.final_truth));
  EXPECT_DOUBLE_EQ(result.max_violation, 0.0);
}

TEST(FgmProtocol, SkewDoesNotChangeRoundStructure) {
  // §5.4: ψ is a function of the drift sum only, so redistributing the
  // same global stream across sites leaves the round count unchanged
  // (without the optimizer, whose plan depends on per-site rates).
  const int sites = 9;
  auto trace = SmallTrace(sites, 30000);
  const auto skewed = MakeSkewedTrace(trace, sites, 4);

  RunConfig config = SmallRun(ProtocolKind::kFgm, QueryKind::kSelfJoin,
                              sites, 0.0);
  config.check_every = 0;
  const RunResult real = ::fgm::Run(config, trace);
  const RunResult skew = ::fgm::Run(config, skewed);
  EXPECT_EQ(real.rounds, skew.rounds);
}

}  // namespace
}  // namespace fgm
