// Tests for F_p-moment monitoring (paper §3): one-shot queries and the
// per-round progress of Lemma 3.1.

#include <cmath>
#include <memory>

#include <gtest/gtest.h>

#include "core/fgm_protocol.h"
#include "query/oneshot.h"
#include "util/rng.h"

namespace fgm {
namespace {

StreamRecord UniformRecord(int k, uint64_t key_space, Xoshiro256ss& rng) {
  StreamRecord rec;
  rec.site = static_cast<int32_t>(rng.NextBounded(static_cast<uint64_t>(k)));
  rec.cid = rng.NextBounded(key_space);
  rec.weight = 1.0;
  return rec;
}

TEST(OneShotFpQuery, AlarmLatchesAtOneMinusEps) {
  OneShotFpQuery query(32, 2.0, 100.0, 0.1);
  EXPECT_FALSE(query.AlarmRaised(89.0));
  EXPECT_TRUE(query.AlarmRaised(90.0));
  EXPECT_TRUE(query.AlarmRaised(150.0));
}

TEST(OneShotFpQuery, SafeFunctionUsesTheFixedThreshold) {
  OneShotFpQuery query(8, 2.0, 50.0, 0.05);
  RealVector e(8);
  e[0] = 30.0;
  auto fn = query.MakeSafeFunction(e);
  EXPECT_DOUBLE_EQ(fn->AtZero(), 30.0 - 50.0);
  const ThresholdPair t = query.Thresholds(e);
  EXPECT_DOUBLE_EQ(t.hi, 50.0);
}

TEST(OneShotFp, FgmRaisesTheAlarmAndNeverOvershoots) {
  // While the FGM protocol is quiescent, ‖S‖_2 must stay below T; the
  // alarm fires once the estimate reaches (1-ε)T.
  const int k = 4;
  const double threshold = 400.0;
  const double eps = 0.05;
  OneShotFpQuery query(64, 2.0, threshold, eps);
  FgmConfig config;
  config.rebalance = false;
  FgmProtocol protocol(&query, k, config);
  Xoshiro256ss rng(17);
  RealVector truth(64);
  int64_t updates = 0;
  while (!query.AlarmRaised(protocol.Estimate())) {
    ASSERT_LT(updates, 10000000);
    const StreamRecord rec = UniformRecord(k, 64, rng);
    protocol.ProcessRecord(rec);
    truth[rec.cid % 64] += 1.0 / k;
    ++updates;
    if (protocol.BoundsCertified()) {
      ASSERT_LE(truth.Norm(), threshold * (1.0 + 1e-9));
    }
  }
  EXPECT_GT(protocol.rounds(), 1);
  EXPECT_GE(protocol.Estimate(), (1.0 - eps) * threshold);
}

TEST(Lemma31, OneRoundForF1ReachesTheThreshold) {
  // For p = 1 (and nonnegative drifts) Lemma 3.1 gives, after a single
  // round, ‖S‖_1 ≥ T̃ = T(1-ε_ψ) + ε_ψ‖E‖_1: one round suffices for the
  // L1 counter regardless of k.
  const int k = 8;
  const double threshold = 5000.0;
  OneShotFpQuery query(64, 1.0, threshold, 0.05);
  FgmConfig config;
  config.rebalance = false;
  FgmProtocol protocol(&query, k, config);
  Xoshiro256ss rng(23);
  // Feed until the first round completes (rounds() starts at 1).
  int64_t updates = 0;
  while (protocol.rounds() < 2 && updates < 10000000) {
    protocol.ProcessRecord(UniformRecord(k, 64, rng));
    ++updates;
  }
  ASSERT_EQ(protocol.rounds(), 2);
  // ‖E‖_1 after the first round ≥ T(1 - ε_ψ) up to the subround slack.
  EXPECT_GE(protocol.Estimate(), threshold * (1.0 - 3 * config.eps_psi));
}

TEST(Lemma31, F2RoundMakesTheGuaranteedProgress) {
  // p = 2: after one round from E = 0, ‖S‖² ≥ T̃²/k (Lemma 3.1 with
  // ‖E‖ = 0). Use orthogonal site streams — the worst case — and check
  // the guaranteed progress is still achieved.
  const int k = 4;
  const double threshold = 500.0;
  OneShotFpQuery query(64, 2.0, threshold, 0.05);
  FgmConfig config;
  config.rebalance = false;
  FgmProtocol protocol(&query, k, config);
  Xoshiro256ss rng(29);
  int64_t updates = 0;
  while (protocol.rounds() < 2 && updates < 10000000) {
    StreamRecord rec;
    rec.site = static_cast<int32_t>(rng.NextBounded(k));
    rec.cid = static_cast<uint64_t>(rec.site) * 16 + rng.NextBounded(16);
    rec.weight = 1.0;
    protocol.ProcessRecord(rec);
    ++updates;
  }
  ASSERT_EQ(protocol.rounds(), 2);
  const double t_tilde = threshold * (1.0 - config.eps_psi);
  EXPECT_GE(protocol.Estimate() * protocol.Estimate(),
            t_tilde * t_tilde / k * (1.0 - 0.05));
}

}  // namespace
}  // namespace fgm
