// Unit tests for the FGM/O cost-based round optimizer (§4.2).

#include <cmath>
#include <vector>

#include <gtest/gtest.h>

#include "core/optimizer.h"
#include "util/rng.h"

namespace fgm {
namespace {

// Reference rate computation for an arbitrary plan d:
// (g(d) - C)/τ(d), the optimizer's steady-state objective.
double RateOf(const std::vector<SiteRates>& rates,
              const std::vector<uint8_t>& d, int64_t dim, double overhead) {
  const int k = static_cast<int>(rates.size());
  double denom = 0.0;
  int n = 0;
  for (int i = 0; i < k; ++i) {
    const auto& r = rates[static_cast<size_t>(i)];
    if (!r.active) continue;
    denom += d[static_cast<size_t>(i)] ? r.alpha : r.beta;
    n += d[static_cast<size_t>(i)];
  }
  const double tau = denom > 1e-12 ? static_cast<double>(k) / denom : 1e15;
  double downstream = 0.0;
  for (int i = 0; i < k; ++i) {
    downstream += std::min(rates[static_cast<size_t>(i)].gamma * tau,
                           static_cast<double>(dim));
  }
  return (tau - downstream - static_cast<double>(dim) * n - overhead) / tau;
}

TEST(Optimizer, MatchesExhaustiveSearchOnRandomInstances) {
  Xoshiro256ss rng(42);
  for (int trial = 0; trial < 200; ++trial) {
    const int k = 2 + static_cast<int>(rng.NextBounded(7));  // up to 8 sites
    const int64_t dim = 1 + static_cast<int64_t>(rng.NextBounded(2000));
    const double overhead = rng.NextDouble() * 50.0;
    std::vector<SiteRates> rates(static_cast<size_t>(k));
    double gamma_total = 0.0;
    for (auto& r : rates) {
      r.alpha = 1e-6 + rng.NextDouble() * 0.01;
      r.beta = r.alpha + rng.NextDouble() * 0.05;
      r.gamma = rng.NextDouble();
      gamma_total += r.gamma;
    }
    for (auto& r : rates) r.gamma /= gamma_total;

    const RoundPlan plan = OptimizeRoundPlan(rates, dim, overhead);
    const double greedy_rate =
        RateOf(rates, plan.full_function, dim, overhead);

    double best = -1e300;
    for (int mask = 0; mask < (1 << k); ++mask) {
      std::vector<uint8_t> d(static_cast<size_t>(k));
      for (int i = 0; i < k; ++i) d[static_cast<size_t>(i)] = (mask >> i) & 1;
      best = std::max(best, RateOf(rates, d, dim, overhead));
    }
    ASSERT_NEAR(greedy_rate, best, 1e-6 * (1.0 + std::fabs(best)))
        << "trial " << trial << " k=" << k << " D=" << dim;
  }
}

TEST(Optimizer, InactiveSitesNeverGetTheFullFunction) {
  std::vector<SiteRates> rates(4);
  for (auto& r : rates) {
    r.alpha = 0.001;
    r.beta = 0.02;
    r.gamma = 0.25;
  }
  rates[2].active = false;
  const RoundPlan plan = OptimizeRoundPlan(rates, 10);
  EXPECT_EQ(plan.full_function[2], 0);
}

TEST(Optimizer, CheapDimensionPrefersFullFunctions) {
  // When D is tiny, shipping φ costs almost nothing and the longer rounds
  // it buys always win.
  std::vector<SiteRates> rates(5);
  for (auto& r : rates) {
    r.alpha = 0.0001;
    r.beta = 0.05;
    r.gamma = 0.2;
  }
  const RoundPlan plan = OptimizeRoundPlan(rates, 1);
  for (uint8_t d : plan.full_function) EXPECT_EQ(d, 1);
}

TEST(Optimizer, HugeDimensionPrefersCheapFunctions) {
  // When D dwarfs any achievable round length, safe zones are not worth
  // shipping (the Fig. 4 adverse regime).
  std::vector<SiteRates> rates(5);
  for (auto& r : rates) {
    r.alpha = 0.01;
    r.beta = 0.05;
    r.gamma = 0.2;
  }
  const RoundPlan plan = OptimizeRoundPlan(rates, 1000000);
  for (uint8_t d : plan.full_function) EXPECT_EQ(d, 0);
}

TEST(Optimizer, SkewedRatesPickTheHotSites)
{
  // Two fast sites and three idle-ish ones: with a moderate D the greedy
  // plan should invest the D words only in the sites driving ψ.
  std::vector<SiteRates> rates(5);
  for (size_t i = 0; i < 5; ++i) {
    const bool hot = i < 2;
    rates[i].alpha = hot ? 0.0005 : 0.004;
    rates[i].beta = hot ? 0.08 : 0.0045;
    rates[i].gamma = hot ? 0.45 : 0.1 / 3;
  }
  const RoundPlan plan = OptimizeRoundPlan(rates, 60);
  EXPECT_EQ(plan.full_function[0], 1);
  EXPECT_EQ(plan.full_function[1], 1);
  EXPECT_EQ(plan.full_function[2] + plan.full_function[3] +
                plan.full_function[4],
            0);
}

TEST(EstimateSiteRates, BasicDerivation) {
  // One round of τ = 100 updates, φ(0) = -10.
  const std::vector<double> phi_end = {-5.0, -10.0};
  const std::vector<double> drift_norm = {8.0, 2.0};
  const std::vector<int64_t> site_updates = {60, 40};
  const auto rates = EstimateSiteRates(-10.0, phi_end, drift_norm,
                                       site_updates);
  ASSERT_EQ(rates.size(), 2u);
  EXPECT_TRUE(rates[0].active);
  EXPECT_NEAR(rates[0].alpha, 5.0 / (10.0 * 100.0), 1e-12);
  EXPECT_NEAR(rates[0].beta, 8.0 / (10.0 * 100.0), 1e-12);
  EXPECT_NEAR(rates[0].gamma, 0.6, 1e-12);
  // Site 1: φ did not move → α clamps to a tiny positive value, β stays.
  EXPECT_GT(rates[1].alpha, 0.0);
  EXPECT_LT(rates[1].alpha, 1e-9);
  EXPECT_NEAR(rates[1].beta, 2.0 / (10.0 * 100.0), 1e-12);
}

TEST(EstimateSiteRates, SilentSitesBecomeInactive) {
  const auto rates = EstimateSiteRates(-1.0, {-0.5, -1.0}, {1.0, 0.0},
                                       {10, 0});
  EXPECT_TRUE(rates[0].active);
  EXPECT_FALSE(rates[1].active);
}

TEST(EstimateSiteRates, AlphaNeverExceedsBeta) {
  Xoshiro256ss rng(7);
  for (int t = 0; t < 100; ++t) {
    std::vector<double> phi_end(3), norm(3);
    std::vector<int64_t> updates(3);
    for (int i = 0; i < 3; ++i) {
      norm[static_cast<size_t>(i)] = rng.NextDouble() * 10.0;
      // Nonexpansiveness implies φ_end - φ(0) <= ‖X‖.
      phi_end[static_cast<size_t>(i)] =
          -10.0 + norm[static_cast<size_t>(i)] * rng.NextDouble();
      updates[static_cast<size_t>(i)] =
          static_cast<int64_t>(rng.NextBounded(100));
    }
    for (const auto& r : EstimateSiteRates(-10.0, phi_end, norm, updates)) {
      if (r.active) {
        ASSERT_GT(r.alpha, 0.0);
        ASSERT_LE(r.alpha, r.beta);
      }
    }
  }
}

}  // namespace
}  // namespace fgm
