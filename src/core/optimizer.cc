#include "core/optimizer.h"

#include <algorithm>
#include <cmath>

#include "util/check.h"

namespace fgm {

namespace {
// Round length used when the predicted drift rates of the selected plan
// sum to ~0 ("the round never ends"); any value larger than a realistic
// stream keeps the gain comparison correct.
constexpr double kInfiniteRound = 1e15;
constexpr double kTinyRate = 1e-12;
}  // namespace

RoundPlan OptimizeRoundPlan(const std::vector<SiteRates>& rates,
                            int64_t dimension, double round_overhead_words,
                            const HealthView* health) {
  const int k = static_cast<int>(rates.size());
  FGM_CHECK_GE(k, 1);
  const double big_d = static_cast<double>(dimension);

  // Per-site shipping cost factors (1 without a health view). Dividing by
  // an exact 1.0 and multiplying by it leave doubles unchanged, so the
  // no-health path is bit-identical to the original cost model.
  std::vector<double> cost(static_cast<size_t>(k), 1.0);
  if (health != nullptr) {
    for (size_t i = 0; i < health->ship_cost.size() && i < cost.size();
         ++i) {
      cost[i] = std::max(1.0, health->ship_cost[i]);
    }
  }

  // Active sites sorted by θ_i = β_i - α_i per unit shipping cost,
  // descending: the best n-plan gives the full function to the n sites
  // where a D-word shipment buys the most round extension.
  std::vector<int> order;
  double beta_tot = 0.0;
  for (int i = 0; i < k; ++i) {
    if (rates[static_cast<size_t>(i)].active) {
      order.push_back(i);
      beta_tot += rates[static_cast<size_t>(i)].beta;
    }
  }
  std::sort(order.begin(), order.end(), [&](int a, int b) {
    const auto& ra = rates[static_cast<size_t>(a)];
    const auto& rb = rates[static_cast<size_t>(b)];
    return (ra.beta - ra.alpha) / cost[static_cast<size_t>(a)] >
           (rb.beta - rb.alpha) / cost[static_cast<size_t>(b)];
  });

  auto gain_for = [&](int n, double* tau_out) {
    double denom = beta_tot;
    double ship = 0.0;
    for (int j = 0; j < n; ++j) {
      const int site = order[static_cast<size_t>(j)];
      const auto& r = rates[static_cast<size_t>(site)];
      denom -= r.beta - r.alpha;
      ship += big_d * cost[static_cast<size_t>(site)];
    }
    const double tau =
        denom > kTinyRate ? static_cast<double>(k) / denom : kInfiniteRound;
    double downstream = 0.0;
    for (int i = 0; i < k; ++i) {
      downstream +=
          std::min(rates[static_cast<size_t>(i)].gamma * tau, big_d);
    }
    *tau_out = tau;
    return tau - downstream - ship - round_overhead_words;
  };

  int best_n = 0;
  double best_gain = 0.0, best_tau = 0.0, best_rate = 0.0;
  for (int n = 0; n <= static_cast<int>(order.size()); ++n) {
    double tau;
    const double g = gain_for(n, &tau);
    const double rate = g / tau;
    if (n == 0 || rate > best_rate) {
      best_n = n;
      best_gain = g;
      best_tau = tau;
      best_rate = rate;
    }
  }

  RoundPlan plan;
  plan.full_function.assign(static_cast<size_t>(k), 0);
  for (int j = 0; j < best_n; ++j) {
    plan.full_function[static_cast<size_t>(order[static_cast<size_t>(j)])] = 1;
  }
  plan.predicted_length = best_tau;
  plan.predicted_gain = best_gain;
  plan.predicted_rate = best_rate;
  return plan;
}

std::vector<SiteRates> EstimateSiteRates(
    double phi_zero, const std::vector<double>& phi_end,
    const std::vector<double>& drift_norm,
    const std::vector<int64_t>& site_updates) {
  FGM_CHECK_LT(phi_zero, 0.0);
  const size_t k = phi_end.size();
  FGM_CHECK_EQ(drift_norm.size(), k);
  FGM_CHECK_EQ(site_updates.size(), k);

  int64_t tau = 0;
  for (int64_t n : site_updates) tau += n;

  std::vector<SiteRates> rates(k);
  const double denom = std::fabs(phi_zero) * static_cast<double>(tau);
  for (size_t i = 0; i < k; ++i) {
    SiteRates& r = rates[i];
    if (tau == 0 || site_updates[i] == 0) {
      // §4.2.4: sites with no updates last round are excluded from the
      // optimization and get the cheap function (d_i = 0).
      r.active = false;
      continue;
    }
    r.beta = drift_norm[i] / denom;
    r.alpha = (phi_end[i] - phi_zero) / denom;
    // Enforce 0 < α ≤ β. A non-positive α means the site's φ barely moved
    // (or receded) — shipping it the full function is maximally valuable,
    // which the clamp expresses by making θ_i = β_i - α_i largest.
    if (r.alpha <= 0.0) r.alpha = kTinyRate;
    if (r.beta < r.alpha) r.beta = r.alpha;
    if (r.beta <= 0.0) {
      r.active = false;
      continue;
    }
    r.gamma = static_cast<double>(site_updates[i]) / static_cast<double>(tau);
  }
  return rates;
}

}  // namespace fgm
