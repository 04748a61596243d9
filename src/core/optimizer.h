// FGM/O cost-based round optimizer (§4.2).
//
// At the beginning of a round the coordinator decides, per site, whether
// to ship the full safe function (d_i = 1, D words carrying E) or the
// 3-word cheap bound b(x) = L‖x‖ + φ(0) (d_i = 0). It models each local
// stream with two rates measured in the previous round:
//     φ(X_i(t)) ≈ φ(0) + |φ(0)|·α_i·t      (full-function growth)
//     ‖X_i(t)‖ + φ(0) ≈ φ(0) + |φ(0)|·β_i·t (cheap-bound growth)
// (t counts *global* updates), plus the fraction γ_i of updates arriving
// at site i. The round length prediction is τ(d) = k/(β_tot - d·θ) with
// θ_i = β_i - α_i, and the round gain is
//     g(d) = τ - Σ_i min(γ_i·τ, D) - D·Σ_i d_i.
//
// Refinement over the paper's Eq. 14 (documented in DESIGN.md): since
// rounds repeat, the steady-state objective is the gain *per update*
//     rate(d) = (g(d) - C) / τ(d),
// where C is the fixed per-round overhead (subround quanta/polls and the
// end-of-round flush, ≈ (3k+1)·log2(1/ε_ψ) + 4k words). Maximizing g
// alone is scale-free in C and over-values short-round plans. The greedy
// structure is unchanged: for each candidate count n, the optimal choice
// gives the full function to the n sites of largest θ_i (both g and rate
// are increasing in τ for fixed n, §4.2.3).

#ifndef FGM_CORE_OPTIMIZER_H_
#define FGM_CORE_OPTIMIZER_H_

#include <cstdint>
#include <vector>

namespace fgm {

/// Per-site rate estimates from the previous round.
struct SiteRates {
  double alpha = 0.0;  ///< full-function growth rate (per global update)
  double beta = 0.0;   ///< cheap-bound growth rate
  double gamma = 0.0;  ///< fraction of global updates arriving here
  bool active = true;  ///< false when the site saw no updates (forced d=0)
};

struct RoundPlan {
  std::vector<uint8_t> full_function;  ///< d_i: 1 = ship φ, 0 = ship cheap b
  double predicted_length = 0.0;       ///< τ(d) in updates
  double predicted_gain = 0.0;         ///< g(d) - C in words
  double predicted_rate = 0.0;         ///< (g(d) - C)/τ(d), the objective
};

/// Live fleet-health view of the link costs (fed by obs/health.h): a
/// per-site multiplicative factor (≥ 1) on the D-word cost of shipping
/// the full function — lossy links retransmit, so their shipments cost
/// 1/(1-p)·D expected words; down/slow links are penalized further. Null
/// pointer or empty vector ⇒ uniform cost 1, which reproduces the
/// cost model (and the plan) of the health-blind optimizer bit-exactly.
struct HealthView {
  std::vector<double> ship_cost;
};

/// Computes the rate-maximizing plan. `dimension` is D (words to ship E);
/// `round_overhead_words` is the fixed per-round cost C (0 recovers the
/// paper's per-round gain objective up to the 1/τ normalization). When
/// `health` carries per-site ship costs, candidate sites are ranked by
/// θ_i per unit cost and each selected site is charged cost_i·D.
RoundPlan OptimizeRoundPlan(const std::vector<SiteRates>& rates,
                            int64_t dimension,
                            double round_overhead_words = 0.0,
                            const HealthView* health = nullptr);

/// Derives the rate estimates from the previous round's observations
/// (§4.2.4): `phi_zero` = φ(0) < 0 of the previous round's function,
/// `phi_end[i]` = φ(X_i) at round end, `drift_norm[i]` = ‖X_i‖ at round
/// end, `site_updates[i]` = updates received by site i; τ = Σ updates.
/// Enforces 0 < α_i ≤ β_i.
std::vector<SiteRates> EstimateSiteRates(
    double phi_zero, const std::vector<double>& phi_end,
    const std::vector<double>& drift_norm,
    const std::vector<int64_t>& site_updates);

}  // namespace fgm

#endif  // FGM_CORE_OPTIMIZER_H_
