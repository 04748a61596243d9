#include "safezone/median_compose.h"

#include <cmath>
#include <limits>

#include "util/check.h"
#include "util/subsets.h"

namespace fgm {

MedianComposition::MedianComposition(std::vector<double> weights,
                                     int subset_size)
    : rows_(weights.size()), subset_size_(subset_size) {
  const int n = static_cast<int>(weights.size());
  FGM_CHECK_GE(subset_size, 1);
  FGM_CHECK_LE(subset_size, n);
  for (double w : weights) FGM_CHECK_GT(w, 0.0);

  at_zero_ = std::numeric_limits<double>::infinity();
  for (const std::vector<int>& rows : EnumerateSubsets(n, subset_size)) {
    double sq = 0.0;
    for (int r : rows) {
      const double w = weights[static_cast<size_t>(r)];
      subset_rows_.push_back(r);
      subset_weights_.push_back(w);
      sq += w * w;
    }
    inv_norm_.push_back(1.0 / std::sqrt(sq));
    // At zero, φ_i(0) = -w_i, so the subset value is -√(Σw²).
    at_zero_ = std::min(at_zero_, std::sqrt(sq));
  }
  at_zero_ = -at_zero_;
}

}  // namespace fgm
