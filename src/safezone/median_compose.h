// Weighted median composition of per-row safe functions (paper §5.1.1,
// following Garofalakis & Samoladas, ICDT'17).
//
// Sketch estimates take a median over d rows; the condition
//     median_i{ c_i(S[i]) } ≤ 0
// holds iff at least ⌈d/2⌉ = (d+1)/2 of the per-row conditions hold
// (d odd). Given per-row safe functions φ_i with φ_i(0) < 0 on the set
// D = {rows whose condition holds strictly at the reference}, the
// composed function is
//     φ(X) = max_{I ⊆ D, |I| = |D| - (d-1)/2}
//               Σ_{i∈I} w_i·φ_i(X[i]) / √(Σ_{i∈I} w_i²),
// with weights w_i = |φ_i(0)|.
//
// Why it is safe: if φ(X) ≤ 0, every such subset has a nonpositive
// weighted sum, so fewer than |I| of the φ_i (i ∈ D) are positive — at
// least |D| - (|I|-1) ≥ (d+1)/2 rows still satisfy their condition, and
// the median condition holds. The 1/√(Σw²) normalization keeps the
// composition nonexpansive (Cauchy–Schwarz across rows) whenever the row
// functions are, and φ(0) = -min_I √(Σ_{i∈I} w_i²) < 0.
//
// d is small (5–9), so the subsets are enumerated explicitly.

#ifndef FGM_SAFEZONE_MEDIAN_COMPOSE_H_
#define FGM_SAFEZONE_MEDIAN_COMPOSE_H_

#include <cstddef>
#include <limits>
#include <vector>

#include "util/check.h"

namespace fgm {

class MedianComposition {
 public:
  /// `weights` are w_i = |φ_i(0)| for the participating rows (all > 0);
  /// `subset_size` is |D| - (d-1)/2 and must be in [1, |D|].
  MedianComposition(std::vector<double> weights, int subset_size);

  /// Empty composition (no rows participate; Compose returns -inf
  /// sentinel). Used when one side of a two-sided bound is trivially true.
  MedianComposition() = default;

  bool empty() const { return inv_norm_.empty(); }
  int subset_size() const { return subset_size_; }

  /// Composed value given the current per-row values (same order as the
  /// weights passed at construction).
  double Compose(const std::vector<double>& row_values) const;

  /// Composed value at zero: -min_I √(Σ_{i∈I} w_i²).
  double AtZero() const { return at_zero_; }

 private:
  size_t rows_ = 0;  // |D|, the number of weights
  int subset_size_ = 0;
  // Subset s occupies entries [s·m, (s+1)·m) of the two flat arrays
  // (m = subset_size_): its row indices into the weights, and their w_i.
  std::vector<int> subset_rows_;
  std::vector<double> subset_weights_;
  std::vector<double> inv_norm_;  // 1/√(Σ w_i²) per subset
  double at_zero_ = 0.0;
};

inline double MedianComposition::Compose(
    const std::vector<double>& row_values) const {
  FGM_CHECK_EQ(row_values.size(), rows_);
  double best = -std::numeric_limits<double>::infinity();
  const size_t m = static_cast<size_t>(subset_size_);
  const int* rows = subset_rows_.data();
  const double* weights = subset_weights_.data();
  for (size_t s = 0; s < inv_norm_.size(); ++s, rows += m, weights += m) {
    double acc = 0.0;
    for (size_t j = 0; j < m; ++j) {
      acc += weights[j] * row_values[static_cast<size_t>(rows[j])];
    }
    const double value = acc * inv_norm_[s];
    if (value > best) best = value;
  }
  return best;
}

}  // namespace fgm

#endif  // FGM_SAFEZONE_MEDIAN_COMPOSE_H_
