#include "safezone/selfjoin_sz.h"

#include <algorithm>
#include <cmath>
#include <limits>

#include "util/check.h"

namespace fgm {

namespace {
constexpr double kNegInf = -std::numeric_limits<double>::infinity();
}  // namespace

class SelfJoinEvaluator final : public VectorDriftEvaluator {
 public:
  explicit SelfJoinEvaluator(const SelfJoinSafeFunction* fn)
      : VectorDriftEvaluator(fn->dimension()),
        fn_(fn),
        depth_(fn->projection().depth()),
        width_(fn->projection().width()),
        qx_(static_cast<size_t>(depth_), 0.0),
        dxe_(static_cast<size_t>(depth_), 0.0),
        upper_scratch_(fn->upper_rows_.size()),
        lower_scratch_(fn->lower_rows_.size()) {}

  void ApplyDelta(size_t index, double delta) override {
    const size_t row = index / static_cast<size_t>(width_);
    qx_[row] += (2.0 * x_[index] + delta) * delta;
    dxe_[row] += fn_->reference()[index] * delta;
    x_[index] += delta;
  }

  // The class is final, so the calls below bind statically and inline:
  // one virtual call per record instead of depth (+ 1).
  void ApplyDeltasOnly(const CellUpdate* cells, size_t n) override {
    for (size_t i = 0; i < n; ++i) ApplyDelta(cells[i].index, cells[i].delta);
  }

  double ApplyDeltas(const CellUpdate* cells, size_t n,
                     double lambda) override {
    ApplyDeltasOnly(cells, n);
    return ValueAtScale(lambda);
  }

  double Value() const override { return ValueAtScale(1.0); }

  double ValueAtScale(double lambda) const override {
    for (size_t j = 0; j < fn_->upper_rows_.size(); ++j) {
      const size_t r = static_cast<size_t>(fn_->upper_rows_[j]);
      upper_scratch_[j] = fn_->UpperRowValue(static_cast<int>(r), qx_[r],
                                             dxe_[r], lambda);
    }
    for (size_t j = 0; j < fn_->lower_rows_.size(); ++j) {
      const size_t r = static_cast<size_t>(fn_->lower_rows_[j]);
      lower_scratch_[j] =
          fn_->LowerRowValue(static_cast<int>(r), dxe_[r], lambda);
    }
    return fn_->ComposeSides(upper_scratch_, lower_scratch_);
  }

  void Reset() override {
    x_.SetZero();
    std::fill(qx_.begin(), qx_.end(), 0.0);
    std::fill(dxe_.begin(), dxe_.end(), 0.0);
  }

  // At zero drift the row primitives are 0 for every reference, so a
  // function of the same sketch shape only swaps fn_ and resizes the
  // per-side scratch.
  bool Rebind(const SafeFunction& fn) override {
    const auto* next = dynamic_cast<const SelfJoinSafeFunction*>(&fn);
    if (next == nullptr || next->dimension() != x_.dim() ||
        next->projection().depth() != depth_ ||
        next->projection().width() != width_) {
      return false;
    }
    fn_ = next;
    upper_scratch_.resize(next->upper_rows_.size());
    lower_scratch_.resize(next->lower_rows_.size());
    return true;
  }

 private:
  const SelfJoinSafeFunction* fn_;
  int depth_;
  int width_;
  std::vector<double> qx_;   // per-row ‖x_i‖²
  std::vector<double> dxe_;  // per-row x_i·E[i]
  mutable std::vector<double> upper_scratch_;
  mutable std::vector<double> lower_scratch_;
};

SelfJoinSafeFunction::SelfJoinSafeFunction(
    std::shared_ptr<const AgmsProjection> projection, RealVector reference,
    double t_lo, double t_hi)
    : projection_(std::move(projection)),
      reference_(std::move(reference)),
      t_lo_(t_lo),
      t_hi_(t_hi) {
  const int d = projection_->depth();
  const int w = projection_->width();
  FGM_CHECK_EQ(reference_.dim(), projection_->dimension());
  FGM_CHECK_EQ(d % 2, 1);  // the median composition needs odd depth
  FGM_CHECK_GT(t_hi_, 0.0);
  FGM_CHECK_LT(t_lo_, t_hi_);
  sqrt_t_hi_ = std::sqrt(t_hi_);
  sqrt_t_lo_ = t_lo_ > 0.0 ? std::sqrt(t_lo_) : 0.0;

  row_norm_.resize(static_cast<size_t>(d));
  std::vector<double> upper_weights;
  std::vector<double> lower_weights;
  for (int r = 0; r < d; ++r) {
    double sq = 0.0;
    const size_t base = static_cast<size_t>(r) * static_cast<size_t>(w);
    for (int j = 0; j < w; ++j) {
      const double v = reference_[base + static_cast<size_t>(j)];
      sq += v * v;
    }
    const double norm = std::sqrt(sq);
    row_norm_[static_cast<size_t>(r)] = norm;
    // Rows within floating-point noise of a threshold are excluded: their
    // weight |φ_r(0)| would be ~0 and the composition degenerate.
    const double weight_floor = 1e-10 * (1.0 + norm);
    if (sq < t_hi_ && sqrt_t_hi_ - norm > weight_floor) {
      upper_rows_.push_back(r);
      upper_weights.push_back(sqrt_t_hi_ - norm);  // |φ⁺_r(0)|
    }
    if (t_lo_ > 0.0 && sq > t_lo_ && norm - sqrt_t_lo_ > weight_floor) {
      lower_rows_.push_back(r);
      lower_weights.push_back(norm - sqrt_t_lo_);  // |φ⁻_r(0)|
    }
  }

  // Subset size |D±| - (d-1)/2; positivity is guaranteed when the
  // reference satisfies T_lo < Q1(E) < T_hi (at least (d+1)/2 rows on
  // each active side).
  const int half = (d - 1) / 2;
  const int m_up = static_cast<int>(upper_rows_.size()) - half;
  FGM_CHECK_GE(m_up, 1);
  upper_ = MedianComposition(std::move(upper_weights), m_up);
  if (t_lo_ > 0.0) {
    const int m_lo = static_cast<int>(lower_rows_.size()) - half;
    FGM_CHECK_GE(m_lo, 1);
    lower_ = MedianComposition(std::move(lower_weights), m_lo);
  }

  at_zero_ = upper_.AtZero();
  if (!lower_.empty()) at_zero_ = std::max(at_zero_, lower_.AtZero());
  FGM_CHECK_LT(at_zero_, 0.0);
}

double SelfJoinSafeFunction::UpperRowValue(int row, double q, double dot,
                                           double lambda) const {
  // λφ⁺(x/λ) = √(‖x‖² + 2λ x·E + λ²‖E‖²) - λ√T_hi.
  const double e = row_norm_[static_cast<size_t>(row)];
  const double arg = q + 2.0 * lambda * dot + lambda * lambda * e * e;
  return std::sqrt(std::max(arg, 0.0)) - lambda * sqrt_t_hi_;
}

double SelfJoinSafeFunction::LowerRowValue(int row, double dot,
                                           double lambda) const {
  // λφ⁻(x/λ) = λ(√T_lo - ‖E‖) - x·E/‖E‖.
  const double e = row_norm_[static_cast<size_t>(row)];
  return lambda * (sqrt_t_lo_ - e) - dot / e;
}

double SelfJoinSafeFunction::ComposeSides(
    const std::vector<double>& upper_values,
    const std::vector<double>& lower_values) const {
  double value = upper_.Compose(upper_values);
  if (!lower_.empty()) {
    value = std::max(value, lower_.Compose(lower_values));
  }
  return value;
}

double SelfJoinSafeFunction::Eval(const RealVector& x) const {
  FGM_CHECK_EQ(x.dim(), dimension());
  const int w = projection_->width();
  std::vector<double> upper_values(upper_rows_.size(), kNegInf);
  std::vector<double> lower_values(lower_rows_.size(), kNegInf);
  auto row_primitives = [&](int r, double* q, double* dot) {
    const size_t base = static_cast<size_t>(r) * static_cast<size_t>(w);
    double qq = 0.0, dd = 0.0;
    for (int j = 0; j < w; ++j) {
      const double xv = x[base + static_cast<size_t>(j)];
      qq += xv * xv;
      dd += xv * reference_[base + static_cast<size_t>(j)];
    }
    *q = qq;
    *dot = dd;
  };
  for (size_t j = 0; j < upper_rows_.size(); ++j) {
    double q, dot;
    row_primitives(upper_rows_[j], &q, &dot);
    upper_values[j] = UpperRowValue(upper_rows_[j], q, dot, 1.0);
  }
  for (size_t j = 0; j < lower_rows_.size(); ++j) {
    double q, dot;
    row_primitives(lower_rows_[j], &q, &dot);
    lower_values[j] = LowerRowValue(lower_rows_[j], dot, 1.0);
  }
  return ComposeSides(upper_values, lower_values);
}

std::unique_ptr<DriftEvaluator> SelfJoinSafeFunction::MakeEvaluator() const {
  return std::make_unique<SelfJoinEvaluator>(this);
}

}  // namespace fgm
