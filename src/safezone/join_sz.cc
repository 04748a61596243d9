#include "safezone/join_sz.h"

#include <algorithm>
#include <cmath>

#include "util/check.h"

namespace fgm {

class JoinEvaluator : public VectorDriftEvaluator {
 public:
  explicit JoinEvaluator(const JoinSafeFunction* fn)
      : VectorDriftEvaluator(fn->dimension()),
        fn_(fn),
        half_dim_(fn->projection().dimension()),
        width_(fn->projection().width()),
        qdu_(static_cast<size_t>(fn->projection().depth()), 0.0),
        udu_(qdu_),
        qdv_(qdu_),
        vdv_(qdu_),
        upper_scratch_(fn->upper_forms_.size()),
        lower_scratch_(fn->lower_forms_.size()) {}

  void ApplyDelta(size_t index, double delta) override {
    const bool first = index < half_dim_;
    const size_t idx0 = first ? index : index - half_dim_;
    const size_t row = idx0 / static_cast<size_t>(width_);
    const double du_old = x_[idx0] + x_[half_dim_ + idx0];
    const double dv_old = x_[idx0] - x_[half_dim_ + idx0];
    const double du_delta = delta;
    const double dv_delta = first ? delta : -delta;
    qdu_[row] += (2.0 * du_old + du_delta) * du_delta;
    qdv_[row] += (2.0 * dv_old + dv_delta) * dv_delta;
    udu_[row] += fn_->u_ref_[idx0] * du_delta;
    vdv_[row] += fn_->v_ref_[idx0] * dv_delta;
    x_[index] += delta;
  }

  double Value() const override { return ValueAtScale(1.0); }

  double ValueAtScale(double lambda) const override {
    for (size_t j = 0; j < fn_->upper_forms_.size(); ++j) {
      const auto& form = fn_->upper_forms_[j];
      const size_t r = static_cast<size_t>(form.row);
      upper_scratch_[j] =
          fn_->RowValue(form, qdu_[r], udu_[r], qdv_[r], vdv_[r], lambda);
    }
    for (size_t j = 0; j < fn_->lower_forms_.size(); ++j) {
      const auto& form = fn_->lower_forms_[j];
      const size_t r = static_cast<size_t>(form.row);
      lower_scratch_[j] =
          fn_->RowValue(form, qdu_[r], udu_[r], qdv_[r], vdv_[r], lambda);
    }
    return fn_->ComposeSides(upper_scratch_, lower_scratch_);
  }

  void Reset() override {
    x_.SetZero();
    std::fill(qdu_.begin(), qdu_.end(), 0.0);
    std::fill(udu_.begin(), udu_.end(), 0.0);
    std::fill(qdv_.begin(), qdv_.end(), 0.0);
    std::fill(vdv_.begin(), vdv_.end(), 0.0);
  }

  // At zero drift the row primitives are 0 for every reference, so a
  // function of the same sketch shape only swaps fn_ and resizes the
  // per-side scratch.
  bool Rebind(const SafeFunction& fn) override {
    const auto* next = dynamic_cast<const JoinSafeFunction*>(&fn);
    if (next == nullptr || next->dimension() != x_.dim() ||
        next->projection().depth() != static_cast<int>(qdu_.size()) ||
        next->projection().width() != width_) {
      return false;
    }
    fn_ = next;
    upper_scratch_.resize(next->upper_forms_.size());
    lower_scratch_.resize(next->lower_forms_.size());
    return true;
  }

 private:
  const JoinSafeFunction* fn_;
  size_t half_dim_;
  int width_;
  std::vector<double> qdu_;  // per-row ‖du‖², du = x1_row + x2_row
  std::vector<double> udu_;  // per-row U·du
  std::vector<double> qdv_;  // per-row ‖dv‖², dv = x1_row - x2_row
  std::vector<double> vdv_;  // per-row V·dv
  mutable std::vector<double> upper_scratch_;
  mutable std::vector<double> lower_scratch_;
};

bool JoinSafeFunction::MakeRowForm(int row, bool p_is_u, double c,
                                   double p_ref_sq, double q_ref_sq,
                                   RowForm* out) {
  // The row participates only when the reference satisfies the condition
  // strictly: ‖P_ref‖² - ‖Q_ref‖² < c.
  if (!(p_ref_sq - q_ref_sq < c)) return false;
  out->row = row;
  out->p_is_u = p_is_u;
  out->c = c;
  out->p_ref_sq = p_ref_sq;
  out->q_ref = std::sqrt(q_ref_sq);
  if (c >= 0.0) {
    out->tangent = true;
    out->r0 = std::sqrt(c + q_ref_sq);
    // Strict membership with c = 0 forces ‖Q_ref‖ > 0, so r0 > 0 here.
    FGM_CHECK_GT(out->r0, 0.0);
  } else {
    out->tangent = false;
    // Strict membership with c < 0 forces ‖Q_ref‖² > |c| + ‖P_ref‖² > 0.
    FGM_CHECK_GT(out->q_ref, 0.0);
  }
  return true;
}

double JoinSafeFunction::RowValue(const RowForm& form, double qdu, double udu,
                                  double qdv, double vdv,
                                  double lambda) const {
  // Select the primitives of p and q from the u/v roles of this form.
  const double pq = form.p_is_u ? qdu : qdv;   // ‖dp‖²
  const double pd = form.p_is_u ? udu : vdv;   // P_ref·dp
  const double qd = form.p_is_u ? vdv : udu;   // Q_ref·dq
  double value;
  if (form.tangent) {
    // λf(x/λ) = √(‖dp‖² + 2λP·dp + λ²‖P‖²) - (λr0 + Q_ref·dq / r0),
    // using s0·(q̂·dq) = Q_ref·dq and (c+s0²)/r0 = r0.
    const double arg =
        pq + 2.0 * lambda * pd + lambda * lambda * form.p_ref_sq;
    value = std::sqrt(std::max(arg, 0.0)) -
            (lambda * form.r0 + qd / form.r0);
  } else {
    // λf(x/λ) = √(λ²|c| + ‖dp‖² + 2λP·dp + λ²‖P‖²)
    //           - (λ‖Q_ref‖ + Q_ref·dq/‖Q_ref‖).
    const double arg = lambda * lambda * (-form.c + form.p_ref_sq) + pq +
                       2.0 * lambda * pd;
    value = std::sqrt(std::max(arg, 0.0)) -
            (lambda * form.q_ref + qd / form.q_ref);
  }
  // The factor 1/2 normalizes the row function to be nonexpansive in the
  // drift coordinates (the u/v rotation has gain √2 and the two terms add
  // another √2).
  return 0.5 * value;
}

double JoinSafeFunction::ComposeSides(
    const std::vector<double>& upper_values,
    const std::vector<double>& lower_values) const {
  const double up = upper_.Compose(upper_values);
  const double lo = lower_.Compose(lower_values);
  return std::max(up, lo);
}

JoinSafeFunction::JoinSafeFunction(
    std::shared_ptr<const AgmsProjection> projection, RealVector reference,
    double t_lo, double t_hi)
    : projection_(std::move(projection)),
      reference_(std::move(reference)),
      t_lo_(t_lo),
      t_hi_(t_hi) {
  const int d = projection_->depth();
  const int w = projection_->width();
  const size_t half = projection_->dimension();
  FGM_CHECK_EQ(reference_.dim(), 2 * half);
  FGM_CHECK_EQ(d % 2, 1);
  FGM_CHECK_LT(t_lo_, t_hi_);

  u_ref_ = RealVector(half);
  v_ref_ = RealVector(half);
  for (size_t i = 0; i < half; ++i) {
    u_ref_[i] = reference_[i] + reference_[half + i];
    v_ref_[i] = reference_[i] - reference_[half + i];
  }

  std::vector<double> upper_weights;
  std::vector<double> lower_weights;
  for (int r = 0; r < d; ++r) {
    const size_t base = static_cast<size_t>(r) * static_cast<size_t>(w);
    double u_sq = 0.0, v_sq = 0.0;
    for (int j = 0; j < w; ++j) {
      u_sq += u_ref_[base + static_cast<size_t>(j)] *
              u_ref_[base + static_cast<size_t>(j)];
      v_sq += v_ref_[base + static_cast<size_t>(j)] *
              v_ref_[base + static_cast<size_t>(j)];
    }
    RowForm form;
    // Rows whose reference value sits within floating-point noise of a
    // threshold would get a ~zero weight; they are excluded (the median
    // composition then relies on the remaining, strictly-inside rows).
    const double weight_floor =
        1e-10 * (1.0 + std::sqrt(u_sq) + std::sqrt(v_sq));
    // Upper side: ‖u‖² - ‖v‖² ≤ 4T_hi.
    if (MakeRowForm(r, /*p_is_u=*/true, 4.0 * t_hi_, u_sq, v_sq, &form)) {
      const double f0 = RowValue(form, 0.0, 0.0, 0.0, 0.0, 1.0);
      if (f0 < -weight_floor) {
        upper_forms_.push_back(form);
        upper_weights.push_back(-f0);
      }
    }
    // Lower side: ‖v‖² - ‖u‖² ≤ -4T_lo.
    if (MakeRowForm(r, /*p_is_u=*/false, -4.0 * t_lo_, v_sq, u_sq, &form)) {
      const double f0 = RowValue(form, 0.0, 0.0, 0.0, 0.0, 1.0);
      if (f0 < -weight_floor) {
        lower_forms_.push_back(form);
        lower_weights.push_back(-f0);
      }
    }
  }

  const int half_rows = (d - 1) / 2;
  const int m_up = static_cast<int>(upper_forms_.size()) - half_rows;
  const int m_lo = static_cast<int>(lower_forms_.size()) - half_rows;
  FGM_CHECK_GE(m_up, 1);
  FGM_CHECK_GE(m_lo, 1);
  upper_ = MedianComposition(std::move(upper_weights), m_up);
  lower_ = MedianComposition(std::move(lower_weights), m_lo);

  at_zero_ = std::max(upper_.AtZero(), lower_.AtZero());
  FGM_CHECK_LT(at_zero_, 0.0);
}

double JoinSafeFunction::Eval(const RealVector& x) const {
  FGM_CHECK_EQ(x.dim(), dimension());
  const int w = projection_->width();
  const size_t half = projection_->dimension();
  const int d = projection_->depth();
  // Per-row primitives computed from scratch.
  std::vector<double> qdu(static_cast<size_t>(d), 0.0);
  std::vector<double> udu(qdu), qdv(qdu), vdv(qdu);
  for (int r = 0; r < d; ++r) {
    const size_t base = static_cast<size_t>(r) * static_cast<size_t>(w);
    for (int j = 0; j < w; ++j) {
      const size_t i = base + static_cast<size_t>(j);
      const double du = x[i] + x[half + i];
      const double dv = x[i] - x[half + i];
      qdu[static_cast<size_t>(r)] += du * du;
      qdv[static_cast<size_t>(r)] += dv * dv;
      udu[static_cast<size_t>(r)] += u_ref_[i] * du;
      vdv[static_cast<size_t>(r)] += v_ref_[i] * dv;
    }
  }
  std::vector<double> upper_values(upper_forms_.size());
  std::vector<double> lower_values(lower_forms_.size());
  for (size_t j = 0; j < upper_forms_.size(); ++j) {
    const auto& form = upper_forms_[j];
    const size_t r = static_cast<size_t>(form.row);
    upper_values[j] = RowValue(form, qdu[r], udu[r], qdv[r], vdv[r], 1.0);
  }
  for (size_t j = 0; j < lower_forms_.size(); ++j) {
    const auto& form = lower_forms_[j];
    const size_t r = static_cast<size_t>(form.row);
    lower_values[j] = RowValue(form, qdu[r], udu[r], qdv[r], vdv[r], 1.0);
  }
  return ComposeSides(upper_values, lower_values);
}

std::unique_ptr<DriftEvaluator> JoinSafeFunction::MakeEvaluator() const {
  return std::make_unique<JoinEvaluator>(this);
}

}  // namespace fgm
