#include "safezone/norm_threshold.h"

#include <cmath>

#include "util/check.h"

namespace fgm {

namespace {

// Maintains Σ_j |x_j + E_j|^p by replacing the contribution of the touched
// coordinate: O(1) per delta. The perspective for p != 2 has no closed
// incremental form (‖x/λ + E‖_p mixes scales per-coordinate), so
// ValueAtScale recomputes in O(D); p == 2 uses the ball-style O(1) path.
class LpEvaluator : public VectorDriftEvaluator {
 public:
  explicit LpEvaluator(const LpNormThreshold* fn)
      : VectorDriftEvaluator(fn->dimension()),
        fn_(fn),
        is_l2_(fn->p() == 2.0),
        ref_sq_(is_l2_ ? fn->reference().SquaredNorm() : 0.0) {
    Reset();
  }

  void ApplyDelta(size_t index, double delta) override {
    const double e = fn_->reference()[index];
    if (is_l2_) {
      q_ += (2.0 * x_[index] + delta) * delta;
      d_ += e * delta;
    } else {
      const double old_v = x_[index] + e;
      const double new_v = old_v + delta;
      psum_ += std::pow(std::fabs(new_v), fn_->p()) -
               std::pow(std::fabs(old_v), fn_->p());
    }
    x_[index] += delta;
  }

  double Value() const override {
    if (is_l2_) {
      const double arg = q_ + 2.0 * d_ + ref_sq_;
      return std::sqrt(std::max(arg, 0.0)) - fn_->threshold();
    }
    return std::pow(std::max(psum_, 0.0), 1.0 / fn_->p()) - fn_->threshold();
  }

  double ValueAtScale(double lambda) const override {
    if (is_l2_) {
      const double arg = q_ + 2.0 * lambda * d_ + lambda * lambda * ref_sq_;
      return std::sqrt(std::max(arg, 0.0)) - lambda * fn_->threshold();
    }
    return PerspectiveEval(*fn_, x_, lambda);
  }

  void Reset() override {
    x_.SetZero();
    q_ = 0.0;
    d_ = 0.0;
    psum_ = 0.0;
    if (!is_l2_) {
      for (size_t i = 0; i < fn_->dimension(); ++i) {
        psum_ += std::pow(std::fabs(fn_->reference()[i]), fn_->p());
      }
    }
  }

 private:
  const LpNormThreshold* fn_;
  bool is_l2_;
  double ref_sq_;
  double q_ = 0.0;     // ‖x‖²            (p == 2)
  double d_ = 0.0;     // x·E             (p == 2)
  double psum_ = 0.0;  // Σ|x_j + E_j|^p  (p != 2)
};

}  // namespace

LpNormThreshold::LpNormThreshold(RealVector reference, double p,
                                 double threshold)
    : reference_(std::move(reference)), p_(p), threshold_(threshold) {
  FGM_CHECK_GE(p, 1.0);
  FGM_CHECK_GT(threshold, reference_.LpNorm(p));
}

double LpNormThreshold::Eval(const RealVector& x) const {
  FGM_CHECK_EQ(x.dim(), reference_.dim());
  RealVector shifted = x;
  shifted += reference_;
  return shifted.LpNorm(p_) - threshold_;
}

double LpNormThreshold::AtZero() const {
  return reference_.LpNorm(p_) - threshold_;
}

std::unique_ptr<DriftEvaluator> LpNormThreshold::MakeEvaluator() const {
  return std::make_unique<LpEvaluator>(this);
}

double LpNormThreshold::LipschitzBound() const {
  if (p_ >= 2.0) return 1.0;
  // ‖v‖_p <= D^{1/p - 1/2} ‖v‖_2 for 1 <= p < 2.
  return std::pow(static_cast<double>(dimension()), 1.0 / p_ - 0.5);
}

}  // namespace fgm
