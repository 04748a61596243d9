#include "safezone/cheap_bound.h"

#include <cmath>

#include "util/check.h"

namespace fgm {

namespace {

// λb(x/λ) = L‖x‖ + λa: only the offset rescales. O(1) everywhere.
class CheapBoundEvaluator : public VectorDriftEvaluator {
 public:
  explicit CheapBoundEvaluator(const CheapBoundFunction* fn)
      : VectorDriftEvaluator(fn->dimension()), fn_(fn) {}

  void ApplyDelta(size_t index, double delta) override {
    q_ += (2.0 * x_[index] + delta) * delta;
    x_[index] += delta;
  }

  double Value() const override { return ValueAtScale(1.0); }

  double ValueAtScale(double lambda) const override {
    return fn_->LipschitzBound() * std::sqrt(std::max(q_, 0.0)) +
           lambda * fn_->offset();
  }

  void Reset() override {
    x_.SetZero();
    q_ = 0.0;
  }

 private:
  const CheapBoundFunction* fn_;
  double q_ = 0.0;  // ‖x‖²
};

}  // namespace

CheapBoundFunction::CheapBoundFunction(size_t dimension, double offset,
                                       double lipschitz)
    : dimension_(dimension), offset_(offset), lipschitz_(lipschitz) {
  FGM_CHECK_LT(offset, 0.0);
  FGM_CHECK_GT(lipschitz, 0.0);
}

CheapBoundFunction CheapBoundFunction::For(const SafeFunction& fn) {
  return CheapBoundFunction(fn.dimension(), fn.AtZero(), fn.LipschitzBound());
}

double CheapBoundFunction::Eval(const RealVector& x) const {
  FGM_CHECK_EQ(x.dim(), dimension_);
  return lipschitz_ * x.Norm() + offset_;
}

std::unique_ptr<DriftEvaluator> CheapBoundFunction::MakeEvaluator() const {
  return std::make_unique<CheapBoundEvaluator>(this);
}

}  // namespace fgm
