#include "safezone/ball.h"

#include <cmath>

#include "util/check.h"

namespace fgm {

namespace {

// Incremental state: q = ‖x‖², d = x·c. Then for the perspective,
//   λφ(x/λ) = √(q + 2λd + λ²‖c‖²) - λr,
// which reduces to φ(x) at λ = 1. O(1) per delta and per evaluation.
class BallEvaluator : public VectorDriftEvaluator {
 public:
  explicit BallEvaluator(const BallSafeFunction* fn)
      : VectorDriftEvaluator(fn->dimension()),
        fn_(fn),
        center_sq_(fn->center().SquaredNorm()) {}

  void ApplyDelta(size_t index, double delta) override {
    q_ += (2.0 * x_[index] + delta) * delta;
    d_ += fn_->center()[index] * delta;
    x_[index] += delta;
  }

  double Value() const override { return ValueAtScale(1.0); }

  double ValueAtScale(double lambda) const override {
    const double arg = q_ + 2.0 * lambda * d_ + lambda * lambda * center_sq_;
    return std::sqrt(std::max(arg, 0.0)) - lambda * fn_->radius();
  }

  void Reset() override {
    x_.SetZero();
    q_ = 0.0;
    d_ = 0.0;
  }

 private:
  const BallSafeFunction* fn_;
  double center_sq_;
  double q_ = 0.0;
  double d_ = 0.0;
};

}  // namespace

BallSafeFunction::BallSafeFunction(RealVector center, double radius)
    : center_(std::move(center)), radius_(radius) {
  FGM_CHECK_GT(radius, center_.Norm());
}

double BallSafeFunction::Eval(const RealVector& x) const {
  FGM_CHECK_EQ(x.dim(), center_.dim());
  double acc = 0.0;
  for (size_t i = 0; i < x.dim(); ++i) {
    const double v = x[i] + center_[i];
    acc += v * v;
  }
  return std::sqrt(acc) - radius_;
}

double BallSafeFunction::AtZero() const { return center_.Norm() - radius_; }

std::unique_ptr<DriftEvaluator> BallSafeFunction::MakeEvaluator() const {
  return std::make_unique<BallEvaluator>(this);
}

}  // namespace fgm
