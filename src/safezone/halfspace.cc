#include "safezone/halfspace.h"

#include "util/check.h"

namespace fgm {

namespace {

// λφ(x/λ) = λβ - n·x: the linear term does not rescale, so the
// perspective only scales the offset. O(1) per delta and evaluation.
class HalfspaceEvaluator : public VectorDriftEvaluator {
 public:
  explicit HalfspaceEvaluator(const HalfspaceSafeFunction* fn)
      : VectorDriftEvaluator(fn->dimension()), fn_(fn) {}

  void ApplyDelta(size_t index, double delta) override {
    s_ += fn_->unit_normal()[index] * delta;
    x_[index] += delta;
  }

  double Value() const override { return fn_->offset() - s_; }

  double ValueAtScale(double lambda) const override {
    return lambda * fn_->offset() - s_;
  }

  void Reset() override {
    x_.SetZero();
    s_ = 0.0;
  }

 private:
  const HalfspaceSafeFunction* fn_;
  double s_ = 0.0;  // n·x
};

}  // namespace

HalfspaceSafeFunction::HalfspaceSafeFunction(RealVector normal, double offset)
    : normal_(std::move(normal)) {
  const double len = normal_.Norm();
  FGM_CHECK_GT(len, 0.0);
  normal_ *= 1.0 / len;
  // The caller specifies the offset for the *normalized* constraint.
  offset_ = offset;
  FGM_CHECK_LT(offset_, 0.0);
}

double HalfspaceSafeFunction::Eval(const RealVector& x) const {
  return offset_ - normal_.Dot(x);
}

std::unique_ptr<DriftEvaluator> HalfspaceSafeFunction::MakeEvaluator() const {
  return std::make_unique<HalfspaceEvaluator>(this);
}

}  // namespace fgm
