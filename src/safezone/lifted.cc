#include "safezone/lifted.h"

#include "util/check.h"

namespace fgm {

namespace {

// Owns the full-width drift; forwards only the block's deltas to the
// inner evaluator. Coordinates outside the block cannot affect the inner
// value, so Value/ValueAtScale delegate directly.
class LiftedEvaluator : public VectorDriftEvaluator {
 public:
  LiftedEvaluator(const LiftedSafeFunction* fn,
                  std::unique_ptr<DriftEvaluator> inner)
      : VectorDriftEvaluator(fn->dimension()),
        fn_(fn),
        inner_(std::move(inner)) {}

  void ApplyDelta(size_t index, double delta) override {
    x_[index] += delta;
    const size_t offset = fn_->offset();
    if (index >= offset && index < offset + fn_->inner().dimension()) {
      inner_->ApplyDelta(index - offset, delta);
    }
  }

  double Value() const override { return inner_->Value(); }
  double ValueAtScale(double lambda) const override {
    return inner_->ValueAtScale(lambda);
  }

  void Reset() override {
    x_.SetZero();
    inner_->Reset();
  }

 private:
  const LiftedSafeFunction* fn_;
  std::unique_ptr<DriftEvaluator> inner_;
};

}  // namespace

LiftedSafeFunction::LiftedSafeFunction(std::unique_ptr<SafeFunction> inner,
                                       size_t offset, size_t total_dim)
    : inner_(std::move(inner)), offset_(offset), total_dim_(total_dim) {
  FGM_CHECK(inner_ != nullptr);
  FGM_CHECK_LE(offset_ + inner_->dimension(), total_dim_);
}

double LiftedSafeFunction::Eval(const RealVector& x) const {
  FGM_CHECK_EQ(x.dim(), total_dim_);
  RealVector block(inner_->dimension());
  for (size_t i = 0; i < block.dim(); ++i) block[i] = x[offset_ + i];
  return inner_->Eval(block);
}

std::unique_ptr<DriftEvaluator> LiftedSafeFunction::MakeEvaluator() const {
  return std::make_unique<LiftedEvaluator>(this, inner_->MakeEvaluator());
}

}  // namespace fgm
