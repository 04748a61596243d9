#include "safezone/compose.h"

#include <algorithm>

#include "safezone/ball.h"
#include "safezone/halfspace.h"
#include "util/check.h"

namespace fgm {

namespace {

// Forwards deltas to one child evaluator each; for λ > 0,
//   λ·max_i φ_i(x/λ) = max_i λφ_i(x/λ)  and  λ·Σφ_i(x/λ) = Σ λφ_i(x/λ),
// so perspectives compose child-wise. The drift vector is read from the
// first child (all children hold identical drifts).
class ComposedEvaluator : public DriftEvaluator {
 public:
  ComposedEvaluator(std::vector<std::unique_ptr<DriftEvaluator>> children,
                    bool is_max)
      : children_(std::move(children)), is_max_(is_max) {
    FGM_CHECK(!children_.empty());
  }

  void ApplyDelta(size_t index, double delta) override {
    for (auto& child : children_) child->ApplyDelta(index, delta);
  }

  double Value() const override { return ValueAtScale(1.0); }

  double ValueAtScale(double lambda) const override {
    double acc = children_[0]->ValueAtScale(lambda);
    for (size_t i = 1; i < children_.size(); ++i) {
      const double v = children_[i]->ValueAtScale(lambda);
      acc = is_max_ ? std::max(acc, v) : acc + v;
    }
    return acc;
  }

  void Reset() override {
    for (auto& child : children_) child->Reset();
  }

  const RealVector& drift() const override { return children_[0]->drift(); }

 private:
  std::vector<std::unique_ptr<DriftEvaluator>> children_;
  bool is_max_;
};

void CheckChildren(
    const std::vector<std::unique_ptr<SafeFunction>>& children) {
  FGM_CHECK(!children.empty());
  for (const auto& child : children) {
    FGM_CHECK(child != nullptr);
    FGM_CHECK_EQ(child->dimension(), children[0]->dimension());
  }
}

std::unique_ptr<DriftEvaluator> MakeComposedEvaluator(
    const std::vector<std::unique_ptr<SafeFunction>>& children, bool is_max) {
  std::vector<std::unique_ptr<DriftEvaluator>> evals;
  evals.reserve(children.size());
  for (const auto& child : children) evals.push_back(child->MakeEvaluator());
  return std::make_unique<ComposedEvaluator>(std::move(evals), is_max);
}

}  // namespace

MaxComposition::MaxComposition(
    std::vector<std::unique_ptr<SafeFunction>> children)
    : children_(std::move(children)) {
  CheckChildren(children_);
}

size_t MaxComposition::dimension() const { return children_[0]->dimension(); }

double MaxComposition::Eval(const RealVector& x) const {
  double acc = children_[0]->Eval(x);
  for (size_t i = 1; i < children_.size(); ++i) {
    acc = std::max(acc, children_[i]->Eval(x));
  }
  return acc;
}

double MaxComposition::AtZero() const {
  double acc = children_[0]->AtZero();
  for (size_t i = 1; i < children_.size(); ++i) {
    acc = std::max(acc, children_[i]->AtZero());
  }
  return acc;
}

std::unique_ptr<DriftEvaluator> MaxComposition::MakeEvaluator() const {
  return MakeComposedEvaluator(children_, /*is_max=*/true);
}

double MaxComposition::LipschitzBound() const {
  double acc = 0.0;
  for (const auto& child : children_) {
    acc = std::max(acc, child->LipschitzBound());
  }
  return acc;
}

SumComposition::SumComposition(
    std::vector<std::unique_ptr<SafeFunction>> children)
    : children_(std::move(children)) {
  CheckChildren(children_);
}

size_t SumComposition::dimension() const { return children_[0]->dimension(); }

double SumComposition::Eval(const RealVector& x) const {
  double acc = 0.0;
  for (const auto& child : children_) acc += child->Eval(x);
  return acc;
}

double SumComposition::AtZero() const {
  double acc = 0.0;
  for (const auto& child : children_) acc += child->AtZero();
  return acc;
}

std::unique_ptr<DriftEvaluator> SumComposition::MakeEvaluator() const {
  return MakeComposedEvaluator(children_, /*is_max=*/false);
}

double SumComposition::LipschitzBound() const {
  double acc = 0.0;
  for (const auto& child : children_) acc += child->LipschitzBound();
  return acc;
}

std::unique_ptr<SafeFunction> MakeF2TwoSided(const RealVector& reference,
                                             double epsilon) {
  const double norm = reference.Norm();
  FGM_CHECK_GT(norm, 0.0);
  FGM_CHECK_GT(epsilon, 0.0);
  std::vector<std::unique_ptr<SafeFunction>> children;
  // Lower bound ‖S‖ ≥ (1-ε)‖E‖: halfspace tangent to the inner ball at the
  // projection of E, φ(x) = -ε‖E‖ - x·E/‖E‖.
  children.push_back(std::make_unique<HalfspaceSafeFunction>(
      reference, -epsilon * norm));
  // Upper bound ‖S‖ ≤ (1+ε)‖E‖: the ball φ(x) = ‖x+E‖ - (1+ε)‖E‖.
  children.push_back(std::make_unique<BallSafeFunction>(
      reference, (1.0 + epsilon) * norm));
  return std::make_unique<MaxComposition>(std::move(children));
}

}  // namespace fgm
