// Tests for the elementary safe functions: ball, halfspace, Lp-norm
// threshold, cheap bound, and the generic max/sum compositions, plus the
// FGM_PARANOID cross-check wrapper (ParanoidDriftEvaluator).
//
// Property checks shared by all safe functions:
//  * φ(0) < 0;
//  * the safety implication of Def. 2.1 via Lemma 2.4: convexity +
//    0-sublevel containment (checked on random points);
//  * incremental evaluators agree with reference Eval;
//  * perspectives λφ(x/λ) agree with explicit scaling;
//  * nonexpansiveness on random pairs.

#include <cmath>
#include <cstdlib>
#include <memory>
#include <vector>

#include <gtest/gtest.h>

#include "safezone/ball.h"
#include "safezone/cheap_bound.h"
#include "safezone/compose.h"
#include "safezone/halfspace.h"
#include "safezone/norm_threshold.h"
#include "safezone/safe_function.h"
#include "sketch/fast_agms.h"
#include "util/rng.h"

namespace fgm {
namespace {

RealVector RandomVector(size_t dim, double scale, Xoshiro256ss& rng) {
  RealVector v(dim);
  for (size_t i = 0; i < dim; ++i) v[i] = scale * rng.NextGaussian();
  return v;
}

// Shared property harness.
void CheckEvaluatorAgreesWithEval(const SafeFunction& fn, Xoshiro256ss& rng,
                                  int trials = 50) {
  auto eval = fn.MakeEvaluator();
  RealVector x(fn.dimension());
  for (int t = 0; t < trials; ++t) {
    const size_t idx = rng.NextBounded(fn.dimension());
    const double delta = rng.NextGaussian();
    eval->ApplyDelta(idx, delta);
    x[idx] += delta;
    ASSERT_NEAR(eval->Value(), fn.Eval(x),
                1e-7 * (1.0 + std::fabs(fn.Eval(x))))
        << "trial " << t;
    const double lambda = 0.05 + 0.95 * rng.NextDouble();
    ASSERT_NEAR(eval->ValueAtScale(lambda), PerspectiveEval(fn, x, lambda),
                1e-7 * (1.0 + std::fabs(fn.Eval(x))));
  }
  eval->Reset();
  EXPECT_NEAR(eval->Value(), fn.AtZero(), 1e-9);
}

void CheckConvexityOnRandomSegments(const SafeFunction& fn,
                                    Xoshiro256ss& rng, double scale,
                                    int trials = 200) {
  for (int t = 0; t < trials; ++t) {
    const RealVector a = RandomVector(fn.dimension(), scale, rng);
    const RealVector b = RandomVector(fn.dimension(), scale, rng);
    const double theta = rng.NextDouble();
    RealVector mid = a;
    mid *= theta;
    mid.Axpy(1.0 - theta, b);
    const double lhs = fn.Eval(mid);
    const double rhs = theta * fn.Eval(a) + (1.0 - theta) * fn.Eval(b);
    ASSERT_LE(lhs, rhs + 1e-7 * (1.0 + std::fabs(rhs)));
  }
}

void CheckLipschitz(const SafeFunction& fn, Xoshiro256ss& rng, double scale,
                    int trials = 200) {
  const double bound = fn.LipschitzBound();
  for (int t = 0; t < trials; ++t) {
    const RealVector a = RandomVector(fn.dimension(), scale, rng);
    const RealVector b = RandomVector(fn.dimension(), scale, rng);
    const double diff = std::fabs(fn.Eval(a) - fn.Eval(b));
    ASSERT_LE(diff, bound * Distance(a, b) + 1e-9);
  }
}

TEST(Ball, ValuesAndGeometry) {
  BallSafeFunction ball(RealVector{1.0, 2.0}, 5.0);
  EXPECT_DOUBLE_EQ(ball.AtZero(), std::sqrt(5.0) - 5.0);
  // Point on the sphere around -center.
  EXPECT_NEAR(ball.Eval(RealVector{4.0, -2.0}), 0.0, 1e-12);
  EXPECT_LT(ball.Eval(RealVector{-1.0, -2.0}), 0.0);
  EXPECT_GT(ball.Eval(RealVector{10.0, 0.0}), 0.0);
}

TEST(Ball, Properties) {
  Xoshiro256ss rng(1);
  BallSafeFunction ball(RandomVector(8, 1.0, rng), 6.0);
  CheckEvaluatorAgreesWithEval(ball, rng);
  CheckConvexityOnRandomSegments(ball, rng, 4.0);
  CheckLipschitz(ball, rng, 4.0);
}

TEST(Halfspace, ValuesAndGeometry) {
  HalfspaceSafeFunction hs(RealVector{3.0, 4.0}, -2.0);
  EXPECT_DOUBLE_EQ(hs.AtZero(), -2.0);
  // φ(x) = -2 - (3x0+4x1)/5.
  EXPECT_DOUBLE_EQ(hs.Eval(RealVector{5.0, 0.0}), -5.0);
  EXPECT_DOUBLE_EQ(hs.Eval(RealVector{-5.0, 0.0}), 1.0);
}

TEST(Halfspace, Properties) {
  Xoshiro256ss rng(2);
  HalfspaceSafeFunction hs(RandomVector(8, 1.0, rng), -1.5);
  CheckEvaluatorAgreesWithEval(hs, rng);
  CheckConvexityOnRandomSegments(hs, rng, 4.0);
  CheckLipschitz(hs, rng, 4.0);
}

TEST(LpNormThreshold, MatchesClosedForms) {
  LpNormThreshold l2(RealVector{3.0, 4.0}, 2.0, 10.0);
  EXPECT_DOUBLE_EQ(l2.AtZero(), -5.0);
  EXPECT_NEAR(l2.Eval(RealVector{0.0, -4.0}), -7.0, 1e-12);

  LpNormThreshold l1(RealVector{1.0, -1.0}, 1.0, 4.0);
  EXPECT_DOUBLE_EQ(l1.AtZero(), -2.0);
  EXPECT_DOUBLE_EQ(l1.Eval(RealVector{1.0, 1.0}), -2.0);
}

TEST(LpNormThreshold, PropertiesAcrossP) {
  Xoshiro256ss rng(3);
  for (const double p : {1.0, 1.5, 2.0, 3.0}) {
    LpNormThreshold fn(RandomVector(6, 0.5, rng), p, 8.0);
    CheckEvaluatorAgreesWithEval(fn, rng);
    CheckConvexityOnRandomSegments(fn, rng, 3.0, 100);
    CheckLipschitz(fn, rng, 3.0, 100);
  }
}

TEST(LpNormThreshold, LipschitzBoundTightensForLargeP) {
  LpNormThreshold l1(RealVector(16), 1.0, 1.0);
  LpNormThreshold l2(RealVector(16), 2.0, 1.0);
  LpNormThreshold l3(RealVector(16), 3.0, 1.0);
  EXPECT_NEAR(l1.LipschitzBound(), 4.0, 1e-12);  // D^{1/2}
  EXPECT_DOUBLE_EQ(l2.LipschitzBound(), 1.0);
  EXPECT_DOUBLE_EQ(l3.LipschitzBound(), 1.0);
}

TEST(CheapBound, DominatesTheFunctionItWasBuiltFor) {
  Xoshiro256ss rng(4);
  BallSafeFunction ball(RandomVector(8, 1.0, rng), 7.0);
  const CheapBoundFunction cheap = CheapBoundFunction::For(ball);
  EXPECT_DOUBLE_EQ(cheap.AtZero(), ball.AtZero());
  for (int t = 0; t < 300; ++t) {
    const RealVector x = RandomVector(8, 5.0, rng);
    ASSERT_GE(cheap.Eval(x) + 1e-9, ball.Eval(x));
  }
}

TEST(CheapBound, Properties) {
  Xoshiro256ss rng(5);
  CheapBoundFunction cheap(8, -3.0);
  CheckEvaluatorAgreesWithEval(cheap, rng);
  CheckConvexityOnRandomSegments(cheap, rng, 4.0);
  CheckLipschitz(cheap, rng, 4.0);
  EXPECT_EQ(CheapBoundFunction::kShippingWords, 3);
}

TEST(MaxComposition, IsPointwiseMax) {
  Xoshiro256ss rng(6);
  auto make = [&]() {
    std::vector<std::unique_ptr<SafeFunction>> children;
    children.push_back(
        std::make_unique<BallSafeFunction>(RealVector{1.0, 0.0}, 3.0));
    children.push_back(
        std::make_unique<HalfspaceSafeFunction>(RealVector{0.0, 1.0}, -1.0));
    return MaxComposition(std::move(children));
  };
  MaxComposition fn = make();
  for (int t = 0; t < 100; ++t) {
    const RealVector x = RandomVector(2, 3.0, rng);
    const double expected =
        std::max(BallSafeFunction(RealVector{1.0, 0.0}, 3.0).Eval(x),
                 HalfspaceSafeFunction(RealVector{0.0, 1.0}, -1.0).Eval(x));
    ASSERT_DOUBLE_EQ(fn.Eval(x), expected);
  }
  CheckEvaluatorAgreesWithEval(fn, rng);
  CheckConvexityOnRandomSegments(fn, rng, 3.0, 100);
  CheckLipschitz(fn, rng, 3.0, 100);
}

TEST(SumComposition, IsPointwiseSumAndSafeForUnions) {
  Xoshiro256ss rng(7);
  std::vector<std::unique_ptr<SafeFunction>> children;
  children.push_back(
      std::make_unique<BallSafeFunction>(RealVector{0.5, 0.0}, 2.0));
  children.push_back(
      std::make_unique<BallSafeFunction>(RealVector{-0.5, 0.0}, 2.0));
  SumComposition fn(std::move(children));
  EXPECT_LT(fn.AtZero(), 0.0);
  CheckEvaluatorAgreesWithEval(fn, rng);
  CheckConvexityOnRandomSegments(fn, rng, 2.0, 100);
}

TEST(F2TwoSided, EncodesTheAdmissibleRegion) {
  // §3.0.3: φ(x) = max{-ε‖E‖ - x·E/‖E‖, ‖x+E‖ - (1+ε)‖E‖}; its 0-sublevel
  // must sit inside {(1-ε)‖E‖ ≤ ‖x+E‖ ≤ (1+ε)‖E‖}.
  Xoshiro256ss rng(8);
  const RealVector e = RandomVector(6, 2.0, rng);
  const double eps = 0.15;
  auto fn = MakeF2TwoSided(e, eps);
  EXPECT_LT(fn->AtZero(), 0.0);
  int inside = 0;
  for (int t = 0; t < 2000; ++t) {
    const RealVector x = RandomVector(6, 1.0, rng);
    if (fn->Eval(x) <= 0.0) {
      ++inside;
      RealVector s = x;
      s += e;
      ASSERT_GE(s.Norm(), (1.0 - eps) * e.Norm() - 1e-9);
      ASSERT_LE(s.Norm(), (1.0 + eps) * e.Norm() + 1e-9);
    }
  }
  EXPECT_GT(inside, 0);  // the test actually exercised the sublevel
}

TEST(F2TwoSided, Def21SafetyForManySites) {
  // Definition 2.1 with k sites: Σφ(X_i) ≤ 0 ⇒ E + avg(X_i) ∈ A.
  Xoshiro256ss rng(9);
  const RealVector e = RandomVector(5, 3.0, rng);
  const double eps = 0.2;
  auto fn = MakeF2TwoSided(e, eps);
  for (int k : {1, 2, 5}) {
    int triggered = 0;
    for (int t = 0; t < 3000; ++t) {
      std::vector<RealVector> drifts;
      double psi = 0.0;
      for (int i = 0; i < k; ++i) {
        drifts.push_back(RandomVector(5, 0.4, rng));
        psi += fn->Eval(drifts.back());
      }
      if (psi > 0.0) continue;
      ++triggered;
      RealVector avg(5);
      for (const auto& x : drifts) avg += x;
      avg *= 1.0 / k;
      avg += e;
      ASSERT_GE(avg.Norm(), (1.0 - eps) * e.Norm() - 1e-9);
      ASSERT_LE(avg.Norm(), (1.0 + eps) * e.Norm() + 1e-9);
    }
    EXPECT_GT(triggered, 0) << "k=" << k;
  }
}

TEST(NaiveDriftEvaluator, MatchesReference) {
  Xoshiro256ss rng(10);
  BallSafeFunction ball(RandomVector(4, 1.0, rng), 4.0);
  NaiveDriftEvaluator eval(&ball);
  RealVector x(4);
  for (int t = 0; t < 30; ++t) {
    const size_t idx = rng.NextBounded(4);
    const double delta = rng.NextGaussian();
    eval.ApplyDelta(idx, delta);
    x[idx] += delta;
    ASSERT_DOUBLE_EQ(eval.Value(), ball.Eval(x));
  }
}

// Incremental evaluation cross-check (FGM_PARANOID).

TEST(ParanoidDriftEvaluator, AgreesWithReferenceOnCorrectInner) {
  RealVector center(8);
  center[0] = 3.0;
  BallSafeFunction fn(center, 10.0);
  ParanoidDriftEvaluator eval(&fn, fn.MakeEvaluator(), /*period=*/1);
  Xoshiro256ss rng(7);
  for (int i = 0; i < 200; ++i) {
    // Every ApplyDelta cross-checks (period 1); divergence would abort.
    eval.ApplyDelta(rng.NextBounded(8),
                    static_cast<double>(rng.NextBounded(9)) - 4.0);
  }
  EXPECT_NEAR(eval.Value(), fn.Eval(eval.drift()), 1e-9);
}

// An evaluator whose incremental value is wrong on purpose.
class BrokenEvaluator : public VectorDriftEvaluator {
 public:
  explicit BrokenEvaluator(size_t dim) : VectorDriftEvaluator(dim) {}
  void ApplyDelta(size_t index, double delta) override {
    x_[index] += delta;
  }
  double Value() const override { return 1e9; }  // nowhere near φ(x)
  double ValueAtScale(double) const override { return 1e9; }
  void Reset() override { x_.SetZero(); }
};

TEST(ParanoidDriftEvaluatorDeathTest, AbortsOnDivergedInner) {
  RealVector center(4);
  center[0] = 1.0;
  BallSafeFunction fn(center, 10.0);
  ParanoidDriftEvaluator eval(&fn, std::make_unique<BrokenEvaluator>(4),
                              /*period=*/1);
  EXPECT_DEATH(eval.ApplyDelta(0, 1.0), "FGM_PARANOID");
}

// Right at λ = 1 and wrong below it: the perspective ignores λ. Sites
// read ValueAtScale(λ), with λ < 1 after every rebalance.
class BrokenPerspectiveEvaluator : public VectorDriftEvaluator {
 public:
  explicit BrokenPerspectiveEvaluator(const SafeFunction* fn)
      : VectorDriftEvaluator(fn->dimension()), fn_(fn) {}
  void ApplyDelta(size_t index, double delta) override {
    x_[index] += delta;
  }
  double Value() const override { return fn_->Eval(x_); }
  double ValueAtScale(double) const override { return Value(); }
  void Reset() override { x_.SetZero(); }

 private:
  const SafeFunction* fn_;
};

TEST(ParanoidDriftEvaluatorDeathTest, AbortsOnWrongPerspective) {
  RealVector center(4);
  center[0] = 1.0;
  BallSafeFunction fn(center, 10.0);
  ParanoidDriftEvaluator eval(
      &fn, std::make_unique<BrokenPerspectiveEvaluator>(&fn), /*period=*/1);
  const CellUpdate cell{0, 1.0};
  eval.ApplyDelta(0, 1.0);          // Value() is right
  eval.ApplyDeltas(&cell, 1, 1.0);  // and so is λ = 1
  EXPECT_DEATH(eval.ApplyDeltas(&cell, 1, 0.5), "FGM_PARANOID");
}

TEST(MakeCheckedEvaluator, EnvVariableTogglesTheWrapper) {
  RealVector center(4);
  center[0] = 1.0;
  BallSafeFunction fn(center, 10.0);

  unsetenv("FGM_PARANOID");
  auto inner = fn.MakeEvaluator();
  DriftEvaluator* raw = inner.get();
  auto out = MakeCheckedEvaluator(&fn, std::move(inner));
  EXPECT_EQ(out.get(), raw);  // unset: pass-through

  setenv("FGM_PARANOID", "8", 1);
  auto wrapped = MakeCheckedEvaluator(&fn, fn.MakeEvaluator());
  EXPECT_NE(dynamic_cast<ParanoidDriftEvaluator*>(wrapped.get()), nullptr);
  unsetenv("FGM_PARANOID");
}

}  // namespace
}  // namespace fgm
