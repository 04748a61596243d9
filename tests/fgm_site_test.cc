// Unit tests for the FGM site state machine: the counter update rule
//   c_i := max{c_i, ⌊(φ(X_i) - z_i)/θ⌋},
// subround bookkeeping, the perspective scale, and flush semantics —
// exercised against a hand-made linear safe function where every value is
// predictable in closed form — and the FGM_PARANOID checks of the shared
// zero-drift value and of an evaluator re-armed in place.

#include <cstdlib>
#include <memory>
#include <string>

#include <gtest/gtest.h>

#include "core/fgm_site.h"
#include "safezone/halfspace.h"
#include "sketch/fast_agms.h"

namespace fgm {
namespace {

/// Sets an environment variable for one scope, then restores it.
class ScopedEnv {
 public:
  ScopedEnv(const char* name, const char* value) : name_(name) {
    if (const char* old = std::getenv(name)) {
      had_ = true;
      old_ = old;
    }
    setenv(name, value, 1);
  }
  ~ScopedEnv() {
    if (had_) {
      setenv(name_, old_.c_str(), 1);
    } else {
      unsetenv(name_);
    }
  }

 private:
  const char* name_;
  bool had_ = false;
  std::string old_;
};

/// φ(x) = c + x[0], whose evaluator re-arms without taking the new
/// function's c: the bug FGM_PARANOID's re-arm check is there to catch.
class OffsetPhi : public SafeFunction {
 public:
  explicit OffsetPhi(double c) : c_(c) {}
  size_t dimension() const override { return 1; }
  double Eval(const RealVector& x) const override { return c_ + x[0]; }
  std::unique_ptr<DriftEvaluator> MakeEvaluator() const override;
  double c() const { return c_; }

 private:
  double c_;
};

class StaleRebindEvaluator : public VectorDriftEvaluator {
 public:
  explicit StaleRebindEvaluator(const OffsetPhi* fn)
      : VectorDriftEvaluator(1), c_(fn->c()) {}
  void ApplyDelta(size_t index, double delta) override { x_[index] += delta; }
  double Value() const override { return c_ + x_[0]; }
  double ValueAtScale(double lambda) const override {
    return lambda * c_ + x_[0];
  }
  void Reset() override { x_.SetZero(); }
  bool Rebind(const SafeFunction&) override { return true; }

 private:
  double c_;
};

std::unique_ptr<DriftEvaluator> OffsetPhi::MakeEvaluator() const {
  return std::make_unique<StaleRebindEvaluator>(this);
}

// With normal -e0, φ(x) = -4 - (-x[0]) = -4 + x[0]: pushing x[0]
// positive raises φ by exactly the same amount.
std::unique_ptr<HalfspaceSafeFunction> LinearPhi() {
  return std::make_unique<HalfspaceSafeFunction>(RealVector{-1.0, 0.0},
                                                 -4.0);
}

std::vector<CellUpdate> Delta(size_t index, double delta) {
  return {CellUpdate{index, delta}};
}

TEST(FgmSite, CounterFollowsTheFloorRule) {
  auto phi = LinearPhi();
  FgmSite site(0, 2);
  site.BeginRound(phi.get());
  EXPECT_DOUBLE_EQ(site.CurrentValue(), -4.0);
  site.BeginSubround(/*quantum=*/1.0);

  // +0.9 above z: floor(0.9) = 0 → silent.
  EXPECT_EQ(site.ApplyUpdate(Delta(0, +0.9)), 0);
  EXPECT_EQ(site.counter(), 0);
  // +1.7 total: floor = 1 → one increment.
  EXPECT_EQ(site.ApplyUpdate(Delta(0, +0.8)), 1);
  EXPECT_EQ(site.counter(), 1);
  // Jump to +4.2 total: floor = 4 → increment of 3 in one message.
  EXPECT_EQ(site.ApplyUpdate(Delta(0, +2.5)), 3);
  EXPECT_EQ(site.counter(), 4);
}

TEST(FgmSite, CounterNeverDecreases) {
  auto phi = LinearPhi();
  FgmSite site(0, 2);
  site.BeginRound(phi.get());
  site.BeginSubround(1.0);
  EXPECT_EQ(site.ApplyUpdate(Delta(0, +2.0)), 2);
  // The value recedes below z: the counter holds (max rule), no message.
  EXPECT_EQ(site.ApplyUpdate(Delta(0, -5.0)), 0);
  EXPECT_EQ(site.counter(), 2);
  // Recovers to +2.5: floor = 2 = counter → still silent.
  EXPECT_EQ(site.ApplyUpdate(Delta(0, +5.5)), 0);
  EXPECT_EQ(site.counter(), 2);
  // +3.1: floor = 3 → one more.
  EXPECT_EQ(site.ApplyUpdate(Delta(0, +0.6)), 1);
}

TEST(FgmSite, SubroundResetsZAndCounter) {
  auto phi = LinearPhi();
  FgmSite site(0, 2);
  site.BeginRound(phi.get());
  site.BeginSubround(1.0);
  site.ApplyUpdate(Delta(0, +2.0));
  EXPECT_EQ(site.counter(), 2);
  // New subround with a different quantum: z re-anchors at the current
  // value, counter goes back to 0.
  site.BeginSubround(0.5);
  EXPECT_EQ(site.counter(), 0);
  // +0.6 from the new z with θ = 0.5 → floor = 1.
  EXPECT_EQ(site.ApplyUpdate(Delta(0, +0.6)), 1);
}

TEST(FgmSite, SubroundValueRangeTracksSupMinusInf) {
  auto phi = LinearPhi();
  FgmSite site(0, 2);
  site.BeginRound(phi.get());
  site.BeginSubround(10.0);  // large quantum: no messages
  EXPECT_DOUBLE_EQ(site.SubroundValueRange(), 0.0);
  site.ApplyUpdate(Delta(0, +2.0));  // value +2
  site.ApplyUpdate(Delta(0, -3.0));  // value -1
  site.ApplyUpdate(Delta(0, +1.0));  // value 0
  // The exact range is 3 (sup 2, inf -1). The certificate skipped these
  // records, so the site reports a certified bound: at least the exact
  // range, and at most 2·L·Σ‖Δ‖ = 2·1·6 above it.
  EXPECT_GT(site.skipped_records(), 0);
  EXPECT_GE(site.SubroundValueRange(), 3.0);
  EXPECT_LE(site.SubroundValueRange(), 3.0 + 2.0 * 6.0);
  // A poll evaluates the skipped records and keeps the bound.
  EXPECT_DOUBLE_EQ(site.ReadValue(), -4.0);  // z + 0
  EXPECT_GE(site.SubroundValueRange(), 3.0);
  EXPECT_LE(site.SubroundValueRange(), 3.0 + 2.0 * 6.0);
}

TEST(FgmSite, EvaluatesWhenTheCertificateRunsOut) {
  auto phi = LinearPhi();
  FgmSite site(0, 2);
  site.BeginRound(phi.get());
  site.BeginSubround(1.0);  // z = -4: the counter moves at -3
  // φ is 1-Lipschitz, so 0.4 + 0.4 cannot reach the threshold 1 away.
  EXPECT_EQ(site.ApplyUpdate(Delta(0, +0.4)), 0);
  EXPECT_EQ(site.ApplyUpdate(Delta(1, +0.4)), 0);
  EXPECT_EQ(site.skipped_records(), 2);
  // The third step could: the site evaluates, finds -2.8 and reports one.
  EXPECT_EQ(site.ApplyUpdate(Delta(0, +0.8)), 1);
  EXPECT_EQ(site.skipped_records(), 2);
  EXPECT_DOUBLE_EQ(site.ReadValue(), -2.8);
}

TEST(FgmSite, LambdaScalesTheReportedValue) {
  auto phi = LinearPhi();
  FgmSite site(0, 2);
  site.BeginRound(phi.get());
  site.ApplyUpdate(Delta(0, +3.0));  // φ = -1 at λ = 1
  EXPECT_DOUBLE_EQ(site.CurrentValue(), -1.0);
  site.SetLambda(0.5);
  // For the halfspace, λφ(x/λ) = λβ - n·x = 0.5·(-4) + 3 = 1.0.
  EXPECT_DOUBLE_EQ(site.CurrentValue(), 1.0);
}

TEST(FgmSite, FlushResetsDriftButKeepsRoundCounters) {
  auto phi = LinearPhi();
  FgmSite site(0, 2);
  site.BeginRound(phi.get());
  site.BeginSubround(1.0);
  site.ApplyUpdate(Delta(0, +2.0));
  site.ApplyUpdate(Delta(1, 5.0));
  EXPECT_EQ(site.updates_since_flush(), 2);
  EXPECT_EQ(site.updates_in_round(), 2);
  EXPECT_DOUBLE_EQ(site.drift()[0], 2.0);
  site.FlushReset();
  EXPECT_EQ(site.updates_since_flush(), 0);
  EXPECT_EQ(site.updates_in_round(), 2);  // round total survives
  EXPECT_DOUBLE_EQ(site.drift()[0], 0.0);
  EXPECT_DOUBLE_EQ(site.CurrentValue(), -4.0);  // back to φ(0)
  site.ApplyUpdate(Delta(0, +1.0));
  EXPECT_EQ(site.updates_in_round(), 3);
}

TEST(FgmSite, BeginRoundResetsEverything) {
  auto phi = LinearPhi();
  FgmSite site(3, 2);
  site.BeginRound(phi.get());
  site.BeginSubround(1.0);
  site.ApplyUpdate(Delta(0, +2.0));
  site.SetLambda(0.5);
  site.BeginRound(phi.get());
  EXPECT_EQ(site.counter(), 0);
  EXPECT_EQ(site.updates_in_round(), 0);
  EXPECT_DOUBLE_EQ(site.CurrentValue(), -4.0);  // λ back to 1, drift 0
  EXPECT_EQ(site.id(), 3);
}

TEST(FgmSite, ZeroDriftSitesReadTheSharedValue) {
  // Off, so the wrong value below is read rather than caught.
  ScopedEnv off("FGM_PARANOID", "");
  auto phi = LinearPhi();
  auto values = std::make_shared<ZeroDriftValues>();
  FgmSite first(0, 2, values);
  first.BeginRound(phi.get());
  EXPECT_DOUBLE_EQ(first.ReadValue(), -4.0);
  // A second site at zero drift reads the stored value, not its own
  // evaluation; one with drift evaluates.
  values->Put(*phi, 1.0, -3.0);
  FgmSite second(1, 2, values);
  second.BeginRound(phi.get());
  EXPECT_DOUBLE_EQ(second.ReadValue(), -3.0);
  second.ApplyUpdate(Delta(0, +0.5));
  EXPECT_DOUBLE_EQ(second.ReadValue(), -3.5);
}

TEST(FgmSiteDeathTest, ParanoidRejectsAWrongSharedZeroDriftValue) {
  auto phi = LinearPhi();
  auto values = std::make_shared<ZeroDriftValues>();
  values->Put(*phi, 1.0, -3.0);  // φ(0) is -4
  ScopedEnv paranoid("FGM_PARANOID", "1");
  EXPECT_DEATH(
      {
        FgmSite site(0, 2, values);
        site.BeginRound(phi.get());
      },
      "FGM_PARANOID: the shared zero-drift value");
}

TEST(FgmSiteDeathTest, ParanoidRejectsAStaleRearmedEvaluator) {
  const OffsetPhi first(-4.0);
  const OffsetPhi second(-2.0);
  ScopedEnv paranoid("FGM_PARANOID", "1");
  EXPECT_DEATH(
      {
        FgmSite site(0, 1);
        site.BeginRound(&first);
        site.BeginRound(&second);
      },
      "FGM_PARANOID: a re-armed evaluator differs");
}

}  // namespace
}  // namespace fgm
