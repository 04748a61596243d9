// Unit tests for the FGM site state machine: the counter update rule
//   c_i := max{c_i, ⌊(φ(X_i) - z_i)/θ⌋},
// subround bookkeeping, the perspective scale, and flush semantics —
// exercised against a hand-made linear safe function where every value is
// predictable in closed form.

#include <memory>

#include <gtest/gtest.h>

#include "core/fgm_site.h"
#include "safezone/halfspace.h"
#include "sketch/fast_agms.h"

namespace fgm {
namespace {

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

}  // namespace
}  // namespace fgm
