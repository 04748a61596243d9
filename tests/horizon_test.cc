// Unit tests for the adaptive speculation-horizon controller
// (exec/horizon.h) and the speculation-efficiency invariants of the
// parallel runner: replay never exceeds commit, and the value-series
// path commits subround crossings softly.

#include <gtest/gtest.h>

#include <cstdint>
#include <vector>

#include "driver/runner.h"
#include "exec/horizon.h"
#include "stream/worldcup.h"

namespace fgm {
namespace {

// ---------------------------------------------------------------------
// HorizonController

TEST(HorizonController, GrowsGeometricallyOnCleanWindows) {
  HorizonController ctrl(128, 65536);
  EXPECT_EQ(ctrl.horizon(), 128);
  int64_t expected = 128;
  for (int i = 0; i < 9; ++i) {
    ctrl.OnWindow(ctrl.horizon(), ctrl.horizon(), /*barrier=*/false);
    expected = std::min<int64_t>(expected * 2, 65536);
    EXPECT_EQ(ctrl.horizon(), expected) << "clean window " << i;
  }
  EXPECT_EQ(ctrl.horizon(), 65536);
  // Saturated: further clean windows stay at the maximum.
  ctrl.OnWindow(ctrl.horizon(), ctrl.horizon(), false);
  EXPECT_EQ(ctrl.horizon(), 65536);
}

TEST(HorizonController, PartiallyConsumedCleanWindowDoesNotGrow) {
  HorizonController ctrl(128, 65536);
  // consumed < window without a barrier (end of stream): no probe.
  ctrl.OnWindow(64, 128, /*barrier=*/false);
  EXPECT_EQ(ctrl.horizon(), 128);
}

TEST(HorizonController, ConvergesUpToSteadyBarrierGap) {
  HorizonController ctrl(16, 65536);
  for (int i = 0; i < 60; ++i) {
    ctrl.OnWindow(200, 1000, /*barrier=*/true);
  }
  EXPECT_NEAR(ctrl.gap_ewma(), 200.0, 1.0);
  EXPECT_EQ(ctrl.horizon(), static_cast<int64_t>(ctrl.gap_ewma()));
}

TEST(HorizonController, ShrinksBackFromMaxWhenBarriersAppear) {
  HorizonController ctrl(128, 65536);
  for (int i = 0; i < 12; ++i) {
    ctrl.OnWindow(ctrl.horizon(), ctrl.horizon(), false);
  }
  ASSERT_EQ(ctrl.horizon(), 65536);
  // A dense-barrier phase at gap 200 re-centers the horizon down; the
  // first barrier sees the whole clean stretch in since_barrier, then
  // the EWMA decays it away.
  for (int i = 0; i < 80; ++i) {
    ctrl.OnWindow(200, ctrl.horizon(), /*barrier=*/true);
  }
  EXPECT_NEAR(ctrl.gap_ewma(), 200.0, 5.0);
  EXPECT_LT(ctrl.horizon(), 256);
}

TEST(HorizonController, GapAccumulatesAcrossCleanWindows) {
  HorizonController ctrl(16, 65536);
  // 3 clean windows of 100 records then a barrier after 50 more: the
  // observed hard gap is 350, not 50.
  for (int i = 0; i < 3; ++i) ctrl.OnWindow(100, 100, false);
  ctrl.OnWindow(50, 100, true);
  // gap_ewma = 0.75 * 16 + 0.25 * 350 = 99.5
  EXPECT_NEAR(ctrl.gap_ewma(), 99.5, 1e-9);
}

TEST(HorizonController, SoftDensityRaisesFloorBeforeAnyBarrier) {
  HorizonController ctrl(128, 65536);
  // 1 soft crossing per 1000 records -> windows should span ~8000.
  ctrl.NoteSoftDensity(1, 1000);
  EXPECT_EQ(ctrl.soft_floor(), 8000);
  EXPECT_EQ(ctrl.horizon(), 8000);
  // The floor itself is EWMA-smoothed on the next observation.
  ctrl.NoteSoftDensity(1, 500);  // target 4000
  EXPECT_EQ(ctrl.soft_floor(), static_cast<int64_t>(0.75 * 8000 + 0.25 * 4000));
  // The horizon never shrinks from a floor update.
  EXPECT_EQ(ctrl.horizon(), 8000);
}

TEST(HorizonController, SoftFloorCappedByObservedHardGap) {
  HorizonController ctrl(16, 65536);
  for (int i = 0; i < 60; ++i) ctrl.OnWindow(200, 1000, true);
  const int64_t recentered = ctrl.horizon();
  ASSERT_NEAR(static_cast<double>(recentered), 200.0, 2.0);
  // Soft density alone would ask for 8× 200 = 1600, but speculating past
  // the next hard barrier is pure waste — the cap holds the horizon at
  // the hard gap.
  ctrl.NoteSoftDensity(1, 200);
  EXPECT_EQ(ctrl.soft_floor(), 1600);
  EXPECT_EQ(ctrl.horizon(), recentered);
}

TEST(HorizonController, IgnoresDegenerateDensityInputs) {
  HorizonController ctrl(128, 65536);
  ctrl.NoteSoftDensity(0, 1000);
  ctrl.NoteSoftDensity(5, 0);
  ctrl.NoteSoftDensity(-1, 100);
  EXPECT_EQ(ctrl.soft_floor(), 0);
  EXPECT_EQ(ctrl.horizon(), 128);
}

TEST(HorizonController, ClampsToConfiguredBounds) {
  HorizonController ctrl(256, 1024);
  // Tiny barrier gaps cannot push the horizon below the minimum...
  for (int i = 0; i < 40; ++i) ctrl.OnWindow(1, 8, true);
  EXPECT_EQ(ctrl.horizon(), 256);
  // ...and neither probing nor the soft floor exceeds the maximum.
  HorizonController wide(256, 1024);
  for (int i = 0; i < 10; ++i) wide.OnWindow(wide.horizon(), wide.horizon(), false);
  EXPECT_EQ(wide.horizon(), 1024);
  wide.NoteSoftDensity(1, 100000);
  EXPECT_LE(wide.horizon(), 1024);
}

TEST(HorizonController, DeterministicForIdenticalFeedback) {
  // The controller must be a pure function of its feedback sequence —
  // this is what keeps parallel runs bit-identical across machines.
  HorizonController a(128, 65536);
  HorizonController b(128, 65536);
  const int64_t consumed[] = {128, 256, 97, 512, 1024, 300, 2048, 11};
  for (int rep = 0; rep < 4; ++rep) {
    for (size_t i = 0; i < 8; ++i) {
      const bool barrier = (i % 3) == 2;
      a.OnWindow(consumed[i], a.horizon(), barrier);
      b.OnWindow(consumed[i], b.horizon(), barrier);
      if ((i % 2) == 0) {
        a.NoteSoftDensity(3, consumed[i]);
        b.NoteSoftDensity(3, consumed[i]);
      }
      ASSERT_EQ(a.horizon(), b.horizon()) << "rep " << rep << " step " << i;
    }
  }
}

// ---------------------------------------------------------------------
// Speculation-efficiency invariants (end-to-end, from the RunResult).
// Every speculated record is either committed or wasted: ParallelRunner
// checks that each window's shards partition it.

TEST(SpeculationEfficiency, InvariantHoldsOnValueSeriesPath) {
  RunConfig config;
  config.protocol = ProtocolKind::kFgm;
  config.query = QueryKind::kSelfJoin;
  config.sites = 5;
  config.depth = 5;
  config.width = 60;
  config.threads = 4;
  WorldCupConfig wc;
  wc.sites = config.sites;
  wc.total_updates = 30000;
  const RunResult r = ::fgm::Run(config, GenerateWorldCupTrace(wc));
  // FGM supports value-series speculation: soft subround crossings must
  // show up.
  EXPECT_GT(r.parallel_windows, 0);
  EXPECT_GT(r.soft_commits, 0);
  // Replay re-derives committed prefixes only.
  EXPECT_LE(r.replayed_records, r.events);
  EXPECT_LE(r.parallel_barriers, r.parallel_windows);
}

}  // namespace
}  // namespace fgm
