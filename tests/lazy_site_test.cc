// Differential test of the lazy site: FgmSite skips evaluating λφ(X/λ)
// while its Lipschitz certificate proves that no counter can move. Over
// random records, random subround starts with small quanta (so crossings
// are frequent), λ installs, flushes and polls, it must report the same
// increments and polled values as an eager model kept here, bit for bit.
// The model is a fresh evaluator that evaluates every record, plus the
// counter rule c := max{c, ⌊(v - z)/θ⌋}. Every shipped function family on
// the site path takes part: self-join, join, the cheap bound, the F2 and
// L1 norms, the ball and the halfspace.
//
// The same families also run across round boundaries, where a site reads
// λφ(0/λ) from values other sites share and re-arms its evaluator in
// place: it must match a site built fresh every round, bit for bit.

#include <algorithm>
#include <bit>
#include <cmath>
#include <cstdint>
#include <functional>
#include <memory>
#include <new>
#include <vector>

#include <gtest/gtest.h>

#include "core/fgm_site.h"
#include "query/query.h"
#include "safezone/ball.h"
#include "safezone/cheap_bound.h"
#include "safezone/compose.h"
#include "safezone/halfspace.h"
#include "safezone/join_sz.h"
#include "safezone/norm_threshold.h"
#include "safezone/selfjoin_sz.h"
#include "sketch/fast_agms.h"
#include "util/rng.h"

namespace fgm {
namespace {

uint64_t Bits(double v) { return std::bit_cast<uint64_t>(v); }

/// The eager reference: one evaluation per record, then the counter rule.
class EagerSite {
 public:
  explicit EagerSite(const SafeFunction& fn)
      : eval_(fn.MakeEvaluator()), value_(eval_->ValueAtScale(1.0)) {}

  int64_t Apply(const std::vector<CellUpdate>& cells) {
    value_ = eval_->ApplyDeltas(cells.data(), cells.size(), lambda_);
    min_ = std::min(min_, value_);
    max_ = std::max(max_, value_);
    const double steps = std::floor((value_ - z_) / theta_);
    if (!(steps > static_cast<double>(counter_))) return 0;
    const int64_t increment = static_cast<int64_t>(steps) - counter_;
    counter_ += increment;
    return increment;
  }

  void BeginSubround(double theta) {
    theta_ = theta;
    z_ = value_;
    min_ = max_ = z_;
    counter_ = 0;
  }

  void SetLambda(double lambda) {
    lambda_ = lambda;
    value_ = eval_->ValueAtScale(lambda_);
  }

  void Flush() {
    eval_->Reset();
    value_ = eval_->ValueAtScale(lambda_);
  }

  double value() const { return value_; }
  double range() const { return max_ - min_; }
  int64_t counter() const { return counter_; }

 private:
  std::unique_ptr<DriftEvaluator> eval_;
  double value_;
  double lambda_ = 1.0;
  double theta_ = 1.0;
  double z_ = 0.0;
  double min_ = 0.0;
  double max_ = 0.0;
  int64_t counter_ = 0;
};

using RecordSource =
    std::function<void(Xoshiro256ss&, std::vector<CellUpdate>*)>;

/// Drives the lazy site and the eager model through one random schedule
/// and checks that they agree. `step` is the typical L·‖Δ‖ of a record;
/// quanta are drawn around it, from far below (a crossing on nearly every
/// record) to far above (long certified stretches).
void RunDifferential(const SafeFunction& fn, const RecordSource& source,
                     double step, uint64_t seed, int records) {
  FgmSite site(0, fn.dimension());
  EagerSite eager(fn);
  site.BeginRound(&fn);
  Xoshiro256ss rng(seed);
  const double lipschitz = fn.LipschitzBound();
  auto draw_theta = [&] {
    return step * std::pow(10.0, -2.0 + 3.5 * rng.NextDouble());
  };
  double theta = draw_theta();
  site.BeginSubround(theta);
  eager.BeginSubround(theta);
  double moved = 0.0;  // Σ‖Δ‖ since the subround began
  int64_t increments = 0;
  std::vector<CellUpdate> cells;
  for (int r = 0; r < records; ++r) {
    cells.clear();
    source(rng, &cells);
    double step_sq = 0.0;
    for (const CellUpdate& c : cells) step_sq += c.delta * c.delta;
    moved += std::sqrt(step_sq);
    const int64_t increment = site.ApplyUpdate(cells);
    ASSERT_EQ(increment, eager.Apply(cells)) << "record " << r;
    increments += increment;
    ASSERT_EQ(site.counter(), eager.counter());

    const double u = rng.NextDouble();
    if (u < 0.01 || increment > 0) {
      // A poll, as the coordinator makes after counter traffic.
      ASSERT_EQ(Bits(site.ReadValue()), Bits(eager.value())) << "record " << r;
      // The certified range covers the exact one and exceeds it by at
      // most 2·L·Σ‖Δ‖; the slack absorbs the incremental rounding.
      const double range = site.SubroundValueRange();
      const double slack = 1e-6 * std::max(1.0, std::fabs(eager.value()));
      EXPECT_GE(range, eager.range() - slack) << "record " << r;
      EXPECT_LE(range, eager.range() + 2.0 * lipschitz * moved + slack)
          << "record " << r;
    }
    if (u < 0.004) {
      theta = draw_theta();
      site.BeginSubround(theta);
      eager.BeginSubround(theta);
      moved = 0.0;
    } else if (u < 0.006) {
      const double lambda = 0.05 + 0.95 * rng.NextDouble();
      site.SetLambda(lambda);
      eager.SetLambda(lambda);
    } else if (u < 0.007) {
      site.FlushReset();
      eager.Flush();
    }
  }
  // Both paths ran: crossings happened, and the certificate skipped.
  EXPECT_GT(increments, 0);
  EXPECT_GT(site.skipped_records(), 0);
  EXPECT_LT(site.skipped_records(), records);
}

/// Round boundaries, through BeginRound, FlushReset and SetLambda. Rounds
/// alternate between two functions of one family, built into two storage
/// slots in turn, two rounds a slot: every odd round's function is built
/// into the storage of the previous round's freed one, so the two share
/// an address, and every even round's function has a new address while
/// the previous one lives. `site` reads λφ(0/λ) from values `sibling`
/// stores first, and re-arms its evaluator in place when its family can
/// (`rearms`); `fresh` is a new site every round, with a new evaluator
/// and values of its own. All three see the same records and boundaries
/// and must report the same values, increments and skips, bit for bit.
/// Rebalances (λ installs) come in odd rounds only, so the value an even
/// round stores for its function at λ = 1 is still held when the next
/// function arrives at the same address.
template <typename Fn>
void RunRoundBoundaries(
    const std::function<std::unique_ptr<SafeFunction>(int)>& make,
    const RecordSource& source, double step, bool rearms, uint64_t seed) {
  constexpr int kRounds = 8;
  constexpr int kRecordsPerRound = 2500;
  alignas(Fn) unsigned char storage[2][sizeof(Fn)];
  Fn* live[2] = {nullptr, nullptr};
  const size_t dim = make(0)->dimension();
  const auto values = std::make_shared<ZeroDriftValues>();
  FgmSite sibling(0, dim, values);
  FgmSite site(1, dim, values);
  std::unique_ptr<FgmSite> fresh;
  Xoshiro256ss rng(seed);
  auto draw_theta = [&] {
    return step * std::pow(10.0, -2.0 + 3.5 * rng.NextDouble());
  };
  // Every site in the order the coordinator reaches them: `sibling` first,
  // so `site` reads what it stored.
  auto each = [&](const std::function<void(FgmSite&)>& step_fn) {
    step_fn(sibling);
    step_fn(site);
    step_fn(*fresh);
  };
  auto expect_same_value = [&](const char* where, int round) {
    const uint64_t want = Bits(fresh->ReadValue());
    ASSERT_EQ(Bits(site.ReadValue()), want) << where << ", round " << round;
    ASSERT_EQ(Bits(sibling.ReadValue()), want) << where << ", round " << round;
  };
  // A flush as FlushChild makes one: only a site that has updates resets.
  auto flush = [](FgmSite& s) {
    if (s.updates_since_flush() > 0) s.FlushReset();
  };
  int64_t increments = 0;
  int64_t rearmed = 0;
  std::vector<CellUpdate> cells;
  for (int round = 0; round < kRounds; ++round) {
    // Every third round starts with the drift the last one left (a site
    // that is not flushed, which must build a new evaluator); the others
    // flush first, as EndRound does, while the outgoing function lives.
    if (round % 3 != 2 && fresh != nullptr) each(flush);
    std::unique_ptr<SafeFunction> made = make(round);
    const int slot = (round / 2) % 2;
    if (live[slot] != nullptr) live[slot]->~Fn();
    live[slot] = new (storage[slot]) Fn(std::move(static_cast<Fn&>(*made)));
    const Fn* fn = live[slot];
    const bool zero_drift = site.updates_since_flush() == 0;
    const RealVector* before = fresh != nullptr ? &site.drift() : nullptr;
    fresh = std::make_unique<FgmSite>(2, dim);
    each([&](FgmSite& s) { s.BeginRound(fn); });
    if (before != nullptr && zero_drift) {
      // The sketch evaluators re-arm in place; every other one is built
      // anew, and the new one is allocated while the old one lives.
      EXPECT_EQ(&site.drift() == before, rearms) << "round " << round;
      rearmed += &site.drift() == before ? 1 : 0;
    }
    expect_same_value("round start", round);
    const int64_t site_skips = site.skipped_records();
    const int64_t sibling_skips = sibling.skipped_records();
    double theta = draw_theta();
    each([&](FgmSite& s) { s.BeginSubround(theta); });
    for (int r = 0; r < kRecordsPerRound; ++r) {
      cells.clear();
      source(rng, &cells);
      const int64_t increment = fresh->ApplyUpdate(cells);
      ASSERT_EQ(site.ApplyUpdate(cells), increment) << "record " << r;
      ASSERT_EQ(sibling.ApplyUpdate(cells), increment) << "record " << r;
      increments += increment;
      const double u = rng.NextDouble();
      if (u < 0.01 || increment > 0) expect_same_value("poll", round);
      if (u < 0.004) {
        theta = draw_theta();
        each([&](FgmSite& s) { s.BeginSubround(theta); });
      } else if (u < 0.007 && round % 2 == 1) {
        // A rebalance: flush, then install λ on zero drift.
        const double lambda = 0.05 + 0.95 * rng.NextDouble();
        each(flush);
        each([&](FgmSite& s) { s.SetLambda(lambda); });
        expect_same_value("rebalance", round);
      } else if (u < 0.008) {
        each(flush);
        expect_same_value("flush", round);
      } else if (u < 0.009 && round % 2 == 1) {
        // λ installed on a drift that is not zero.
        const double lambda = 0.05 + 0.95 * rng.NextDouble();
        each([&](FgmSite& s) { s.SetLambda(lambda); });
        expect_same_value("lambda", round);
      }
    }
    EXPECT_EQ(site.skipped_records() - site_skips, fresh->skipped_records())
        << "round " << round;
    EXPECT_EQ(sibling.skipped_records() - sibling_skips,
              fresh->skipped_records())
        << "round " << round;
  }
  EXPECT_GT(increments, 0);
  EXPECT_GT(fresh->skipped_records(), 0);
  if (rearms) {
    EXPECT_GT(rearmed, 0);
  }
  for (Fn* f : live) f->~Fn();
}

constexpr int kSketchDepth = 5;
constexpr int kSketchWidth = 31;
constexpr int kRecords = 40000;

std::shared_ptr<const AgmsProjection> Projection() {
  return std::make_shared<AgmsProjection>(kSketchDepth, kSketchWidth,
                                          /*seed=*/11);
}

/// Sketch records as a windowed stream produces them: Zipf keys, mostly
/// inserts, some expiries.
RecordSource SketchRecords(const ContinuousQuery& query) {
  auto zipf = std::make_shared<ZipfDistribution>(400, 1.1);
  return [&query, zipf](Xoshiro256ss& rng, std::vector<CellUpdate>* out) {
    StreamRecord record;
    record.cid = zipf->Sample(rng);
    record.weight = rng.NextDouble() < 0.2 ? -1.0 : 1.0;
    record.type = rng.NextDouble() < 0.5 ? FileType::kHtml : FileType::kImage;
    query.MapRecord(record, out);
  };
}

/// The global state a query's estimate would hold after `n` records.
RealVector Estimate(const ContinuousQuery& query, int n, uint64_t seed) {
  RealVector state(query.dimension());
  Xoshiro256ss rng(seed);
  ZipfDistribution zipf(400, 1.1);
  std::vector<CellUpdate> cells;
  for (int i = 0; i < n; ++i) {
    cells.clear();
    StreamRecord record;
    record.cid = zipf.Sample(rng);
    record.type = rng.NextDouble() < 0.5 ? FileType::kHtml : FileType::kImage;
    query.MapRecord(record, &cells);
    for (const CellUpdate& c : cells) state[c.index] += c.delta;
  }
  return state;
}

/// Vector records: one to three distinct coordinates, Gaussian steps.
RecordSource VectorRecords(size_t dim, double scale) {
  return [dim, scale](Xoshiro256ss& rng, std::vector<CellUpdate>* out) {
    const size_t n = 1 + rng.NextBounded(3);
    const size_t first = rng.NextBounded(dim);
    for (size_t j = 0; j < n; ++j) {
      out->push_back(CellUpdate{(first + j) % dim, scale * rng.NextGaussian()});
    }
  };
}

RealVector RandomVector(size_t dim, double scale, uint64_t seed) {
  Xoshiro256ss rng(seed);
  RealVector v(dim);
  for (size_t i = 0; i < dim; ++i) v[i] = scale * rng.NextGaussian();
  return v;
}

const double kSketchStep = std::sqrt(static_cast<double>(kSketchDepth));

TEST(LazySite, SelfJoinMatchesEager) {
  SelfJoinQuery query(Projection(), /*epsilon=*/0.1);
  auto fn = query.MakeSafeFunction(Estimate(query, 3000, 1));
  RunDifferential(*fn, SketchRecords(query), kSketchStep, 101, kRecords);
}

TEST(LazySite, JoinMatchesEager) {
  JoinQuery query(Projection(), /*epsilon=*/0.1);
  auto fn = query.MakeSafeFunction(Estimate(query, 3000, 2));
  RunDifferential(*fn, SketchRecords(query), kSketchStep, 102, kRecords);
}

TEST(LazySite, CheapBoundMatchesEager) {
  SelfJoinQuery query(Projection(), /*epsilon=*/0.1);
  auto full = query.MakeSafeFunction(Estimate(query, 3000, 3));
  const CheapBoundFunction cheap = CheapBoundFunction::For(*full);
  RunDifferential(cheap, SketchRecords(query), kSketchStep, 103, kRecords);
}

TEST(LazySite, F2NormMatchesEager) {
  constexpr size_t kDim = 16;
  auto fn = MakeF2TwoSided(RandomVector(kDim, 10.0, 4), /*epsilon=*/0.1);
  RunDifferential(*fn, VectorRecords(kDim, 0.5), 0.5, 104, kRecords);
}

TEST(LazySite, L1NormMatchesEager) {
  // L = √D here, so the certificate spends faster than ‖Δ‖.
  constexpr size_t kDim = 16;
  const RealVector reference = RandomVector(kDim, 10.0, 5);
  LpNormThreshold fn(reference, /*p=*/1.0, 1.2 * reference.LpNorm(1.0));
  ASSERT_DOUBLE_EQ(fn.LipschitzBound(), 4.0);
  RunDifferential(fn, VectorRecords(kDim, 0.5), 4.0 * 0.5, 105, kRecords);
}

TEST(LazySite, BallMatchesEager) {
  constexpr size_t kDim = 8;
  const RealVector center = RandomVector(kDim, 3.0, 6);
  BallSafeFunction fn(center, center.Norm() + 20.0);
  RunDifferential(fn, VectorRecords(kDim, 0.5), 0.5, 106, kRecords);
}

TEST(LazySite, HalfspaceMatchesEager) {
  constexpr size_t kDim = 8;
  HalfspaceSafeFunction fn(RandomVector(kDim, 1.0, 7), /*offset=*/-20.0);
  RunDifferential(fn, VectorRecords(kDim, 0.5), 0.5, 107, kRecords);
}

// Round boundaries: each family's two functions differ in φ(0), so a
// value keyed by the function's address alone would reach the next
// round's function and fail these tests.

TEST(LazySiteRounds, SelfJoinMatchesFresh) {
  SelfJoinQuery query(Projection(), /*epsilon=*/0.1);
  RunRoundBoundaries<SelfJoinSafeFunction>(
      [&](int round) {
        return query.MakeSafeFunction(Estimate(query, 3000, 1 + round % 2));
      },
      SketchRecords(query), kSketchStep, /*rearms=*/true, 201);
}

TEST(LazySiteRounds, JoinMatchesFresh) {
  JoinQuery query(Projection(), /*epsilon=*/0.1);
  RunRoundBoundaries<JoinSafeFunction>(
      [&](int round) {
        return query.MakeSafeFunction(Estimate(query, 3000, 2 + round % 2));
      },
      SketchRecords(query), kSketchStep, /*rearms=*/true, 202);
}

TEST(LazySiteRounds, CheapBoundMatchesFresh) {
  SelfJoinQuery query(Projection(), /*epsilon=*/0.1);
  RunRoundBoundaries<CheapBoundFunction>(
      [&](int round) -> std::unique_ptr<SafeFunction> {
        auto full =
            query.MakeSafeFunction(Estimate(query, 3000, 3 + round % 2));
        return std::make_unique<CheapBoundFunction>(
            CheapBoundFunction::For(*full));
      },
      SketchRecords(query), kSketchStep, /*rearms=*/false, 203);
}

TEST(LazySiteRounds, F2NormMatchesFresh) {
  constexpr size_t kDim = 16;
  RunRoundBoundaries<MaxComposition>(
      [&](int round) {
        return MakeF2TwoSided(RandomVector(kDim, 10.0, 4 + round % 2),
                              /*epsilon=*/0.1);
      },
      VectorRecords(kDim, 0.5), 0.5, /*rearms=*/false, 204);
}

TEST(LazySiteRounds, L1NormMatchesFresh) {
  constexpr size_t kDim = 16;
  RunRoundBoundaries<LpNormThreshold>(
      [&](int round) {
        const RealVector reference = RandomVector(kDim, 10.0, 5 + round % 2);
        return std::make_unique<LpNormThreshold>(
            reference, /*p=*/1.0, 1.2 * reference.LpNorm(1.0));
      },
      VectorRecords(kDim, 0.5), 4.0 * 0.5, /*rearms=*/false, 205);
}

TEST(LazySiteRounds, BallMatchesFresh) {
  constexpr size_t kDim = 8;
  RunRoundBoundaries<BallSafeFunction>(
      [&](int round) {
        const RealVector center = RandomVector(kDim, 3.0, 6 + round % 2);
        return std::make_unique<BallSafeFunction>(
            center, center.Norm() + 20.0 + round % 2);
      },
      VectorRecords(kDim, 0.5), 0.5, /*rearms=*/false, 206);
}

TEST(LazySiteRounds, HalfspaceMatchesFresh) {
  constexpr size_t kDim = 8;
  RunRoundBoundaries<HalfspaceSafeFunction>(
      [&](int round) {
        return std::make_unique<HalfspaceSafeFunction>(
            RandomVector(kDim, 1.0, 7 + round % 2),
            /*offset=*/-20.0 - round % 2);
      },
      VectorRecords(kDim, 0.5), 0.5, /*rearms=*/false, 207);
}

}  // namespace
}  // namespace fgm
