// Fast-AGMS sketch tests: estimation accuracy, linearity, median logic.

#include <cmath>
#include <map>
#include <memory>
#include <vector>

#include <gtest/gtest.h>

#include "sketch/fast_agms.h"
#include "util/hash.h"
#include "util/rng.h"

namespace fgm {
namespace {

std::shared_ptr<const AgmsProjection> MakeProjection(int d, int w,
                                                     uint64_t seed) {
  return std::make_shared<const AgmsProjection>(d, w, seed);
}

TEST(Median, OddAndEven) {
  EXPECT_DOUBLE_EQ(Median({3.0, 1.0, 2.0}), 2.0);
  EXPECT_DOUBLE_EQ(Median({5.0}), 5.0);
  EXPECT_DOUBLE_EQ(Median({1.0, 2.0, 3.0, 4.0}), 2.5);
}

TEST(AgmsProjection, MapTouchesOneCellPerRow) {
  auto proj = MakeProjection(5, 64, 1);
  std::vector<CellUpdate> updates;
  proj->Map(12345, 2.0, &updates);
  ASSERT_EQ(updates.size(), 5u);
  for (int r = 0; r < 5; ++r) {
    const size_t idx = updates[static_cast<size_t>(r)].index;
    EXPECT_GE(idx, static_cast<size_t>(r) * 64);
    EXPECT_LT(idx, static_cast<size_t>(r + 1) * 64);
    EXPECT_DOUBLE_EQ(std::fabs(updates[static_cast<size_t>(r)].delta), 2.0);
  }
}

TEST(AgmsProjection, DeterministicForSeed) {
  auto a = MakeProjection(3, 32, 99);
  auto b = MakeProjection(3, 32, 99);
  for (uint64_t key = 0; key < 100; ++key) {
    for (int r = 0; r < 3; ++r) {
      EXPECT_EQ(a->Bucket(r, key), b->Bucket(r, key));
      EXPECT_EQ(a->Sign(r, key), b->Sign(r, key));
    }
  }
}

TEST(FastAgms, UpdateMatchesMap) {
  auto proj = MakeProjection(3, 16, 5);
  FastAgms sketch(proj);
  FastAgms manual(proj);
  std::vector<CellUpdate> updates;
  for (uint64_t key = 0; key < 50; ++key) {
    sketch.Update(key, 1.0);
    updates.clear();
    proj->Map(key, 1.0, &updates);
    for (const CellUpdate& u : updates) {
      manual.mutable_state()[u.index] += u.delta;
    }
  }
  for (size_t i = 0; i < sketch.state().dim(); ++i) {
    EXPECT_DOUBLE_EQ(sketch.state()[i], manual.state()[i]);
  }
}

// Every path that hashes a key (Map, MapBatch, Update, UpdateBatch) must
// land each update in exactly the cell and sign the per-row reference
// hashes, Bucket() and Sign(), give it.
TEST(AgmsProjection, MapEqualsPerRowReferenceHashes) {
  constexpr uint64_t p = PolyHash<1>::kMersennePrime;
  std::vector<uint64_t> keys = {0,     p - 1, p, p + 1, 2 * p,
                                uint64_t{1} << 62, ~uint64_t{0}};
  Xoshiro256ss rng(2024);
  for (int i = 0; i < 20000; ++i) keys.push_back(rng());
  std::vector<double> weights(keys.size());
  for (size_t j = 0; j < keys.size(); ++j) {
    weights[j] = j % 3 == 0 ? -1.0 : 1.0 + 0.5 * static_cast<double>(j % 7);
  }

  int64_t cells = 0;
  std::vector<CellUpdate> map_out;
  std::vector<CellUpdate> batch_out;
  for (int depth : {1, 3, 5, 7, 9}) {
    for (int width : {1, 2, 3, 111, 65537, 2147483647}) {
      for (uint64_t seed : {uint64_t{0xA65}, uint64_t{1}, uint64_t{99}}) {
        const AgmsProjection proj(depth, width, seed);
        const size_t d = static_cast<size_t>(depth);
        batch_out.assign(keys.size() * d, CellUpdate{0, 0.0});
        proj.MapBatch(keys.data(), weights.data(), keys.size(),
                      batch_out.data());
        for (size_t j = 0; j < keys.size(); ++j) {
          map_out.clear();
          proj.Map(keys[j], weights[j], &map_out);
          ASSERT_EQ(map_out.size(), d);
          for (int r = 0; r < depth; ++r) {
            const size_t index = proj.CellIndex(r, proj.Bucket(r, keys[j]));
            const double delta = proj.Sign(r, keys[j]) * weights[j];
            const CellUpdate& m = map_out[static_cast<size_t>(r)];
            const CellUpdate& b = batch_out[j * d + static_cast<size_t>(r)];
            ASSERT_EQ(m.index, index) << "depth " << depth << " width "
                                      << width << " key " << keys[j];
            ASSERT_EQ(m.delta, delta);
            ASSERT_EQ(b.index, index);
            ASSERT_EQ(b.delta, delta);
            ++cells;
          }
        }
      }
    }
  }
  EXPECT_EQ(cells, 25 * 6 * 3 * static_cast<int64_t>(keys.size()));

  // Update and UpdateBatch add the same cells in record order.
  auto proj = MakeProjection(5, 111, 0xA65);
  FastAgms reference(proj), single(proj), batched(proj);
  for (size_t j = 0; j < keys.size(); ++j) {
    for (int r = 0; r < 5; ++r) {
      const size_t index = proj->CellIndex(r, proj->Bucket(r, keys[j]));
      reference.mutable_state()[index] += proj->Sign(r, keys[j]) * weights[j];
    }
    single.Update(keys[j], weights[j]);
  }
  batched.UpdateBatch(keys.data(), weights.data(), keys.size());
  for (size_t i = 0; i < reference.state().dim(); ++i) {
    ASSERT_EQ(single.state()[i], reference.state()[i]);
    ASSERT_EQ(batched.state()[i], reference.state()[i]);
  }
}

TEST(FastAgms, InsertDeleteCancels) {
  auto proj = MakeProjection(5, 32, 7);
  FastAgms sketch(proj);
  for (uint64_t key = 0; key < 100; ++key) sketch.Update(key, 1.0);
  for (uint64_t key = 0; key < 100; ++key) sketch.Update(key, -1.0);
  EXPECT_DOUBLE_EQ(sketch.state().SquaredNorm(), 0.0);
}

// The sketch estimate of a self-join must be within Θ(1/√w) relative
// error. Build a Zipf frequency vector and compare against the exact F2.
TEST(FastAgms, SelfJoinAccuracy) {
  auto proj = MakeProjection(7, 512, 11);
  FastAgms sketch(proj);
  Xoshiro256ss rng(123);
  ZipfDistribution zipf(5000, 1.1);
  std::map<uint64_t, double> freq;
  for (int i = 0; i < 40000; ++i) {
    const uint64_t key = zipf.Sample(rng);
    sketch.Update(key, 1.0);
    freq[key] += 1.0;
  }
  double exact = 0.0;
  for (const auto& [key, f] : freq) {
    (void)key;
    exact += f * f;
  }
  const double estimate = sketch.SelfJoinEstimate();
  EXPECT_NEAR(estimate, exact, 0.25 * exact);
}

TEST(FastAgms, JoinAccuracy) {
  auto proj = MakeProjection(7, 512, 13);
  FastAgms a(proj), b(proj);
  Xoshiro256ss rng(321);
  ZipfDistribution zipf(2000, 1.0);
  std::map<uint64_t, double> fa, fb;
  for (int i = 0; i < 30000; ++i) {
    const uint64_t key = zipf.Sample(rng);
    if (i % 3 == 0) {
      a.Update(key, 1.0);
      fa[key] += 1.0;
    } else {
      b.Update(key, 1.0);
      fb[key] += 1.0;
    }
  }
  double exact = 0.0;
  for (const auto& [key, f] : fa) {
    auto it = fb.find(key);
    if (it != fb.end()) exact += f * it->second;
  }
  const double estimate = FastAgms::JoinEstimate(a, b);
  EXPECT_NEAR(estimate, exact, 0.3 * exact);
}

TEST(FastAgms, EstimatesAreLinearInState) {
  // Sketching is linear: estimate of summed states equals estimate of
  // union stream. This is what lets protocols add drift vectors.
  auto proj = MakeProjection(5, 128, 17);
  FastAgms part1(proj), part2(proj), whole(proj);
  for (uint64_t key = 0; key < 3000; ++key) {
    const double weight = 1.0 + static_cast<double>(key % 3);
    if (key % 2 == 0) {
      part1.Update(key, weight);
    } else {
      part2.Update(key, weight);
    }
    whole.Update(key, weight);
  }
  RealVector sum = part1.state() + part2.state();
  EXPECT_NEAR(SelfJoinEstimate(*proj, sum), whole.SelfJoinEstimate(), 1e-6);
}

TEST(FastAgms, ConcatenatedJoinMatchesPair) {
  auto proj = MakeProjection(5, 64, 19);
  FastAgms a(proj), b(proj);
  for (uint64_t key = 0; key < 500; ++key) {
    a.Update(key, 1.0);
    b.Update(key * 3, 1.0);
  }
  RealVector concat(2 * proj->dimension());
  for (size_t i = 0; i < proj->dimension(); ++i) {
    concat[i] = a.state()[i];
    concat[proj->dimension() + i] = b.state()[i];
  }
  EXPECT_DOUBLE_EQ(JoinEstimateConcatenated(*proj, concat),
                   FastAgms::JoinEstimate(a, b));
}

TEST(FastAgms, SelfJoinOfSingletonIsSquaredWeight) {
  auto proj = MakeProjection(3, 8, 23);
  FastAgms sketch(proj);
  sketch.Update(42, 3.0);
  EXPECT_DOUBLE_EQ(sketch.SelfJoinEstimate(), 9.0);
}

}  // namespace
}  // namespace fgm
