// Unit tests for the util module: RNG, hashing, vectors, subsets, stats,
// command-line flags.

#include <algorithm>
#include <cmath>
#include <map>
#include <set>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "util/flags.h"
#include "util/hash.h"
#include "util/real_vector.h"
#include "util/rng.h"
#include "util/stats.h"
#include "util/subsets.h"

namespace fgm {
namespace {

TEST(Xoshiro, DeterministicForSeed) {
  Xoshiro256ss a(42), b(42), c(43);
  EXPECT_EQ(a(), b());
  EXPECT_EQ(a(), b());
  Xoshiro256ss a2(42);
  EXPECT_NE(a2(), c());
}

TEST(Xoshiro, NextDoubleInUnitInterval) {
  Xoshiro256ss rng(7);
  for (int i = 0; i < 10000; ++i) {
    const double u = rng.NextDouble();
    ASSERT_GE(u, 0.0);
    ASSERT_LT(u, 1.0);
  }
}

TEST(Xoshiro, NextBoundedCoversRangeUniformly) {
  Xoshiro256ss rng(11);
  std::vector<int> counts(10, 0);
  const int n = 100000;
  for (int i = 0; i < n; ++i) ++counts[rng.NextBounded(10)];
  for (int c : counts) {
    EXPECT_NEAR(c, n / 10, 5 * std::sqrt(n / 10.0));
  }
}

TEST(Xoshiro, NextIntInclusiveBounds) {
  Xoshiro256ss rng(3);
  std::set<int64_t> seen;
  for (int i = 0; i < 1000; ++i) {
    const int64_t v = rng.NextInt(-2, 2);
    ASSERT_GE(v, -2);
    ASSERT_LE(v, 2);
    seen.insert(v);
  }
  EXPECT_EQ(seen.size(), 5u);
}

TEST(Xoshiro, GaussianMomentsRoughlyStandard) {
  Xoshiro256ss rng(5);
  RunningStats stats;
  for (int i = 0; i < 50000; ++i) stats.Add(rng.NextGaussian());
  EXPECT_NEAR(stats.mean(), 0.0, 0.02);
  EXPECT_NEAR(stats.stddev(), 1.0, 0.02);
}

TEST(Zipf, SamplesInRangeAndSkewed) {
  Xoshiro256ss rng(13);
  ZipfDistribution zipf(1000, 1.1);
  std::map<uint64_t, int> counts;
  const int n = 200000;
  for (int i = 0; i < n; ++i) {
    const uint64_t v = zipf.Sample(rng);
    ASSERT_GE(v, 1u);
    ASSERT_LE(v, 1000u);
    ++counts[v];
  }
  // Rank 1 must dominate and the tail must still be hit.
  EXPECT_GT(counts[1], counts[10] * 5 / 2);
  EXPECT_GT(counts[1], n / 20);
  EXPECT_GT(counts.size(), 500u);
}

TEST(Zipf, MatchesTheoreticalHeadProbability) {
  Xoshiro256ss rng(17);
  const double s = 1.2;
  const uint64_t n_items = 100;
  ZipfDistribution zipf(n_items, s);
  double harmonic = 0.0;
  for (uint64_t i = 1; i <= n_items; ++i) {
    harmonic += std::pow(static_cast<double>(i), -s);
  }
  const int n = 300000;
  int head = 0;
  for (int i = 0; i < n; ++i) {
    if (zipf.Sample(rng) == 1) ++head;
  }
  const double expected = 1.0 / harmonic;
  EXPECT_NEAR(static_cast<double>(head) / n, expected, 0.01);
}

TEST(PowerLawWeights, NormalizedAndDecreasing) {
  const std::vector<double> w = PowerLawWeights(10, 1.0);
  double total = 0.0;
  for (size_t i = 0; i < w.size(); ++i) {
    total += w[i];
    if (i > 0) {
      EXPECT_LT(w[i], w[i - 1]);
    }
  }
  EXPECT_NEAR(total, 1.0, 1e-12);
}

TEST(PolyHash, PairwiseDistributesUniformly) {
  Xoshiro256ss rng(19);
  BucketHash h(rng, 16);
  std::vector<int> counts(16, 0);
  const int n = 160000;
  for (int i = 0; i < n; ++i) ++counts[h(static_cast<uint64_t>(i))];
  for (int c : counts) {
    EXPECT_NEAR(c, n / 16, 6 * std::sqrt(n / 16.0));
  }
}

TEST(SignHash, BalancedSigns) {
  Xoshiro256ss rng(23);
  SignHash h(rng);
  int64_t sum = 0;
  const int n = 100000;
  for (int i = 0; i < n; ++i) sum += h(static_cast<uint64_t>(i));
  EXPECT_LT(std::llabs(sum), 6 * static_cast<int64_t>(std::sqrt(n)));
}

TEST(SignHash, FourwisePairProductsBalanced) {
  // 4-wise independence implies E[s(a)s(b)] = 0 for a != b.
  Xoshiro256ss rng(29);
  SignHash h(rng);
  int64_t sum = 0;
  const int n = 100000;
  for (int i = 0; i < n; ++i) {
    sum += h(static_cast<uint64_t>(i)) * h(static_cast<uint64_t>(i) + 777777);
  }
  EXPECT_LT(std::llabs(sum), 6 * static_cast<int64_t>(std::sqrt(n)));
}

TEST(PolyHash, ModArithmeticMatchesNaive) {
  // MulMod against __int128 reference.
  Xoshiro256ss rng(31);
  constexpr uint64_t p = PolyHash<1>::kMersennePrime;
  for (int i = 0; i < 1000; ++i) {
    const uint64_t a = rng.NextBounded(p);
    const uint64_t b = rng.NextBounded(p);
    const uint64_t expected =
        static_cast<uint64_t>((static_cast<__uint128_t>(a) * b) % p);
    EXPECT_EQ(PolyHash<1>::MulMod(a, b), expected);
  }
}

TEST(PolyHash, MersenneReduceMatchesNaive) {
  // Sums of four products of residues, as the sketch kernel forms them,
  // plus the edges of the documented input range x < 2^124.
  Xoshiro256ss rng(37);
  constexpr uint64_t p = PolyHash<1>::kMersennePrime;
  using Wide = __uint128_t;
  const Wide edges[] = {0, 1, p - 1, p, p + 1, Wide{p} * p,
                        4 * Wide{p - 1} * (p - 1), (Wide{1} << 124) - 1};
  for (const Wide x : edges) {
    EXPECT_EQ(MersenneReduce(x), static_cast<uint64_t>(x % p));
  }
  for (int i = 0; i < 100000; ++i) {
    Wide sum = 0;
    for (int t = 0; t < 4; ++t) {
      sum += Wide{rng.NextBounded(p)} * rng.NextBounded(p);
    }
    ASSERT_EQ(MersenneReduce(sum), static_cast<uint64_t>(sum % p));
  }
}

TEST(RealVector, BasicOps) {
  RealVector a{1.0, 2.0, 3.0};
  RealVector b{4.0, -5.0, 6.0};
  EXPECT_DOUBLE_EQ(a.Dot(b), 1 * 4 - 2 * 5 + 3 * 6);
  EXPECT_DOUBLE_EQ(a.SquaredNorm(), 14.0);
  EXPECT_DOUBLE_EQ(a.Norm(), std::sqrt(14.0));
  EXPECT_DOUBLE_EQ(a.Sum(), 6.0);
  RealVector c = a + b;
  EXPECT_DOUBLE_EQ(c[0], 5.0);
  c -= b;
  EXPECT_DOUBLE_EQ(c[1], a[1]);
  c *= 2.0;
  EXPECT_DOUBLE_EQ(c[2], 6.0);
  c.Axpy(1.0, a);
  EXPECT_DOUBLE_EQ(c[0], 3.0);
}

TEST(RealVector, LpNorms) {
  RealVector v{3.0, -4.0};
  EXPECT_DOUBLE_EQ(v.LpNorm(1), 7.0);
  EXPECT_DOUBLE_EQ(v.LpNorm(2), 5.0);
  EXPECT_NEAR(v.LpNorm(3), std::cbrt(27.0 + 64.0), 1e-12);
  // Monotone decreasing in p.
  EXPECT_GT(v.LpNorm(1), v.LpNorm(2));
  EXPECT_GT(v.LpNorm(2), v.LpNorm(4));
}

TEST(RealVector, DistanceSymmetric) {
  RealVector a{1.0, 0.0}, b{0.0, 1.0};
  EXPECT_DOUBLE_EQ(Distance(a, b), std::sqrt(2.0));
  EXPECT_DOUBLE_EQ(Distance(a, b), Distance(b, a));
  EXPECT_DOUBLE_EQ(Distance(a, a), 0.0);
}

TEST(Subsets, CountsMatchBinomials) {
  EXPECT_EQ(BinomialCoefficient(7, 3), 35);
  EXPECT_EQ(BinomialCoefficient(9, 5), 126);
  EXPECT_EQ(BinomialCoefficient(5, 0), 1);
  EXPECT_EQ(BinomialCoefficient(5, 6), 0);
  EXPECT_EQ(EnumerateSubsets(7, 3).size(), 35u);
  EXPECT_EQ(EnumerateSubsets(4, 4).size(), 1u);
  EXPECT_EQ(EnumerateSubsets(4, 0).size(), 1u);
}

TEST(Subsets, ElementsValidAndDistinct) {
  for (const auto& s : EnumerateSubsets(6, 3)) {
    ASSERT_EQ(s.size(), 3u);
    EXPECT_TRUE(std::is_sorted(s.begin(), s.end()));
    EXPECT_EQ(std::set<int>(s.begin(), s.end()).size(), 3u);
    for (int v : s) {
      EXPECT_GE(v, 0);
      EXPECT_LT(v, 6);
    }
  }
}

TEST(RunningStats, KnownSequence) {
  RunningStats s;
  for (double v : {2.0, 4.0, 4.0, 4.0, 5.0, 5.0, 7.0, 9.0}) s.Add(v);
  EXPECT_DOUBLE_EQ(s.mean(), 5.0);
  EXPECT_NEAR(s.stddev(), std::sqrt(32.0 / 7.0), 1e-12);
  EXPECT_DOUBLE_EQ(s.min(), 2.0);
  EXPECT_DOUBLE_EQ(s.max(), 9.0);
}

TEST(CountHistogram, QuantilesAndOverflow) {
  CountHistogram h(10);
  for (int i = 0; i < 100; ++i) h.Add(i % 5);
  EXPECT_EQ(h.total(), 100);
  EXPECT_EQ(h.CountAt(3), 20);
  EXPECT_EQ(h.Quantile(0.5), 2);
  EXPECT_EQ(h.max_observed(), 4);
  h.Add(1000);  // overflow bucket
  EXPECT_EQ(h.max_observed(), 1000);
}

/// Builds a Flags instance from a literal argv (argv[0] is the binary).
Flags MakeFlags(std::vector<std::string> args) {
  args.insert(args.begin(), "test_binary");
  std::vector<char*> argv;
  for (std::string& a : args) argv.push_back(a.data());
  return Flags(static_cast<int>(argv.size()), argv.data());
}

TEST(Flags, ParsesBothForms) {
  Flags f = MakeFlags({"--sites=5", "pos", "--eps", "0.25", "--strict"});
  EXPECT_EQ(f.GetInt("sites", 0), 5);
  EXPECT_DOUBLE_EQ(f.GetDouble("eps", 0.0), 0.25);
  EXPECT_TRUE(f.GetBool("strict", false));
  ASSERT_EQ(f.positional().size(), 1u);
  EXPECT_EQ(f.positional()[0], "pos");
  EXPECT_TRUE(f.Validate(""));
}

TEST(Flags, ValidateRejectsUnknownFlags) {
  Flags f = MakeFlags({"--sites=5", "--sties=7"});
  EXPECT_EQ(f.GetInt("sites", 0), 5);
  // "--sties" was never read by a getter: Validate must fail on the typo.
  EXPECT_FALSE(f.Validate("usage text"));
}

TEST(Flags, GetCountAcceptsValidValues) {
  Flags f = MakeFlags({"--updates=400000", "--sites=8"});
  EXPECT_EQ(f.GetCount("updates", 0), 400000);
  EXPECT_EQ(f.GetCount("sites", 1), 8);
  EXPECT_EQ(f.GetCount("absent", 42), 42);
  EXPECT_TRUE(f.Validate(""));
}

TEST(Flags, GetCountRejectsNegativeValues) {
  Flags f = MakeFlags({"--updates=-3"});
  // The default is returned in place of the rejected value...
  EXPECT_EQ(f.GetCount("updates", 7), 7);
  // ...and Validate reports the usage error.
  EXPECT_FALSE(f.Validate(""));
}

TEST(Flags, GetCountRejectsNonNumericValues) {
  Flags f = MakeFlags({"--sites=many"});
  EXPECT_EQ(f.GetCount("sites", 1), 1);
  EXPECT_FALSE(f.Validate(""));
}

TEST(Flags, GetCountRejectsTrailingGarbage) {
  Flags f = MakeFlags({"--width=300x"});
  EXPECT_EQ(f.GetCount("width", 5), 5);
  EXPECT_FALSE(f.Validate(""));
}

TEST(Flags, GetIntStillPermitsNegatives) {
  // Signed options (offsets, deltas) go through GetInt unchanged.
  Flags f = MakeFlags({"--delta=-12"});
  EXPECT_EQ(f.GetInt("delta", 0), -12);
  EXPECT_TRUE(f.Validate(""));
}

TEST(Flags, GetDoubleAndGetIntRejectPartialParses) {
  Flags f = MakeFlags({"--window=14400s", "--eps=0.1x", "--net_drop=abc",
                       "--net_seed=abc", "--offset=-4", "--scale=2.5e-3"});
  // The default comes back in place of each value that does not parse
  // completely...
  EXPECT_EQ(f.GetDouble("window", 7.0), 7.0);
  EXPECT_EQ(f.GetDouble("eps", 0.5), 0.5);
  EXPECT_EQ(f.GetDouble("net_drop", 0.25), 0.25);
  EXPECT_EQ(f.GetInt("net_seed", 11), 11);
  // ...complete values still parse, signs and exponents included...
  EXPECT_EQ(f.GetInt("offset", 0), -4);
  EXPECT_DOUBLE_EQ(f.GetDouble("scale", 0.0), 2.5e-3);
  // ...and Validate reports the usage errors.
  EXPECT_FALSE(f.Validate(""));
}

TEST(CountHistogram, QuantileZeroIsMinimumObservedBucket) {
  CountHistogram h(10);
  for (int i = 0; i < 5; ++i) h.Add(3);
  h.Add(7);
  // Quantile(0.0) must report the smallest populated bucket, not bucket 0.
  EXPECT_EQ(h.Quantile(0.0), 3);
  EXPECT_EQ(h.Quantile(1.0), 7);
  h.Add(1);
  EXPECT_EQ(h.Quantile(0.0), 1);
}

}  // namespace
}  // namespace fgm
