// Deterministic pseudo-random generation for workloads and tests.
//
// Provides:
//  * Xoshiro256ss — a fast, high-quality 64-bit PRNG usable as a C++
//    UniformRandomBitGenerator.
//  * ZipfDistribution — Zipf(s) over {1..n} with O(1) amortized sampling
//    (rejection-inversion, Hörmann & Derflinger).
//  * GuidedCdf — inverse-CDF draws over k categories in O(1) expected
//    steps (guide table, Chen & Asau).
//  * Small helpers for uniform doubles/ints and exponential variates.
//
// All generators are explicitly seeded; the library never uses global or
// time-dependent randomness, so every experiment is reproducible.

#ifndef FGM_UTIL_RNG_H_
#define FGM_UTIL_RNG_H_

#include <algorithm>
#include <cstdint>
#include <vector>

namespace fgm {

/// xoshiro256** by Blackman & Vigna (public domain reference
/// implementation), adapted as a UniformRandomBitGenerator.
class Xoshiro256ss {
 public:
  using result_type = uint64_t;

  /// Seeds the four 64-bit lanes from `seed` using SplitMix64, which is the
  /// seeding procedure recommended by the xoshiro authors.
  explicit Xoshiro256ss(uint64_t seed = 0x9E3779B97F4A7C15ull);

  static constexpr result_type min() { return 0; }
  static constexpr result_type max() { return ~uint64_t{0}; }

  result_type operator()();

  /// Uniform double in [0, 1).
  double NextDouble();

  /// Uniform integer in [0, bound) using Lemire's multiply-shift rejection.
  uint64_t NextBounded(uint64_t bound);

  /// Uniform integer in [lo, hi] inclusive.
  int64_t NextInt(int64_t lo, int64_t hi);

  /// Exponential variate with the given rate (mean 1/rate).
  double NextExponential(double rate);

  /// Standard normal variate (Marsaglia polar method).
  double NextGaussian();

  /// Forks an independent generator (jump via reseeding with a drawn value).
  Xoshiro256ss Fork();

 private:
  uint64_t s_[4];
};

/// Zipf distribution over {1, ..., n} with exponent s > 0:
/// P(X = i) ∝ i^{-s}. Uses rejection-inversion sampling so construction is
/// O(1) and sampling is O(1) expected, independent of n.
class ZipfDistribution {
 public:
  ZipfDistribution(uint64_t n, double s);

  uint64_t n() const { return n_; }
  double s() const { return s_; }

  /// Draws one sample in [1, n].
  uint64_t Sample(Xoshiro256ss& rng) const;

 private:
  double H(double x) const;
  double HInverse(double x) const;

  uint64_t n_;
  double s_;
  double h_x1_;
  double h_n_;
  double threshold_;  // s_ applied to x = 1.5 boundary helper
};

/// Draws `k` nonnegative weights following a power law with exponent
/// `alpha` (weight of rank r ∝ r^{-alpha}), normalized to sum to 1.
/// Used to model skewed per-site stream rates.
std::vector<double> PowerLawWeights(int k, double alpha);

/// Inverse-CDF draw over k categories with a guide table (Chen & Asau).
/// Pick(u) returns the index of the capped linear scan
///   i = 0; while (i + 1 < k && cdf[i] < u) ++i;
/// in O(1) expected steps instead of O(k). guide_[g] holds that scan's
/// answer at u = g/k, and Pick starts the scan from the entry one bucket
/// below floor(u·k): the scan's answer never decreases in u, so the entry
/// cannot lie past the answer even when u·k rounds up onto a bucket edge.
class GuidedCdf {
 public:
  /// `weights` (k >= 1 of them, nonnegative) are summed in order into
  /// the CDF.
  explicit GuidedCdf(const std::vector<double>& weights);

  /// The category of a uniform draw `u` in [0, 1).
  int Pick(double u) const {
    const int k = static_cast<int>(cdf_.size());
    const int g = std::clamp(static_cast<int>(u * k) - 1, 0, k - 1);
    int i = guide_[static_cast<size_t>(g)];
    while (i + 1 < k && cdf_[static_cast<size_t>(i)] < u) ++i;
    return i;
  }

  const std::vector<double>& cdf() const { return cdf_; }

 private:
  std::vector<double> cdf_;
  std::vector<int> guide_;
};

}  // namespace fgm

#endif  // FGM_UTIL_RNG_H_
