#include "util/rng.h"

#include <cmath>

#include "util/check.h"

namespace fgm {

namespace {

uint64_t SplitMix64(uint64_t& state) {
  state += 0x9E3779B97F4A7C15ull;
  uint64_t z = state;
  z = (z ^ (z >> 30)) * 0xBF58476D1CE4E5B9ull;
  z = (z ^ (z >> 27)) * 0x94D049BB133111EBull;
  return z ^ (z >> 31);
}

uint64_t Rotl(uint64_t x, int k) { return (x << k) | (x >> (64 - k)); }

}  // namespace

Xoshiro256ss::Xoshiro256ss(uint64_t seed) {
  uint64_t sm = seed;
  for (auto& lane : s_) lane = SplitMix64(sm);
}

Xoshiro256ss::result_type Xoshiro256ss::operator()() {
  const uint64_t result = Rotl(s_[1] * 5, 7) * 9;
  const uint64_t t = s_[1] << 17;
  s_[2] ^= s_[0];
  s_[3] ^= s_[1];
  s_[1] ^= s_[2];
  s_[0] ^= s_[3];
  s_[2] ^= t;
  s_[3] = Rotl(s_[3], 45);
  return result;
}

double Xoshiro256ss::NextDouble() {
  // 53 high bits give a uniform double in [0, 1).
  return static_cast<double>((*this)() >> 11) * 0x1.0p-53;
}

uint64_t Xoshiro256ss::NextBounded(uint64_t bound) {
  FGM_DCHECK(bound > 0);
  // Lemire's nearly-divisionless method.
  __uint128_t m = static_cast<__uint128_t>((*this)()) * bound;
  uint64_t lo = static_cast<uint64_t>(m);
  if (lo < bound) {
    const uint64_t threshold = -bound % bound;
    while (lo < threshold) {
      m = static_cast<__uint128_t>((*this)()) * bound;
      lo = static_cast<uint64_t>(m);
    }
  }
  return static_cast<uint64_t>(m >> 64);
}

int64_t Xoshiro256ss::NextInt(int64_t lo, int64_t hi) {
  FGM_DCHECK(lo <= hi);
  return lo + static_cast<int64_t>(
                  NextBounded(static_cast<uint64_t>(hi - lo) + 1));
}

double Xoshiro256ss::NextExponential(double rate) {
  FGM_DCHECK(rate > 0);
  double u;
  do {
    u = NextDouble();
  } while (u <= 0.0);
  return -std::log(u) / rate;
}

double Xoshiro256ss::NextGaussian() {
  double u, v, q;
  do {
    u = 2.0 * NextDouble() - 1.0;
    v = 2.0 * NextDouble() - 1.0;
    q = u * u + v * v;
  } while (q >= 1.0 || q == 0.0);
  return u * std::sqrt(-2.0 * std::log(q) / q);
}

Xoshiro256ss Xoshiro256ss::Fork() { return Xoshiro256ss((*this)()); }

// ---------------------------------------------------------------------------
// ZipfDistribution: rejection-inversion (Hörmann & Derflinger 1996).
// H(x) = ((x)^{1-s} - 1) / (1-s) for s != 1, log(x) for s == 1, is a
// monotone envelope of the discrete Zipf CDF; we invert it and reject.
// ---------------------------------------------------------------------------

ZipfDistribution::ZipfDistribution(uint64_t n, double s) : n_(n), s_(s) {
  FGM_CHECK(n >= 1);
  FGM_CHECK(s > 0);
  h_x1_ = H(1.5) - 1.0;
  h_n_ = H(static_cast<double>(n) + 0.5);
  threshold_ = 2.0 - HInverse(H(2.5) - std::pow(2.0, -s_));
}

double ZipfDistribution::H(double x) const {
  if (s_ == 1.0) return std::log(x);
  return (std::pow(x, 1.0 - s_) - 1.0) / (1.0 - s_);
}

double ZipfDistribution::HInverse(double x) const {
  if (s_ == 1.0) return std::exp(x);
  return std::pow(1.0 + x * (1.0 - s_), 1.0 / (1.0 - s_));
}

uint64_t ZipfDistribution::Sample(Xoshiro256ss& rng) const {
  if (n_ == 1) return 1;
  while (true) {
    const double u = h_n_ + rng.NextDouble() * (h_x1_ - h_n_);
    const double x = HInverse(u);
    uint64_t k = static_cast<uint64_t>(x + 0.5);
    if (k < 1) k = 1;
    if (k > n_) k = n_;
    if (static_cast<double>(k) - x <= threshold_ ||
        u >= H(static_cast<double>(k) + 0.5) -
                 std::pow(static_cast<double>(k), -s_)) {
      return k;
    }
  }
}

std::vector<double> PowerLawWeights(int k, double alpha) {
  FGM_CHECK(k >= 1);
  std::vector<double> w(static_cast<size_t>(k));
  double total = 0.0;
  for (int r = 0; r < k; ++r) {
    w[static_cast<size_t>(r)] = std::pow(static_cast<double>(r + 1), -alpha);
    total += w[static_cast<size_t>(r)];
  }
  for (double& x : w) x /= total;
  return w;
}

GuidedCdf::GuidedCdf(const std::vector<double>& weights) {
  FGM_CHECK(!weights.empty());
  const int k = static_cast<int>(weights.size());
  cdf_.reserve(weights.size());
  double acc = 0.0;
  for (double w : weights) {
    FGM_CHECK_GE(w, 0.0);
    acc += w;
    cdf_.push_back(acc);
  }
  // The bucket edges g/k increase, so one forward scan fills the table.
  guide_.resize(weights.size());
  int i = 0;
  for (int g = 0; g < k; ++g) {
    const double edge = static_cast<double>(g) / k;
    while (i + 1 < k && cdf_[static_cast<size_t>(i)] < edge) ++i;
    guide_[static_cast<size_t>(g)] = i;
  }
}

}  // namespace fgm
