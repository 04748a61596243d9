// k-wise independent hash families over the Mersenne prime 2^61 - 1.
//
// Fast-AGMS sketches need a pairwise-independent bucket hash and a 4-wise
// independent ±1 sign hash per row (Cormode & Garofalakis, VLDB'05). Both
// are provided by PolyHash, a degree-(k-1) polynomial with random
// coefficients evaluated modulo p = 2^61 - 1 by Horner's rule.
// MersenneReduce lets a caller evaluate the same polynomials as one sum of
// independent products instead (sketch/fast_agms.cc); PolyHash stays the
// reference that path is tested against.

#ifndef FGM_UTIL_HASH_H_
#define FGM_UTIL_HASH_H_

#include <array>
#include <cstddef>
#include <cstdint>

namespace fgm {

class Xoshiro256ss;

/// Degree-(Degree) polynomial hash over GF(2^61 - 1); a polynomial with
/// Degree+1 random coefficients gives a (Degree+1)-wise independent family.
template <int Degree>
class PolyHash {
 public:
  static constexpr uint64_t kMersennePrime = (uint64_t{1} << 61) - 1;

  PolyHash() : coeff_{} {}

  /// Draws random coefficients in [0, p); the leading coefficient is made
  /// nonzero so the polynomial has full degree.
  explicit PolyHash(Xoshiro256ss& rng);

  /// Evaluates the polynomial at `x` modulo 2^61 - 1. Result in [0, p).
  uint64_t operator()(uint64_t x) const {
    uint64_t acc = coeff_[Degree];
    const uint64_t xm = Mod(x);
    for (int i = Degree - 1; i >= 0; --i) {
      acc = AddMod(MulMod(acc, xm), coeff_[static_cast<size_t>(i)]);
    }
    return acc;
  }

  static uint64_t Mod(uint64_t x) {
    uint64_t r = (x & kMersennePrime) + (x >> 61);
    if (r >= kMersennePrime) r -= kMersennePrime;
    return r;
  }

  static uint64_t AddMod(uint64_t a, uint64_t b) {
    uint64_t r = a + b;  // < 2^62, no overflow
    if (r >= kMersennePrime) r -= kMersennePrime;
    return r;
  }

  static uint64_t MulMod(uint64_t a, uint64_t b) {
    const __uint128_t prod = static_cast<__uint128_t>(a) * b;
    const uint64_t lo = static_cast<uint64_t>(prod) & kMersennePrime;
    const uint64_t hi = static_cast<uint64_t>(prod >> 61);
    return AddMod(lo, Mod(hi));
  }

  /// Coefficient of x^i, in [0, p).
  uint64_t coeff(int i) const { return coeff_[static_cast<size_t>(i)]; }

 private:
  std::array<uint64_t, Degree + 1> coeff_;
};

/// The canonical residue of `x` modulo p = 2^61 - 1, in [0, p), for any
/// x < 2^124. 2^61 ≡ 1 (mod p), so the high bits fold onto the low ones
/// in one 64-bit add. A product of two residues is below 2^122, so a sum
/// of up to four of them reduces in one call, and since the residue is
/// unique it equals what Horner's rule reaches one MulMod at a time.
inline uint64_t MersenneReduce(__uint128_t x) {
  constexpr uint64_t p = PolyHash<1>::kMersennePrime;
  return PolyHash<1>::Mod((static_cast<uint64_t>(x) & p) +
                          static_cast<uint64_t>(x >> 61));
}

/// Pairwise-independent hash (degree-1 polynomial).
using PairwiseHash = PolyHash<1>;

/// 4-wise independent hash (degree-3 polynomial).
using FourwiseHash = PolyHash<3>;

/// Pairwise-independent hash into [0, buckets).
class BucketHash {
 public:
  BucketHash() : buckets_(1) {}
  BucketHash(Xoshiro256ss& rng, uint32_t buckets);

  uint32_t buckets() const { return buckets_; }

  uint32_t operator()(uint64_t x) const {
    return static_cast<uint32_t>(hash_(x) % buckets_);
  }

  const PairwiseHash& poly() const { return hash_; }

 private:
  PairwiseHash hash_;
  uint32_t buckets_;
};

/// 4-wise independent ±1 hash, as required for AGMS variance bounds.
class SignHash {
 public:
  SignHash() = default;
  explicit SignHash(Xoshiro256ss& rng) : hash_(rng) {}

  int operator()(uint64_t x) const { return (hash_(x) & 1) ? +1 : -1; }

  const FourwiseHash& poly() const { return hash_; }

 private:
  FourwiseHash hash_;
};

/// A fast non-cryptographic 64-bit mixer (SplitMix64 finalizer); used for
/// deterministic site re-partitioning, not for sketch guarantees.
uint64_t MixHash64(uint64_t x);

}  // namespace fgm

#endif  // FGM_UTIL_HASH_H_
