// Fast-AGMS sketches (Cormode & Garofalakis, VLDB'05).
//
// A Fast-AGMS sketch is a depth × width matrix of counters. Each stream
// update (key, weight) touches exactly one cell per row: the cell chosen by
// a pairwise-independent bucket hash, incremented by weight times a 4-wise
// independent ±1 sign hash. Row inner products estimate join sizes; the
// median over rows boosts confidence. With width w the estimate is within
// Θ(1/√w) relative error with probability 1 - 2^{-Θ(depth)}.
//
// The hash family (AgmsProjection) is separated from the counter data so
// that distributed sites, the coordinator and the exact reference stream
// all share one linear projection: sketching is linear, hence drift vectors
// and sketch states can be added and scaled freely by the protocols.

#ifndef FGM_SKETCH_FAST_AGMS_H_
#define FGM_SKETCH_FAST_AGMS_H_

#include <cstdint>
#include <memory>
#include <vector>

#include "util/hash.h"
#include "util/real_vector.h"

namespace fgm {

/// One cell modification produced by projecting a stream update.
struct CellUpdate {
  size_t index;  ///< flat index into the depth*width state vector
  double delta;  ///< signed weight contribution
};

/// The linear projection defined by the AGMS hash family. Immutable and
/// shareable; all parties in a monitoring task must use the same instance
/// (same seed) so that their sketches are compatible.
class AgmsProjection {
 public:
  AgmsProjection(int depth, int width, uint64_t seed);

  int depth() const { return depth_; }
  int width() const { return width_; }
  /// Dimension of the flattened sketch vector (depth * width).
  size_t dimension() const {
    return static_cast<size_t>(depth_) * static_cast<size_t>(width_);
  }

  uint32_t Bucket(int row, uint64_t key) const {
    return bucket_[static_cast<size_t>(row)](key);
  }
  int Sign(int row, uint64_t key) const {
    return sign_[static_cast<size_t>(row)](key);
  }

  /// Flat index of (row, bucket) in the state vector (row-major).
  size_t CellIndex(int row, uint32_t bucket) const {
    return static_cast<size_t>(row) * static_cast<size_t>(width_) + bucket;
  }

  /// The per-key kernel every mapping path runs: writes the `depth` cell
  /// updates of one stream update to out[0..depth), row by row. The key
  /// is reduced mod 2^61 - 1 once and its powers x, x², x³ are shared by
  /// all rows; each row's bucket and sign polynomial is one sum of
  /// independent products, reduced once (MersenneReduce). Every cell
  /// equals CellIndex(r, Bucket(r, key)) and Sign(r, key) * weight.
  void MapInto(uint64_t key, double weight, CellUpdate* out) const;

  /// Appends the `depth` cell updates for one stream update to `out`
  /// (does not clear `out`).
  void Map(uint64_t key, double weight, std::vector<CellUpdate>* out) const;

  /// Batched Map, record-major: out[j * depth + d] is record j's row-d
  /// cell, the CellUpdate values Map() emits for record j. `out` must hold
  /// count * depth entries.
  void MapBatch(const uint64_t* keys, const double* weights, size_t count,
                CellUpdate* out) const;

 private:
  /// Row r's polynomial coefficients, copied from bucket_[r] and sign_[r]
  /// so MapInto reads one row's hashes from one place.
  struct RowCoeffs {
    uint64_t bucket[2];  // b0 + b1·x
    uint64_t sign[4];    // s0 + s1·x + s2·x² + s3·x³
  };

  int depth_;
  int width_;
  std::vector<BucketHash> bucket_;  // Horner reference for Bucket()
  std::vector<SignHash> sign_;      // Horner reference for Sign()
  std::vector<RowCoeffs> rows_;
};

/// A sketch: shared projection + owned counter state.
class FastAgms {
 public:
  explicit FastAgms(std::shared_ptr<const AgmsProjection> projection);

  const AgmsProjection& projection() const { return *projection_; }
  const RealVector& state() const { return state_; }
  RealVector& mutable_state() { return state_; }

  /// Applies one stream update.
  void Update(uint64_t key, double weight);

  /// Applies `count` stream updates in record order, bit-identical to
  /// `count` Update() calls.
  void UpdateBatch(const uint64_t* keys, const double* weights, size_t count);

  /// Self-join (F2) estimate: median over rows of the row squared norm.
  double SelfJoinEstimate() const;

  /// Join estimate between two sketches over the same projection:
  /// median over rows of the row inner products.
  static double JoinEstimate(const FastAgms& a, const FastAgms& b);

 private:
  std::shared_ptr<const AgmsProjection> projection_;
  RealVector state_;
  std::vector<CellUpdate> cells_;  // one update's cells (MapInto scratch)
};

/// Median of `values` (odd sizes take the middle element; even sizes the
/// average of the two middle elements). `values` is copied.
double Median(std::vector<double> values);

/// Self-join estimate directly from a flattened state vector.
double SelfJoinEstimate(const AgmsProjection& projection,
                        const RealVector& state);

/// Join estimate from two flattened state vectors over one projection.
double JoinEstimate(const AgmsProjection& projection, const RealVector& s1,
                    const RealVector& s2);

/// Join estimate when the two sketches are concatenated into one state of
/// dimension 2 * projection.dimension() (the Q2 layout of the paper).
double JoinEstimateConcatenated(const AgmsProjection& projection,
                                const RealVector& s1s2);

}  // namespace fgm

#endif  // FGM_SKETCH_FAST_AGMS_H_
