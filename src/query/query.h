// Continuous-query specifications.
//
// A ContinuousQuery encapsulates everything problem-specific about a
// monitoring task, keeping the protocols (FGM, GM, centralizing baseline)
// completely generic — the separation of concerns that is the central
// practical point of the paper:
//   * the linear summary: how a stream record maps to state-vector deltas
//     (e.g. the Fast-AGMS projection);
//   * the query function Q on state vectors;
//   * the safe-function family: given the coordinator's estimate E, build
//     the (A, E, k)-safe function for the admissible region
//         A = {x : Q(x) ∈ [T_lo, T_hi]},
//     with T_lo/hi = Q(E) ∓ max(ε·|Q(E)|, floor). The small absolute
//     `floor` keeps thresholds nondegenerate at Q(E) ≈ 0 (cold start);
//     the guarantee maintained is the standard relative-with-floor bound
//     |Q(S) - Q(E)| ≤ max(ε|Q(E)|, floor).

#ifndef FGM_QUERY_QUERY_H_
#define FGM_QUERY_QUERY_H_

#include <memory>
#include <string>
#include <utility>
#include <vector>

#include "safezone/safe_function.h"
#include "sketch/fast_agms.h"
#include "stream/record.h"
#include "util/real_vector.h"

namespace fgm {

struct ThresholdPair {
  double lo;
  double hi;
};

class ContinuousQuery {
 public:
  virtual ~ContinuousQuery() = default;

  virtual std::string name() const = 0;

  /// Dimension D of the state vectors.
  virtual size_t dimension() const = 0;

  /// Appends the state-vector deltas of one stream record to `out`, each
  /// coordinate at most once, so √Σδ² is the record's step ‖Δ‖ (the FGM
  /// site's Lipschitz certificate spends it).
  virtual void MapRecord(const StreamRecord& record,
                         std::vector<CellUpdate>* out) const = 0;

  /// Batched MapRecord over `n` records gathered as base[positions[j]],
  /// j in [0, n): appends every record's deltas to `out` in record order
  /// and pushes the post-record out->size() onto `ends` (so record j's
  /// deltas are [j == 0 ? start : ends[j-1], ends[j])). The deltas are
  /// bit-identical to n sequential MapRecord calls; projection-backed
  /// queries override this to map whole blocks of keys through
  /// AgmsProjection::MapBatch. Thread-safe: touches only caller-provided
  /// buffers.
  virtual void MapRecordBatch(const StreamRecord* base,
                              const int64_t* positions, int64_t n,
                              std::vector<CellUpdate>* out,
                              std::vector<size_t>* ends) const {
    for (int64_t j = 0; j < n; ++j) {
      MapRecord(base[positions[j]], out);
      ends->push_back(out->size());
    }
  }

  /// Exact query value on a state vector.
  virtual double Evaluate(const RealVector& state) const = 0;

  /// Monitoring thresholds around the estimate: [T_lo, T_hi].
  virtual ThresholdPair Thresholds(const RealVector& estimate) const = 0;

  /// Builds the safe function for the admissible region around `estimate`.
  virtual std::unique_ptr<SafeFunction> MakeSafeFunction(
      const RealVector& estimate) const = 0;

  /// Relative monitoring accuracy ε.
  virtual double epsilon() const = 0;
};

/// Q1 of the paper: self-join size R ⋈_CID R, estimated by the median of
/// the squared row norms of one Fast-AGMS sketch over the CID frequency
/// vector.
class SelfJoinQuery : public ContinuousQuery {
 public:
  SelfJoinQuery(std::shared_ptr<const AgmsProjection> projection,
                double epsilon, double threshold_floor = 1.0);

  std::string name() const override { return "Q1-selfjoin"; }
  size_t dimension() const override { return projection_->dimension(); }
  void MapRecord(const StreamRecord& record,
                 std::vector<CellUpdate>* out) const override;
  void MapRecordBatch(const StreamRecord* base, const int64_t* positions,
                      int64_t n, std::vector<CellUpdate>* out,
                      std::vector<size_t>* ends) const override;
  double Evaluate(const RealVector& state) const override;
  ThresholdPair Thresholds(const RealVector& estimate) const override;
  std::unique_ptr<SafeFunction> MakeSafeFunction(
      const RealVector& estimate) const override;
  double epsilon() const override { return epsilon_; }

  const AgmsProjection& projection() const { return *projection_; }

 private:
  std::shared_ptr<const AgmsProjection> projection_;
  double epsilon_;
  double floor_;
};

/// Q2 of the paper: join size σ_{TYPE=HTML}(R) ⋈_CID σ_{TYPE≠HTML}(R).
/// The state vector is the concatenation of the two filtered sketches.
class JoinQuery : public ContinuousQuery {
 public:
  JoinQuery(std::shared_ptr<const AgmsProjection> projection, double epsilon,
            double threshold_floor = 1.0);

  std::string name() const override { return "Q2-join"; }
  size_t dimension() const override { return 2 * projection_->dimension(); }
  void MapRecord(const StreamRecord& record,
                 std::vector<CellUpdate>* out) const override;
  void MapRecordBatch(const StreamRecord* base, const int64_t* positions,
                      int64_t n, std::vector<CellUpdate>* out,
                      std::vector<size_t>* ends) const override;
  double Evaluate(const RealVector& state) const override;
  ThresholdPair Thresholds(const RealVector& estimate) const override;
  std::unique_ptr<SafeFunction> MakeSafeFunction(
      const RealVector& estimate) const override;
  double epsilon() const override { return epsilon_; }

  const AgmsProjection& projection() const { return *projection_; }

 private:
  std::shared_ptr<const AgmsProjection> projection_;
  double epsilon_;
  double floor_;
};

/// F_p-norm query over an explicit frequency vector (paper §3): monitors
/// Q(S) = ‖S‖_p of the vector of CID frequencies folded into `dimension`
/// buckets. Two safe-function modes:
///  * kMonotoneUpper — insert-only streams: φ(x) = ‖x+E‖_p - T_hi (the
///    §3 analysis; the lower bound is implied by monotonicity);
///  * kTwoSided — p = 2 with deletions: the max composition of §3.0.3.
class FpNormQuery : public ContinuousQuery {
 public:
  enum class Mode { kMonotoneUpper, kTwoSided };

  FpNormQuery(size_t dimension, double p, double epsilon, Mode mode,
              double threshold_floor = 1.0);

  std::string name() const override;
  size_t dimension() const override { return dimension_; }
  void MapRecord(const StreamRecord& record,
                 std::vector<CellUpdate>* out) const override;
  double Evaluate(const RealVector& state) const override;
  ThresholdPair Thresholds(const RealVector& estimate) const override;
  std::unique_ptr<SafeFunction> MakeSafeFunction(
      const RealVector& estimate) const override;
  double epsilon() const override { return epsilon_; }

  double p() const { return p_; }

 private:
  size_t dimension_;
  double p_;
  double epsilon_;
  Mode mode_;
  double floor_;
};

/// Computes [Q - max(ε|Q|, floor), Q + max(ε|Q|, floor)].
ThresholdPair RelativeThresholds(double q, double epsilon, double floor);

}  // namespace fgm

#endif  // FGM_QUERY_QUERY_H_
