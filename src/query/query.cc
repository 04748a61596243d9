#include "query/query.h"

#include <algorithm>
#include <cmath>

#include "safezone/compose.h"
#include "safezone/join_sz.h"
#include "safezone/norm_threshold.h"
#include "safezone/selfjoin_sz.h"
#include "util/check.h"

namespace fgm {

ThresholdPair RelativeThresholds(double q, double epsilon, double floor) {
  FGM_CHECK_GT(epsilon, 0.0);
  FGM_CHECK_GT(floor, 0.0);
  const double margin = std::max(epsilon * std::fabs(q), floor);
  return ThresholdPair{q - margin, q + margin};
}

// ---------------------------------------------------------------------------
// SelfJoinQuery (Q1)
// ---------------------------------------------------------------------------

SelfJoinQuery::SelfJoinQuery(std::shared_ptr<const AgmsProjection> projection,
                             double epsilon, double threshold_floor)
    : projection_(std::move(projection)),
      epsilon_(epsilon),
      floor_(threshold_floor) {
  FGM_CHECK_GT(epsilon, 0.0);
  FGM_CHECK_EQ(projection_->depth() % 2, 1);
}

void SelfJoinQuery::MapRecord(const StreamRecord& record,
                              std::vector<CellUpdate>* out) const {
  projection_->Map(record.cid, record.weight, out);
}

void SelfJoinQuery::MapRecordBatch(const StreamRecord* base,
                                   const int64_t* positions, int64_t n,
                                   std::vector<CellUpdate>* out,
                                   std::vector<size_t>* ends) const {
  const size_t depth = static_cast<size_t>(projection_->depth());
  constexpr int64_t kBlock = 128;
  uint64_t keys[kBlock];
  double weights[kBlock];
  for (int64_t start = 0; start < n; start += kBlock) {
    const int64_t m = std::min(kBlock, n - start);
    for (int64_t j = 0; j < m; ++j) {
      const StreamRecord& record = base[positions[start + j]];
      keys[j] = record.cid;
      weights[j] = record.weight;
    }
    const size_t before = out->size();
    out->resize(before + static_cast<size_t>(m) * depth);
    projection_->MapBatch(keys, weights, static_cast<size_t>(m),
                          out->data() + before);
    for (int64_t j = 0; j < m; ++j) {
      ends->push_back(before + static_cast<size_t>(j + 1) * depth);
    }
  }
}

double SelfJoinQuery::Evaluate(const RealVector& state) const {
  return SelfJoinEstimate(*projection_, state);
}

ThresholdPair SelfJoinQuery::Thresholds(const RealVector& estimate) const {
  return RelativeThresholds(Evaluate(estimate), epsilon_, floor_);
}

std::unique_ptr<SafeFunction> SelfJoinQuery::MakeSafeFunction(
    const RealVector& estimate) const {
  const ThresholdPair t = Thresholds(estimate);
  return std::make_unique<SelfJoinSafeFunction>(projection_, estimate, t.lo,
                                                t.hi);
}

// ---------------------------------------------------------------------------
// JoinQuery (Q2)
// ---------------------------------------------------------------------------

JoinQuery::JoinQuery(std::shared_ptr<const AgmsProjection> projection,
                     double epsilon, double threshold_floor)
    : projection_(std::move(projection)),
      epsilon_(epsilon),
      floor_(threshold_floor) {
  FGM_CHECK_GT(epsilon, 0.0);
  FGM_CHECK_EQ(projection_->depth() % 2, 1);
}

void JoinQuery::MapRecord(const StreamRecord& record,
                          std::vector<CellUpdate>* out) const {
  const size_t before = out->size();
  projection_->Map(record.cid, record.weight, out);
  if (record.type != FileType::kHtml) {
    // Non-HTML records land in the second sketch (indices offset by D).
    const size_t offset = projection_->dimension();
    for (size_t j = before; j < out->size(); ++j) {
      (*out)[j].index += offset;
    }
  }
}

void JoinQuery::MapRecordBatch(const StreamRecord* base,
                               const int64_t* positions, int64_t n,
                               std::vector<CellUpdate>* out,
                               std::vector<size_t>* ends) const {
  const size_t depth = static_cast<size_t>(projection_->depth());
  const size_t offset = projection_->dimension();
  constexpr int64_t kBlock = 128;
  uint64_t keys[kBlock];
  double weights[kBlock];
  for (int64_t start = 0; start < n; start += kBlock) {
    const int64_t m = std::min(kBlock, n - start);
    for (int64_t j = 0; j < m; ++j) {
      const StreamRecord& record = base[positions[start + j]];
      keys[j] = record.cid;
      weights[j] = record.weight;
    }
    const size_t before = out->size();
    out->resize(before + static_cast<size_t>(m) * depth);
    projection_->MapBatch(keys, weights, static_cast<size_t>(m),
                          out->data() + before);
    for (int64_t j = 0; j < m; ++j) {
      const StreamRecord& record = base[positions[start + j]];
      if (record.type != FileType::kHtml) {
        // Non-HTML records land in the second sketch, as in MapRecord.
        CellUpdate* slice = out->data() + before + static_cast<size_t>(j) * depth;
        for (size_t d = 0; d < depth; ++d) slice[d].index += offset;
      }
      ends->push_back(before + static_cast<size_t>(j + 1) * depth);
    }
  }
}

double JoinQuery::Evaluate(const RealVector& state) const {
  return JoinEstimateConcatenated(*projection_, state);
}

ThresholdPair JoinQuery::Thresholds(const RealVector& estimate) const {
  return RelativeThresholds(Evaluate(estimate), epsilon_, floor_);
}

std::unique_ptr<SafeFunction> JoinQuery::MakeSafeFunction(
    const RealVector& estimate) const {
  const ThresholdPair t = Thresholds(estimate);
  return std::make_unique<JoinSafeFunction>(projection_, estimate, t.lo, t.hi);
}

// ---------------------------------------------------------------------------
// FpNormQuery
// ---------------------------------------------------------------------------

FpNormQuery::FpNormQuery(size_t dimension, double p, double epsilon, Mode mode,
                         double threshold_floor)
    : dimension_(dimension),
      p_(p),
      epsilon_(epsilon),
      mode_(mode),
      floor_(threshold_floor) {
  FGM_CHECK_GE(p, 1.0);
  FGM_CHECK_GT(epsilon, 0.0);
  FGM_CHECK_GE(dimension, 1u);
  if (mode == Mode::kTwoSided) {
    // The two-sided composition of §3.0.3 is specific to the Euclidean
    // norm (the halfspace lower bound is tangent to an L2 ball).
    FGM_CHECK_EQ(p, 2.0);
  }
}

std::string FpNormQuery::name() const {
  char buf[32];
  std::snprintf(buf, sizeof(buf), "F%.3g-norm", p_);
  return buf;
}

void FpNormQuery::MapRecord(const StreamRecord& record,
                            std::vector<CellUpdate>* out) const {
  out->push_back(
      CellUpdate{record.cid % dimension_, static_cast<double>(record.weight)});
}

double FpNormQuery::Evaluate(const RealVector& state) const {
  return state.LpNorm(p_);
}

ThresholdPair FpNormQuery::Thresholds(const RealVector& estimate) const {
  return RelativeThresholds(Evaluate(estimate), epsilon_, floor_);
}

std::unique_ptr<SafeFunction> FpNormQuery::MakeSafeFunction(
    const RealVector& estimate) const {
  const ThresholdPair t = Thresholds(estimate);
  if (mode_ == Mode::kTwoSided && estimate.Norm() > 0.0) {
    return MakeF2TwoSided(estimate, epsilon_);
  }
  // Monotone (or cold-start) case: the upper bound alone is safe for
  // insert-only streams.
  return std::make_unique<LpNormThreshold>(estimate, p_, t.hi);
}

}  // namespace fgm
