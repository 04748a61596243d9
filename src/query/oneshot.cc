#include "query/oneshot.h"

#include "util/check.h"

namespace fgm {

OneShotFpQuery::OneShotFpQuery(size_t dimension, double p, double threshold,
                               double epsilon)
    : dimension_(dimension),
      p_(p),
      threshold_(threshold),
      epsilon_(epsilon) {
  FGM_CHECK_GE(dimension, 1u);
  FGM_CHECK_GE(p, 1.0);
  FGM_CHECK_GT(threshold, 0.0);
  FGM_CHECK(epsilon > 0.0 && epsilon < 1.0);
}

void OneShotFpQuery::MapRecord(const StreamRecord& record,
                               std::vector<CellUpdate>* out) const {
  out->push_back(
      CellUpdate{record.cid % dimension_, static_cast<double>(record.weight)});
}

double OneShotFpQuery::Evaluate(const RealVector& state) const {
  return state.LpNorm(p_);
}

ThresholdPair OneShotFpQuery::Thresholds(const RealVector&) const {
  // The one-shot guarantee is one-sided: while quiescent, Q(S) ≤ T.
  return ThresholdPair{-1e300, threshold_};
}

std::unique_ptr<SafeFunction> OneShotFpQuery::MakeSafeFunction(
    const RealVector& estimate) const {
  return std::make_unique<LpNormThreshold>(estimate, p_, threshold_);
}

}  // namespace fgm
