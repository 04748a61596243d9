#include "query/variance.h"

#include <cmath>

#include "safezone/ball.h"
#include "safezone/variance_sz.h"
#include "util/check.h"
#include "util/hash.h"

namespace fgm {

double ResponseSizeOf(const StreamRecord& record) {
  double base;
  switch (record.type) {
    case FileType::kHtml:
      base = 6.0;
      break;
    case FileType::kImage:
      base = 14.0;
      break;
    case FileType::kAudio:
      base = 480.0;
      break;
    case FileType::kVideo:
      base = 2200.0;
      break;
    default:
      base = 9.0;
      break;
  }
  // Heavy-tailed per-client multiplier in [0.5, ~8), deterministic.
  const double u =
      static_cast<double>(MixHash64(record.cid) >> 11) * 0x1.0p-53;
  return base * (0.5 + 7.5 * u * u * u);
}

VarianceQuery::VarianceQuery(double epsilon, double threshold_floor,
                             double bootstrap_count)
    : epsilon_(epsilon),
      floor_(threshold_floor),
      bootstrap_count_(bootstrap_count) {
  FGM_CHECK_GT(epsilon, 0.0);
  FGM_CHECK_GT(threshold_floor, 0.0);
  FGM_CHECK_GT(bootstrap_count, 0.0);
}

void VarianceQuery::MapRecord(const StreamRecord& record,
                              std::vector<CellUpdate>* out) const {
  const double v = ResponseSizeOf(record);
  const double w = static_cast<double>(record.weight);
  out->push_back(CellUpdate{0, w});
  out->push_back(CellUpdate{1, w * v});
  out->push_back(CellUpdate{2, w * v * v});
}

double VarianceQuery::Evaluate(const RealVector& state) const {
  return VarianceOfState(state);
}

bool VarianceQuery::Bootstrapping(const RealVector& estimate) const {
  // The global state carries counts scaled by 1/k; the bootstrap level is
  // in the same (scaled) units, so callers pick it as items-per-site.
  return estimate[0] < bootstrap_count_;
}

ThresholdPair VarianceQuery::Thresholds(const RealVector& estimate) const {
  if (Bootstrapping(estimate)) {
    // No guarantee until the window holds enough data.
    return ThresholdPair{-1e300, 1e300};
  }
  return RelativeThresholds(Evaluate(estimate), epsilon_, floor_);
}

std::unique_ptr<SafeFunction> VarianceQuery::MakeSafeFunction(
    const RealVector& estimate) const {
  if (Bootstrapping(estimate)) {
    // Trivially safe for the unbounded thresholds; the small ball bounds
    // the drift so the coordinator refreshes E quickly and cheaply
    // (D = 3, so these early rounds cost a handful of words).
    return std::make_unique<BallSafeFunction>(
        RealVector(3), 2.0 * bootstrap_count_);
  }
  const ThresholdPair t = Thresholds(estimate);
  return MakeVarianceSafeFunction(estimate, t.lo, t.hi);
}

}  // namespace fgm
