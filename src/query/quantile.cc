#include "query/quantile.h"

#include <algorithm>
#include <cmath>
#include <vector>

#include "query/variance.h"
#include "safezone/ball.h"
#include "safezone/compose.h"
#include "safezone/halfspace.h"
#include "util/check.h"

namespace fgm {

namespace {
constexpr double kMinValue = 0.5;  // lower edge of the first bucket
}  // namespace

QuantileQuery::QuantileQuery(int buckets, double phi, double epsilon,
                             double max_value, double bootstrap_count)
    : buckets_(buckets),
      phi_(phi),
      epsilon_(epsilon),
      max_value_(max_value),
      bootstrap_count_(bootstrap_count) {
  FGM_CHECK_GE(buckets, 2);
  FGM_CHECK(phi > 0.0 && phi < 1.0);
  FGM_CHECK(epsilon > 0.0 && epsilon < 1.0);
  FGM_CHECK_GT(max_value, kMinValue);
  log_ratio_ = std::log(max_value_ / kMinValue) / buckets_;
}

std::string QuantileQuery::name() const {
  char buf[32];
  std::snprintf(buf, sizeof(buf), "quantile-p%02d",
                static_cast<int>(phi_ * 100 + 0.5));
  return buf;
}

int QuantileQuery::BucketOf(double value) const {
  if (value <= kMinValue) return 0;
  const int b = static_cast<int>(std::log(value / kMinValue) / log_ratio_);
  return std::min(b, buckets_ - 1);
}

double QuantileQuery::BucketValue(int bucket) const {
  return kMinValue * std::exp(log_ratio_ * (bucket + 1));
}

void QuantileQuery::MapRecord(const StreamRecord& record,
                              std::vector<CellUpdate>* out) const {
  const int bucket = BucketOf(ResponseSizeOf(record));
  out->push_back(CellUpdate{static_cast<size_t>(bucket),
                            static_cast<double>(record.weight)});
}

int QuantileQuery::QuantileBucket(const RealVector& state) const {
  double total = state.Sum();
  if (total <= 0.0) return 0;
  const double target = phi_ * total;
  double prefix = 0.0;
  for (int b = 0; b < buckets_; ++b) {
    prefix += state[static_cast<size_t>(b)];
    if (prefix >= target) return b;
  }
  return buckets_ - 1;
}

double QuantileQuery::Evaluate(const RealVector& state) const {
  return static_cast<double>(QuantileBucket(state));
}

bool QuantileQuery::Bootstrapping(const RealVector& estimate) const {
  return estimate.Sum() < bootstrap_count_;
}

ThresholdPair QuantileQuery::Thresholds(const RealVector& estimate) const {
  if (Bootstrapping(estimate)) return ThresholdPair{-1e300, 1e300};
  const double n = estimate.Sum();
  const double slack = epsilon_ * n;
  const double target = phi_ * n;
  // b_lo: the (phi-ε)-quantile of E; b_hi: the (phi+ε)-quantile (capped).
  int b_lo = buckets_ - 1, b_hi = buckets_ - 1;
  double prefix = 0.0;
  bool lo_found = false, hi_found = false;
  for (int b = 0; b < buckets_; ++b) {
    prefix += estimate[static_cast<size_t>(b)];
    if (!lo_found && prefix >= target - slack) {
      b_lo = b;
      lo_found = true;
    }
    if (!hi_found && prefix >= target + slack) {
      b_hi = b;
      hi_found = true;
      break;
    }
  }
  if (!hi_found) b_hi = buckets_ - 1;
  return ThresholdPair{static_cast<double>(b_lo),
                       static_cast<double>(b_hi)};
}

std::unique_ptr<SafeFunction> QuantileQuery::MakeSafeFunction(
    const RealVector& estimate) const {
  if (Bootstrapping(estimate)) {
    return std::make_unique<BallSafeFunction>(
        RealVector(dimension()), 2.0 * bootstrap_count_);
  }
  const ThresholdPair bounds = Thresholds(estimate);
  const int b_lo = static_cast<int>(bounds.lo);
  const int b_hi = static_cast<int>(bounds.hi);
  const double n = estimate.Sum();
  const double target = phi_ * n;
  std::vector<double> prefix(static_cast<size_t>(buckets_), 0.0);
  double acc = 0.0;
  for (int b = 0; b < buckets_; ++b) {
    acc += estimate[static_cast<size_t>(b)];
    prefix[static_cast<size_t>(b)] = acc;
  }

  // Tiny margin keeps the boundary case prefix == phi·N on the safe side.
  const double tiny = 1e-9 * (1.0 + n);
  std::vector<std::unique_ptr<SafeFunction>> children;

  // Lower side, quantile(S) ≥ b_lo ⇔ prefix_{b_lo-1}(S) - phi·N(S) < 0.
  // Trivial when b_lo == 0.
  if (b_lo >= 1) {
    RealVector v(dimension());
    for (int i = 0; i < buckets_; ++i) {
      v[static_cast<size_t>(i)] = (i < b_lo ? 1.0 : 0.0) - phi_;
    }
    const double c0 = prefix[static_cast<size_t>(b_lo - 1)] - target + tiny;
    FGM_CHECK_LT(c0, 0.0);
    RealVector normal = v;
    normal *= -1.0;
    children.push_back(std::make_unique<HalfspaceSafeFunction>(
        normal, c0 / v.Norm()));
  }
  // Upper side, quantile(S) ≤ b_hi ⇔ phi·N(S) - prefix_{b_hi}(S) ≤ 0.
  // Trivial when the reference prefix never clears target + slack (then
  // b_hi == buckets-1 and every state satisfies it vacuously) — detected
  // by a nonnegative c0.
  {
    RealVector v(dimension());
    for (int i = 0; i < buckets_; ++i) {
      v[static_cast<size_t>(i)] = phi_ - (i <= b_hi ? 1.0 : 0.0);
    }
    const double c0 = target - prefix[static_cast<size_t>(b_hi)] + tiny;
    if (c0 < 0.0 && v.Norm() > 0.0) {
      RealVector normal = v;
      normal *= -1.0;
      children.push_back(std::make_unique<HalfspaceSafeFunction>(
          normal, c0 / v.Norm()));
    }
  }

  if (children.empty()) {
    // Both sides degenerate (can only happen with pathological ε);
    // fall back to the bootstrap ball.
    return std::make_unique<BallSafeFunction>(
        RealVector(dimension()), 2.0 * bootstrap_count_);
  }
  if (children.size() == 1) return std::move(children[0]);
  return std::make_unique<MaxComposition>(std::move(children));
}

}  // namespace fgm
