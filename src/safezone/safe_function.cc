#include "safezone/safe_function.h"

#include <atomic>
#include <cmath>
#include <cstdlib>

#include "sketch/fast_agms.h"
#include "util/check.h"

namespace fgm {

double PerspectiveEval(const SafeFunction& fn, const RealVector& x,
                       double lambda) {
  FGM_CHECK_GT(lambda, 0.0);
  FGM_CHECK_LE(lambda, 1.0);
  if (lambda == 1.0) return fn.Eval(x);
  RealVector scaled = x;
  scaled *= 1.0 / lambda;
  return lambda * fn.Eval(scaled);
}

uint64_t SafeFunction::NextSerial() {
  // Serials start at 1, so 0 can mark an empty cache slot.
  static std::atomic<uint64_t> next{1};
  return next.fetch_add(1, std::memory_order_relaxed);
}

bool DriftEvaluator::Rebind(const SafeFunction&) { return false; }

void DriftEvaluator::ApplyDeltasOnly(const CellUpdate* cells, size_t n) {
  for (size_t i = 0; i < n; ++i) ApplyDelta(cells[i].index, cells[i].delta);
}

double DriftEvaluator::ApplyDeltas(const CellUpdate* cells, size_t n,
                                   double lambda) {
  for (size_t i = 0; i < n; ++i) ApplyDelta(cells[i].index, cells[i].delta);
  return ValueAtScale(lambda);
}

double NaiveDriftEvaluator::ValueAtScale(double lambda) const {
  return PerspectiveEval(*fn_, x_, lambda);
}

ParanoidDriftEvaluator::ParanoidDriftEvaluator(
    const SafeFunction* fn, std::unique_ptr<DriftEvaluator> inner,
    int64_t period)
    : fn_(fn), inner_(std::move(inner)), period_(period) {
  FGM_CHECK(fn_ != nullptr);
  FGM_CHECK(inner_ != nullptr);
  FGM_CHECK_GE(period_, 1);
}

void ParanoidDriftEvaluator::ApplyDelta(size_t index, double delta) {
  inner_->ApplyDelta(index, delta);
  if (CheckDue(1)) CrossCheck(inner_->Value(), 1.0);
}

void ParanoidDriftEvaluator::ApplyDeltasOnly(const CellUpdate* cells,
                                             size_t n) {
  inner_->ApplyDeltasOnly(cells, n);
  if (CheckDue(n)) CrossCheck(inner_->Value(), 1.0);
}

double ParanoidDriftEvaluator::ApplyDeltas(const CellUpdate* cells, size_t n,
                                           double lambda) {
  const double value = inner_->ApplyDeltas(cells, n, lambda);
  if (CheckDue(n)) CrossCheck(value, lambda);
  return value;
}

void ParanoidDriftEvaluator::Reset() {
  inner_->Reset();
  since_check_ = 0;
}

bool ParanoidDriftEvaluator::Rebind(const SafeFunction& fn) {
  if (!inner_->Rebind(fn)) return false;
  fn_ = &fn;
  since_check_ = 0;
  return true;
}

bool ParanoidDriftEvaluator::CheckDue(size_t n) {
  since_check_ += static_cast<int64_t>(n);
  if (since_check_ < period_) return false;
  since_check_ = 0;
  return true;
}

void ParanoidDriftEvaluator::CrossCheck(double value, double lambda) const {
  const double reference = PerspectiveEval(*fn_, inner_->drift(), lambda);
  // The incremental value accumulates one rounding per delta; allow a
  // generous relative band around the reference before declaring the
  // maintenance broken.
  const double tol = 1e-6 * std::max(1.0, std::fabs(reference));
  if (!(std::fabs(value - reference) <= tol)) {
    FGM_CHECK(false &&
              "FGM_PARANOID: incremental safe-function value diverged from "
              "the reference evaluation");
  }
}

std::unique_ptr<DriftEvaluator> MakeCheckedEvaluator(
    const SafeFunction* fn, std::unique_ptr<DriftEvaluator> inner) {
  // Read the environment on every call (rounds are rare; this is not a
  // hot path) so tests can toggle the mode within one process.
  const char* env = std::getenv("FGM_PARANOID");
  if (env == nullptr || env[0] == '\0') return inner;
  const long long parsed = std::strtoll(env, nullptr, 10);
  const int64_t period = parsed > 0 ? static_cast<int64_t>(parsed) : 64;
  return std::make_unique<ParanoidDriftEvaluator>(fn, std::move(inner),
                                                  period);
}

}  // namespace fgm
