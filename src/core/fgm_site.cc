#include "core/fgm_site.h"

#include <algorithm>
#include <bit>
#include <cmath>
#include <utility>

#include "util/check.h"

namespace fgm {

namespace {

// The certificate compares rounded values, so it keeps a margin below the
// counter threshold: the incremental value may sit up to the band
// ParanoidDriftEvaluator accepts (1e-6 relative) from φ at each of the
// two ends, and the counter rule's (v - z)/θ rounds too.
constexpr double kValueBand = 2e-6;
constexpr double kThresholdRounding = 1e-12;

}  // namespace

ZeroDriftValues::Entry* ZeroDriftValues::Find(const SafeFunction& fn,
                                              double lambda) {
  const uint64_t lambda_bits = std::bit_cast<uint64_t>(lambda);
  for (Entry& e : entries_) {
    if (e.serial == fn.serial() && e.lambda_bits == lambda_bits) return &e;
  }
  return nullptr;
}

double ZeroDriftValues::Get(const SafeFunction& fn, double lambda,
                            const DriftEvaluator& zero_state) {
  if (const Entry* e = Find(fn, lambda)) return e->value;
  const double value = zero_state.ValueAtScale(lambda);
  Put(fn, lambda, value);
  return value;
}

void ZeroDriftValues::Put(const SafeFunction& fn, double lambda,
                          double value) {
  if (Entry* e = Find(fn, lambda)) {
    e->value = value;
    return;
  }
  entries_[next_] = Entry{fn.serial(), std::bit_cast<uint64_t>(lambda), value};
  next_ = (next_ + 1) % entries_.size();
}

FgmSite::FgmSite(int id, size_t dim,
                 std::shared_ptr<ZeroDriftValues> zero_values)
    : id_(id),
      dim_(dim),
      zero_values_(zero_values != nullptr
                       ? std::move(zero_values)
                       : std::make_shared<ZeroDriftValues>()) {}

void FgmSite::InstallEvaluator(const SafeFunction* fn) {
  FGM_CHECK(fn != nullptr);
  fn_ = fn;
  // λφ(X/λ) is L-Lipschitz in X whenever φ is.
  lipschitz_ = fn->LipschitzBound();
  FGM_CHECK_GT(lipschitz_, 0.0);
  // Zero drift is Rebind's precondition. A re-armed evaluator keeps its
  // FGM_PARANOID wrapper, or its lack of one.
  if (evaluator_ != nullptr && updates_since_flush_ == 0 &&
      evaluator_->Rebind(*fn)) {
    if (paranoid_) CheckRearmed();
    return;
  }
  // Wrapped with the FGM_PARANOID cross-check when the env var is set.
  evaluator_ = MakeCheckedEvaluator(fn, fn->MakeEvaluator());
  paranoid_ = dynamic_cast<const ParanoidDriftEvaluator*>(evaluator_.get()) !=
              nullptr;
}

void FgmSite::BeginRound(const SafeFunction* fn) {
  Disarm();
  InstallEvaluator(fn);
  lambda_ = 1.0;
  quantum_ = 1.0;
  z_ = 0.0;
  counter_ = 0;
  updates_since_flush_ = 0;
  updates_in_round_ = 0;
  log_.Reset();
  // The drift is zero, so live == committed by definition.
  committed_v_ = SettledValue();
}

double FgmSite::SettledValue() {
  if (updates_since_flush_ != 0) return CurrentValue();
  const double shared = zero_values_->Get(*fn_, lambda_, *evaluator_);
  if (paranoid_ && std::bit_cast<uint64_t>(shared) !=
                       std::bit_cast<uint64_t>(CurrentValue())) {
    FGM_CHECK(false &&
              "FGM_PARANOID: the shared zero-drift value differs from the "
              "site's own evaluation");
  }
  return shared;
}

void FgmSite::ResyncRound(const SafeFunction* fn, double lambda,
                          double theta) {
  FGM_CHECK_GT(theta, 0.0);
  Disarm();
  // Replay the surviving drift into the evaluator for the delivered
  // reference, one delta per non-zero entry (the same reconstruction the
  // coordinator's verbatim-flush path uses); a zero drift re-arms the
  // evaluator in place and replays nothing.
  const RealVector drift =
      evaluator_ != nullptr ? evaluator_->drift() : RealVector(dim_);
  InstallEvaluator(fn);
  for (size_t i = 0; i < drift.dim(); ++i) {
    if (drift[i] != 0.0) evaluator_->ApplyDelta(i, drift[i]);
  }
  lambda_ = lambda;
  quantum_ = theta;
  committed_v_ = SettledValue();
  z_ = committed_v_;
  value_min_ = z_;
  value_max_ = z_;
  counter_ = 0;
}

void FgmSite::SetLambda(double lambda) {
  Disarm();
  lambda_ = lambda;
  // λ only changes at a coordinator rebalance, where the evaluator state
  // is committed; refresh the committed value under the new scale.
  committed_v_ = SettledValue();
}

void FgmSite::BeginSubround(double quantum) {
  FGM_CHECK_GT(quantum, 0.0);
  // Re-anchor on the value the coordinator reads, with the records the
  // certificate skipped evaluated.
  z_ = ReadValue();
  Disarm();
  quantum_ = quantum;
  value_min_ = z_;
  value_max_ = z_;
  counter_ = 0;
}

int64_t FgmSite::Process(const ContinuousQuery& query,
                         const StreamRecord& record) {
  deltas_.clear();
  query.MapRecord(record, &deltas_);
  return ApplyUpdate(record, deltas_);
}

int64_t FgmSite::ApplyUpdate(const StreamRecord& record,
                             const std::vector<CellUpdate>& deltas) {
  log_.Record(record, dim_);
  return LazyStep(deltas.data(), deltas.size());
}

int64_t FgmSite::ApplyUpdate(const std::vector<CellUpdate>& deltas) {
  // An update the log does not see desynchronizes it from the drift; the
  // record-taking overload keeps it live.
  log_.Invalidate();
  return LazyStep(deltas.data(), deltas.size());
}

int64_t FgmSite::LazyStep(const CellUpdate* deltas, size_t n) {
  if (!armed_) Arm();
  ++updates_since_flush_;
  ++updates_in_round_;
  double step_sq = 0.0;
  for (size_t i = 0; i < n; ++i) step_sq += deltas[i].delta * deltas[i].delta;
  // Skip while moved_ + ‖Δ‖ stays below the limit; compared squared, so
  // an evaluated record takes no square root.
  const double room = reach_limit_ - moved_;
  if (!(room > 0.0 && step_sq < room * room)) {
    return CommitValue(evaluator_->ApplyDeltas(deltas, n, lambda_));
  }
  evaluator_->ApplyDeltasOnly(deltas, n);
  moved_ += std::sqrt(step_sq);
  ++skipped_;
  if (paranoid_) CheckSkipped();
  return 0;
}

int64_t FgmSite::CommitValue(double v) {
  Disarm();
  committed_v_ = v;
  if (v < value_min_) value_min_ = v;
  if (v > value_max_) value_max_ = v;
  const double steps = std::floor((v - z_) / quantum_);
  // Counters only move up (max in the paper's update rule); a site whose
  // φ-value recedes stays silent.
  int64_t increment = 0;
  if (steps > static_cast<double>(counter_)) {
    const int64_t candidate = static_cast<int64_t>(steps);
    increment = candidate - counter_;
    counter_ = candidate;
  }
  // Armed here, while the site's scalars are in cache.
  Arm();
  return increment;
}

void FgmSite::EvaluateSkipped() {
  // Every record since the last exact value was skipped on the
  // certificate, so this value cannot move the counter.
  const int64_t missed = CommitValue(CurrentValue());
  FGM_CHECK_EQ(missed, 0);
}

void FgmSite::Arm() {
  // The counter moves once the value reaches z + (c+1)θ; until then the
  // records since committed_v_ may move X by this much in total.
  const double rise = static_cast<double>(counter_ + 1) * quantum_;
  const double margin =
      kValueBand * std::max(1.0, std::fabs(committed_v_)) +
      kThresholdRounding * (std::fabs(z_) + rise);
  reach_limit_ = (z_ + rise - committed_v_ - margin) / lipschitz_;
  armed_ = true;
}

void FgmSite::Disarm() {
  armed_ = false;
  if (skipped_ == 0) return;
  // Every skipped value lies within L·Σ‖Δ‖ of the last exact one.
  const double reach = lipschitz_ * moved_;
  value_min_ = std::min(value_min_, committed_v_ - reach);
  value_max_ = std::max(value_max_, committed_v_ + reach);
  skipped_total_ += skipped_;
  skipped_ = 0;
  moved_ = 0.0;
}

void FgmSite::CheckSkipped() const {
  const double v = CurrentValue();
  if (std::floor((v - z_) / quantum_) > static_cast<double>(counter_)) {
    FGM_CHECK(false &&
              "FGM_PARANOID: the lazy site skipped a record that moves its "
              "counter");
  }
  const double band = kValueBand * std::max({1.0, std::fabs(v),
                                             std::fabs(committed_v_)});
  if (!(std::fabs(v - committed_v_) <= lipschitz_ * moved_ + band)) {
    FGM_CHECK(false &&
              "FGM_PARANOID: a skipped value left its certified reach");
  }
}

void FgmSite::CheckRearmed() const {
  const std::unique_ptr<DriftEvaluator> fresh = fn_->MakeEvaluator();
  const RealVector& x = evaluator_->drift();
  bool same = std::bit_cast<uint64_t>(evaluator_->Value()) ==
                  std::bit_cast<uint64_t>(fresh->Value()) &&
              x.dim() == fresh->drift().dim();
  for (size_t i = 0; same && i < x.dim(); ++i) {
    same = std::bit_cast<uint64_t>(x[i]) ==
           std::bit_cast<uint64_t>(fresh->drift()[i]);
  }
  if (!same) {
    FGM_CHECK(false &&
              "FGM_PARANOID: a re-armed evaluator differs from a fresh one");
  }
}

void FgmSite::FlushReset() {
  Disarm();
  evaluator_->Reset();
  updates_since_flush_ = 0;
  log_.Reset();
  // The drift just went to zero under coordinator control: committed.
  committed_v_ = SettledValue();
}

}  // namespace fgm
