#include "core/fgm_site.h"

#include <algorithm>
#include <cmath>

#include "util/check.h"

namespace fgm {

void FgmSite::BeginRound(const SafeFunction* fn) {
  FGM_CHECK(fn != nullptr);
  // Wrapped with the FGM_PARANOID cross-check when the env var is set.
  evaluator_ = MakeCheckedEvaluator(fn, fn->MakeEvaluator());
  lambda_ = 1.0;
  quantum_ = 1.0;
  z_ = 0.0;
  counter_ = 0;
  updates_since_flush_ = 0;
  updates_in_round_ = 0;
  log_.Reset();
  // The evaluator was just rebuilt, so live == committed by definition.
  committed_v_ = CurrentValue();
  checkpoint_.valid = false;
}

void FgmSite::ResyncRound(const SafeFunction* fn, double lambda,
                          double theta) {
  FGM_CHECK(fn != nullptr);
  FGM_CHECK_GT(theta, 0.0);
  // Replay the surviving drift into a fresh evaluator for the delivered
  // reference, one delta per non-zero entry (the same reconstruction the
  // coordinator's verbatim-flush path uses).
  const RealVector drift =
      evaluator_ != nullptr ? evaluator_->drift() : RealVector(dim_);
  evaluator_ = MakeCheckedEvaluator(fn, fn->MakeEvaluator());
  for (size_t i = 0; i < drift.dim(); ++i) {
    if (drift[i] != 0.0) evaluator_->ApplyDelta(i, drift[i]);
  }
  lambda_ = lambda;
  quantum_ = theta;
  committed_v_ = CurrentValue();
  z_ = committed_v_;
  value_min_ = z_;
  value_max_ = z_;
  counter_ = 0;
  checkpoint_.valid = false;
}

void FgmSite::SetLambda(double lambda) {
  lambda_ = lambda;
  // λ only changes at a coordinator rebalance, where the evaluator state
  // is committed; refresh the shadow under the new scale.
  committed_v_ = CurrentValue();
}

void FgmSite::BeginSubround(double quantum) {
  FGM_CHECK_GT(quantum, 0.0);
  quantum_ = quantum;
  // Re-anchor on the committed value: identical to CurrentValue() in
  // serial operation, and the correct baseline while speculation has the
  // evaluator running ahead of the commit walk.
  z_ = committed_v_;
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
  return CommitValue(ApplyDeltasValue(deltas.data(), deltas.size()));
}

int64_t FgmSite::ApplyUpdate(const std::vector<CellUpdate>& deltas) {
  // An update the log does not see desynchronizes it from the drift; the
  // record-taking overload keeps it live.
  log_.Invalidate();
  return CommitValue(ApplyDeltasValue(deltas.data(), deltas.size()));
}

double FgmSite::ApplyDeltasValue(const CellUpdate* deltas, size_t n) {
  ++updates_since_flush_;
  ++updates_in_round_;
  return evaluator_->ApplyDeltas(deltas, n, lambda_);
}

int64_t FgmSite::CommitValue(double v) {
  committed_v_ = v;
  if (v < value_min_) value_min_ = v;
  if (v > value_max_) value_max_ = v;
  const double steps = std::floor((v - z_) / quantum_);
  // Counters only move up (max in the paper's update rule); a site whose
  // φ-value recedes stays silent.
  if (steps > static_cast<double>(counter_)) {
    const int64_t candidate = static_cast<int64_t>(steps);
    const int64_t increment = candidate - counter_;
    counter_ = candidate;
    return increment;
  }
  return 0;
}

void FgmSite::SpeculateBatch(const ContinuousQuery& query,
                             const StreamRecord* base,
                             const int64_t* positions, int64_t n,
                             double* values) {
  // Map in blocks so the scratch buffer stays cache-resident.
  constexpr int64_t kMapBlock = 512;
  for (int64_t start = 0; start < n; start += kMapBlock) {
    const int64_t m = std::min(kMapBlock, n - start);
    batch_deltas_.clear();
    batch_ends_.clear();
    query.MapRecordBatch(base, positions + start, m, &batch_deltas_,
                         &batch_ends_);
    size_t delta_begin = 0;
    for (int64_t j = 0; j < m; ++j) {
      log_.Record(base[positions[start + j]], dim_);
      const size_t delta_end = batch_ends_[static_cast<size_t>(j)];
      values[start + j] = ApplyDeltasValue(batch_deltas_.data() + delta_begin,
                                           delta_end - delta_begin);
      delta_begin = delta_end;
    }
  }
}

void FgmSite::FlushReset() {
  evaluator_->Reset();
  updates_since_flush_ = 0;
  log_.Reset();
  // The drift just went to zero under coordinator control: committed.
  committed_v_ = CurrentValue();
}

void FgmSite::SaveCheckpoint() {
  checkpoint_.evaluator = evaluator_->Clone();
  checkpoint_.mark = log_.MarkPosition();
  checkpoint_.updates_since_flush = updates_since_flush_;
  checkpoint_.updates_in_round = updates_in_round_;
  checkpoint_.valid = true;
}

void FgmSite::RestoreCheckpoint() {
  FGM_CHECK(checkpoint_.valid);
  evaluator_ = std::move(checkpoint_.evaluator);
  log_.Rewind(checkpoint_.mark);
  updates_since_flush_ = checkpoint_.updates_since_flush;
  updates_in_round_ = checkpoint_.updates_in_round;
  checkpoint_.valid = false;
}

}  // namespace fgm
