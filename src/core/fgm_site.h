// FGM local-site state machine (§2.4, steps executed at sites).
//
// A site holds its drift vector X_i inside a DriftEvaluator for the safe
// function it was shipped this round (the full φ or the cheap bound b),
// tracks its φ-value, and raises counter increments
//     c_i := max{c_i, ⌊(φ(X_i) - z_i)/θ⌋}
// during subrounds. With rebalancing active the site monitors the
// perspective λφ(X_i/λ) instead (§4.1).
//
// The per-update work is split in two halves so the parallel engine can
// speculate (value-series model, FgmProtocol::CommitValueSeries):
//   * the EVALUATOR side — map the record, apply the deltas, compute the
//     post-update value v = λφ(X_i/λ) (SpeculateBatch / ApplyDeltasValue).
//     This half never reads the subround scalars (z_i, θ, c_i), so it can
//     run ahead of the coordinator;
//   * the COMMIT side — the scalar counter rule over v (CommitValue),
//     which advances z_i-relative counters and the committed shadow value.
// Serial processing (Process/ApplyUpdate) chains the two, which is
// bit-identical to the previous fused implementation.

#ifndef FGM_CORE_FGM_SITE_H_
#define FGM_CORE_FGM_SITE_H_

#include <cstdint>
#include <memory>
#include <vector>

#include "net/wire.h"
#include "query/query.h"
#include "safezone/safe_function.h"
#include "sketch/fast_agms.h"
#include "stream/record.h"

namespace fgm {

class FgmSite {
 public:
  /// `dim` is the state dimension D, bounding the raw-update log the site
  /// keeps for the verbatim drift representation.
  FgmSite(int id, size_t dim) : id_(id), dim_(dim) {}

  int id() const { return id_; }

  /// Installs the safe function for a new round; drift resets to 0.
  void BeginRound(const SafeFunction* fn);

  /// Starts a subround with quantum θ > 0: records z_i, resets c_i.
  void BeginSubround(double quantum);

  /// Crash-recovery handshake (sim/ networks): rebuilds the evaluator for
  /// the re-shipped safe function while PRESERVING the accumulated drift
  /// — the drift and the raw-update log live in stable storage; only the
  /// evaluator's working state and the subround baseline were volatile.
  /// Re-baselines the counter at the current value under the delivered
  /// λ and θ.
  void ResyncRound(const SafeFunction* fn, double lambda, double theta);

  /// Installs a new rebalancing scale.
  void SetLambda(double lambda);

  /// Maps one local stream record through the query's sketch projection
  /// (into per-site scratch — safe to call concurrently across sites) and
  /// applies the resulting deltas; returns the counter increment to
  /// report (0 = stay silent).
  int64_t Process(const ContinuousQuery& query, const StreamRecord& record);

  /// Applies the deltas of one local stream update and returns the
  /// counter increment to report (0 = stay silent). The record is logged
  /// for the verbatim drift representation.
  int64_t ApplyUpdate(const StreamRecord& record,
                      const std::vector<CellUpdate>& deltas);

  /// Delta-only variant (unit tests); forfeits the verbatim
  /// representation for the current flush interval.
  int64_t ApplyUpdate(const std::vector<CellUpdate>& deltas);

  // -- Value-series speculation (parallel engine) ---------------------------

  /// Evaluator half of `n` Process() calls, batched: maps the records
  /// base[positions[j]] through the query (batched projection), logs them,
  /// applies the deltas and writes the post-update value sequence into
  /// `values[0..n)`. Does NOT run the counter rule — feed the values to
  /// CommitValue() in order (possibly interleaved with other sites under a
  /// global order) to reproduce serial behavior bit-exactly.
  void SpeculateBatch(const ContinuousQuery& query, const StreamRecord* base,
                      const int64_t* positions, int64_t n, double* values);

  /// Commit half: runs the counter rule on one post-update value and
  /// advances the committed shadow value and the subround value range.
  /// Returns the counter increment to report (0 = stay silent).
  int64_t CommitValue(double v);

  /// Last committed value — what the coordinator may read mid-speculation
  /// in place of CurrentValue() (the evaluator may have run ahead).
  double committed_value() const { return committed_v_; }

  /// The value the site currently reports: λφ(X_i/λ).
  double CurrentValue() const { return evaluator_->ValueAtScale(lambda_); }

  /// Range (sup - inf) of the reported value during the current subround
  /// — the site's contribution to the ψ-variability of §2.5.1.
  double SubroundValueRange() const { return value_max_ - value_min_; }

  /// The current drift vector (flushed to the coordinator).
  const RealVector& drift() const { return evaluator_->drift(); }

  /// Builds the flush message for the coordinator: the update count plus
  /// the cheaper of the dense drift and the verbatim raw-update log.
  DriftFlushMsg MakeFlushMsg() const {
    return DriftFlushMsg::ForFlush(drift(), updates_since_flush_, log_);
  }

  /// Resets the drift to 0 after a flush; keeps round bookkeeping.
  void FlushReset();

  int64_t updates_since_flush() const { return updates_since_flush_; }
  int64_t updates_in_round() const { return updates_in_round_; }
  int64_t counter() const { return counter_; }

  /// Snapshots the speculative (evaluator-side) state — evaluator, log
  /// position, update counters — so a later RestoreCheckpoint rewinds the
  /// site bit-exactly. The commit-side scalars (z_/λ/θ, counter, value
  /// range, committed value) only move at coordinator commits and are
  /// deliberately not saved: the commit walk advances them past the
  /// checkpoint, and restoring them would clobber committed state. At
  /// most one restore per save; a new save discards the old snapshot.
  void SaveCheckpoint();
  void RestoreCheckpoint();

 private:
  struct Checkpoint {
    std::unique_ptr<DriftEvaluator> evaluator;
    RawUpdateLog::Mark mark;
    int64_t updates_since_flush = 0;
    int64_t updates_in_round = 0;
    bool valid = false;
  };

  /// Applies deltas + update counters, returns the post-update value.
  double ApplyDeltasValue(const CellUpdate* deltas, size_t n);

  int id_;
  size_t dim_;
  RawUpdateLog log_;
  std::unique_ptr<DriftEvaluator> evaluator_;
  std::vector<CellUpdate> deltas_;  // per-site scratch for Process()
  std::vector<CellUpdate> batch_deltas_;  // scratch for SpeculateBatch()
  std::vector<size_t> batch_ends_;        // scratch for SpeculateBatch()
  Checkpoint checkpoint_;
  double lambda_ = 1.0;
  double quantum_ = 1.0;
  double z_ = 0.0;
  double committed_v_ = 0.0;  ///< shadow of CurrentValue() at last commit
  double value_min_ = 0.0;
  double value_max_ = 0.0;
  int64_t counter_ = 0;
  int64_t updates_since_flush_ = 0;
  int64_t updates_in_round_ = 0;
};

}  // namespace fgm

#endif  // FGM_CORE_FGM_SITE_H_
