// FGM local-site state machine (§2.4, steps executed at sites).
//
// A site holds its drift vector X_i inside a DriftEvaluator for the safe
// function it was shipped this round (the full φ or the cheap bound b),
// tracks its φ-value, and raises counter increments
//     c_i := max{c_i, ⌊(φ(X_i) - z_i)/θ⌋}
// during subrounds. With rebalancing active the site monitors the
// perspective λφ(X_i/λ) instead (§4.1).
//
// Serial processing (Process/ApplyUpdate) is LAZY. Every installed
// function is L-Lipschitz (SafeFunction::LipschitzBound), and so is
// λφ(X/λ) in X, so after an exact value v the counter cannot move until
// L·Σ‖Δ‖ over the later records reaches z_i + (c_i+1)θ - v. While that
// certificate holds (minus a floating-point margin), a record's deltas go
// into the evaluator without an evaluation (ApplyDeltasOnly); the value
// is computed when the certificate runs out, or when the coordinator
// reads it (ReadValue: polls, subround start). The evaluator then holds
// the same state as the eager path, so every computed value has the
// eager bits and no increment moves. Skipped values are only known to
// lie within L·Σ‖Δ‖ of the last exact one, so SubroundValueRange is a
// certified upper bound on the eager sup - inf.
//
// Round boundaries cost O(1) per site without drift. A site with no
// update since its last flush has zero drift, so its value is λφ(0/λ),
// the same for every such site: it reads the value from the
// ZeroDriftValues its protocol shares among the sites, which evaluates it
// once per (function, λ). Given a new function (a round start, a resync)
// such a site re-arms its evaluator in place (DriftEvaluator::Rebind)
// instead of building one.

#ifndef FGM_CORE_FGM_SITE_H_
#define FGM_CORE_FGM_SITE_H_

#include <algorithm>
#include <array>
#include <cstdint>
#include <memory>
#include <vector>

#include "net/wire.h"
#include "query/query.h"
#include "safezone/safe_function.h"
#include "sketch/fast_agms.h"
#include "stream/record.h"

namespace fgm {

/// λφ(0/λ), the value of a zero drift, for the functions a protocol's
/// sites run, shared by those sites: the first site that needs a
/// (function, λ) evaluates it on its own zero-drift evaluator, and every
/// other one reads it. Keyed by SafeFunction::serial(), so a function
/// built into the storage of a freed one never reads the freed one's
/// values.
class ZeroDriftValues {
 public:
  /// λφ(0/λ) for `fn`; evaluated on `zero_state`, an evaluator of `fn`
  /// at zero drift, and stored, when not yet stored.
  double Get(const SafeFunction& fn, double lambda,
             const DriftEvaluator& zero_state);

  /// Stores `value` as fn's λφ(0/λ), in place of the stored one or else
  /// of the oldest entry. Get stores its evaluations this way; tests store
  /// wrong values to check that FGM_PARANOID catches them.
  void Put(const SafeFunction& fn, double lambda, double value);

 private:
  struct Entry {
    uint64_t serial = 0;  ///< 0: empty (serials start at 1)
    uint64_t lambda_bits = 0;
    double value = 0.0;
  };

  Entry* Find(const SafeFunction& fn, double lambda);

  // A round has at most two functions (φ and the cheap bound b), and a
  // rebalance reads them at the old λ (flushes) and then the new one.
  std::array<Entry, 4> entries_{};
  size_t next_ = 0;
};

class FgmSite {
 public:
  /// `dim` is the state dimension D, bounding the raw-update log the site
  /// keeps for the verbatim drift representation. `zero_values` is shared
  /// with the protocol's other sites; a site given none keeps its own.
  FgmSite(int id, size_t dim,
          std::shared_ptr<ZeroDriftValues> zero_values = nullptr);

  int id() const { return id_; }

  /// Installs the safe function for a new round; drift resets to 0. An
  /// evaluator with zero drift re-arms in place when it can.
  void BeginRound(const SafeFunction* fn);

  /// Starts a subround with quantum θ > 0: records z_i, resets c_i.
  void BeginSubround(double quantum);

  /// Crash-recovery handshake (sim/ networks): rebuilds the evaluator for
  /// the re-shipped safe function (re-arming it in place when the drift
  /// is zero, as BeginRound does) while PRESERVING the accumulated drift
  /// — the drift and the raw-update log live in stable storage; only the
  /// evaluator's working state and the subround baseline were volatile.
  /// Re-baselines the counter at the current value under the delivered
  /// λ and θ.
  void ResyncRound(const SafeFunction* fn, double lambda, double theta);

  /// Installs a new rebalancing scale.
  void SetLambda(double lambda);

  /// Maps one local stream record through the query's sketch projection
  /// (into per-site scratch) and applies the resulting deltas as
  /// ApplyUpdate does; returns the counter increment to report (0 = stay
  /// silent).
  int64_t Process(const ContinuousQuery& query, const StreamRecord& record);

  /// Applies the deltas of one local stream update, evaluating λφ(X_i/λ)
  /// only when the Lipschitz certificate cannot rule out a counter move,
  /// and returns the counter increment to report (0 = stay silent). The
  /// deltas touch each coordinate at most once, as
  /// ContinuousQuery::MapRecord emits them, so √Σδ² is the record's step
  /// ‖Δ‖. The record is logged for the verbatim drift representation.
  int64_t ApplyUpdate(const StreamRecord& record,
                      const std::vector<CellUpdate>& deltas);

  /// Delta-only variant (unit tests); forfeits the verbatim
  /// representation for the current flush interval.
  int64_t ApplyUpdate(const std::vector<CellUpdate>& deltas);

  /// The value the coordinator reads (polls, subround re-anchoring): λφ
  /// after the last committed record. If the lazy path skipped records
  /// since the last exact value, evaluates and commits first, and aborts
  /// if that moves the counter: the certificate would have missed a
  /// crossing.
  double ReadValue() {
    if (skipped_ > 0) EvaluateSkipped();
    return committed_v_;
  }

  /// λφ(X_i/λ) at the evaluator's drift, evaluated now.
  double CurrentValue() const { return evaluator_->ValueAtScale(lambda_); }

  /// Range (sup - inf) of the reported value during the current subround
  /// — the site's contribution to the ψ-variability of §2.5.1. A value
  /// the lazy path skipped counts as the whole interval its certificate
  /// allows, so this bounds the eager range from above, by at most
  /// 2·L·Σ‖Δ‖ over the skipped records.
  double SubroundValueRange() const {
    if (skipped_ == 0) return value_max_ - value_min_;
    const double reach = lipschitz_ * moved_;
    return std::max(value_max_, committed_v_ + reach) -
           std::min(value_min_, committed_v_ - reach);
  }

  /// Records whose evaluation the certificate has skipped so far.
  int64_t skipped_records() const { return skipped_total_ + skipped_; }

  /// The current drift vector (flushed to the coordinator).
  const RealVector& drift() const { return evaluator_->drift(); }

  /// Builds the flush message for the coordinator: the update count plus
  /// the cheaper of the dense drift and the verbatim raw-update log. The
  /// message lends the site's drift and log, so it must be read before
  /// FlushReset.
  DriftFlushMsg MakeFlushMsg() const {
    return DriftFlushMsg::ForFlush(drift(), updates_since_flush_, log_);
  }

  /// Resets the drift to 0 after a flush; keeps round bookkeeping.
  void FlushReset();

  int64_t updates_since_flush() const { return updates_since_flush_; }
  int64_t updates_in_round() const { return updates_in_round_; }
  int64_t counter() const { return counter_; }

 private:
  /// Installs an evaluator for `fn` and records its Lipschitz bound: the
  /// current one re-armed in place when the drift is zero and it
  /// supports that, else a new one.
  void InstallEvaluator(const SafeFunction* fn);

  /// The value after the coordinator set the drift or λ: the shared
  /// λφ(0/λ) when no update arrived since the last flush, else
  /// evaluated.
  double SettledValue();

  /// One serial record step: skips the evaluation while the certificate
  /// holds, else evaluates and commits.
  int64_t LazyStep(const CellUpdate* deltas, size_t n);

  /// Runs the counter rule on one post-update value and advances the
  /// committed value and the subround value range. Returns the counter
  /// increment to report (0 = stay silent).
  int64_t CommitValue(double v);

  /// ReadValue's slow path: evaluates and commits the current value,
  /// which must not move the counter.
  void EvaluateSkipped();

  /// Arms the certificate at the exact value committed_v_ under the
  /// current z_, θ, λ and counter. CommitValue arms at once; after any
  /// other Disarm the next record arms.
  void Arm();

  /// Folds the certified reach of the skipped records into the value
  /// range, clears them and disarms the certificate. Runs before
  /// committed_v_, z_, θ, λ or the counter change.
  void Disarm();

  /// FGM_PARANOID: evaluates the record just skipped, without committing
  /// it, and aborts if it moves the counter or leaves its certified reach.
  void CheckSkipped() const;

  /// FGM_PARANOID: aborts unless the re-armed evaluator matches a fresh
  /// one for the same function, bit for bit.
  void CheckRearmed() const;

  int id_;
  size_t dim_;
  RawUpdateLog log_;
  std::unique_ptr<DriftEvaluator> evaluator_;
  std::vector<CellUpdate> deltas_;  // per-site scratch for Process()
  double lambda_ = 1.0;
  double quantum_ = 1.0;
  double z_ = 0.0;
  double committed_v_ = 0.0;  ///< the last exact (committed) value
  double value_min_ = 0.0;
  double value_max_ = 0.0;
  int64_t counter_ = 0;
  int64_t updates_since_flush_ = 0;
  int64_t updates_in_round_ = 0;
  // The Lipschitz certificate: skip while moved_ < reach_limit_.
  double lipschitz_ = 1.0;    ///< L of the installed function
  double reach_limit_ = 0.0;  ///< Σ‖Δ‖ the counter cannot move within
  double moved_ = 0.0;        ///< Σ‖Δ‖ over the skipped records
  int64_t skipped_ = 0;       ///< records skipped since committed_v_
  int64_t skipped_total_ = 0;
  bool armed_ = false;     ///< reach_limit_ matches the scalars above
  bool paranoid_ = false;  ///< evaluator wrapped by FGM_PARANOID
  // Read at round boundaries only, so kept behind the per-record state.
  const SafeFunction* fn_ = nullptr;  ///< the installed function
  std::shared_ptr<ZeroDriftValues> zero_values_;
};

}  // namespace fgm

#endif  // FGM_CORE_FGM_SITE_H_
