// Safe functions (Definition 2.1 of the paper).
//
// A function φ : R^D → R is (A, E, k)-safe when φ(0) < 0 and
//     Σ_{i=1..k} φ(X_i) ≤ 0   ⇒   E + (1/k) Σ X_i ∈ A.
// FGM sites continuously track φ(X_i) as their drift X_i absorbs stream
// updates; the protocols only ever interact with safe functions through
// the two interfaces below:
//
//  * SafeFunction — an immutable description; supports reference (from
//    scratch) evaluation, used by the coordinator (rebalancing bisection)
//    and by tests.
//  * DriftEvaluator — a mutable site-local state that OWNS the drift
//    vector and maintains φ incrementally: ApplyDelta is O(1) or O(rows)
//    per touched coordinate instead of O(D).
//
// Rebalancing (§4.1) monitors the perspective λφ(X/λ); evaluators expose
// ValueAtScale(λ) for this, with specialized O(1) implementations where
// the function's structure allows it.
//
// All concrete safe functions in this library are convex (the paper's
// Thms 2.3/2.5 show convex functions suffice and are optimal) and report a
// Lipschitz bound, which the FGM/O optimizer uses to build the 3-word
// "cheap" upper bound b(x) = L·‖x‖ + φ(0) of §4.2.1.

#ifndef FGM_SAFEZONE_SAFE_FUNCTION_H_
#define FGM_SAFEZONE_SAFE_FUNCTION_H_

#include <cstddef>
#include <cstdint>
#include <memory>

#include "util/real_vector.h"

namespace fgm {

struct CellUpdate;
class SafeFunction;

/// Mutable, site-local incremental evaluator of a safe function. Owns the
/// drift vector it evaluates at.
class DriftEvaluator {
 public:
  virtual ~DriftEvaluator() = default;

  /// x[index] += delta, updating internal derived quantities.
  virtual void ApplyDelta(size_t index, double delta) = 0;

  /// Applies cells[0..n) in order, as n ApplyDelta calls would, and
  /// evaluates nothing: the lazy site's step for a record its Lipschitz
  /// certificate proves cannot move a counter. The default is exactly
  /// that loop; evaluators on the per-record path override it with one
  /// call.
  virtual void ApplyDeltasOnly(const CellUpdate* cells, size_t n);

  /// One evaluated site step: applies cells[0..n) as ApplyDeltasOnly
  /// does and returns ValueAtScale(lambda) at the new drift. The default
  /// is exactly that; evaluators on the per-record path override it with
  /// one call that fuses the two.
  virtual double ApplyDeltas(const CellUpdate* cells, size_t n,
                             double lambda);

  /// φ(x) at the current drift.
  virtual double Value() const = 0;

  /// λφ(x/λ), λ ∈ (0, 1] — the perspective used by rebalancing. Equals
  /// Value() at λ = 1.
  virtual double ValueAtScale(double lambda) const = 0;

  /// Resets the drift to 0.
  virtual void Reset() = 0;

  /// Re-targets this evaluator, whose drift must be zero (as after Reset
  /// or construction), at `fn`, leaving it in the state fn.MakeEvaluator()
  /// would build, and returns true. Returns false, unchanged, when it
  /// cannot; the caller then builds a new one. The default always
  /// returns false; the sketch evaluators, rebuilt for every site at
  /// every round start, re-arm in place.
  virtual bool Rebind(const SafeFunction& fn);

  /// The current drift vector.
  virtual const RealVector& drift() const = 0;
};

/// Immutable description of a safe function for a fixed admissible region
/// and reference point E.
class SafeFunction {
 public:
  SafeFunction() : serial_(NextSerial()) {}
  // A copy is a new function, and assignment makes one: both draw a fresh
  // serial.
  SafeFunction(const SafeFunction&) : serial_(NextSerial()) {}
  SafeFunction& operator=(const SafeFunction&) {
    serial_ = NextSerial();
    return *this;
  }
  virtual ~SafeFunction() = default;

  /// A number no other function built in this process carries, so a cache
  /// keyed by it cannot mistake this function for a freed one that
  /// occupied the same storage.
  uint64_t serial() const { return serial_; }

  /// Dimension D of drift vectors.
  virtual size_t dimension() const = 0;

  /// Reference (non-incremental) evaluation of φ(x).
  virtual double Eval(const RealVector& x) const = 0;

  /// φ(0). Must be negative for a usable safe function.
  virtual double AtZero() const { return Eval(RealVector(dimension())); }

  /// Creates an incremental evaluator positioned at x = 0.
  virtual std::unique_ptr<DriftEvaluator> MakeEvaluator() const = 0;

  /// An upper bound L on the Lipschitz constant of φ with respect to the
  /// Euclidean norm: |φ(x) - φ(y)| <= L‖x - y‖. All shipped safe functions
  /// are normalized to L = 1 (nonexpansive, §4.2.1) unless documented.
  virtual double LipschitzBound() const { return 1.0; }

 private:
  static uint64_t NextSerial();

  uint64_t serial_;
};

/// Helper base for evaluators that keep the raw drift vector.
class VectorDriftEvaluator : public DriftEvaluator {
 public:
  explicit VectorDriftEvaluator(size_t dim) : x_(dim) {}

  const RealVector& drift() const override { return x_; }

 protected:
  RealVector x_;
};

/// A generic evaluator that re-evaluates the safe function from scratch on
/// every query. O(D) per Value(); used as a correctness fallback and for
/// functions without incremental structure.
class NaiveDriftEvaluator : public VectorDriftEvaluator {
 public:
  explicit NaiveDriftEvaluator(const SafeFunction* fn)
      : VectorDriftEvaluator(fn->dimension()), fn_(fn) {}

  void ApplyDelta(size_t index, double delta) override { x_[index] += delta; }
  double Value() const override { return fn_->Eval(x_); }
  double ValueAtScale(double lambda) const override;
  void Reset() override { x_.SetZero(); }
 private:
  const SafeFunction* fn_;  // not owned
};

/// Wraps an incremental evaluator and cross-checks it against the safe
/// function's reference evaluation every `period` deltas, catching
/// incremental-maintenance drift (lost updates, accumulated cancellation)
/// at the point where it happens instead of at the end of a run. The
/// evaluated step checks the value it returns, ValueAtScale(λ), against
/// PerspectiveEval(drift, λ), so a wrong perspective formula fails too;
/// the unevaluated steps check Value() against Eval(drift).
class ParanoidDriftEvaluator : public DriftEvaluator {
 public:
  /// `fn` must outlive the evaluator; `period` >= 1.
  ParanoidDriftEvaluator(const SafeFunction* fn,
                         std::unique_ptr<DriftEvaluator> inner,
                         int64_t period);

  void ApplyDelta(size_t index, double delta) override;
  void ApplyDeltasOnly(const CellUpdate* cells, size_t n) override;
  double ApplyDeltas(const CellUpdate* cells, size_t n,
                     double lambda) override;
  double Value() const override { return inner_->Value(); }
  double ValueAtScale(double lambda) const override {
    return inner_->ValueAtScale(lambda);
  }
  void Reset() override;
  /// Re-targets the wrapped evaluator and the cross-check at `fn`.
  bool Rebind(const SafeFunction& fn) override;
  const RealVector& drift() const override { return inner_->drift(); }

 private:
  /// Counts `n` applied deltas; true when a check period has elapsed.
  bool CheckDue(size_t n);
  /// Aborts unless `value` matches λφ(drift/λ) from scratch.
  void CrossCheck(double value, double lambda) const;

  const SafeFunction* fn_;  // not owned
  std::unique_ptr<DriftEvaluator> inner_;
  int64_t period_;
  int64_t since_check_ = 0;
};

/// Wraps `inner` in a ParanoidDriftEvaluator when the FGM_PARANOID
/// environment variable is set (its value is the check period N; values
/// that do not parse to a positive integer default to 64). Unset or
/// empty: returns `inner` unchanged. The protocols route every site
/// evaluator through this hook.
std::unique_ptr<DriftEvaluator> MakeCheckedEvaluator(
    const SafeFunction* fn, std::unique_ptr<DriftEvaluator> inner);

/// Reference implementation of λφ(x/λ) by explicit scaling; O(D).
double PerspectiveEval(const SafeFunction& fn, const RealVector& x,
                       double lambda);

}  // namespace fgm

#endif  // FGM_SAFEZONE_SAFE_FUNCTION_H_
