// Dense real vector used for stream states, drifts and sketch contents.
//
// RealVector is a thin, bounds-checked wrapper over contiguous doubles with
// the linear-algebra kernels the monitoring protocols need (dot products,
// norms, axpy). Dimensions are fixed at construction; mixing dimensions is
// a checked error.

#ifndef FGM_UTIL_REAL_VECTOR_H_
#define FGM_UTIL_REAL_VECTOR_H_

#include <cstddef>
#include <vector>

#include "util/check.h"

namespace fgm {

class RealVector {
 public:
  RealVector() = default;
  explicit RealVector(size_t dim) : data_(dim, 0.0) {}
  RealVector(std::initializer_list<double> init) : data_(init) {}
  explicit RealVector(std::vector<double> data) : data_(std::move(data)) {}

  RealVector(const RealVector&) = default;
  RealVector& operator=(const RealVector&) = default;
  RealVector(RealVector&&) = default;
  RealVector& operator=(RealVector&&) = default;

  size_t dim() const { return data_.size(); }
  bool empty() const { return data_.empty(); }

  double operator[](size_t i) const {
    FGM_DCHECK(i < data_.size());
    return data_[i];
  }
  double& operator[](size_t i) {
    FGM_DCHECK(i < data_.size());
    return data_[i];
  }

  const double* data() const { return data_.data(); }
  double* data() { return data_.data(); }
  const std::vector<double>& values() const { return data_; }

  /// Sets every coordinate to zero.
  void SetZero();

  RealVector& operator+=(const RealVector& other);
  RealVector& operator-=(const RealVector& other);
  RealVector& operator*=(double scalar);

  /// this += alpha * other.
  void Axpy(double alpha, const RealVector& other);

  double Dot(const RealVector& other) const;
  double SquaredNorm() const;
  double Norm() const;

  /// ℓp norm for p >= 1 (p may be fractional); p == 2 uses the fast path.
  double LpNorm(double p) const;

  /// Sum of coordinates.
  double Sum() const;

  friend RealVector operator+(RealVector a, const RealVector& b) {
    a += b;
    return a;
  }
  friend RealVector operator-(RealVector a, const RealVector& b) {
    a -= b;
    return a;
  }
  friend RealVector operator*(double s, RealVector v) {
    v *= s;
    return v;
  }

 private:
  std::vector<double> data_;
};

/// Euclidean distance between two equal-dimension vectors.
double Distance(const RealVector& a, const RealVector& b);

}  // namespace fgm

#endif  // FGM_UTIL_REAL_VECTOR_H_
