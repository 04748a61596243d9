#include "util/real_vector.h"

#include <algorithm>
#include <cmath>

namespace fgm {

void RealVector::SetZero() { std::fill(data_.begin(), data_.end(), 0.0); }

RealVector& RealVector::operator+=(const RealVector& other) {
  FGM_CHECK_EQ(dim(), other.dim());
  for (size_t i = 0; i < data_.size(); ++i) data_[i] += other.data_[i];
  return *this;
}

RealVector& RealVector::operator-=(const RealVector& other) {
  FGM_CHECK_EQ(dim(), other.dim());
  for (size_t i = 0; i < data_.size(); ++i) data_[i] -= other.data_[i];
  return *this;
}

RealVector& RealVector::operator*=(double scalar) {
  for (double& x : data_) x *= scalar;
  return *this;
}

void RealVector::Axpy(double alpha, const RealVector& other) {
  FGM_CHECK_EQ(dim(), other.dim());
  for (size_t i = 0; i < data_.size(); ++i) {
    data_[i] += alpha * other.data_[i];
  }
}

double RealVector::Dot(const RealVector& other) const {
  FGM_CHECK_EQ(dim(), other.dim());
  double acc = 0.0;
  for (size_t i = 0; i < data_.size(); ++i) acc += data_[i] * other.data_[i];
  return acc;
}

double RealVector::SquaredNorm() const {
  double acc = 0.0;
  for (double x : data_) acc += x * x;
  return acc;
}

double RealVector::Norm() const { return std::sqrt(SquaredNorm()); }

double RealVector::LpNorm(double p) const {
  FGM_CHECK_GE(p, 1.0);
  if (p == 2.0) return Norm();
  if (p == 1.0) {
    double acc = 0.0;
    for (double x : data_) acc += std::fabs(x);
    return acc;
  }
  double acc = 0.0;
  for (double x : data_) acc += std::pow(std::fabs(x), p);
  return std::pow(acc, 1.0 / p);
}

double RealVector::Sum() const {
  double acc = 0.0;
  for (double x : data_) acc += x;
  return acc;
}

double Distance(const RealVector& a, const RealVector& b) {
  FGM_CHECK_EQ(a.dim(), b.dim());
  double acc = 0.0;
  for (size_t i = 0; i < a.dim(); ++i) {
    const double d = a[i] - b[i];
    acc += d * d;
  }
  return std::sqrt(acc);
}

}  // namespace fgm
