#include "sketch/fast_agms.h"

#include <algorithm>

#include "util/check.h"
#include "util/rng.h"

namespace fgm {
namespace {

// ±1 by the sign hash's low bit. A load instead of a branch: the bit is a
// coin flip per row, so a branch would mispredict half the time.
constexpr double kSignByBit[2] = {-1.0, +1.0};

}  // namespace

AgmsProjection::AgmsProjection(int depth, int width, uint64_t seed)
    : depth_(depth), width_(width) {
  FGM_CHECK_GE(depth, 1);
  FGM_CHECK_GE(width, 1);
  Xoshiro256ss rng(seed);
  bucket_.reserve(static_cast<size_t>(depth));
  sign_.reserve(static_cast<size_t>(depth));
  rows_.reserve(static_cast<size_t>(depth));
  for (int r = 0; r < depth; ++r) {
    bucket_.emplace_back(rng, static_cast<uint32_t>(width));
    sign_.emplace_back(rng);
    const PairwiseHash& b = bucket_.back().poly();
    const FourwiseHash& s = sign_.back().poly();
    rows_.push_back(
        RowCoeffs{{b.coeff(0), b.coeff(1)},
                  {s.coeff(0), s.coeff(1), s.coeff(2), s.coeff(3)}});
  }
}

void AgmsProjection::MapInto(uint64_t key, double weight,
                             CellUpdate* out) const {
  using Wide = __uint128_t;
  const uint64_t x = PairwiseHash::Mod(key);
  const uint64_t x2 = PairwiseHash::MulMod(x, x);
  const uint64_t x3 = PairwiseHash::MulMod(x2, x);
  const uint64_t width = static_cast<uint64_t>(width_);
  for (size_t r = 0; r < rows_.size(); ++r) {
    // Each product of two residues is < 2^122, so neither sum reaches
    // 2^124; one reduction gives the canonical residue Horner computes.
    const RowCoeffs& c = rows_[r];
    const uint64_t bucket =
        MersenneReduce(Wide{c.bucket[1]} * x + c.bucket[0]) % width;
    const uint64_t sign =
        MersenneReduce(Wide{c.sign[3]} * x3 + Wide{c.sign[2]} * x2 +
                       Wide{c.sign[1]} * x + c.sign[0]);
    out[r] = CellUpdate{r * width + bucket, kSignByBit[sign & 1] * weight};
  }
}

void AgmsProjection::Map(uint64_t key, double weight,
                         std::vector<CellUpdate>* out) const {
  const size_t before = out->size();
  out->resize(before + static_cast<size_t>(depth_));
  MapInto(key, weight, out->data() + before);
}

void AgmsProjection::MapBatch(const uint64_t* keys, const double* weights,
                              size_t count, CellUpdate* out) const {
  const size_t depth = static_cast<size_t>(depth_);
  for (size_t j = 0; j < count; ++j) {
    MapInto(keys[j], weights[j], out + j * depth);
  }
}

FastAgms::FastAgms(std::shared_ptr<const AgmsProjection> projection)
    : projection_(std::move(projection)),
      state_(projection_->dimension()),
      cells_(static_cast<size_t>(projection_->depth())) {}

void FastAgms::Update(uint64_t key, double weight) {
  UpdateBatch(&key, &weight, 1);
}

void FastAgms::UpdateBatch(const uint64_t* keys, const double* weights,
                           size_t count) {
  for (size_t i = 0; i < count; ++i) {
    projection_->MapInto(keys[i], weights[i], cells_.data());
    for (const CellUpdate& c : cells_) state_[c.index] += c.delta;
  }
}

double FastAgms::SelfJoinEstimate() const {
  return fgm::SelfJoinEstimate(*projection_, state_);
}

double FastAgms::JoinEstimate(const FastAgms& a, const FastAgms& b) {
  FGM_CHECK_EQ(a.projection_.get(), b.projection_.get());
  return fgm::JoinEstimate(*a.projection_, a.state_, b.state_);
}

double Median(std::vector<double> values) {
  FGM_CHECK(!values.empty());
  const size_t mid = values.size() / 2;
  std::nth_element(values.begin(), values.begin() + static_cast<long>(mid),
                   values.end());
  if (values.size() % 2 == 1) return values[mid];
  const double hi = values[mid];
  const double lo =
      *std::max_element(values.begin(), values.begin() + static_cast<long>(mid));
  return 0.5 * (lo + hi);
}

double SelfJoinEstimate(const AgmsProjection& projection,
                        const RealVector& state) {
  FGM_CHECK_EQ(state.dim(), projection.dimension());
  const int d = projection.depth();
  const int w = projection.width();
  std::vector<double> rows(static_cast<size_t>(d));
  for (int r = 0; r < d; ++r) {
    double acc = 0.0;
    const size_t base = static_cast<size_t>(r) * static_cast<size_t>(w);
    for (int j = 0; j < w; ++j) {
      const double x = state[base + static_cast<size_t>(j)];
      acc += x * x;
    }
    rows[static_cast<size_t>(r)] = acc;
  }
  return Median(std::move(rows));
}

double JoinEstimate(const AgmsProjection& projection, const RealVector& s1,
                    const RealVector& s2) {
  FGM_CHECK_EQ(s1.dim(), projection.dimension());
  FGM_CHECK_EQ(s2.dim(), projection.dimension());
  const int d = projection.depth();
  const int w = projection.width();
  std::vector<double> rows(static_cast<size_t>(d));
  for (int r = 0; r < d; ++r) {
    double acc = 0.0;
    const size_t base = static_cast<size_t>(r) * static_cast<size_t>(w);
    for (int j = 0; j < w; ++j) {
      acc += s1[base + static_cast<size_t>(j)] * s2[base + static_cast<size_t>(j)];
    }
    rows[static_cast<size_t>(r)] = acc;
  }
  return Median(std::move(rows));
}

double JoinEstimateConcatenated(const AgmsProjection& projection,
                                const RealVector& s1s2) {
  const size_t dim = projection.dimension();
  FGM_CHECK_EQ(s1s2.dim(), 2 * dim);
  const int d = projection.depth();
  const int w = projection.width();
  std::vector<double> rows(static_cast<size_t>(d));
  for (int r = 0; r < d; ++r) {
    double acc = 0.0;
    const size_t base = static_cast<size_t>(r) * static_cast<size_t>(w);
    for (int j = 0; j < w; ++j) {
      acc += s1s2[base + static_cast<size_t>(j)] *
             s1s2[dim + base + static_cast<size_t>(j)];
    }
    rows[static_cast<size_t>(r)] = acc;
  }
  return Median(std::move(rows));
}

}  // namespace fgm
