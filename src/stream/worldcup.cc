#include "stream/worldcup.h"

#include <algorithm>
#include <cmath>

#include "util/check.h"
#include "util/rng.h"

namespace fgm {

namespace {

// Arrival-rate profile over [0, duration): a diurnal sinusoid plus a set of
// short Gaussian bursts. Always positive for amplitude < 1.
class RateProfile {
 public:
  RateProfile(const WorldCupConfig& config, Xoshiro256ss& rng)
      : duration_(config.duration), amplitude_(config.diurnal_amplitude) {
    FGM_CHECK(config.diurnal_amplitude >= 0.0 &&
              config.diurnal_amplitude < 1.0);
    for (int b = 0; b < config.bursts; ++b) {
      Burst burst;
      burst.center = rng.NextDouble() * duration_;
      burst.sigma = duration_ * (0.002 + 0.006 * rng.NextDouble());
      burst.height = config.burst_intensity * (0.5 + rng.NextDouble());
      bursts_.push_back(burst);
    }
  }

  double Intensity(double t) const {
    // Peak in the "afternoon" of the simulated day.
    double rate = 1.0 + amplitude_ * std::sin(2.0 * M_PI * t / duration_ -
                                              0.5 * M_PI);
    for (const Burst& b : bursts_) {
      const double z = (t - b.center) / b.sigma;
      rate += b.height * std::exp(-0.5 * z * z);
    }
    return rate;
  }

 private:
  struct Burst {
    double center;
    double sigma;
    double height;
  };
  double duration_;
  double amplitude_;
  std::vector<Burst> bursts_;
};

}  // namespace

std::vector<StreamRecord> GenerateWorldCupTrace(const WorldCupConfig& config) {
  FGM_CHECK_GE(config.sites, 1);
  FGM_CHECK_GE(config.total_updates, 0);
  FGM_CHECK_GT(config.duration, 0.0);
  FGM_CHECK_GE(config.distinct_clients, 1u);
  FGM_CHECK(config.html_fraction + config.image_fraction <= 1.0);

  Xoshiro256ss rng(config.seed);
  const RateProfile profile(config, rng);

  // Numerically integrate the intensity to obtain the cumulative Λ(t) on a
  // grid, then place the i-th arrival at Λ^{-1}((i + u_i)/N · Λ(T)): a
  // deterministic time-warp of an (almost) uniform grid, which keeps the
  // output sorted by construction.
  constexpr int kGrid = 8192;
  std::vector<double> cumulative(kGrid + 1, 0.0);
  const double dt = config.duration / kGrid;
  for (int g = 0; g < kGrid; ++g) {
    const double mid = (g + 0.5) * dt;
    cumulative[static_cast<size_t>(g) + 1] =
        cumulative[static_cast<size_t>(g)] + profile.Intensity(mid) * dt;
  }
  const double total_mass = cumulative.back();

  // Per-site sampling distribution (power law over a shuffled rank order so
  // that the "big" sites are not always ids 0..7), drawn through a guide
  // table in O(1) per record.
  const GuidedCdf site_cdf(
      PowerLawWeights(config.sites, config.site_power_alpha));
  std::vector<int> site_order(static_cast<size_t>(config.sites));
  for (int i = 0; i < config.sites; ++i) site_order[static_cast<size_t>(i)] = i;
  for (int i = config.sites - 1; i > 0; --i) {
    std::swap(site_order[static_cast<size_t>(i)],
              site_order[static_cast<size_t>(rng.NextBounded(
                  static_cast<uint64_t>(i) + 1))]);
  }

  const ZipfDistribution client_dist(config.distinct_clients,
                                     config.client_zipf_s);

  std::vector<StreamRecord> trace;
  trace.reserve(static_cast<size_t>(config.total_updates));
  const double n = static_cast<double>(config.total_updates);
  size_t grid_pos = 0;
  for (int64_t i = 0; i < config.total_updates; ++i) {
    // Jittered stratified mass value, increasing in i.
    const double mass =
        (static_cast<double>(i) + rng.NextDouble()) / n * total_mass;
    while (grid_pos + 1 < cumulative.size() &&
           cumulative[grid_pos + 1] < mass) {
      ++grid_pos;
    }
    const double seg =
        cumulative[grid_pos + 1] - cumulative[grid_pos];
    const double frac = seg > 0 ? (mass - cumulative[grid_pos]) / seg : 0.0;
    const double t = (static_cast<double>(grid_pos) + frac) * dt;

    StreamRecord rec;
    rec.time = t;
    rec.site =
        site_order[static_cast<size_t>(site_cdf.Pick(rng.NextDouble()))];
    rec.cid = client_dist.Sample(rng);
    const double tu = rng.NextDouble();
    if (tu < config.html_fraction) {
      rec.type = FileType::kHtml;
    } else if (tu < config.html_fraction + config.image_fraction) {
      rec.type = FileType::kImage;
    } else {
      const double rest = tu - config.html_fraction - config.image_fraction;
      const double rest_span =
          1.0 - config.html_fraction - config.image_fraction;
      const double r = rest_span > 0 ? rest / rest_span : 0.0;
      rec.type = r < 0.4 ? FileType::kAudio
                         : (r < 0.6 ? FileType::kVideo : FileType::kOther);
    }
    rec.weight = 1;
    trace.push_back(rec);
  }
  return trace;
}

std::vector<int64_t> SiteCounts(const std::vector<StreamRecord>& trace,
                                int sites) {
  std::vector<int64_t> counts(static_cast<size_t>(sites), 0);
  for (const StreamRecord& rec : trace) {
    FGM_CHECK(rec.site >= 0 && rec.site < sites);
    ++counts[static_cast<size_t>(rec.site)];
  }
  return counts;
}

}  // namespace fgm
