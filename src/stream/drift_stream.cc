#include "stream/drift_stream.h"

#include "util/check.h"
#include "util/rng.h"

namespace fgm {

std::vector<StreamRecord> GenerateDriftTrace(const DriftStreamConfig& config) {
  FGM_CHECK_GE(config.sites, 1);
  FGM_CHECK_GE(config.distinct_keys, 1u);
  Xoshiro256ss rng(config.seed);
  const ZipfDistribution keys(config.distinct_keys, config.zipf_s);

  // Skewed site rates draw through the guide table; uniform ones (alpha 0)
  // draw a bounded integer.
  const bool skewed = config.site_power_alpha > 0.0;
  const GuidedCdf site_cdf(
      PowerLawWeights(config.sites, config.site_power_alpha));

  std::vector<StreamRecord> trace;
  trace.reserve(static_cast<size_t>(config.total_updates));
  auto draw_site = [&]() {
    if (!skewed) {
      return static_cast<int32_t>(
          rng.NextBounded(static_cast<uint64_t>(config.sites)));
    }
    return static_cast<int32_t>(site_cdf.Pick(rng.NextDouble()));
  };
  while (static_cast<int64_t>(trace.size()) < config.total_updates) {
    StreamRecord rec;
    rec.time = static_cast<double>(trace.size());
    rec.site = draw_site();
    rec.cid = (keys.Sample(rng) - 1 +
               static_cast<uint64_t>(rec.site) * config.site_key_rotation) %
              config.distinct_keys;
    rec.type = FileType::kHtml;
    rec.weight = 1;
    trace.push_back(rec);
    if (config.cancel_fraction > 0.0 &&
        rng.NextDouble() < config.cancel_fraction &&
        static_cast<int64_t>(trace.size()) < config.total_updates) {
      // Immediately delete the same key at a different site.
      StreamRecord del = rec;
      del.time = static_cast<double>(trace.size());
      if (config.sites > 1) {
        do {
          del.site = draw_site();
        } while (del.site == rec.site);
      }
      del.weight = -1;
      trace.push_back(del);
    }
  }
  return trace;
}

}  // namespace fgm
