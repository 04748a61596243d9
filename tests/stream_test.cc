// Tests for the stream substrate: generator, windows, partitioning, skew.

#include <algorithm>
#include <cmath>
#include <cstring>
#include <deque>
#include <limits>
#include <map>
#include <vector>

#include <gtest/gtest.h>

#include "stream/partition.h"
#include "stream/window.h"
#include "stream/worldcup.h"
#include "util/rng.h"

namespace fgm {
namespace {

WorldCupConfig SmallConfig() {
  WorldCupConfig config;
  config.sites = 9;
  config.total_updates = 20000;
  config.duration = 10000.0;
  config.distinct_clients = 2000;
  return config;
}

TEST(WorldCup, DeterministicAndSorted) {
  const auto a = GenerateWorldCupTrace(SmallConfig());
  const auto b = GenerateWorldCupTrace(SmallConfig());
  ASSERT_EQ(a.size(), 20000u);
  ASSERT_EQ(a.size(), b.size());
  for (size_t i = 0; i < a.size(); ++i) {
    ASSERT_EQ(a[i].cid, b[i].cid);
    ASSERT_EQ(a[i].site, b[i].site);
    if (i > 0) {
      ASSERT_GE(a[i].time, a[i - 1].time);
    }
    ASSERT_GE(a[i].time, 0.0);
    ASSERT_LE(a[i].time, 10000.0);
    ASSERT_DOUBLE_EQ(a[i].weight, 1.0);
  }
  WorldCupConfig other = SmallConfig();
  other.seed += 1;
  const auto c = GenerateWorldCupTrace(other);
  int diff = 0;
  for (size_t i = 0; i < a.size(); ++i) diff += a[i].cid != c[i].cid;
  EXPECT_GT(diff, 1000);
}

TEST(WorldCup, SiteRatesAreSkewed) {
  const auto trace = GenerateWorldCupTrace(SmallConfig());
  auto counts = SiteCounts(trace, 9);
  std::sort(counts.begin(), counts.end());
  // A 1/r power law: the largest site should dwarf the smallest.
  EXPECT_GT(counts.back(), 4 * counts.front());
  int64_t total = 0;
  for (int64_t c : counts) total += c;
  EXPECT_EQ(total, 20000);
}

TEST(WorldCup, ClientPopularityIsZipfLike) {
  const auto trace = GenerateWorldCupTrace(SmallConfig());
  std::map<uint64_t, int> freq;
  for (const auto& rec : trace) ++freq[rec.cid];
  std::vector<int> counts;
  for (const auto& [cid, c] : freq) {
    (void)cid;
    counts.push_back(c);
  }
  std::sort(counts.rbegin(), counts.rend());
  EXPECT_GT(counts[0], 10 * counts[std::min<size_t>(99, counts.size() - 1)]);
}

TEST(WorldCup, TypeMixMatchesConfig) {
  const auto trace = GenerateWorldCupTrace(SmallConfig());
  int html = 0, image = 0;
  for (const auto& rec : trace) {
    html += rec.type == FileType::kHtml;
    image += rec.type == FileType::kImage;
  }
  EXPECT_NEAR(static_cast<double>(html) / trace.size(), 0.22, 0.02);
  EXPECT_NEAR(static_cast<double>(image) / trace.size(), 0.66, 0.02);
}

// FNV-1a over every field value of every record. It hashes the values,
// not the struct bytes (which include padding), so a fingerprint outlives
// a change of record layout.
uint64_t FieldFingerprint(const std::vector<StreamRecord>& trace) {
  uint64_t h = 0xcbf29ce484222325ull;
  auto mix = [&h](uint64_t v) {
    for (int b = 0; b < 8; ++b) {
      h ^= (v >> (8 * b)) & 0xff;
      h *= 0x100000001b3ull;
    }
  };
  for (const StreamRecord& rec : trace) {
    uint64_t time_bits;
    std::memcpy(&time_bits, &rec.time, sizeof(time_bits));
    mix(time_bits);
    mix(rec.cid);
    mix(static_cast<uint64_t>(static_cast<int64_t>(rec.site)));
    mix(static_cast<uint64_t>(static_cast<int64_t>(rec.weight)));
    mix(static_cast<uint64_t>(rec.type));
  }
  return h;
}

TEST(WorldCup, FieldFingerprintIsPinned) {
  // Pinned from the generator's O(k) site scan over the 40-byte record
  // (double weight, 4-byte type): the guide-table draw and the 24-byte
  // record reproduce every value.
  const struct {
    int sites;
    uint64_t fingerprint;
  } kPins[] = {{27, 0x5c37202caf30fa08ull}, {1024, 0x7d8f5050bfef3db6ull}};
  for (const auto& pin : kPins) {
    WorldCupConfig config;
    config.sites = pin.sites;
    config.total_updates = 200000;
    EXPECT_EQ(FieldFingerprint(GenerateWorldCupTrace(config)),
              pin.fingerprint)
        << "k=" << pin.sites;
  }
}

// The capped linear CDF scan the generators draw sites with; GuidedCdf
// must return its answer for every u.
int LinearScan(const std::vector<double>& cdf, double u) {
  const int k = static_cast<int>(cdf.size());
  int i = 0;
  while (i + 1 < k && cdf[static_cast<size_t>(i)] < u) ++i;
  return i;
}

TEST(GuidedCdf, PicksWhatTheLinearScanPicks) {
  Xoshiro256ss rng(0x6c1de);
  for (int k : {1, 2, 3, 27, 1024}) {
    for (double alpha : {0.0, 1.0, 2.5}) {
      const std::vector<double> weights = PowerLawWeights(k, alpha);
      std::vector<double> cdf;
      double acc = 0.0;
      for (double w : weights) cdf.push_back(acc += w);
      const GuidedCdf table(weights);
      ASSERT_EQ(table.cdf(), cdf);

      // Both ends, every bucket edge g/k and every CDF step with their
      // neighbouring doubles on both sides, then random draws.
      std::vector<double> us = {0.0, std::nextafter(1.0, 0.0)};
      auto add_with_neighbours = [&us](double x) {
        us.push_back(std::nextafter(x, 0.0));
        us.push_back(x);
        us.push_back(std::nextafter(x, 2.0));
      };
      for (int g = 0; g <= k; ++g) {
        add_with_neighbours(static_cast<double>(g) / k);
      }
      for (double c : cdf) add_with_neighbours(c);
      for (int i = 0; i < 100000; ++i) us.push_back(rng.NextDouble());
      for (double u : us) {
        if (u < 0.0 || u >= 1.0) continue;
        ASSERT_EQ(table.Pick(u), LinearScan(cdf, u))
            << "k=" << k << " alpha=" << alpha << " u=" << std::hexfloat
            << u;
      }
    }
  }
}

TEST(SlidingWindow, CashRegisterPassesThrough) {
  const auto trace = GenerateWorldCupTrace(SmallConfig());
  SlidingWindowStream events(&trace, 0.0);
  int64_t n = 0;
  while (const StreamRecord* rec = events.Next()) {
    ASSERT_DOUBLE_EQ(rec->weight, 1.0);
    ++n;
  }
  EXPECT_EQ(n, static_cast<int64_t>(trace.size()));
  EXPECT_EQ(events.deletes(), 0);
}

TEST(SlidingWindow, EveryInsertEventuallyDeleted) {
  const auto trace = GenerateWorldCupTrace(SmallConfig());
  SlidingWindowStream events(&trace, 500.0);
  std::map<uint64_t, int> live;  // cid -> live count
  int64_t inserts = 0, deletes = 0;
  double last_time = 0.0;
  while (const StreamRecord* rec = events.Next()) {
    ASSERT_GE(rec->time, last_time);  // time-ordered interleaving
    last_time = rec->time;
    if (rec->weight > 0) {
      ++inserts;
      ++live[rec->cid];
    } else {
      ++deletes;
      --live[rec->cid];
      ASSERT_GE(live[rec->cid], 0);
    }
  }
  EXPECT_EQ(inserts, static_cast<int64_t>(trace.size()));
  EXPECT_EQ(deletes, inserts);  // window fully drains at end of stream
}

TEST(SlidingWindow, WindowContentsNeverOlderThanTw) {
  const auto trace = GenerateWorldCupTrace(SmallConfig());
  const double tw = 800.0;
  SlidingWindowStream events(&trace, tw);
  std::vector<double> live_times;
  while (const StreamRecord* rec = events.Next()) {
    if (rec->weight > 0) {
      live_times.push_back(rec->time);
    } else {
      // Deletion fires at insert time + TW (up to float rounding).
      const double original = rec->time - tw;
      auto it = std::min_element(
          live_times.begin(), live_times.end(), [&](double a, double b) {
            return std::fabs(a - original) < std::fabs(b - original);
          });
      ASSERT_NE(it, live_times.end());
      ASSERT_NEAR(*it, original, 1e-6);
      live_times.erase(it);
    }
    for (double t : live_times) ASSERT_GE(t, rec->time - tw - 1e-9);
  }
}

// The pending-delete deque SlidingWindowStream once kept: every insert
// pushes its delete (time + TW, weight -1), and the front delete fires
// when it is due no later than the next insert. Kept as the reference
// model for the index-based window.
class DequeWindowReference {
 public:
  DequeWindowReference(const std::vector<StreamRecord>* trace, double window)
      : trace_(trace), window_(window) {}

  const StreamRecord* Next() {
    const bool have_insert = next_insert_ < trace_->size();
    const bool have_delete = window_ > 0 && !pending_deletes_.empty();
    if (!have_insert && !have_delete) return nullptr;
    bool emit_delete;
    if (have_insert && have_delete) {
      emit_delete =
          pending_deletes_.front().time <= (*trace_)[next_insert_].time;
    } else {
      emit_delete = have_delete;
    }
    if (emit_delete) {
      current_ = pending_deletes_.front();
      pending_deletes_.pop_front();
      ++deletes_;
    } else {
      current_ = (*trace_)[next_insert_++];
      if (window_ > 0) {
        StreamRecord del = current_;
        del.time += window_;
        del.weight = -1.0;
        pending_deletes_.push_back(del);
      }
      ++inserts_;
    }
    ++produced_;
    return &current_;
  }

  int64_t produced() const { return produced_; }
  int64_t inserts() const { return inserts_; }
  int64_t deletes() const { return deletes_; }

 private:
  const std::vector<StreamRecord>* trace_;
  double window_;
  size_t next_insert_ = 0;
  std::deque<StreamRecord> pending_deletes_;
  StreamRecord current_;
  int64_t produced_ = 0;
  int64_t inserts_ = 0;
  int64_t deletes_ = 0;
};

/// A random trace of up to 60 records. Times come from a small integer
/// grid (so ties are common) plus an optional fraction; `sorted` sorts
/// them, otherwise they stay in draw order.
std::vector<StreamRecord> RandomTrace(Xoshiro256ss& rng, bool sorted) {
  std::vector<StreamRecord> trace(rng.NextBounded(61));
  for (StreamRecord& rec : trace) {
    rec.time = static_cast<double>(rng.NextBounded(12));
    if (rng.NextBounded(2) == 0) rec.time += 0.25 * rng.NextBounded(4);
    rec.site = static_cast<int32_t>(rng.NextBounded(5));
    rec.cid = rng.NextBounded(1000);
    rec.type = static_cast<FileType>(rng.NextBounded(kNumFileTypes));
  }
  if (sorted) {
    std::stable_sort(trace.begin(), trace.end(),
                     [](const StreamRecord& a, const StreamRecord& b) {
                       return a.time < b.time;
                     });
  }
  return trace;
}

bool SameDouble(double a, double b) {
  return std::memcmp(&a, &b, sizeof(double)) == 0;
}

TEST(SlidingWindow, MatchesDequeReferenceOnRandomTraces) {
  // StreamRecord has padding, so events compare field by field.
  const double windows[] = {0.0, -3.0, 0.5, 2.0, 7.25, 1e9,
                            std::numeric_limits<double>::quiet_NaN()};
  Xoshiro256ss rng(20260417);
  int64_t compared = 0;
  for (int t = 0; t < 600; ++t) {
    const std::vector<StreamRecord> trace = RandomTrace(rng, t % 2 == 0);
    for (double window : windows) {
      SlidingWindowStream events(&trace, window);
      DequeWindowReference reference(&trace, window);
      for (;;) {
        const StreamRecord* got = events.Next();
        const StreamRecord* want = reference.Next();
        ASSERT_EQ(got == nullptr, want == nullptr)
            << "trace " << t << " window " << window << " event " << compared;
        if (want == nullptr) break;
        ASSERT_TRUE(SameDouble(got->time, want->time));
        ASSERT_EQ(got->site, want->site);
        ASSERT_EQ(got->cid, want->cid);
        ASSERT_EQ(got->type, want->type);
        ASSERT_TRUE(SameDouble(got->weight, want->weight));
        ++compared;
      }
      EXPECT_EQ(events.produced(), reference.produced());
      EXPECT_EQ(events.inserts(), reference.inserts());
      EXPECT_EQ(events.deletes(), reference.deletes());
      // The end of stream is sticky.
      EXPECT_EQ(events.Next(), nullptr);
    }
  }
  EXPECT_GT(compared, 100000);
}

TEST(Partition, RehashPreservesGlobalStream) {
  const auto trace = GenerateWorldCupTrace(SmallConfig());
  const auto rehashed = RehashSites(trace, 4);
  ASSERT_EQ(rehashed.size(), trace.size());
  for (size_t i = 0; i < trace.size(); ++i) {
    ASSERT_EQ(rehashed[i].cid, trace[i].cid);
    ASSERT_EQ(static_cast<int>(rehashed[i].type),
              static_cast<int>(trace[i].type));
    ASSERT_GE(rehashed[i].site, 0);
    ASSERT_LT(rehashed[i].site, 4);
  }
  // All 4 sites get traffic.
  const auto counts = SiteCounts(rehashed, 4);
  for (int64_t c : counts) EXPECT_GT(c, 0);
}

TEST(Partition, SkewTransformMatchesPaperSetup) {
  const auto trace = GenerateWorldCupTrace(SmallConfig());
  const auto skewed = MakeSkewedTrace(trace, 9, /*group_size=*/4);
  ASSERT_EQ(skewed.size(), trace.size());
  // Global stream identical.
  for (size_t i = 0; i < trace.size(); ++i) {
    ASSERT_EQ(skewed[i].cid, trace[i].cid);
    ASSERT_EQ(skewed[i].time, trace[i].time);
  }
  const auto before = SiteCounts(trace, 9);
  const auto after = SiteCounts(skewed, 9);
  // Exactly group_size - 1 = 3 sites lose their stream entirely; the hot
  // site absorbs the group's records.
  int empty = 0;
  int64_t hot_max = 0;
  for (int i = 0; i < 9; ++i) {
    if (after[static_cast<size_t>(i)] == 0 &&
        before[static_cast<size_t>(i)] > 0) {
      ++empty;
    }
    hot_max = std::max(hot_max, after[static_cast<size_t>(i)]);
  }
  EXPECT_EQ(empty, 3);
  int64_t group_total = 0;
  std::vector<int64_t> sorted = before;
  std::sort(sorted.rbegin(), sorted.rend());
  for (int g = 0; g < 4; ++g) group_total += sorted[static_cast<size_t>(g)];
  EXPECT_EQ(hot_max, group_total);
}

}  // namespace
}  // namespace fgm
