// Micro benchmarks (google-benchmark): throughput of the data-path
// building blocks — sketch updates, incremental safe-function evaluation,
// and end-to-end protocol record processing. Every google-benchmark
// result is also exported as BENCH_micro.json (per-benchmark ns/op; see
// bench_common.h / FGM_BENCH_OUT), and tools/bench_gate diffs the report
// against a committed baseline.

#include <cmath>
#include <cstdio>
#include <map>
#include <memory>
#include <string>
#include <vector>

#include <benchmark/benchmark.h>

#include "bench_common.h"
#include "core/fgm_protocol.h"
#include "obs/span.h"
#include "obs/timeseries.h"
#include "obs/trace.h"
#include "query/query.h"
#include "safezone/join_sz.h"
#include "safezone/selfjoin_sz.h"
#include "sketch/fast_agms.h"
#include "util/rng.h"

namespace fgm {
namespace {

std::shared_ptr<const AgmsProjection> Projection(int d, int w) {
  return std::make_shared<const AgmsProjection>(d, w, 42);
}

RealVector WarmSketch(const AgmsProjection& proj, int updates, int factor) {
  Xoshiro256ss rng(7);
  RealVector state(static_cast<size_t>(factor) * proj.dimension());
  std::vector<CellUpdate> deltas;
  for (int i = 0; i < updates; ++i) {
    deltas.clear();
    proj.Map(rng.NextBounded(100000), 1.0, &deltas);
    const size_t offset =
        (factor == 2 && (i & 1)) ? proj.dimension() : 0;
    for (const auto& u : deltas) state[u.index + offset] += u.delta;
  }
  return state;
}

void BM_SketchUpdate(benchmark::State& state) {
  auto proj = Projection(static_cast<int>(state.range(0)),
                         static_cast<int>(state.range(1)));
  FastAgms sketch(proj);
  Xoshiro256ss rng(1);
  for (auto _ : state) {
    sketch.Update(rng.NextBounded(1000000), 1.0);
  }
  state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_SketchUpdate)->Args({5, 500})->Args({7, 1000})->Args({7, 5000});

// Batched ingestion (FastAgms::UpdateBatch): the same per-key kernel as
// the per-record loop above, over a fixed 1024-key batch without the
// per-call random draw; bit-identical, measured per update for the same
// geometry.
void BM_SketchUpdateBatch(benchmark::State& state) {
  auto proj = Projection(static_cast<int>(state.range(0)),
                         static_cast<int>(state.range(1)));
  FastAgms sketch(proj);
  Xoshiro256ss rng(1);
  constexpr size_t kBatch = 1024;
  std::vector<uint64_t> keys(kBatch);
  std::vector<double> weights(kBatch, 1.0);
  for (auto& key : keys) key = rng.NextBounded(1000000);
  for (auto _ : state) {
    sketch.UpdateBatch(keys.data(), weights.data(), kBatch);
  }
  state.SetItemsProcessed(state.iterations() *
                          static_cast<int64_t>(kBatch));
}
BENCHMARK(BM_SketchUpdateBatch)
    ->Args({5, 500})
    ->Args({7, 1000})
    ->Args({7, 5000});

void BM_SelfJoinEstimate(benchmark::State& state) {
  auto proj = Projection(7, static_cast<int>(state.range(0)));
  const RealVector s = WarmSketch(*proj, 50000, 1);
  for (auto _ : state) {
    benchmark::DoNotOptimize(SelfJoinEstimate(*proj, s));
  }
}
BENCHMARK(BM_SelfJoinEstimate)->Arg(1000)->Arg(5000);

void BM_SelfJoinEvaluatorUpdate(benchmark::State& state) {
  auto proj = Projection(5, static_cast<int>(state.range(0)));
  const RealVector e = WarmSketch(*proj, 50000, 1);
  const double q = SelfJoinEstimate(*proj, e);
  SelfJoinSafeFunction fn(proj, e, 0.9 * q, 1.1 * q);
  auto eval = fn.MakeEvaluator();
  Xoshiro256ss rng(3);
  std::vector<CellUpdate> deltas;
  for (auto _ : state) {
    deltas.clear();
    proj->Map(rng.NextBounded(1000000), 1.0, &deltas);
    for (const auto& u : deltas) eval->ApplyDelta(u.index, u.delta);
    benchmark::DoNotOptimize(eval->Value());
  }
  state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_SelfJoinEvaluatorUpdate)->Arg(500)->Arg(5000);

void BM_JoinEvaluatorUpdate(benchmark::State& state) {
  auto proj = Projection(5, static_cast<int>(state.range(0)));
  const RealVector e = WarmSketch(*proj, 50000, 2);
  const double q = JoinEstimateConcatenated(*proj, e);
  const double margin = std::max(0.2 * std::fabs(q), 1.0);
  JoinSafeFunction fn(proj, e, q - margin, q + margin);
  auto eval = fn.MakeEvaluator();
  Xoshiro256ss rng(5);
  std::vector<CellUpdate> deltas;
  for (auto _ : state) {
    deltas.clear();
    proj->Map(rng.NextBounded(1000000), 1.0, &deltas);
    for (const auto& u : deltas) eval->ApplyDelta(u.index, u.delta);
    benchmark::DoNotOptimize(eval->Value());
  }
  state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_JoinEvaluatorUpdate)->Arg(500)->Arg(5000);

// The FGM record-path benchmarks below replay one fixed, pre-generated
// record sequence per iteration through a freshly built protocol (and
// fresh sinks), so every iteration does identical work — the rounds,
// subrounds and rebalances of the same stream prefix — and ns/op (per
// sequence) does not drift with --benchmark_min_time.
constexpr int kRecordsPerIteration = 20000;

std::vector<StreamRecord> RecordSequence(int k) {
  Xoshiro256ss rng(9);
  std::vector<StreamRecord> records(kRecordsPerIteration);
  for (StreamRecord& rec : records) {
    rec.site = static_cast<int32_t>(rng.NextBounded(static_cast<uint64_t>(k)));
    rec.cid = rng.NextBounded(1000000);
  }
  return records;
}

void ReplaySequence(const SelfJoinQuery& query, int k, const FgmConfig& config,
                    const std::vector<StreamRecord>& records) {
  FgmProtocol protocol(&query, k, config);
  for (const StreamRecord& rec : records) protocol.ProcessRecord(rec);
  int64_t words = protocol.traffic().total_words();
  benchmark::DoNotOptimize(words);
}

void BM_FgmProcessRecord(benchmark::State& state) {
  auto proj = Projection(5, 500);
  SelfJoinQuery query(proj, 0.1);
  const int k = static_cast<int>(state.range(0));
  const std::vector<StreamRecord> records = RecordSequence(k);
  for (auto _ : state) {
    ReplaySequence(query, k, FgmConfig{}, records);
  }
  state.SetItemsProcessed(state.iterations() * kRecordsPerIteration);
}
BENCHMARK(BM_FgmProcessRecord)->Arg(4)->Arg(27);

// The same replay with observability enabled: a counting trace sink and
// a run-health time series installed through FgmConfig.
// BM_FgmProcessRecord above runs with both null, so its hooks cost one
// pointer test each; the delta between the two benchmarks
// is the full price of enabled observability (event construction, virtual
// dispatch, round-boundary sampling).
void BM_FgmProcessRecordTraced(benchmark::State& state) {
  auto proj = Projection(5, 500);
  SelfJoinQuery query(proj, 0.1);
  const int k = static_cast<int>(state.range(0));
  const std::vector<StreamRecord> records = RecordSequence(k);
  for (auto _ : state) {
    CountingTraceSink sink;
    TimeSeries timeseries(1024);
    FgmConfig config;
    config.trace = &sink;
    config.timeseries = &timeseries;
    ReplaySequence(query, k, config, records);
  }
  state.SetItemsProcessed(state.iterations() * kRecordsPerIteration);
}
BENCHMARK(BM_FgmProcessRecordTraced)->Arg(4)->Arg(27);

// The replay with ONLY the causal span sink (obs/span.h) installed.
// BM_FgmProcessRecord runs the same hooks against a null SpanSink* (one
// pointer test each), so the delta prices enabled span collection: the
// round/subround scopes alone, since the synchronous link records its
// messages in the trace and not as spans.
void BM_FgmProcessRecordSpans(benchmark::State& state) {
  auto proj = Projection(5, 500);
  SelfJoinQuery query(proj, 0.1);
  const int k = static_cast<int>(state.range(0));
  const std::vector<StreamRecord> records = RecordSequence(k);
  for (auto _ : state) {
    SpanSink spans;
    FgmConfig config;
    config.spans = &spans;
    ReplaySequence(query, k, config, records);
  }
  state.SetItemsProcessed(state.iterations() * kRecordsPerIteration);
}
BENCHMARK(BM_FgmProcessRecordSpans)->Arg(4)->Arg(27);

// Console reporter that additionally lands every per-iteration result in
// the JsonReport (BENCH_micro.json): one run per benchmark with
// ns_per_op / cpu_ns_per_op / items_per_second. All three are time-like,
// so bench_gate never compares them; the gate still fails structurally
// when a benchmark disappears from the suite.
class MicroJsonReporter : public benchmark::ConsoleReporter {
 public:
  explicit MicroJsonReporter(bench::JsonReport* report) : report_(report) {}

  void ReportRuns(const std::vector<Run>& runs) override {
    for (const Run& run : runs) {
      if (run.run_type != Run::RT_Iteration || run.error_occurred) continue;
      double items = 0.0;
      const auto it = run.counters.find("items_per_second");
      if (it != run.counters.end()) items = it->second;
      const double ns = run.GetAdjustedRealTime();
      ns_per_op_[run.benchmark_name()] = ns;
      report_->AddEntry(run.benchmark_name(),
                        {{"ns_per_op", ns},
                         {"cpu_ns_per_op", run.GetAdjustedCPUTime()},
                         {"items_per_second", items}});
    }
    ConsoleReporter::ReportRuns(runs);
  }

  double NsPerOp(const std::string& name) const {
    const auto it = ns_per_op_.find(name);
    return it != ns_per_op_.end() ? it->second : 0.0;
  }

 private:
  bench::JsonReport* report_;
  std::map<std::string, double> ns_per_op_;
};

}  // namespace
}  // namespace fgm

int main(int argc, char** argv) {
  benchmark::Initialize(&argc, argv);
  if (benchmark::ReportUnrecognizedArguments(argc, argv)) return 1;
  fgm::bench::JsonReport& micro = fgm::bench::JsonReport::Get();
  micro.Init("micro");
  fgm::MicroJsonReporter reporter(&micro);
  benchmark::RunSpecifiedBenchmarks(&reporter);
  benchmark::Shutdown();
  // Disabled-path sanity number: the observability hooks' cost when every
  // sink is null, relative to the same replay with them installed. The
  // record-path benchmarks time a whole sequence per op; the overheads
  // are per record.
  const double per_record = 1.0 / fgm::kRecordsPerIteration;
  const double off = reporter.NsPerOp("BM_FgmProcessRecord/27") * per_record;
  const double on =
      reporter.NsPerOp("BM_FgmProcessRecordTraced/27") * per_record;
  if (off > 0.0 && on > 0.0) {
    micro.AddScalar("obs_enabled_overhead_ns_per_op", on - off);
    std::printf("observability overhead (k=27): %.1f ns/record "
                "disabled-path baseline, %.1f ns/record enabled (+%.1f)\n",
                off, on, on - off);
  }
  const double spans_on =
      reporter.NsPerOp("BM_FgmProcessRecordSpans/27") * per_record;
  if (off > 0.0 && spans_on > 0.0) {
    micro.AddScalar("spans_enabled_overhead_ns_per_op", spans_on - off);
    std::printf("span overhead (k=27): %.1f ns/record spans enabled (+%.1f "
                "over the disabled path)\n",
                spans_on, spans_on - off);
  }
  micro.Write();
  return 0;
}
