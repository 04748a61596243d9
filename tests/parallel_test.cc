// Determinism suite for FGM's value-series speculation engine (exec/).
//
// The contract under test: for FGM and FGM/O at every thread count, the
// parallel run is bit-identical to the serial run — same traffic words
// and messages per message kind, same rounds/subrounds/rebalances, same
// final estimate, and the same JSONL trace line for line. GM and
// CENTRAL run the serial loop under any thread count. `ctest -L
// parallel` runs this suite; a -DFGM_SANITIZE=thread build runs it under
// TSan.

#include <gtest/gtest.h>

#include <atomic>
#include <cstdlib>
#include <memory>
#include <string>
#include <utility>
#include <vector>

#include "driver/runner.h"
#include "exec/thread_pool.h"
#include "obs/json.h"
#include "obs/span.h"
#include "obs/timeseries.h"
#include "obs/trace.h"
#include "safezone/ball.h"
#include "safezone/safe_function.h"
#include "sketch/fast_agms.h"
#include "stream/worldcup.h"
#include "util/rng.h"

namespace fgm {
namespace {

// ---------------------------------------------------------------------
// ThreadPool

TEST(ThreadPool, ParallelForVisitsEveryIndexExactlyOnce) {
  ThreadPool pool(4);
  EXPECT_EQ(pool.threads(), 4);
  constexpr int kN = 1000;
  std::vector<std::atomic<int>> hits(kN);
  for (auto& h : hits) h.store(0);
  pool.ParallelFor(kN, [&](int i) { hits[static_cast<size_t>(i)]++; });
  for (int i = 0; i < kN; ++i) {
    EXPECT_EQ(hits[static_cast<size_t>(i)].load(), 1) << "index " << i;
  }
}

TEST(ThreadPool, ReusableAcrossManyJobs) {
  ThreadPool pool(3);
  std::atomic<int64_t> sum{0};
  int64_t expected = 0;
  for (int job = 0; job < 50; ++job) {
    const int n = 1 + (job * 7) % 97;
    pool.ParallelFor(n, [&](int i) { sum += i; });
    expected += static_cast<int64_t>(n) * (n - 1) / 2;
  }
  EXPECT_EQ(sum.load(), expected);
}

TEST(ThreadPool, SingleThreadRunsInline) {
  ThreadPool pool(1);
  EXPECT_EQ(pool.threads(), 1);
  int count = 0;
  pool.ParallelFor(10, [&](int) { ++count; });  // non-atomic is fine inline
  EXPECT_EQ(count, 10);
}

// ---------------------------------------------------------------------
// Batched sketch ingestion

TEST(FastAgms, UpdateBatchBitIdenticalToSerialUpdates) {
  auto projection = std::make_shared<const AgmsProjection>(5, 64, 0xBEEF);
  FastAgms serial(projection);
  FastAgms batched(projection);

  Xoshiro256ss rng(42);
  std::vector<uint64_t> keys;
  std::vector<double> weights;
  for (int i = 0; i < 4096; ++i) {
    keys.push_back(rng.NextBounded(777));
    weights.push_back(static_cast<double>(rng.NextBounded(13)) - 6.0);
  }
  for (size_t i = 0; i < keys.size(); ++i) serial.Update(keys[i], weights[i]);
  batched.UpdateBatch(keys.data(), weights.data(), keys.size());

  for (size_t i = 0; i < serial.state().dim(); ++i) {
    EXPECT_EQ(serial.state()[i], batched.state()[i]) << "cell " << i;
  }
}

// ---------------------------------------------------------------------
// Incremental evaluation cross-check (FGM_PARANOID)

TEST(ParanoidDriftEvaluator, AgreesWithReferenceOnCorrectInner) {
  RealVector center(8);
  center[0] = 3.0;
  BallSafeFunction fn(center, 10.0);
  ParanoidDriftEvaluator eval(&fn, fn.MakeEvaluator(), /*period=*/1);
  Xoshiro256ss rng(7);
  for (int i = 0; i < 200; ++i) {
    // Every ApplyDelta cross-checks (period 1); divergence would abort.
    eval.ApplyDelta(rng.NextBounded(8),
                    static_cast<double>(rng.NextBounded(9)) - 4.0);
  }
  EXPECT_NEAR(eval.Value(), fn.Eval(eval.drift()), 1e-9);
}

// An evaluator whose incremental value is wrong on purpose.
class BrokenEvaluator : public VectorDriftEvaluator {
 public:
  explicit BrokenEvaluator(size_t dim) : VectorDriftEvaluator(dim) {}
  void ApplyDelta(size_t index, double delta) override {
    x_[index] += delta;
  }
  double Value() const override { return 1e9; }  // nowhere near φ(x)
  double ValueAtScale(double) const override { return 1e9; }
  void Reset() override { x_.SetZero(); }
  std::unique_ptr<DriftEvaluator> Clone() const override {
    return std::make_unique<BrokenEvaluator>(*this);
  }
};

TEST(ParanoidDriftEvaluatorDeathTest, AbortsOnDivergedInner) {
  RealVector center(4);
  center[0] = 1.0;
  BallSafeFunction fn(center, 10.0);
  ParanoidDriftEvaluator eval(&fn, std::make_unique<BrokenEvaluator>(4),
                              /*period=*/1);
  EXPECT_DEATH(eval.ApplyDelta(0, 1.0), "FGM_PARANOID");
}

// Right at λ = 1 and wrong below it: the perspective ignores λ. Sites
// read ValueAtScale(λ), with λ < 1 after every rebalance.
class BrokenPerspectiveEvaluator : public VectorDriftEvaluator {
 public:
  explicit BrokenPerspectiveEvaluator(const SafeFunction* fn)
      : VectorDriftEvaluator(fn->dimension()), fn_(fn) {}
  void ApplyDelta(size_t index, double delta) override {
    x_[index] += delta;
  }
  double Value() const override { return fn_->Eval(x_); }
  double ValueAtScale(double) const override { return Value(); }
  void Reset() override { x_.SetZero(); }
  std::unique_ptr<DriftEvaluator> Clone() const override {
    return std::make_unique<BrokenPerspectiveEvaluator>(*this);
  }

 private:
  const SafeFunction* fn_;
};

TEST(ParanoidDriftEvaluatorDeathTest, AbortsOnWrongPerspective) {
  RealVector center(4);
  center[0] = 1.0;
  BallSafeFunction fn(center, 10.0);
  ParanoidDriftEvaluator eval(
      &fn, std::make_unique<BrokenPerspectiveEvaluator>(&fn), /*period=*/1);
  const CellUpdate cell{0, 1.0};
  eval.ApplyDelta(0, 1.0);          // Value() is right
  eval.ApplyDeltas(&cell, 1, 1.0);  // and so is λ = 1
  EXPECT_DEATH(eval.ApplyDeltas(&cell, 1, 0.5), "FGM_PARANOID");
}

TEST(MakeCheckedEvaluator, EnvVariableTogglesTheWrapper) {
  RealVector center(4);
  center[0] = 1.0;
  BallSafeFunction fn(center, 10.0);

  unsetenv("FGM_PARANOID");
  auto inner = fn.MakeEvaluator();
  DriftEvaluator* raw = inner.get();
  auto out = MakeCheckedEvaluator(&fn, std::move(inner));
  EXPECT_EQ(out.get(), raw);  // unset: pass-through

  setenv("FGM_PARANOID", "8", 1);
  auto wrapped = MakeCheckedEvaluator(&fn, fn.MakeEvaluator());
  EXPECT_NE(dynamic_cast<ParanoidDriftEvaluator*>(wrapped.get()), nullptr);
  unsetenv("FGM_PARANOID");
}

// ---------------------------------------------------------------------
// End-to-end determinism: parallel == serial, bit for bit.

struct RunOutput {
  RunResult result;
  std::vector<std::string> trace_lines;
};

RunOutput RunOnce(ProtocolKind protocol, QueryKind query, int threads) {
  RunConfig config;
  config.protocol = protocol;
  config.query = query;
  config.sites = 5;
  config.depth = 5;
  config.width = 60;
  config.check_every = 5000;
  config.threads = threads;
  MemoryTraceSink sink;
  config.trace = &sink;

  WorldCupConfig wc;
  wc.sites = config.sites;
  wc.total_updates = 30000;
  const std::vector<StreamRecord> trace = GenerateWorldCupTrace(wc);

  RunOutput out;
  out.result = Run(config, trace);
  out.trace_lines.reserve(sink.events_log().size());
  for (const TraceEvent& e : sink.events_log()) {
    out.trace_lines.push_back(JsonlTraceSink::EventJson(e));
  }
  return out;
}

void ExpectIdentical(const RunOutput& serial, const RunOutput& parallel,
                     const std::string& what) {
  SCOPED_TRACE(what);
  const TrafficStats& a = serial.result.traffic;
  const TrafficStats& b = parallel.result.traffic;
  EXPECT_EQ(a.total_words(), b.total_words());
  EXPECT_EQ(a.upstream_words, b.upstream_words);
  EXPECT_EQ(a.downstream_words, b.downstream_words);
  EXPECT_EQ(a.upstream_messages, b.upstream_messages);
  EXPECT_EQ(a.downstream_messages, b.downstream_messages);
  for (size_t i = 0; i < a.words_by_kind.size(); ++i) {
    EXPECT_EQ(a.words_by_kind[i], b.words_by_kind[i]) << "msg kind " << i;
  }
  EXPECT_EQ(serial.result.rounds, parallel.result.rounds);
  EXPECT_EQ(serial.result.subrounds, parallel.result.subrounds);
  EXPECT_EQ(serial.result.rebalances, parallel.result.rebalances);
  EXPECT_EQ(serial.result.events, parallel.result.events);
  EXPECT_EQ(serial.result.checks, parallel.result.checks);
  // Bit-exact floating-point agreement, not approximate.
  EXPECT_EQ(serial.result.max_violation, parallel.result.max_violation);
  EXPECT_EQ(serial.result.final_estimate, parallel.result.final_estimate);

  ASSERT_EQ(serial.trace_lines.size(), parallel.trace_lines.size());
  for (size_t i = 0; i < serial.trace_lines.size(); ++i) {
    ASSERT_EQ(serial.trace_lines[i], parallel.trace_lines[i])
        << "trace line " << i;
  }
}

class ParallelDeterminism
    : public ::testing::TestWithParam<std::tuple<ProtocolKind, QueryKind>> {};

TEST_P(ParallelDeterminism, BitIdenticalAcrossThreadCounts) {
  const auto [protocol, query] = GetParam();
  const RunOutput serial = RunOnce(protocol, query, 1);
  EXPECT_GT(serial.result.events, 0);
  for (int threads : {2, 8}) {
    const RunOutput parallel = RunOnce(protocol, query, threads);
    EXPECT_EQ(parallel.result.threads_used, threads);
    EXPECT_GT(parallel.result.parallel_windows, 0);
    ExpectIdentical(serial, parallel,
                    "threads=" + std::to_string(threads));
  }
}

using ParallelParam = std::tuple<ProtocolKind, QueryKind>;

std::string ParallelParamName(const ::testing::TestParamInfo<ParallelParam>& info) {
  std::string name = ProtocolKindName(std::get<0>(info.param));
  for (char& c : name) {
    if (c == '/' || c == '-') c = '_';
  }
  name += std::get<1>(info.param) == QueryKind::kSelfJoin ? "_Q1" : "_Q2";
  return name;
}

INSTANTIATE_TEST_SUITE_P(
    Protocols, ParallelDeterminism,
    ::testing::Values(
        std::make_tuple(ProtocolKind::kFgm, QueryKind::kSelfJoin),
        std::make_tuple(ProtocolKind::kFgm, QueryKind::kJoin),
        std::make_tuple(ProtocolKind::kFgmOpt, QueryKind::kSelfJoin)),
    ParallelParamName);

// The run-health time series must also be bit-identical for every thread
// count: round samples land at round boundaries (deterministic by the
// trace equality above) and interval samples at --snapshot_every record
// counts, which the parallel runner aligns its chunks to.
TEST(ParallelDeterminism, TimeSeriesBitIdenticalAcrossThreadCounts) {
  auto run_series = [](int threads) {
    RunConfig config;
    config.protocol = ProtocolKind::kFgm;
    config.query = QueryKind::kSelfJoin;
    config.sites = 5;
    config.depth = 5;
    config.width = 60;
    config.threads = threads;
    config.snapshot_every = 7000;
    TimeSeries series(1 << 14);
    config.timeseries = &series;

    WorldCupConfig wc;
    wc.sites = config.sites;
    wc.total_updates = 30000;
    ::fgm::Run(config, GenerateWorldCupTrace(wc));

    JsonWriter w;
    series.WriteJson(&w);
    return w.Take();
  };
  const std::string serial = run_series(1);
  EXPECT_NE(serial.find("\"kind\":\"interval\""), std::string::npos)
      << "snapshot_every must produce interval samples";
  for (int threads : {2, 8}) {
    EXPECT_EQ(serial, run_series(threads)) << "threads=" << threads;
  }
}

// Parallel runs account their speculation in RunResult; the serial path
// reports none.
TEST(ParallelDeterminism, SpeculationAccountedInRunResult) {
  auto run = [](int threads) {
    RunConfig config;
    config.protocol = ProtocolKind::kFgm;
    config.query = QueryKind::kSelfJoin;
    config.sites = 5;
    config.depth = 5;
    config.width = 60;
    config.threads = threads;

    WorldCupConfig wc;
    wc.sites = config.sites;
    wc.total_updates = 30000;
    return ::fgm::Run(config, GenerateWorldCupTrace(wc));
  };
  const RunResult parallel = run(4);
  const RunResult serial = run(1);
  EXPECT_EQ(serial.parallel_windows, 0) << "serial path speculates nothing";
  EXPECT_TRUE(serial.thread_tasks.empty());
  EXPECT_GT(parallel.parallel_windows, 0);
  EXPECT_EQ(parallel.thread_tasks.size(), 4u);
  // Every record is committed exactly once.
  EXPECT_EQ(parallel.events, serial.events);
  EXPECT_LE(parallel.parallel_barriers, parallel.parallel_windows);
}

TEST(ParallelDeterminism, CentralFallsBackToSerial) {
  // CENTRAL and GM do not speculate (every GM local violation is a
  // synchronization); --threads must degrade to the serial loop, not
  // crash or change results.
  for (ProtocolKind protocol : {ProtocolKind::kCentral, ProtocolKind::kGm}) {
    for (QueryKind query : {QueryKind::kSelfJoin, QueryKind::kJoin}) {
      const RunOutput serial = RunOnce(protocol, query, 1);
      const RunOutput parallel = RunOnce(protocol, query, 4);
      EXPECT_EQ(parallel.result.threads_used, 1);
      EXPECT_EQ(parallel.result.parallel_windows, 0);
      ExpectIdentical(serial, parallel,
                      std::string(ProtocolKindName(protocol)) +
                          (query == QueryKind::kSelfJoin ? " Q1" : " Q2"));
    }
  }
}

TEST(ParallelDeterminism, ParanoidModeHoldsUnderParallelExecution) {
  // FGM_PARANOID cross-checks every site evaluator during a parallel run;
  // an incremental-maintenance bug in checkpoint/replay would abort.
  setenv("FGM_PARANOID", "256", 1);
  const RunOutput serial = RunOnce(ProtocolKind::kFgm, QueryKind::kSelfJoin, 1);
  const RunOutput parallel =
      RunOnce(ProtocolKind::kFgm, QueryKind::kSelfJoin, 4);
  unsetenv("FGM_PARANOID");
  ExpectIdentical(serial, parallel, "paranoid");
}

// ---------------------------------------------------------------------
// Bit-identity on the batched fast path with spans enabled, and the
// serial fallback under simulated network chaos.

RunOutput RunOnceWithSpans(ProtocolKind protocol, int threads) {
  RunConfig config;
  config.protocol = protocol;
  config.query = QueryKind::kSelfJoin;
  config.sites = 5;
  config.depth = 5;
  config.width = 60;
  config.check_every = 5000;
  config.threads = threads;
  MemoryTraceSink sink;
  config.trace = &sink;
  SpanSink spans;
  config.spans = &spans;

  WorldCupConfig wc;
  wc.sites = config.sites;
  wc.total_updates = 30000;
  const std::vector<StreamRecord> trace = GenerateWorldCupTrace(wc);

  RunOutput out;
  out.result = Run(config, trace);
  EXPECT_GT(spans.spans(), 0);
  out.trace_lines.reserve(sink.events_log().size());
  for (const TraceEvent& e : sink.events_log()) {
    out.trace_lines.push_back(JsonlTraceSink::EventJson(e));
  }
  return out;
}

// Span collection timestamps worker segments but must not perturb the
// protocol: traffic and traces stay bit-identical to serial for every
// protocol that speculates (the window/shard/replay spans themselves are
// wall-clock data, so only their presence is asserted).
TEST(ParallelDeterminism, SpansEnabledStaysBitIdentical) {
  for (ProtocolKind protocol : {ProtocolKind::kFgm, ProtocolKind::kFgmOpt}) {
    const RunOutput serial = RunOnceWithSpans(protocol, 1);
    for (int threads : {2, 8}) {
      const RunOutput parallel = RunOnceWithSpans(protocol, threads);
      ExpectIdentical(serial, parallel,
                      std::string(ProtocolKindName(protocol)) +
                          " spans threads=" + std::to_string(threads));
    }
  }
}

RunOutput RunOnceChaos(int threads) {
  RunConfig config;
  config.protocol = ProtocolKind::kFgm;
  config.query = QueryKind::kSelfJoin;
  config.sites = 5;
  config.depth = 5;
  config.width = 60;
  config.check_every = 5000;
  config.threads = threads;
  config.net.latency = "uniform:1-16";
  config.net.drop = 0.15;
  MemoryTraceSink sink;
  config.trace = &sink;

  WorldCupConfig wc;
  wc.sites = config.sites;
  wc.total_updates = 30000;
  const std::vector<StreamRecord> trace = GenerateWorldCupTrace(wc);

  RunOutput out;
  out.result = Run(config, trace);
  out.trace_lines.reserve(sink.events_log().size());
  for (const TraceEvent& e : sink.events_log()) {
    out.trace_lines.push_back(JsonlTraceSink::EventJson(e));
  }
  return out;
}

// The discrete-event network cannot be sharded (delivery order is part
// of protocol state), so --threads over a simulated network must fall
// back to the serial loop and reproduce it exactly — drops, latency,
// retransmissions and all.
TEST(ParallelDeterminism, SimulatedNetworkChaosFallsBackBitIdentical) {
  const RunOutput serial = RunOnceChaos(1);
  EXPECT_TRUE(serial.result.net_enabled);
  EXPECT_GT(serial.result.net.dropped_msgs, 0);
  const RunOutput parallel = RunOnceChaos(8);
  EXPECT_EQ(parallel.result.threads_used, 1);
  EXPECT_EQ(parallel.result.parallel_windows, 0);
  ExpectIdentical(serial, parallel, "sim chaos");
}

}  // namespace
}  // namespace fgm
