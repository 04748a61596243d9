#include "driver/runner.h"

#include <algorithm>
#include <chrono>
#include <cmath>
#include <csignal>
#include <cstdio>

#include "baseline/central.h"
#include "core/fgm_config.h"
#include "query/quantile.h"
#include "query/variance.h"
#include "core/fgm_protocol.h"
#include "gm/gm_protocol.h"
#include "hier/topology.h"
#include "obs/health.h"
#include "obs/json.h"
#include "obs/span.h"
#include "obs/timeseries.h"
#include "obs/trace.h"
#include "stream/window.h"
#include "util/check.h"

namespace fgm {

namespace {
volatile std::sig_atomic_t g_stop_requested = 0;
void StopSignalHandler(int) { g_stop_requested = 1; }
}  // namespace

bool StopRequested() { return g_stop_requested != 0; }

void InstallSignalFlush() {
  std::signal(SIGINT, StopSignalHandler);
  std::signal(SIGTERM, StopSignalHandler);
}

const char* ProtocolKindName(ProtocolKind kind) {
  switch (kind) {
    case ProtocolKind::kCentral:
      return "CENTRAL";
    case ProtocolKind::kGm:
      return "GM";
    case ProtocolKind::kFgmBasic:
      return "FGM-basic";
    case ProtocolKind::kFgm:
      return "FGM";
    case ProtocolKind::kFgmOpt:
      return "FGM/O";
  }
  return "?";
}

std::unique_ptr<ContinuousQuery> MakeQuery(const RunConfig& config) {
  constexpr double kQuantilePhi = 0.95;
  constexpr int kQuantileBuckets = 48;
  switch (config.query) {
    case QueryKind::kSelfJoin: {
      auto projection = std::make_shared<const AgmsProjection>(
          config.depth, config.width, config.sketch_seed);
      return std::make_unique<SelfJoinQuery>(projection, config.epsilon);
    }
    case QueryKind::kJoin: {
      auto projection = std::make_shared<const AgmsProjection>(
          config.depth, config.width, config.sketch_seed);
      return std::make_unique<JoinQuery>(projection, config.epsilon);
    }
    case QueryKind::kFpNorm:
      // The two-sided band supports p = 2 only.
      return std::make_unique<FpNormQuery>(config.fp_dimension, 2.0,
                                           config.epsilon,
                                           FpNormQuery::Mode::kTwoSided);
    case QueryKind::kVariance:
      return std::make_unique<VarianceQuery>(config.epsilon);
    case QueryKind::kQuantile:
      return std::make_unique<QuantileQuery>(kQuantileBuckets, kQuantilePhi,
                                             config.epsilon);
  }
  FGM_CHECK(false);
  return nullptr;
}

namespace {

/// Newest samples a private --timeseries_out series keeps.
constexpr size_t kTimeSeriesSamples = 4096;

/// The run's topology: config.topology parsed for config.sites leaves, or
/// the flat star when it is empty. A malformed spec dies with its
/// one-line message.
hier::TreeTopology RunTopology(const RunConfig& config) {
  if (config.topology.empty()) return hier::TreeTopology::Star(config.sites);
  hier::TreeTopology topo;
  std::string error;
  if (!hier::TreeTopology::Parse(config.topology, config.sites, &topo,
                                 &error)) {
    std::fprintf(stderr, "%s\n", error.c_str());
    FGM_CHECK(false);
  }
  return topo;
}

std::unique_ptr<MonitoringProtocol> BuildProtocol(
    const RunConfig& config, const ContinuousQuery* query,
    const hier::TreeTopology& topo) {
  // kAuto still honours the FGM_STRICT_WIRE environment variable.
  const TransportMode mode = config.strict_wire ? TransportMode::kSerializing
                                                : TransportMode::kAuto;
  switch (config.protocol) {
    case ProtocolKind::kCentral:
      // Deep trees need the subround protocol at the aggregators, which
      // only the FGM family has.
      FGM_CHECK(topo.IsFlat());
      return std::make_unique<CentralProtocol>(
          query, config.sites, mode, config.trace, config.net, config.spans);
    case ProtocolKind::kGm: {
      FGM_CHECK(topo.IsFlat());
      GmConfig gm;
      gm.transport = mode;
      gm.net = config.net;
      gm.trace = config.trace;
      gm.spans = config.spans;
      return std::make_unique<GmProtocol>(query, config.sites, gm);
    }
    case ProtocolKind::kFgmBasic:
    case ProtocolKind::kFgm:
    case ProtocolKind::kFgmOpt:
      break;
  }
  FgmConfig fgm;
  fgm.transport = mode;
  fgm.net = config.net;
  fgm.rebalance = config.protocol != ProtocolKind::kFgmBasic;
  fgm.optimizer = config.protocol == ProtocolKind::kFgmOpt;
  fgm.trace = config.trace;
  fgm.timeseries = config.timeseries;
  fgm.spans = config.spans;
  fgm.health = config.health;
  fgm.health_planning = config.health_planning;
  return std::make_unique<FgmProtocol>(query, topo, fgm);
}

void WriteStats(JsonWriter* w, const std::string& name,
                const RunningStats& s) {
  w->Key(name);
  w->BeginObject();
  w->Field("count", s.count());
  w->Field("mean", s.mean());
  w->Field("stddev", s.stddev());
  w->Field("min", s.min());
  w->Field("max", s.max());
  w->EndObject();
}

void WriteHistogram(JsonWriter* w, const std::string& name,
                    const CountHistogram& h) {
  w->Key(name);
  w->BeginObject();
  w->Field("total", h.total());
  w->Field("mean", h.Mean());
  w->Field("max", h.max_observed());
  w->Field("p50", h.Quantile(0.5));
  w->Field("p95", h.Quantile(0.95));
  w->Key("buckets");
  w->BeginObject();
  for (int64_t v = 0; v <= h.bucket_limit(); ++v) {
    if (h.CountAt(v) == 0) continue;
    // The last bucket aggregates every value >= bucket_limit.
    w->Field(v == h.bucket_limit() ? "overflow" : std::to_string(v),
             h.CountAt(v));
  }
  w->EndObject();
  w->EndObject();
}

/// JSON run summary: the RunResult with its traffic breakdown.
void WriteMetricsFile(const std::string& path, const RunConfig& config,
                      const RunResult& result) {
  JsonWriter w;
  w.BeginObject();
  w.Key("run");
  w.BeginObject();
  w.Field("protocol", result.protocol_name);
  w.Field("query", result.query_name);
  w.Field("sites", static_cast<int64_t>(config.sites));
  w.Field("strict_wire", result.strict_wire);
  w.Field("events", result.events);
  w.Field("rounds", result.rounds);
  w.Field("subrounds", result.subrounds);
  w.Field("rebalances", result.rebalances);
  w.Field("overflow_rounds", result.overflow_rounds);
  w.Field("mean_full_function_fraction", result.mean_full_function_fraction);
  w.Field("comm_cost", result.comm_cost);
  w.Field("upstream_fraction", result.upstream_fraction);
  w.Field("total_words", result.traffic.total_words());
  w.Field("upstream_words", result.traffic.upstream_words);
  w.Field("downstream_words", result.traffic.downstream_words);
  w.Field("upstream_messages", result.traffic.upstream_messages);
  w.Field("downstream_messages", result.traffic.downstream_messages);
  w.Field("max_violation", result.max_violation);
  w.Field("checks", result.checks);
  w.Field("final_estimate", result.final_estimate);
  w.Field("final_truth", result.final_truth);
  w.Field("wall_seconds", result.wall_seconds);
  if (!result.topology.empty()) w.Field("topology", result.topology);
  w.EndObject();
  if (!result.tier_traffic.empty()) {
    // Tree-topology runs: per-link-tier traffic, root-side first. Tier 0
    // repeats the headline totals above (the root link is what scales);
    // deeper tiers show the fan-out the aggregators absorbed.
    w.Key("tiers");
    w.BeginArray();
    for (size_t t = 0; t < result.tier_traffic.size(); ++t) {
      const TrafficStats& s = result.tier_traffic[t];
      w.BeginObject();
      w.Field("tier", static_cast<int64_t>(t));
      w.Field("upstream_words", s.upstream_words);
      w.Field("downstream_words", s.downstream_words);
      w.Field("upstream_messages", s.upstream_messages);
      w.Field("downstream_messages", s.downstream_messages);
      w.EndObject();
    }
    w.EndArray();
  }
  if (result.net_enabled) {
    // Only simulated-network runs carry this section, so synchronous
    // summaries stay byte-identical to earlier versions.
    w.Key("net");
    w.BeginObject();
    w.Field("delivered_msgs", result.net.delivered_msgs);
    w.Field("delivered_words", result.net.delivered_words);
    w.Field("dropped_msgs", result.net.dropped_msgs);
    w.Field("dropped_words", result.net.dropped_words);
    w.Field("retransmitted_msgs", result.net.retransmitted_msgs);
    w.Field("retransmitted_words", result.net.retransmitted_words);
    w.Field("stale_msgs", result.net.stale_msgs);
    w.Field("timeouts", result.net.timeouts);
    w.Field("resyncs", result.net.resyncs);
    w.Field("site_downs", result.net.site_downs);
    w.Field("max_in_flight_words", result.net.max_in_flight_words);
    w.Field("final_tick", result.net.final_tick);
    w.EndObject();
  }
  w.Key("words_by_kind");
  w.BeginObject();
  for (size_t i = 0; i < result.traffic.words_by_kind.size(); ++i) {
    w.Field(MsgKindName(static_cast<MsgKind>(i)),
            result.traffic.words_by_kind[i]);
  }
  w.EndObject();
  if (result.subrounds_per_round.total() > 0) {
    WriteHistogram(&w, "subrounds_per_round", result.subrounds_per_round);
  }
  if (result.plan_gain_abs_err.count() > 0) {
    w.Key("plan_gain");
    w.BeginObject();
    WriteStats(&w, "abs_err", result.plan_gain_abs_err);
    WriteStats(&w, "rel_err", result.plan_gain_rel_err);
    w.EndObject();
  }
  w.EndObject();

  std::FILE* f = std::fopen(path.c_str(), "w");
  FGM_CHECK(f != nullptr);
  const std::string text = w.Take();
  std::fwrite(text.data(), 1, text.size(), f);
  std::fputc('\n', f);
  std::fclose(f);
}

}  // namespace

std::unique_ptr<MonitoringProtocol> MakeProtocol(
    const RunConfig& config, const ContinuousQuery* query) {
  return BuildProtocol(config, query, RunTopology(config));
}

RunResult Run(const RunConfig& base_config,
              const std::vector<StreamRecord>& trace) {
  const auto start = std::chrono::steady_clock::now();

  RunConfig config = base_config;
  std::unique_ptr<JsonlTraceSink> file_sink;
  if (config.trace == nullptr && !config.trace_out.empty()) {
    file_sink = std::make_unique<JsonlTraceSink>(config.trace_out);
    config.trace = file_sink.get();
  }
  std::unique_ptr<TimeSeries> own_timeseries;
  if (config.timeseries == nullptr && !config.timeseries_out.empty()) {
    own_timeseries = std::make_unique<TimeSeries>(kTimeSeriesSamples);
    config.timeseries = own_timeseries.get();
  }

  std::unique_ptr<SpanSink> own_spans;
  if (config.spans == nullptr && !config.spans_out.empty()) {
    own_spans = std::make_unique<SpanSink>();
    config.spans = own_spans.get();
  }
  // The coordinator feeds the health monitor one entry per root child:
  // the sites, or the tier-1 aggregators of a deeper tree.
  const hier::TreeTopology topo = RunTopology(config);
  std::unique_ptr<HealthMonitor> own_health;
  if (config.health == nullptr &&
      (!config.prom_out.empty() || !config.live_out.empty() ||
       config.health_planning)) {
    own_health = std::make_unique<HealthMonitor>(topo.NodesAt(1));
    config.health = own_health.get();
  }
  // The run span must be open before the protocol's constructor starts
  // its first round (round spans parent to it); an event-network
  // transport rebases it onto the simulated clock during construction.
  if (config.spans != nullptr) {
    config.spans->Begin(SpanKind::kRun, -1, 0, 0,
                        ProtocolKindName(config.protocol));
  }

  // RunStart precedes the protocol's own events (its constructor already
  // starts the first round). Its k is the root's fan-in (its effective
  // site count), so the replay checker certifies the root tier with the
  // flat invariants; deeper trees also announce the spec and leaf count,
  // while the flat star (any depth-1 spec) keeps the historic schema.
  if (config.trace != nullptr) {
    TraceEvent e;
    e.kind = TraceEventKind::kRunStart;
    e.label = ProtocolKindName(config.protocol);
    e.k = topo.NodesAt(1);
    if (!topo.IsFlat()) {
      e.reason = topo.spec().c_str();
      e.counter = topo.leaves();
    }
    config.trace->Emit(e);
  }

  std::unique_ptr<ContinuousQuery> query = MakeQuery(config);
  std::unique_ptr<MonitoringProtocol> protocol =
      BuildProtocol(config, query.get(), topo);

  // Exact ground-truth state, maintained only when verification is on.
  const bool verify = config.check_every > 0;
  RealVector truth(query->dimension());
  const double inv_k = 1.0 / static_cast<double>(config.sites);
  std::vector<CellUpdate> deltas;

  RunResult result;
  result.protocol_name = protocol->name();
  result.query_name = query->name();

  SlidingWindowStream events(&trace, config.window_seconds);
  int64_t n = 0;
  auto verify_record = [&](const StreamRecord& rec) {
    deltas.clear();
    query->MapRecord(rec, &deltas);
    for (const CellUpdate& u : deltas) truth[u.index] += inv_k * u.delta;
    if (n % config.check_every == 0 && protocol->BoundsCertified()) {
      const double q = query->Evaluate(truth);
      const ThresholdPair t = protocol->CurrentThresholds();
      const double margin = std::max(0.5 * (t.hi - t.lo), 1e-12);
      const double overshoot =
          std::max(std::max(q - t.hi, t.lo - q), 0.0) / margin;
      result.max_violation = std::max(result.max_violation, overshoot);
      ++result.checks;
    }
  };

  // Interval snapshots run at their own cadence outside the protocol's
  // record path.
  FgmProtocol* fgm = dynamic_cast<FgmProtocol*>(protocol.get());
  const int64_t snap_every = config.snapshot_every;
  const bool sample = config.timeseries != nullptr && snap_every > 0;
  auto interval_snapshot = [&](int64_t records) {
    static_assert(kSnapshotMsgKinds == static_cast<int>(MsgKind::kKindCount),
                  "RunSnapshot's kind slots must cover every MsgKind");
    RunSnapshot s;
    s.kind = "interval";
    s.records = records;
    s.round = protocol->rounds();
    const TrafficStats& t = protocol->traffic();
    s.total_words = t.total_words();
    for (size_t i = 0; i < s.words_by_kind.size(); ++i) {
      s.words_by_kind[i] = t.words_by_kind[i];
    }
    if (fgm != nullptr) {
      s.psi = fgm->last_psi();
      s.theta = fgm->last_quantum();
      s.lambda = fgm->current_lambda();
      s.subrounds = fgm->subrounds_this_round();
      s.total_subrounds = fgm->subrounds();
    }
    if (const sim::SimNetStats* ns = protocol->net_stats()) {
      s.in_flight_words = ns->in_flight_words;
      s.max_in_flight_words = ns->max_in_flight_words;
      s.retransmit_words = ns->retransmitted_words;
      s.dropped_words = ns->dropped_words;
      s.resyncs = ns->resyncs;
    }
    config.timeseries->Record(s);
  };
  // Live health export: an atomic Prometheus exposition rewrite plus one
  // flushed JSONL heartbeat line every live_every records, and once more
  // at run end — a scraper (or a tail -f) watches the run move.
  HealthMonitor* health = config.health;
  std::FILE* live_file = nullptr;
  if (health != nullptr && !config.live_out.empty()) {
    live_file = std::fopen(config.live_out.c_str(), "w");
    FGM_CHECK(live_file != nullptr);
  }
  const int64_t live_every = std::max<int64_t>(config.live_every, 1);
  const bool live =
      health != nullptr && (!config.prom_out.empty() || live_file != nullptr);
  auto live_emit = [&](int64_t records) {
    const int64_t total_sub = fgm != nullptr ? fgm->subrounds() : 0;
    const double psi = fgm != nullptr ? fgm->last_psi() : 0.0;
    health->ObserveProgress(protocol->rounds(), total_sub, records);
    const int64_t words = protocol->traffic().total_words();
    if (!config.prom_out.empty()) {
      health->WritePrometheus(config.prom_out, records, protocol->rounds(),
                              words, psi);
    }
    if (live_file != nullptr) {
      const std::string line =
          health->HeartbeatJson(records, protocol->rounds(), words, psi);
      std::fwrite(line.data(), 1, line.size(), live_file);
      std::fputc('\n', live_file);
      std::fflush(live_file);
    }
  };

  // Cooperative stop (signal or die_at): the loop below exits at the next
  // record boundary and falls through to the normal end-of-run write
  // path, so a killed run still emits its partial telemetry.
  const int64_t die_at = config.die_at;
  auto should_stop = [&]() {
    return StopRequested() || (die_at > 0 && n >= die_at);
  };

  while (const StreamRecord* rec = events.Next()) {
    protocol->ProcessRecord(*rec);
    ++n;
    if (verify) verify_record(*rec);
    if (sample && n % snap_every == 0) interval_snapshot(n);
    if (live && n % live_every == 0) live_emit(n);
    if (should_stop()) break;
  }
  result.stopped_early = should_stop();

  // Let the simulated network land every in-flight message (and the
  // protocol apply it) before totals are read; no-op on synchronous
  // transports.
  protocol->Finish();

  // Every scope still open (run, trailing round/subround) closes at the
  // latest timestamp seen — a finished run exports no dangling spans.
  if (config.spans != nullptr) config.spans->CloseAll("run-end");

  // Final live export with the end-of-run totals; even a run shorter than
  // live_every leaves a complete Prometheus exposition and one heartbeat.
  if (live) live_emit(n);
  if (live_file != nullptr) std::fclose(live_file);

  result.events = n;
  result.traffic = protocol->traffic();
  result.rounds = protocol->rounds();
  result.comm_cost =
      n > 0 ? static_cast<double>(result.traffic.total_words()) /
                  static_cast<double>(n)
            : 0.0;
  result.upstream_fraction = result.traffic.upstream_fraction();
  result.final_estimate = protocol->Estimate();
  if (verify) result.final_truth = query->Evaluate(truth);
  result.strict_wire = protocol->transport().strict();

  if (fgm != nullptr) {
    result.subrounds = fgm->subrounds();
    result.rebalances = fgm->rebalances();
    result.overflow_rounds = fgm->overflow_rounds();
    result.mean_full_function_fraction = fgm->mean_full_function_fraction();
    result.subrounds_per_round = fgm->subrounds_per_round();
    result.plan_gain_abs_err = fgm->plan_gain_abs_err();
    result.plan_gain_rel_err = fgm->plan_gain_rel_err();
    if (fgm->tiers() > 1) {
      result.topology = fgm->topology().spec();
      result.local_polls = fgm->local_polls();
      for (int t = 0; t < fgm->tiers(); ++t) {
        result.tier_traffic.push_back(fgm->tier_traffic(t));
      }
    }
  }
  if (const sim::SimNetStats* ns = protocol->net_stats()) {
    result.net_enabled = true;
    result.net = *ns;
  }
  if (health != nullptr) {
    result.alerts_raised = health->alerts_raised();
    result.alerts_cleared = health->alerts_cleared();
  }

  const auto end = std::chrono::steady_clock::now();
  result.wall_seconds =
      std::chrono::duration<double>(end - start).count();

  if (config.trace != nullptr) {
    // Final totals; the replay checker bit-matches them against the sum
    // of the individual MsgSent events.
    TraceEvent e;
    e.kind = TraceEventKind::kRunEnd;
    e.count = config.trace->events();
    e.up_words = result.traffic.upstream_words;
    e.down_words = result.traffic.downstream_words;
    e.up_msgs = result.traffic.upstream_messages;
    e.down_msgs = result.traffic.downstream_messages;
    config.trace->Emit(e);
  }
  if (!config.metrics_out.empty()) {
    WriteMetricsFile(config.metrics_out, config, result);
  }
  if (!config.timeseries_out.empty() && config.timeseries != nullptr) {
    config.timeseries->WriteFile(config.timeseries_out);
  }
  if (!config.spans_out.empty() && config.spans != nullptr) {
    config.spans->WriteChromeTrace(config.spans_out);
  }
  return result;
}

}  // namespace fgm
