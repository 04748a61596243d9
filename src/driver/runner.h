// Experiment runner: wires generator → sliding window → protocol, tracks
// exact ground truth for verification, and reports the paper's metrics.
// Every FGM-family run, flat or tree, is one FgmProtocol over the run's
// hier::TreeTopology; the flat star is its depth-1 case.

#ifndef FGM_DRIVER_RUNNER_H_
#define FGM_DRIVER_RUNNER_H_

#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "net/protocol.h"
#include "query/query.h"
#include "sim/event_network.h"
#include "stream/record.h"
#include "util/stats.h"

namespace fgm {

class HealthMonitor;
class SpanSink;
class TimeSeries;
class TraceSink;

enum class ProtocolKind {
  kCentral,   ///< centralizing baseline (the cost normalizer)
  kGm,        ///< classic GM with safe zones + rebalancing
  kFgmBasic,  ///< FGM without rebalancing (§2.4 only; ablation)
  kFgm,       ///< FGM with rebalancing (§4.1) — the paper's "FGM"
  kFgmOpt,    ///< FGM with rebalancing + cost-based optimizer — "FGM/O"
};

const char* ProtocolKindName(ProtocolKind kind);

enum class QueryKind {
  kSelfJoin,  ///< Q1: R ⋈_CID R over one AGMS sketch
  kJoin,      ///< Q2: σ_HTML(R) ⋈_CID σ_≠HTML(R) over two sketches
  kFpNorm,    ///< ‖S‖_p of an explicit frequency vector (§3)
  kVariance,  ///< variance of a numeric attribute (classic GM workload)
  kQuantile,  ///< p-quantile of a numeric attribute (rank-linear zones)
};

struct RunConfig {
  ProtocolKind protocol = ProtocolKind::kFgm;
  QueryKind query = QueryKind::kSelfJoin;

  int sites = 27;

  /// Network topology spec (src/hier). Empty = the flat star. "tree:<f>"
  /// or "tree:<f1>,<f2>,…" arranges the `sites` leaves under aggregator
  /// tiers of the given fanouts; a spec whose first level already covers
  /// every site (fanout >= sites) is the depth-1 tree, i.e. the flat
  /// star, byte-identical to an empty spec. Deep trees require an
  /// FGM-family protocol; GM/CENTRAL have no subround machinery to
  /// compose and reject them. Fault-plan site indices address the root's
  /// children: the sites, or the tier-1 aggregators of a deep tree.
  std::string topology;

  // Sketch geometry (D = depth*width for Q1, 2*depth*width for Q2).
  int depth = 7;
  int width = 500;
  uint64_t sketch_seed = 0xA65;

  /// Dimension of the F_p query's frequency vector (the two-sided ‖S‖_2
  /// band).
  size_t fp_dimension = 1024;

  double epsilon = 0.1;

  /// Sliding time window in seconds; <= 0 means cash-register model.
  double window_seconds = 0.0;

  /// Verify the monitoring guarantee against exact ground truth every this
  /// many events (0 = never). Verification is O(D) per check.
  int64_t check_every = 0;

  /// Run every transport strict: each protocol message is encoded,
  /// size-checked, decoded and verified (strict wire accounting). Off: the
  /// transport follows FGM_STRICT_WIRE.
  bool strict_wire = false;

  /// Simulated-network parameters (src/sim). When enabled() the protocol
  /// runs over the discrete-event network (which always serializes, so
  /// strict wire accounting is implied). Fault plans require an FGM
  /// protocol (GM/CENTRAL have no crash handshake and reject them).
  sim::NetSimConfig net;

  // ---- Observability (obs/) ----

  /// Write a JSONL event trace here (empty = off). Used only when `trace`
  /// is null; the run brackets the protocol's events with RunStart/RunEnd.
  std::string trace_out;

  /// Write the RunResult as a JSON summary here (empty = off).
  std::string metrics_out;

  /// Write the run-health time series (obs/timeseries.h) here as JSON
  /// (empty = off). A private TimeSeries of the newest 4096 samples is
  /// created when `timeseries` is null. FGM protocols add one sample per
  /// completed round; the driver adds "interval" samples every
  /// snapshot_every records.
  std::string timeseries_out;

  /// Take an extra "interval" snapshot every this many records (0 = round
  /// boundaries only).
  int64_t snapshot_every = 0;

  /// Write causal spans (obs/span.h) here as Chrome Trace Event JSON,
  /// loadable in Perfetto (empty = off). A private SpanSink is created
  /// when `spans` is null. FGM protocols emit round/subround spans, and
  /// a timed simulated network its RPC, attempt and datagram spans.
  std::string spans_out;

  /// Write live Prometheus text-exposition snapshots here (empty = off).
  /// The file is atomically rewritten every live_every records and once
  /// more at run end, so a scraper always sees a complete exposition.
  /// Enables the health monitor.
  std::string prom_out;

  /// Stream JSONL health heartbeats here (empty = off): one line every
  /// live_every records, flushed immediately, plus a final line at run
  /// end. Enables the health monitor.
  std::string live_out;

  /// Cadence of the live exports above, in records.
  int64_t live_every = 20000;

  /// Health-aware FGM/O plan selection (FgmConfig::health_planning):
  /// plans from the monitor's EWMA rates and link-cost view once warmed
  /// up. Enables the health monitor. Off by default — default plans (and
  /// traffic) stay bit-identical.
  bool health_planning = false;

  /// Stop processing after this many records (0 = run to the end) and
  /// flush every configured output. Exercises the same partial-telemetry
  /// path a SIGINT/SIGTERM takes, deterministically (tests).
  int64_t die_at = 0;

  /// Caller-provided sinks (non-owning; take precedence over the paths
  /// above for event collection).
  TraceSink* trace = nullptr;
  TimeSeries* timeseries = nullptr;
  SpanSink* spans = nullptr;
  HealthMonitor* health = nullptr;
};

struct RunResult {
  std::string protocol_name;
  std::string query_name;
  TrafficStats traffic;
  int64_t rounds = 0;
  int64_t events = 0;  ///< inserts + window deletes fed to the protocol

  /// Words per streamed update: the paper's normalized "comm.cost"
  /// (the centralizing baseline costs exactly 1.0).
  double comm_cost = 0.0;
  double upstream_fraction = 0.0;

  /// Maximum observed overshoot of the certified bounds, as a fraction of
  /// the bound margin (0 = guarantee always held at check points).
  double max_violation = 0.0;
  int64_t checks = 0;

  double final_estimate = 0.0;
  double final_truth = 0.0;

  double wall_seconds = 0.0;

  /// Every root-tier message took the strict round trip (--strict_wire,
  /// FGM_STRICT_WIRE=1, or a simulated network).
  bool strict_wire = false;

  // FGM-specific diagnostics (0 for other protocols).
  int64_t subrounds = 0;
  int64_t rebalances = 0;
  /// Rounds force-ended at the subround cap instead of aborting.
  int64_t overflow_rounds = 0;
  double mean_full_function_fraction = 0.0;
  CountHistogram subrounds_per_round;  ///< per completed round
  /// FGM/O plan audit: |predicted − actual gain| per predicted round,
  /// absolute and relative to max(|actual gain|, 1).
  RunningStats plan_gain_abs_err;
  RunningStats plan_gain_rel_err;

  // Simulated-network diagnostics (all zero on synchronous transports).
  bool net_enabled = false;
  sim::SimNetStats net;

  // Tree-topology diagnostics (empty/zero at depth 1, the flat star). On
  // deeper trees `traffic` above covers the ROOT tier only — the
  // scaling-relevant number; the full per-link-tier breakdown (root-side
  // first) is here.
  std::string topology;
  std::vector<TrafficStats> tier_traffic;
  int64_t local_polls = 0;  ///< aggregator-local subround polls

  // Health-monitor tallies (zero when the monitor is disabled).
  int64_t alerts_raised = 0;
  int64_t alerts_cleared = 0;

  /// True when the run was cut short by a stop signal or die_at; every
  /// configured output was still flushed with the partial data.
  bool stopped_early = false;
};

/// Builds the query of `config` (the projection is shared and seeded from
/// the config, so all protocols in an experiment see the same sketch).
std::unique_ptr<ContinuousQuery> MakeQuery(const RunConfig& config);

/// Builds the protocol over `query`.
std::unique_ptr<MonitoringProtocol> MakeProtocol(const RunConfig& config,
                                                 const ContinuousQuery* query);

/// Runs one experiment over `trace` (already partitioned into
/// config.sites sites).
RunResult Run(const RunConfig& config, const std::vector<StreamRecord>& trace);

/// Cooperative stop: once a stop signal arrived, Run() leaves its record
/// loop at the next safe boundary and flushes every configured output
/// (trace, metrics, time series, spans, Prometheus/live heartbeat) with
/// the partial data. The flag is sticky.
bool StopRequested();

/// Installs SIGINT/SIGTERM handlers that set the stop flag, so killed
/// runs still emit their partial telemetry through the normal end-of-run
/// write path.
void InstallSignalFlush();

}  // namespace fgm

#endif  // FGM_DRIVER_RUNNER_H_
