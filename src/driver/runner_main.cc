// Single-experiment driver with machine-readable observability export.
//
//   ./build/src/driver/runner --protocol=fgm --query=selfjoin
//       [--sites=27] [--updates=400000] [--eps=0.1] [--window=14400]
//       [--depth=5] [--width=300] [--check_every=5000]
//       [--trace_out=trace.jsonl]
//       [--metrics_out=metrics.json] [--timeseries_out=ts.json]
//       [--spans_out=spans.json] [--snapshot_every=0] [--strict_wire]
//       [--prom_out=health.prom] [--live_out=live.jsonl]
//       [--live_every=20000] [--health_plan] [--die_at=N]
//       [--net_latency=fixed:4] [--net_drop=0.1] [--net_seed=N]
//       [--fault_plan="crash:site=2,at=50000,rejoin=80000"]
//       [--topology=tree:4] [--topology=tree:8,4]
//
// --topology=tree:F arranges the sites under aggregator tiers of fanout
// F (src/hier); the one FGM coordinator runs over the tree's root, and
// tree:F with F >= sites is its depth-1 case, the flat star,
// byte-identical to the default. Deep trees need an FGM-family
// protocol; fault-plan site indices then address tier-1 aggregators.
//
// Flag values are validated before the run starts (site/sketch sizes,
// ε, drop rate, latency spec, fault plan, topology): a bad value prints
// one line on stderr and exits 2.
//
// --net_latency / --net_drop / --fault_plan run the protocol over the
// discrete-event network simulator (src/sim): per-link latency
// ("0", "fixed:T", "uniform:A-B", "exp:M"), iid message loss,
// scheduled crash/outage windows ("crash:site=S,at=T[,rejoin=T2]" /
// "outage:site=S,from=A,to=B", ';'-separated). --net_latency=0 is the
// simulator's null mode, bit-identical to the synchronous path. Fault
// plans require an FGM protocol. An RPC resends after 64 ticks, a lossy
// coordinator re-polls after 256 ticks of counter silence, and a site
// down for 4096 ticks leaves the round (src/sim/net_config.h).
//
// --spans_out writes causal spans (obs/span.h) as Chrome Trace Event
// JSON loadable in Perfetto: the run, rounds and subrounds, plus the
// root links' RPC, attempt and datagram spans when the simulated network
// is timed (not null mode). No telemetry output changes the words on the
// wire.
//
// --trace_out writes the structured JSONL event trace (obs/trace.h);
// --metrics_out writes the RunResult as a JSON summary;
// --timeseries_out writes the newest 4096 samples of the per-round
// run-health series (obs/timeseries.h), with extra interval samples
// every --snapshot_every records. --prom_out and --live_out rewrite a
// Prometheus exposition and append a JSONL health heartbeat every
// --live_every records. tools/trace_check re-verifies a written trace
// offline; tools/fgm_report renders the trace+metrics+timeseries triple
// into a run report and cross-checks them against each other.

#include <climits>
#include <cmath>
#include <cstdio>
#include <string>
#include <vector>

#include "driver/runner.h"
#include "hier/topology.h"
#include "sim/net_config.h"
#include "stream/worldcup.h"
#include "util/flags.h"

namespace {

bool ParseProtocol(const std::string& name, fgm::ProtocolKind* kind) {
  if (name == "central") *kind = fgm::ProtocolKind::kCentral;
  else if (name == "gm") *kind = fgm::ProtocolKind::kGm;
  else if (name == "fgm-basic") *kind = fgm::ProtocolKind::kFgmBasic;
  else if (name == "fgm") *kind = fgm::ProtocolKind::kFgm;
  else if (name == "fgm-o") *kind = fgm::ProtocolKind::kFgmOpt;
  else return false;
  return true;
}

bool ParseQuery(const std::string& name, fgm::QueryKind* kind) {
  if (name == "selfjoin") *kind = fgm::QueryKind::kSelfJoin;
  else if (name == "join") *kind = fgm::QueryKind::kJoin;
  else if (name == "fp") *kind = fgm::QueryKind::kFpNorm;
  else if (name == "variance") *kind = fgm::QueryKind::kVariance;
  else if (name == "quantile") *kind = fgm::QueryKind::kQuantile;
  else return false;
  return true;
}

bool Reject(const std::string& message) {
  std::fprintf(stderr, "%s\n", message.c_str());
  return false;
}

/// Value checks the flag parser cannot make. Each bad value would
/// otherwise die in an FGM_CHECK deep inside the run; here it costs one
/// line on stderr (the caller exits 2).
bool ValidateValues(const fgm::RunConfig& config,
                    const std::string& protocol) {
  if (config.sites < 1) return Reject("--sites must be at least 1");
  const bool sketch = config.query == fgm::QueryKind::kSelfJoin ||
                      config.query == fgm::QueryKind::kJoin;
  if (config.depth < 1 || (sketch && config.depth % 2 == 0)) {
    return Reject("--depth must be an odd number >= 1, got " +
                  std::to_string(config.depth));
  }
  if (config.width < 1) return Reject("--width must be at least 1");
  // A NaN window compares false against 0 and would quietly run the
  // cash-register model; an infinite one would never expire a record.
  if (!std::isfinite(config.window_seconds)) {
    return Reject("--window must be a finite number of seconds");
  }
  const bool below_one = config.query == fgm::QueryKind::kQuantile;
  if (!std::isfinite(config.epsilon) || config.epsilon <= 0.0 ||
      (below_one && config.epsilon >= 1.0)) {
    return Reject(std::string("--eps must be a finite number > 0") +
                  (below_one ? " and < 1" : ""));
  }
  if (!(config.net.drop >= 0.0 && config.net.drop < 1.0)) {
    return Reject("--net_drop must be in [0, 1)");
  }
  fgm::sim::LatencySpec latency;
  if (!fgm::sim::ParseLatencySpec(config.net.latency, &latency)) {
    return Reject("--net_latency: bad spec '" + config.net.latency +
                  "' (0, fixed:T, uniform:A-B with 0 <= A <= B, exp:M with "
                  "M > 0)");
  }
  const bool fgm_family = config.protocol != fgm::ProtocolKind::kCentral &&
                          config.protocol != fgm::ProtocolKind::kGm;
  // Fault-plan indices address the root's children: the sites, or the
  // tier-1 aggregators of a deeper tree.
  int fault_domains = config.sites;
  if (!config.topology.empty()) {
    fgm::hier::TreeTopology topo;
    std::string error;
    if (!fgm::hier::TreeTopology::Parse(config.topology, config.sites, &topo,
                                        &error)) {
      return Reject(error);
    }
    if (!topo.IsFlat() && !fgm_family) {
      return Reject("--topology=" + config.topology + ": " + protocol +
                    " has no subround protocol to run at aggregators; deep "
                    "trees need an FGM-family protocol");
    }
    fault_domains = topo.NodesAt(1);
  }
  if (!config.net.fault_plan.empty()) {
    if (!fgm_family) {
      return Reject("--fault_plan: " + protocol +
                    " has no crash handshake; fault plans need an "
                    "FGM-family protocol");
    }
    std::vector<fgm::sim::FaultTransition> transitions;
    if (!fgm::sim::ParseFaultPlan(config.net.fault_plan, fault_domains,
                                  &transitions)) {
      return Reject("--fault_plan: bad plan '" + config.net.fault_plan +
                    "' (malformed, overlapping, or a site outside [0, " +
                    std::to_string(fault_domains) + "))");
    }
  }
  return true;
}

}  // namespace

int main(int argc, char** argv) {
  fgm::Flags flags(argc, argv);

  fgm::RunConfig config;
  const std::string protocol = flags.GetString("protocol", "fgm");
  const std::string query = flags.GetString("query", "selfjoin");
  if (!ParseProtocol(protocol, &config.protocol)) {
    std::fprintf(stderr,
                 "unknown --protocol=%s "
                 "(central|gm|fgm-basic|fgm|fgm-o)\n",
                 protocol.c_str());
    return 2;
  }
  if (!ParseQuery(query, &config.query)) {
    std::fprintf(stderr,
                 "unknown --query=%s "
                 "(selfjoin|join|fp|variance|quantile)\n",
                 query.c_str());
    return 2;
  }
  // Count flags stored as int: a value past INT_MAX would wrap (2^32 + 5
  // sites would run as 5 sites), so it is rejected before narrowing.
  std::string too_large;
  auto int_count = [&](const char* name, int64_t default_value) {
    const int64_t value = flags.GetCount(name, default_value);
    if (value <= INT_MAX) return static_cast<int>(value);
    if (too_large.empty()) {
      too_large = std::string("--") + name + " must be at most " +
                  std::to_string(INT_MAX) + ", got " + std::to_string(value);
    }
    return 0;
  };
  config.sites = int_count("sites", 27);
  config.topology = flags.GetString("topology", "");
  const int64_t updates = flags.GetCount("updates", 400000);
  config.epsilon = flags.GetDouble("eps", 0.1);
  config.window_seconds = flags.GetDouble("window", 14400.0);
  config.depth = int_count("depth", 5);
  config.width = int_count(
      "width", config.query == fgm::QueryKind::kJoin ? 150 : 300);
  config.check_every = flags.GetCount("check_every", 5000);
  config.trace_out = flags.GetString("trace_out", "");
  config.metrics_out = flags.GetString("metrics_out", "");
  config.timeseries_out = flags.GetString("timeseries_out", "");
  config.spans_out = flags.GetString("spans_out", "");
  config.snapshot_every = flags.GetCount("snapshot_every", 0);
  config.prom_out = flags.GetString("prom_out", "");
  config.live_out = flags.GetString("live_out", "");
  config.live_every = flags.GetCount("live_every", 20000);
  config.health_planning = flags.GetBool("health_plan", false);
  config.die_at = flags.GetCount("die_at", 0);
  config.strict_wire = flags.GetBool("strict_wire", false);
  config.net.latency = flags.GetString("net_latency", "");
  config.net.drop = flags.GetDouble("net_drop", 0.0);
  config.net.seed = static_cast<uint64_t>(
      flags.GetInt("net_seed", static_cast<int64_t>(config.net.seed)));
  config.net.fault_plan = flags.GetString("fault_plan", "");

  if (!flags.Validate(
          "runner --protocol=central|gm|fgm-basic|fgm|fgm-o "
          "--query=selfjoin|join|fp|variance|quantile [--sites=N] "
          "[--updates=N] [--eps=E] [--window=S] "
          "[--depth=N] [--width=N] [--check_every=N] "
          "[--trace_out=F] [--metrics_out=F] [--timeseries_out=F] "
          "[--spans_out=F] [--snapshot_every=N] "
          "[--prom_out=F] [--live_out=F] [--live_every=N] "
          "[--health_plan] [--die_at=N] "
          "[--strict_wire] [--net_latency=SPEC] [--net_drop=P] "
          "[--net_seed=N] [--fault_plan=PLAN] "
          "[--topology=tree:F[,F2,…]]")) {
    return 2;
  }

  if (!too_large.empty()) {
    std::fprintf(stderr, "%s\n", too_large.c_str());
    return 2;
  }
  if (!ValidateValues(config, protocol)) return 2;

  fgm::WorldCupConfig wc;
  wc.sites = config.sites;
  wc.total_updates = updates;
  const auto trace = GenerateWorldCupTrace(wc);

  // A SIGINT/SIGTERM stops the run at the next record boundary and still
  // flushes every configured output with the partial data.
  fgm::InstallSignalFlush();

  const fgm::RunResult r = fgm::Run(config, trace);
  std::printf(
      "%s on %s: events=%lld rounds=%lld words=%lld "
      "comm_cost=%.4f upstream=%.1f%% overshoot=%.4g\n",
      r.protocol_name.c_str(), r.query_name.c_str(),
      static_cast<long long>(r.events), static_cast<long long>(r.rounds),
      static_cast<long long>(r.traffic.total_words()), r.comm_cost,
      100.0 * r.upstream_fraction, r.max_violation);
  if (r.net_enabled) {
    std::printf(
        "net: delivered=%lld dropped=%lld retransmitted=%lld stale=%lld "
        "timeouts=%lld resyncs=%lld site_downs=%lld max_in_flight=%lld "
        "final_tick=%lld\n",
        static_cast<long long>(r.net.delivered_msgs),
        static_cast<long long>(r.net.dropped_msgs),
        static_cast<long long>(r.net.retransmitted_msgs),
        static_cast<long long>(r.net.stale_msgs),
        static_cast<long long>(r.net.timeouts),
        static_cast<long long>(r.net.resyncs),
        static_cast<long long>(r.net.site_downs),
        static_cast<long long>(r.net.max_in_flight_words),
        static_cast<long long>(r.net.final_tick));
  }
  if (!r.topology.empty()) {
    std::printf("tree: %s tiers=%zu root_words=%lld local_polls=%lld\n",
                r.topology.c_str(), r.tier_traffic.size(),
                static_cast<long long>(r.traffic.total_words()),
                static_cast<long long>(r.local_polls));
    for (size_t t = 0; t < r.tier_traffic.size(); ++t) {
      const fgm::TrafficStats& s = r.tier_traffic[t];
      std::printf("  tier %zu: up_words=%lld down_words=%lld up_msgs=%lld "
                  "down_msgs=%lld\n",
                  t, static_cast<long long>(s.upstream_words),
                  static_cast<long long>(s.downstream_words),
                  static_cast<long long>(s.upstream_messages),
                  static_cast<long long>(s.downstream_messages));
    }
  }
  if (r.stopped_early) {
    std::printf("stopped early at %lld records; partial telemetry flushed\n",
                static_cast<long long>(r.events));
  }
  if (r.alerts_raised + r.alerts_cleared > 0) {
    std::printf("health: alerts_raised=%lld alerts_cleared=%lld\n",
                static_cast<long long>(r.alerts_raised),
                static_cast<long long>(r.alerts_cleared));
  }
  if (!config.trace_out.empty()) {
    std::printf("trace: %s\n", config.trace_out.c_str());
  }
  if (!config.metrics_out.empty()) {
    std::printf("metrics: %s\n", config.metrics_out.c_str());
  }
  if (!config.timeseries_out.empty()) {
    std::printf("timeseries: %s\n", config.timeseries_out.c_str());
  }
  if (!config.spans_out.empty()) {
    std::printf("spans: %s\n", config.spans_out.c_str());
  }
  if (!config.prom_out.empty()) {
    std::printf("prom: %s\n", config.prom_out.c_str());
  }
  if (!config.live_out.empty()) {
    std::printf("live: %s\n", config.live_out.c_str());
  }
  return 0;
}
