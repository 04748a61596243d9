// FGM protocol configuration.

#ifndef FGM_CORE_FGM_CONFIG_H_
#define FGM_CORE_FGM_CONFIG_H_

#include <cstdint>

#include "net/network.h"
#include "sim/net_config.h"

namespace fgm {

class HealthMonitor;
class SpanSink;
class TimeSeries;
class TraceSink;

struct FgmConfig {
  /// How protocol messages travel: counting-only (fast simulation) or the
  /// strict serializing path that encodes/decodes every message and
  /// cross-checks charged vs encoded words. kAuto follows the
  /// FGM_STRICT_WIRE environment variable.
  TransportMode transport = TransportMode::kAuto;

  /// Simulated-network parameters (sim/net_config.h). When enabled() the
  /// protocol runs over a sim::EventNetwork instead of the synchronous
  /// transport: counter increments become fire-and-forget datagrams,
  /// control RPCs gain latency/loss/retransmission, and the fault plan
  /// drives the crash/rejoin handshake.
  sim::NetSimConfig net;

  /// ε_ψ of §2.4: subrounds end when ψ ≥ ε_ψ·k·φ(0). The paper uses 0.01
  /// throughout and so do we.
  double eps_psi = 0.01;

  /// Enables the overhead-free rebalancing of §4.1 (balance vector +
  /// scaling factor λ). Part of the protocol the paper calls "FGM".
  bool rebalance = true;

  /// Enables the cost-based optimizer of §4.2 ("FGM/O"): per-round choice
  /// between the full safe function and the 3-word cheap bound per site.
  bool optimizer = false;

  /// Rebalancing is abandoned (the round ends) when the recomputed scale
  /// λ = 1 - µ* drops below this. Must exceed eps_psi.
  double min_lambda = 0.05;

  /// Rebalancing exists to avoid re-shipping safe zones; it only pays when
  /// the zone shipping it avoids costs more than the extra subround
  /// overhead it incurs (§4.1.1 explicitly leaves the flush policy as a
  /// conservatively-chosen heuristic). The round is ended directly when
  /// the current plan's average upstream words per site falls below this.
  double rebalance_min_words_per_site = 16.0;

  /// Cap on subrounds per round — a runaway-loop backstop only. Hitting
  /// it forces the round to end (counted in overflow_rounds()) instead of
  /// aborting the run. Note that with rebalancing a round can
  /// legitimately last very long: when the balance vector keeps
  /// cancelling itself (stationary windowed streams), λ stays near 1 and
  /// the round keeps being extended, which is the desired behaviour.
  int64_t max_subrounds_per_round = int64_t{1} << 40;

  /// Structured event sink (obs/trace.h). Non-owning; nullptr (the
  /// default) disables tracing and every hook reduces to one branch.
  TraceSink* trace = nullptr;

  /// Run-health time series (obs/timeseries.h): one RunSnapshot per
  /// completed round (words by kind, ψ/θ/λ, plan audit, site skew).
  /// Non-owning; nullptr disables — sampling happens only at round
  /// boundaries, never on the record path.
  TimeSeries* timeseries = nullptr;

  /// Causal span sink (obs/span.h): the run's rounds, subrounds and
  /// resyncs become parent/child scopes; over a timed simulated network
  /// (not its null mode) the root links add their RPC, attempt and
  /// datagram spans in simulated ticks. Non-owning; nullptr (the default)
  /// disables spans and every hook reduces to one branch.
  SpanSink* spans = nullptr;

  /// Live run-health monitor (obs/health.h): EWMA estimators over the
  /// round-boundary snapshot stream plus the alert-rule engine. Fed at
  /// round boundaries and fault transitions only — never on the record
  /// path. Non-owning; nullptr (the default) disables every hook.
  HealthMonitor* health = nullptr;

  /// Health-aware plan selection: once the monitor's rate EWMAs have
  /// warmed up, FGM/O plans from them instead of the last-round-only
  /// estimates, charges lossy/slow/down sites their expected shipping
  /// cost (HealthView), and raises the rebalance profitability bar by the
  /// fleet-mean cost factor. Requires `health`; off by default so the
  /// plans (and traffic) stay bit-identical to the seed optimizer.
  bool health_planning = false;
};

}  // namespace fgm

#endif  // FGM_CORE_FGM_CONFIG_H_
