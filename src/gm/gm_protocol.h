// Classic Geometric Monitoring with Safe Zones and rebalancing
// (Sharfman et al. SIGMOD'06/TODS'07; safe-zone formulation of
// Lazerson et al. VLDB'15) — the baseline the paper compares against.
//
// Every site keeps its drift X_i inside the common convex safe zone
// Z = {x : φ(x) ≤ 0}; by convexity the average drift stays in Z, which
// implies the admissible-region guarantee. The safe zones are defined by
// the same safe functions FGM uses, "so as to fairly contrast the
// inherent communication costs of the GM and FGM protocols" (§5.1.2).
//
// On a local violation (φ(X_i) > 0) the coordinator rebalances
// progressively: it collects the violator's drift, then drifts of further
// randomly chosen sites, until the average of the collected drifts
// re-enters the zone; it then assigns that average back to the collected
// sites (preserving the drift sum). If even the global average violates,
// a full synchronization starts a new round: E absorbs the average drift
// and the new safe zone is shipped to every site.

#ifndef FGM_GM_GM_PROTOCOL_H_
#define FGM_GM_GM_PROTOCOL_H_

#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "net/network.h"
#include "net/protocol.h"
#include "net/transport.h"
#include "net/wire.h"
#include "query/query.h"
#include "safezone/safe_function.h"
#include "sim/event_network.h"
#include "util/rng.h"

namespace fgm {

class SpanSink;

struct GmConfig {
  /// How protocol messages travel (see FgmConfig::transport).
  TransportMode transport = TransportMode::kAuto;

  /// Simulated-network parameters (latency/drop only). GM's traffic is
  /// entirely request/response, so the event network's RPC discipline
  /// (charge every attempt, retransmit on loss) covers it; fault plans
  /// are rejected — GM has no crash/rejoin handshake.
  sim::NetSimConfig net;
  /// A partial rebalance is accepted only when the averaged drift has
  /// slack: φ(avg) ≤ margin·φ(0) (recall φ(0) < 0). With margin = 0 any
  /// point inside the zone is accepted, and freshly rebalanced sites that
  /// sit on the zone boundary re-violate immediately, cascading
  /// collections; a moderate margin collects a few more drifts per
  /// violation but ends the cascades.
  double slack_margin = 0.25;

  /// Structured event sink (obs/); non-owning, nullptr disables (see
  /// FgmConfig::trace).
  TraceSink* trace = nullptr;

  /// Span sink (obs/span.h); non-owning, nullptr disables. GM opens no
  /// scopes of its own: over a timed simulated network the event network
  /// records its RPC and attempt spans (see FgmConfig::spans).
  SpanSink* spans = nullptr;
};

class GmProtocol : public MonitoringProtocol {
 public:
  GmProtocol(const ContinuousQuery* query, int num_sites, GmConfig config);

  std::string name() const override { return "GM"; }
  void ProcessRecord(const StreamRecord& record) override;
  const RealVector& GlobalEstimate() const override { return estimate_; }
  double Estimate() const override { return query_value_; }
  ThresholdPair CurrentThresholds() const override { return thresholds_; }
  const Transport& transport() const override { return *transport_; }
  int64_t rounds() const override { return full_syncs_; }
  void Finish() override {
    if (sim_ != nullptr) sim_->FinishRun();
  }
  const sim::SimNetStats* net_stats() const override {
    return sim_ != nullptr ? &sim_->net_stats() : nullptr;
  }

  int64_t violations() const { return violations_; }
  int64_t partial_rebalances() const { return partial_rebalances_; }

 private:
  struct Site {
    std::unique_ptr<DriftEvaluator> evaluator;
    /// Raw updates since the coordinator last learned this drift, backing
    /// the verbatim (min(D, n) + 1 word) flush representation.
    RawUpdateLog log;
    int64_t updates_since_known = 0;
    /// Coordinator-side copy of the drift as last collected or assigned;
    /// a verbatim flush re-projects its raw updates on top of this, which
    /// reproduces the site's drift bit-exactly (GM drifts are cumulative,
    /// unlike FGM's flush-and-reset).
    RealVector known;
  };

  void StartRound();
  void HandleViolation(int violator);
  /// Collects `site`'s drift through the transport (dense or verbatim,
  /// whichever is cheaper) and returns the coordinator's reconstruction.
  const RealVector& CollectDrift(int site);

  const ContinuousQuery* query_;
  int sites_k_;
  GmConfig config_;
  std::unique_ptr<Transport> transport_;
  sim::EventNetwork* sim_ = nullptr;  // non-owning view into transport_
  Xoshiro256ss rng_;

  // Observability (non-owning; null when disabled).
  TraceSink* trace_ = nullptr;

  RealVector estimate_;
  double query_value_ = 0.0;
  ThresholdPair thresholds_{0.0, 0.0};
  std::unique_ptr<SafeFunction> safe_fn_;

  std::vector<Site> sites_;
  std::vector<CellUpdate> delta_scratch_;

  int64_t full_syncs_ = 0;
  int64_t violations_ = 0;
  int64_t partial_rebalances_ = 0;
};

/// Sets an evaluator's drift to an arbitrary vector (used when the
/// coordinator assigns rebalanced drifts).
void LoadDrift(DriftEvaluator* evaluator, const RealVector& value);

}  // namespace fgm

#endif  // FGM_GM_GM_PROTOCOL_H_
