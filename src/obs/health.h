// Online run-health monitor: EWMA estimators + declarative alert rules.
//
// The trace records every event and the time series records state at
// round boundaries; neither answers "is this run healthy *right now*?"
// HealthMonitor consumes the same round-boundary RunSnapshot stream (plus
// a handful of protocol-side observations) and maintains exponentially
// weighted moving averages of the quantities that characterise run
// health: per-site FGM/O rate estimates, per-kind word rates,
// round/subround cadence, and — over the simulated network — per-site
// drop and latency signals attributed from sim::SiteNetStats. Every EWMA
// folds with weight 0.3, and the alert thresholds below are fixed
// constants.
//
// On top of the estimators sits a small declarative alert-rule engine.
// Each rule is a named predicate over the EWMAs with hysteresis (an alert
// raised at threshold T clears only below T·clear_factor), and every
// raise/clear transition is emitted as a typed kAlertRaised /
// kAlertCleared trace event that the replay checker pairs like
// SiteDown/SiteResync windows. Rules:
//
//  * straggler_site — a site is down (raised/cleared deterministically on
//    the crash/rejoin handshake) or its delivery latency EWMA sits far
//    above the fleet mean;
//  * lossy_link    — a site's per-round drop fraction EWMA crossed the
//    lossy threshold;
//  * psi_margin    — the ψ-overshoot past the ε_ψ·k·φ(0) stop level is
//    eroding the safety margin (subrounds systematically overshoot);
//  * budget_overflow — the fraction of rounds ending on the subround
//    budget backstop is too high;
//  * stuck_subround — the run keeps processing records but the global
//    subround counter has not advanced for several progress samples.
//
// The monitor also feeds back into planning: core/optimizer consumes a
// HealthView of per-site shipping-cost factors (lossy or slow links make
// the D-word full function effectively more expensive), and the protocol
// substitutes the warmed-up EWMA rates for the last-round-only estimates
// when FgmConfig::health_planning is set.
//
// Zero-cost discipline, same as every obs sink: producers hold a raw
// `HealthMonitor*` that is null when disabled; all feeding happens at
// round boundaries or explicit heartbeat points, never per record. With
// the monitor disabled (and health_planning off) traffic is bit-identical
// to a seed run.
//
// Layering: obs cannot depend on sim or core, so the per-site network
// sample is mirrored here as a plain struct (SiteNetSample) and the
// protocol copies the sim::SiteNetStats fields it reads across.

#ifndef FGM_OBS_HEALTH_H_
#define FGM_OBS_HEALTH_H_

#include <array>
#include <cstdint>
#include <set>
#include <string>
#include <utility>
#include <vector>

#include "obs/timeseries.h"

namespace fgm {

class TraceSink;

/// One exponentially weighted moving average. The first sample seeds the
/// value directly; later samples fold in with weight kAlpha.
class Ewma {
 public:
  static constexpr double kAlpha = 0.3;

  void Observe(double x) {
    value_ = samples_ == 0 ? x : kAlpha * x + (1.0 - kAlpha) * value_;
    ++samples_;
  }
  double value() const { return value_; }
  int64_t samples() const { return samples_; }

 private:
  double value_ = 0.0;
  int64_t samples_ = 0;
};

/// The built-in alert rules. Site-scoped rules carry the site id in their
/// events; run-global rules use site = -1.
enum class AlertRule : int {
  kStragglerSite = 0,  ///< site down / delivery latency far above fleet
  kLossyLink,          ///< per-site drop-fraction EWMA over threshold
  kPsiMargin,          ///< ψ-overshoot past the stop level is eroding
  kBudgetOverflow,     ///< too many rounds end on the subround backstop
  kStuckSubround,      ///< records flow but subrounds stopped advancing
  kRuleCount,
};

/// Alert rule names in enum order: the only `rule` labels a trace holds.
inline constexpr std::array<const char*,
                            static_cast<size_t>(AlertRule::kRuleCount)>
    kAlertRuleNames = {"straggler_site", "lossy_link", "psi_margin",
                       "budget_overflow", "stuck_subround"};

inline const char* AlertRuleName(AlertRule rule) {
  const auto i = static_cast<size_t>(rule);
  return i < kAlertRuleNames.size() ? kAlertRuleNames[i] : "unknown";
}

/// The sim::SiteNetStats fields the monitor reads (obs cannot include
/// sim headers). All counts are cumulative; the monitor diffs successive
/// samples itself.
struct SiteNetSample {
  int64_t delivered_msgs = 0;
  int64_t dropped_msgs = 0;
  int64_t latency_ticks = 0;
  int64_t latency_samples = 0;
};

class HealthMonitor {
 public:
  // Thresholds, deliberately conservative: alerts mean "act", not
  // "glance".
  static constexpr int64_t kMinRounds = 3;  ///< EWMA warmup, in rounds
  static constexpr double kLossyDropThreshold = 0.15;     ///< lossy_link
  static constexpr double kStragglerLatencyFactor = 3.0;  ///< vs fleet mean
  static constexpr int64_t kStragglerMinSamples = 8;  ///< before judging
  static constexpr double kPsiMarginThreshold = 0.25;  ///< of |stop level|
  static constexpr double kOverflowThreshold = 0.25;  ///< overflow EWMA
  static constexpr int64_t kStuckProgressSamples = 3;  ///< stagnant beats
  static constexpr double kClearFactor = 0.5;  ///< clear below thr·this
  static constexpr double kMaxShipCost = 4.0;  ///< per-site cost clamp

  /// `sites` counts the coordinator's root children: the sites of a flat
  /// run, the tier-1 aggregators of a tree.
  explicit HealthMonitor(int sites);

  /// Alert transitions are emitted to this sink (non-owning, may be null:
  /// the monitor still tracks state, only the events are suppressed).
  void set_trace(TraceSink* trace) { trace_ = trace; }

  // ---- Feeding (round boundaries / heartbeat points only) ------------

  /// One completed round: cadence and per-kind word rates.
  void ObserveRound(const RunSnapshot& snapshot);
  /// Cumulative per-site network counters (mirrored sim::SiteNetStats).
  void ObserveNet(int site, const SiteNetSample& cumulative);
  /// The optimizer's measured α/β/γ for one site, one round.
  void ObserveRates(int site, double alpha, double beta, double gamma);
  /// End-of-round ψ against the ε_ψ·k·φ(0) stop level (both < 0).
  void ObservePsiMargin(double last_psi, double stop_level);
  /// Cumulative count of rounds ended by the subround-budget backstop.
  void ObserveOverflowRounds(int64_t cumulative_overflow_rounds);
  /// Record-cadence heartbeat at record `t`: drives the stuck_subround
  /// rule.
  void ObserveProgress(int64_t round, int64_t total_subrounds, int64_t t);
  /// Deterministic straggler transitions from the crash/rejoin handshake.
  void NoteSiteDown(int site, int64_t round, int64_t t);
  void NoteSiteUp(int site, int64_t round, int64_t t);

  /// Evaluates the threshold rules (lossy_link, straggler latency,
  /// psi_margin, budget_overflow) and emits raise/clear transitions.
  /// Call once per completed round, after the Observe* feeds.
  void EvaluateAlerts(int64_t round, int64_t t);

  // ---- Views ---------------------------------------------------------

  int sites() const { return sites_; }

  /// True once every rate EWMA has at least kMinRounds samples on some
  /// site (sites that never reported stay inactive in the plan anyway).
  bool have_rates() const;
  double rate_alpha(int site) const;
  double rate_beta(int site) const;
  double rate_gamma(int site) const;
  int64_t rate_rounds(int site) const;

  double drop_fraction(int site) const;  ///< EWMA of per-round drop share
  double latency(int site) const;        ///< EWMA mean delivery delay
  bool site_down(int site) const;

  /// Multiplicative cost factor for shipping the D-word full function to
  /// `site`: 1 on a clean link, up to kMaxShipCost on lossy/slow/down
  /// links (a dropped shipment is retransmitted — real words).
  double ShipCostFactor(int site) const;
  /// Fleet-mean ship cost: scales the rebalance profitability bar (a
  /// rebalance whose traffic crosses degraded links must pay for more).
  double RebalanceCostFactor() const;

  bool alert_active(AlertRule rule, int site) const;
  int64_t alerts_raised() const { return alerts_raised_; }
  int64_t alerts_cleared() const { return alerts_cleared_; }
  int64_t active_alert_count() const {
    return static_cast<int64_t>(active_.size());
  }

  // ---- Export --------------------------------------------------------

  /// Prometheus text-exposition snapshot of every estimator and alert.
  /// Atomically replaces `path` (write temp + rename) so scrapers never
  /// see a torn file. FGM_CHECKs on I/O failure.
  void WritePrometheus(const std::string& path, int64_t records,
                       int64_t rounds, int64_t total_words,
                       double psi) const;
  /// Same exposition as a string (tests, in-process scraping).
  std::string PrometheusText(int64_t records, int64_t rounds,
                             int64_t total_words, double psi) const;

  /// One JSONL heartbeat line (no trailing newline): run counters plus
  /// the alert tallies, for `runner --live_out` streaming.
  std::string HeartbeatJson(int64_t records, int64_t rounds,
                            int64_t total_words, double psi) const;

 private:
  struct SiteHealth {
    Ewma rate_alpha, rate_beta, rate_gamma;
    Ewma drop_frac;      ///< per-round dropped/(delivered+dropped) msgs
    Ewma latency;        ///< per-round mean delivery delay in ticks
    SiteNetSample last;  ///< cumulative baseline for diffing
    bool down = false;
    int64_t rate_rounds = 0;
  };

  /// Drives one (rule, site) alert through its raise/clear transitions,
  /// emitting trace events on edges. `reason` may be null.
  void SetActive(AlertRule rule, int site, bool active, double value,
                 double threshold, int64_t round, int64_t t,
                 const char* reason);

  const int sites_;
  TraceSink* trace_ = nullptr;

  std::vector<SiteHealth> site_;

  // Run-global estimators.
  Ewma round_records_;    ///< records per round (cadence)
  Ewma round_subrounds_;  ///< subrounds per round (cadence)
  Ewma round_words_;      ///< words per round
  std::vector<Ewma> kind_words_;  ///< per-MsgKind words per round
  Ewma psi_overshoot_;    ///< (ψ_end − stop)/|stop| at round end
  Ewma overflow_rate_;    ///< overflow-round indicator per round
  int64_t last_records_ = 0;
  int64_t last_overflow_rounds_ = 0;

  // stuck_subround bookkeeping.
  int64_t progress_subrounds_ = -1;
  int64_t stagnant_samples_ = 0;

  // Alert engine state: currently-firing (rule, site) pairs.
  std::set<std::pair<int, int>> active_;
  int64_t alerts_raised_ = 0;
  int64_t alerts_cleared_ = 0;
};

}  // namespace fgm

#endif  // FGM_OBS_HEALTH_H_
