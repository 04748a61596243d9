#include "obs/health.h"

#include <algorithm>
#include <cinttypes>
#include <cmath>
#include <cstdarg>
#include <cstdio>

#include "obs/json.h"
#include "obs/trace.h"
#include "util/check.h"

namespace fgm {

HealthMonitor::HealthMonitor(int sites)
    : sites_(sites),
      site_(static_cast<size_t>(sites)),
      kind_words_(kSnapshotMsgKinds) {
  FGM_CHECK_GE(sites, 1);
}

void HealthMonitor::ObserveRound(const RunSnapshot& snapshot) {
  round_records_.Observe(
      static_cast<double>(snapshot.records - last_records_));
  last_records_ = snapshot.records;
  round_subrounds_.Observe(static_cast<double>(snapshot.subrounds));
  round_words_.Observe(static_cast<double>(snapshot.round_words));
  for (int k = 0; k < kSnapshotMsgKinds; ++k) {
    kind_words_[static_cast<size_t>(k)].Observe(
        static_cast<double>(snapshot.round_words_by_kind[static_cast<size_t>(k)]));
  }
}

void HealthMonitor::ObserveNet(int site, const SiteNetSample& cumulative) {
  FGM_CHECK(site >= 0 && site < sites_);
  SiteHealth& s = site_[static_cast<size_t>(site)];
  const SiteNetSample& prev = s.last;
  const int64_t delivered = cumulative.delivered_msgs - prev.delivered_msgs;
  const int64_t dropped = cumulative.dropped_msgs - prev.dropped_msgs;
  const int64_t lat_ticks = cumulative.latency_ticks - prev.latency_ticks;
  const int64_t lat_samples =
      cumulative.latency_samples - prev.latency_samples;
  // Rounds with no traffic toward this site carry no signal; observing a
  // synthetic 0 would bias the EWMAs toward "healthy" while a site is
  // paused, so such rounds are skipped entirely.
  if (delivered + dropped > 0) {
    s.drop_frac.Observe(static_cast<double>(dropped) /
                        static_cast<double>(delivered + dropped));
  }
  if (lat_samples > 0) {
    s.latency.Observe(static_cast<double>(lat_ticks) /
                      static_cast<double>(lat_samples));
  }
  s.last = cumulative;
}

void HealthMonitor::ObserveRates(int site, double alpha, double beta,
                                 double gamma) {
  FGM_CHECK(site >= 0 && site < sites_);
  SiteHealth& s = site_[static_cast<size_t>(site)];
  s.rate_alpha.Observe(alpha);
  s.rate_beta.Observe(beta);
  s.rate_gamma.Observe(gamma);
  ++s.rate_rounds;
}

void HealthMonitor::ObservePsiMargin(double last_psi, double stop_level) {
  if (!(stop_level < 0.0)) return;  // not an FGM round
  // Both values are negative; a round that ends with ψ well past the stop
  // level (toward 0) has eaten its safety margin. Normalize by |stop| so
  // the signal is scale-free across queries.
  psi_overshoot_.Observe((last_psi - stop_level) / -stop_level);
}

void HealthMonitor::ObserveOverflowRounds(int64_t cumulative) {
  overflow_rate_.Observe(cumulative > last_overflow_rounds_ ? 1.0 : 0.0);
  last_overflow_rounds_ = cumulative;
}

void HealthMonitor::ObserveProgress(int64_t round, int64_t total_subrounds,
                                    int64_t t) {
  if (total_subrounds == progress_subrounds_) {
    ++stagnant_samples_;
  } else {
    stagnant_samples_ = 0;
    progress_subrounds_ = total_subrounds;
  }
  SetActive(AlertRule::kStuckSubround, -1,
            stagnant_samples_ >= kStuckProgressSamples,
            static_cast<double>(stagnant_samples_),
            static_cast<double>(kStuckProgressSamples), round, t, nullptr);
}

void HealthMonitor::NoteSiteDown(int site, int64_t round, int64_t t) {
  FGM_CHECK(site >= 0 && site < sites_);
  site_[static_cast<size_t>(site)].down = true;
  SetActive(AlertRule::kStragglerSite, site, true, 1.0, 1.0, round, t,
            kReasonDown);
}

void HealthMonitor::NoteSiteUp(int site, int64_t round, int64_t t) {
  FGM_CHECK(site >= 0 && site < sites_);
  site_[static_cast<size_t>(site)].down = false;
  SetActive(AlertRule::kStragglerSite, site, false, 0.0, 1.0, round, t,
            kReasonRejoin);
}

void HealthMonitor::EvaluateAlerts(int64_t round, int64_t t) {
  // lossy_link: per-site drop-fraction EWMA with hysteresis.
  for (int i = 0; i < sites_; ++i) {
    const SiteHealth& s = site_[static_cast<size_t>(i)];
    if (s.drop_frac.samples() == 0) continue;
    const bool was = alert_active(AlertRule::kLossyLink, i);
    const double thr =
        was ? kLossyDropThreshold * kClearFactor : kLossyDropThreshold;
    SetActive(AlertRule::kLossyLink, i, s.drop_frac.value() >= thr,
              s.drop_frac.value(), thr, round, t, nullptr);
  }

  // straggler_site (latency form): a site whose delivery latency EWMA sits
  // far above the fleet mean. Down windows own the alert for their site —
  // the handshake raised it with reason "down" and will clear it on
  // rejoin, so latency evaluation skips down sites.
  double fleet_lat = 0.0;
  int fleet_n = 0;
  for (const SiteHealth& s : site_) {
    if (s.latency.samples() >= kStragglerMinSamples) {
      fleet_lat += s.latency.value();
      ++fleet_n;
    }
  }
  if (fleet_n >= 2) {
    const double mean = fleet_lat / static_cast<double>(fleet_n);
    if (mean > 0.0) {
      for (int i = 0; i < sites_; ++i) {
        const SiteHealth& s = site_[static_cast<size_t>(i)];
        if (s.down) continue;
        if (s.latency.samples() < kStragglerMinSamples) continue;
        const bool was = alert_active(AlertRule::kStragglerSite, i);
        const double factor =
            was ? kStragglerLatencyFactor * kClearFactor
                : kStragglerLatencyFactor;
        SetActive(AlertRule::kStragglerSite, i,
                  s.latency.value() >= factor * mean, s.latency.value(),
                  factor * mean, round, t, kReasonSlow);
      }
    }
  }

  // psi_margin (run-global): systematic overshoot past the stop level.
  if (psi_overshoot_.samples() >= kMinRounds) {
    const bool was = alert_active(AlertRule::kPsiMargin, -1);
    const double thr =
        was ? kPsiMarginThreshold * kClearFactor : kPsiMarginThreshold;
    SetActive(AlertRule::kPsiMargin, -1, psi_overshoot_.value() >= thr,
              psi_overshoot_.value(), thr, round, t, nullptr);
  }

  // budget_overflow (run-global): too many rounds end on the backstop.
  if (overflow_rate_.samples() >= kMinRounds) {
    const bool was = alert_active(AlertRule::kBudgetOverflow, -1);
    const double thr =
        was ? kOverflowThreshold * kClearFactor : kOverflowThreshold;
    SetActive(AlertRule::kBudgetOverflow, -1, overflow_rate_.value() >= thr,
              overflow_rate_.value(), thr, round, t, nullptr);
  }
}

bool HealthMonitor::have_rates() const {
  for (const SiteHealth& s : site_) {
    if (s.rate_rounds >= kMinRounds) return true;
  }
  return false;
}

double HealthMonitor::rate_alpha(int site) const {
  return site_[static_cast<size_t>(site)].rate_alpha.value();
}
double HealthMonitor::rate_beta(int site) const {
  return site_[static_cast<size_t>(site)].rate_beta.value();
}
double HealthMonitor::rate_gamma(int site) const {
  return site_[static_cast<size_t>(site)].rate_gamma.value();
}
int64_t HealthMonitor::rate_rounds(int site) const {
  return site_[static_cast<size_t>(site)].rate_rounds;
}
double HealthMonitor::drop_fraction(int site) const {
  return site_[static_cast<size_t>(site)].drop_frac.value();
}
double HealthMonitor::latency(int site) const {
  return site_[static_cast<size_t>(site)].latency.value();
}
bool HealthMonitor::site_down(int site) const {
  return site_[static_cast<size_t>(site)].down;
}

double HealthMonitor::ShipCostFactor(int site) const {
  const SiteHealth& s = site_[static_cast<size_t>(site)];
  if (s.down) return kMaxShipCost;
  double cost = 1.0;
  if (s.drop_frac.samples() > 0) {
    // Expected attempts per delivered message on a link dropping fraction
    // p: 1/(1-p) — every retransmission is real words on the wire.
    const double p = std::min(s.drop_frac.value(), 0.95);
    cost = 1.0 / (1.0 - p);
  }
  if (cost < 1.0) cost = 1.0;
  if (cost > kMaxShipCost) cost = kMaxShipCost;
  return cost;
}

double HealthMonitor::RebalanceCostFactor() const {
  double sum = 0.0;
  for (int i = 0; i < sites_; ++i) sum += ShipCostFactor(i);
  return sum / static_cast<double>(sites_);
}

bool HealthMonitor::alert_active(AlertRule rule, int site) const {
  return active_.count({static_cast<int>(rule), site}) != 0;
}

void HealthMonitor::SetActive(AlertRule rule, int site, bool active,
                              double value, double threshold, int64_t round,
                              int64_t t, const char* reason) {
  const std::pair<int, int> key{static_cast<int>(rule), site};
  if (active) {
    if (!active_.insert(key).second) return;  // already firing
    ++alerts_raised_;
    if (trace_ != nullptr) {
      TraceEvent e;
      e.kind = TraceEventKind::kAlertRaised;
      e.label = AlertRuleName(rule);
      e.site = site;
      e.round = round;
      e.value = value;
      e.theta = threshold;
      e.t = t;
      e.reason = reason;
      trace_->Emit(e);
    }
  } else {
    if (active_.erase(key) == 0) return;  // was not firing
    ++alerts_cleared_;
    if (trace_ != nullptr) {
      TraceEvent e;
      e.kind = TraceEventKind::kAlertCleared;
      e.label = AlertRuleName(rule);
      e.site = site;
      e.round = round;
      e.value = value;
      e.theta = threshold;
      e.t = t;
      e.reason = reason;
      trace_->Emit(e);
    }
  }
}

namespace {

void Line(std::string* out, const char* fmt, ...) {
  char buf[256];
  va_list args;
  va_start(args, fmt);
  const int n = std::vsnprintf(buf, sizeof(buf), fmt, args);
  va_end(args);
  if (n > 0) out->append(buf, static_cast<size_t>(std::min(
                                  n, static_cast<int>(sizeof(buf) - 1))));
  out->push_back('\n');
}

}  // namespace

std::string HealthMonitor::PrometheusText(int64_t records, int64_t rounds,
                                          int64_t total_words,
                                          double psi) const {
  std::string out;
  Line(&out, "# TYPE fgm_records_total counter");
  Line(&out, "fgm_records_total %" PRId64, records);
  Line(&out, "# TYPE fgm_rounds_total counter");
  Line(&out, "fgm_rounds_total %" PRId64, rounds);
  Line(&out, "# TYPE fgm_words_total counter");
  Line(&out, "fgm_words_total %" PRId64, total_words);
  Line(&out, "# TYPE fgm_psi gauge");
  Line(&out, "fgm_psi %.17g", psi);

  Line(&out, "# TYPE fgm_round_records gauge");
  Line(&out, "fgm_round_records %.17g", round_records_.value());
  Line(&out, "# TYPE fgm_round_subrounds gauge");
  Line(&out, "fgm_round_subrounds %.17g", round_subrounds_.value());
  Line(&out, "# TYPE fgm_round_words gauge");
  Line(&out, "fgm_round_words %.17g", round_words_.value());
  Line(&out, "# TYPE fgm_round_words_by_kind gauge");
  for (int k = 0; k < kSnapshotMsgKinds; ++k) {
    Line(&out, "fgm_round_words_by_kind{kind=\"%d\"} %.17g", k,
         kind_words_[static_cast<size_t>(k)].value());
  }
  Line(&out, "# TYPE fgm_psi_overshoot gauge");
  Line(&out, "fgm_psi_overshoot %.17g", psi_overshoot_.value());
  Line(&out, "# TYPE fgm_overflow_rate gauge");
  Line(&out, "fgm_overflow_rate %.17g", overflow_rate_.value());

  Line(&out, "# TYPE fgm_site_rate_alpha gauge");
  for (int i = 0; i < sites_; ++i) {
    Line(&out, "fgm_site_rate_alpha{site=\"%d\"} %.17g", i, rate_alpha(i));
  }
  Line(&out, "# TYPE fgm_site_rate_beta gauge");
  for (int i = 0; i < sites_; ++i) {
    Line(&out, "fgm_site_rate_beta{site=\"%d\"} %.17g", i, rate_beta(i));
  }
  Line(&out, "# TYPE fgm_site_rate_gamma gauge");
  for (int i = 0; i < sites_; ++i) {
    Line(&out, "fgm_site_rate_gamma{site=\"%d\"} %.17g", i, rate_gamma(i));
  }
  Line(&out, "# TYPE fgm_site_drop_fraction gauge");
  for (int i = 0; i < sites_; ++i) {
    Line(&out, "fgm_site_drop_fraction{site=\"%d\"} %.17g", i,
         drop_fraction(i));
  }
  Line(&out, "# TYPE fgm_site_latency_ticks gauge");
  for (int i = 0; i < sites_; ++i) {
    Line(&out, "fgm_site_latency_ticks{site=\"%d\"} %.17g", i, latency(i));
  }
  Line(&out, "# TYPE fgm_site_ship_cost gauge");
  for (int i = 0; i < sites_; ++i) {
    Line(&out, "fgm_site_ship_cost{site=\"%d\"} %.17g", i,
         ShipCostFactor(i));
  }
  Line(&out, "# TYPE fgm_site_down gauge");
  for (int i = 0; i < sites_; ++i) {
    Line(&out, "fgm_site_down{site=\"%d\"} %d", i, site_down(i) ? 1 : 0);
  }

  Line(&out, "# TYPE fgm_alerts_raised_total counter");
  Line(&out, "fgm_alerts_raised_total %" PRId64, alerts_raised_);
  Line(&out, "# TYPE fgm_alerts_cleared_total counter");
  Line(&out, "fgm_alerts_cleared_total %" PRId64, alerts_cleared_);
  Line(&out, "# TYPE fgm_alert_active gauge");
  for (const auto& key : active_) {
    Line(&out, "fgm_alert_active{rule=\"%s\",site=\"%d\"} 1",
         AlertRuleName(static_cast<AlertRule>(key.first)), key.second);
  }
  return out;
}

void HealthMonitor::WritePrometheus(const std::string& path, int64_t records,
                                    int64_t rounds, int64_t total_words,
                                    double psi) const {
  const std::string text = PrometheusText(records, rounds, total_words, psi);
  const std::string tmp = path + ".tmp";
  std::FILE* f = std::fopen(tmp.c_str(), "w");
  FGM_CHECK(f != nullptr);
  FGM_CHECK_EQ(std::fwrite(text.data(), 1, text.size(), f), text.size());
  FGM_CHECK_EQ(std::fclose(f), 0);
  FGM_CHECK_EQ(std::rename(tmp.c_str(), path.c_str()), 0);
}

std::string HealthMonitor::HeartbeatJson(int64_t records, int64_t rounds,
                                         int64_t total_words,
                                         double psi) const {
  JsonWriter w;
  w.BeginObject();
  w.Field("records", records);
  w.Field("rounds", rounds);
  w.Field("words", total_words);
  w.Field("psi", psi);
  w.Field("round_records", round_records_.value());
  w.Field("round_subrounds", round_subrounds_.value());
  w.Field("round_words", round_words_.value());
  w.Field("psi_overshoot", psi_overshoot_.value());
  w.Field("overflow_rate", overflow_rate_.value());
  w.Field("alerts_active", active_alert_count());
  w.Field("alerts_raised", alerts_raised_);
  w.Field("alerts_cleared", alerts_cleared_);
  w.EndObject();
  return w.Take();
}

}  // namespace fgm
