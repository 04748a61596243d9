#include "gm/gm_protocol.h"

#include <algorithm>

#include "obs/trace.h"
#include "util/check.h"

namespace fgm {

namespace {
// Seeds the random order of rebalancing peers ("gm").
constexpr uint64_t kPeerShuffleSeed = 0x6d67;
}  // namespace

void LoadDrift(DriftEvaluator* evaluator, const RealVector& value) {
  evaluator->Reset();
  for (size_t i = 0; i < value.dim(); ++i) {
    if (value[i] != 0.0) evaluator->ApplyDelta(i, value[i]);
  }
}

GmProtocol::GmProtocol(const ContinuousQuery* query, int num_sites,
                       GmConfig config)
    : query_(query),
      sites_k_(num_sites),
      config_(config),
      transport_(sim::MakeTransport(config.transport, config.net, num_sites)),
      rng_(kPeerShuffleSeed),
      estimate_(query->dimension()),
      sites_(static_cast<size_t>(num_sites)) {
  FGM_CHECK(query != nullptr);
  FGM_CHECK_GE(num_sites, 1);
  // GM has no crash/rejoin handshake: a fault plan would strand a site.
  FGM_CHECK(config_.net.fault_plan.empty());
  if (config_.net.enabled()) {
    sim_ = static_cast<sim::EventNetwork*>(transport_.get());
  }
  trace_ = config_.trace;
  if (trace_ != nullptr) transport_->set_trace(trace_);
  if (sim_ != nullptr && config_.spans != nullptr) {
    sim_->set_spans(config_.spans);
  }
  StartRound();
}

void GmProtocol::StartRound() {
  ++full_syncs_;
  query_value_ = query_->Evaluate(estimate_);
  thresholds_ = query_->Thresholds(estimate_);
  safe_fn_ = query_->MakeSafeFunction(estimate_);
  FGM_CHECK_LT(safe_fn_->AtZero(), 0.0);
  if (trace_ != nullptr) {
    TraceEvent e;
    e.kind = TraceEventKind::kRoundStart;
    e.round = full_syncs_;
    e.k = sites_k_;
    e.value = safe_fn_->AtZero();
    // eps stays 0: GM rounds have no subround machinery to certify.
    trace_->Emit(e);
  }
  for (int i = 0; i < sites_k_; ++i) {
    transport_->Ship(i, SafeZoneMsg{estimate_});
    Site& site = sites_[static_cast<size_t>(i)];
    // Wrapped with the FGM_PARANOID cross-check when the env var is set.
    site.evaluator =
        MakeCheckedEvaluator(safe_fn_.get(), safe_fn_->MakeEvaluator());
    site.log.Reset();
    site.updates_since_known = 0;
    site.known = RealVector(query_->dimension());
  }
}

void GmProtocol::ProcessRecord(const StreamRecord& record) {
  if (sim_ != nullptr) sim_->Advance(1);
  FGM_CHECK(record.site >= 0 && record.site < sites_k_);
  Site& site = sites_[static_cast<size_t>(record.site)];
  delta_scratch_.clear();
  query_->MapRecord(record, &delta_scratch_);
  site.log.Record(record, query_->dimension());
  for (const CellUpdate& u : delta_scratch_) {
    site.evaluator->ApplyDelta(u.index, u.delta);
  }
  const double v = site.evaluator->Value();
  ++site.updates_since_known;
  if (!(v > 0.0)) return;  // inside the safe zone
  ++violations_;
  if (trace_ != nullptr) {
    TraceEvent e;
    e.kind = TraceEventKind::kThresholdCross;
    e.round = full_syncs_;
    e.site = record.site;
    e.value = v;
    e.label = kReasonLocalViolation;
    trace_->Emit(e);
  }
  HandleViolation(record.site);
}

const RealVector& GmProtocol::CollectDrift(int site_id) {
  Site& site = sites_[static_cast<size_t>(site_id)];
  // The site ships the cheaper of its dense drift and the raw updates
  // since the coordinator last knew it (§2.1's min(D, n) + 1 accounting).
  const DriftFlushMsg delivered = transport_->Send(
      site_id, DriftFlushMsg::ForFlush(site.evaluator->drift(),
                                       site.updates_since_known, site.log));
  if (trace_ != nullptr) {
    TraceEvent e;
    e.kind = TraceEventKind::kDriftFlush;
    e.round = full_syncs_;
    e.site = site_id;
    e.words = delivered.Words();
    e.count = delivered.update_count;
    trace_->Emit(e);
  }
  if (delivered.drift->dim() != 0) {
    site.known = *delivered.drift;
  } else {
    // Verbatim: re-project the delta updates on top of the drift the
    // coordinator already knows (bit-exact, same deltas in the same
    // order as the site applied them).
    ReprojectRawUpdates(*query_, site_id, *delivered.raw, &site.known);
  }
  site.log.Reset();
  site.updates_since_known = 0;
  return site.known;
}

void GmProtocol::HandleViolation(int violator) {
  const double k = static_cast<double>(sites_k_);

  // The violator reports itself (1 control word) and ships its drift.
  transport_->Send(violator, ControlMsg{ControlOp::kViolation});
  RealVector sum = CollectDrift(violator);
  std::vector<int> collected = {violator};

  // Candidate peers ordered by how deep inside the zone they sit: the
  // coordinator polls the one-word φ-values (k words each way) and
  // collects from the most-negative sites first, which keeps the
  // rebalancing set small. Ties/noise are broken by the shuffled base
  // order, as in the randomized policy of [28].
  std::vector<int> peers;
  for (int i = 0; i < sites_k_; ++i) {
    if (i != violator) peers.push_back(i);
  }
  for (size_t i = peers.size(); i > 1; --i) {
    std::swap(peers[i - 1], peers[rng_.NextBounded(i)]);
  }
  std::vector<double> phi(static_cast<size_t>(sites_k_), 0.0);
  for (int i = 0; i < sites_k_; ++i) {
    if (i == violator) continue;
    transport_->Ship(i, ControlMsg{ControlOp::kPollPhi});
    const PhiValueMsg reply = transport_->Send(
        i, PhiValueMsg{sites_[static_cast<size_t>(i)].evaluator->Value()});
    phi[static_cast<size_t>(i)] = reply.value;
  }
  std::stable_sort(peers.begin(), peers.end(), [&](int a, int b) {
    return phi[static_cast<size_t>(a)] < phi[static_cast<size_t>(b)];
  });

  RealVector avg(query_->dimension());
  const double slack_level = config_.slack_margin * safe_fn_->AtZero();
  auto balanced = [&]() {
    avg = sum;
    avg *= 1.0 / static_cast<double>(collected.size());
    return safe_fn_->Eval(avg) < slack_level;
  };

  size_t next_peer = 0;
  while (!balanced() && next_peer < peers.size()) {
    const int peer = peers[next_peer++];
    transport_->Ship(peer, ControlMsg{ControlOp::kDriftRequest});
    sum += CollectDrift(peer);
    collected.push_back(peer);
  }
  if (balanced() && collected.size() < static_cast<size_t>(sites_k_)) {
    // Assign the common average back to the collected sites; the drift
    // sum (hence the global state) is unchanged. When every site had to
    // be collected we fall through to the full sync instead, which costs
    // the same upstream but refreshes the safe zone around the new E.
    ++partial_rebalances_;
    if (trace_ != nullptr) {
      // GM partial rebalance; lambda records the collected fraction.
      TraceEvent e;
      e.kind = TraceEventKind::kRebalance;
      e.round = full_syncs_;
      e.lambda = static_cast<double>(collected.size()) / k;
      trace_->Emit(e);
    }
    for (int site_id : collected) {
      const SafeZoneMsg delivered =
          transport_->Ship(site_id, SafeZoneMsg{avg});
      Site& site = sites_[static_cast<size_t>(site_id)];
      LoadDrift(site.evaluator.get(), *delivered.reference);
      site.known = *delivered.reference;
      site.log.Reset();
    }
    return;
  }
  // Collect any stragglers for the full sync.
  while (next_peer < peers.size()) {
    const int peer = peers[next_peer++];
    transport_->Ship(peer, ControlMsg{ControlOp::kDriftRequest});
    sum += CollectDrift(peer);
    collected.push_back(peer);
  }

  // Full synchronization: all drifts are in `sum` (rebalancing exhausted
  // every site), fold into E and start a new round.
  FGM_CHECK_EQ(collected.size(), static_cast<size_t>(sites_k_));
  estimate_.Axpy(1.0 / k, sum);
  StartRound();
}

}  // namespace fgm
