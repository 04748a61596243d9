#include "baseline/central.h"

#include "obs/trace.h"
#include "util/check.h"

namespace fgm {

CentralProtocol::CentralProtocol(const ContinuousQuery* query, int num_sites,
                                 TransportMode transport, TraceSink* trace,
                                 const sim::NetSimConfig& net,
                                 SpanSink* spans)
    : query_(query),
      sites_k_(num_sites),
      transport_(sim::MakeTransport(transport, net, num_sites)),
      state_(query->dimension()) {
  FGM_CHECK(query != nullptr);
  FGM_CHECK_GE(num_sites, 1);
  // The baseline forwards from every site on every record; a fault plan
  // would make that contact a protocol error (no crash handshake here).
  FGM_CHECK(net.fault_plan.empty());
  if (net.enabled()) {
    sim_ = static_cast<sim::EventNetwork*>(transport_.get());
  }
  if (trace != nullptr) transport_->set_trace(trace);
  if (sim_ != nullptr && spans != nullptr) sim_->set_spans(spans);
}

void CentralProtocol::ProcessRecord(const StreamRecord& record) {
  FGM_CHECK(record.site >= 0 && record.site < sites_k_);
  if (sim_ != nullptr) sim_->Advance(1);
  // The update crosses the wire verbatim; the coordinator projects the
  // DELIVERED record (normally 1 word; 2 for keys beyond 62 bits).
  const RawUpdateMsg delivered = transport_->Send(
      record.site, RawUpdateMsg::FromRecord(record));
  delta_scratch_.clear();
  query_->MapRecord(delivered.ToRecord(record.site), &delta_scratch_);
  // Global state is the *average* of local states (§2.1): each update
  // contributes its deltas scaled by 1/k.
  const double inv_k = 1.0 / static_cast<double>(sites_k_);
  for (const CellUpdate& u : delta_scratch_) {
    state_[u.index] += inv_k * u.delta;
  }
}

double CentralProtocol::Estimate() const { return query_->Evaluate(state_); }

ThresholdPair CentralProtocol::CurrentThresholds() const {
  const double q = Estimate();
  return ThresholdPair{q, q};
}

}  // namespace fgm
