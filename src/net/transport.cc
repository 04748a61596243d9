#include "net/transport.h"

#include <cstdlib>

#include "obs/trace.h"

namespace fgm {

namespace {

bool StrictWireEnv() {
  const char* env = std::getenv("FGM_STRICT_WIRE");
  return env != nullptr && env[0] != '\0' && !(env[0] == '0' && env[1] == '\0');
}

TransportMode ResolveTransportMode(TransportMode mode) {
  if (mode != TransportMode::kAuto) return mode;
  return StrictWireEnv() ? TransportMode::kSerializing
                         : TransportMode::kCounting;
}

}  // namespace

Transport::Transport(int sites, TransportMode mode)
    : sites_(sites),
      strict_(ResolveTransportMode(mode) == TransportMode::kSerializing) {
  FGM_CHECK_GE(sites, 1);
}

void Transport::Book(int child, int dir, MsgKind kind, int64_t words) {
  FGM_CHECK(child >= 0 && child < sites_);
  FGM_CHECK_GE(words, 0);
  if (dir > 0) {
    stats_.upstream_words += words;
    stats_.upstream_messages += 1;
  } else {
    stats_.downstream_words += words;
    stats_.downstream_messages += 1;
  }
  stats_.words_by_kind[static_cast<size_t>(kind)] += words;
  if (trace_ != nullptr) EmitSent(child, dir, kind, words);
}

void Transport::EmitSent(int child, int dir, MsgKind kind, int64_t words) {
  TraceEvent e;
  e.kind = TraceEventKind::kMsgSent;
  e.site = child;
  e.label = MsgKindName(kind);
  e.dir = dir;
  e.words = words;
  e.tier = tier_;
  trace_->Emit(e);
}

void ReprojectRawUpdates(const ContinuousQuery& query, int site,
                         const std::vector<RawUpdateMsg>& raw,
                         RealVector* out) {
  FGM_CHECK_EQ(out->dim(), query.dimension());
  std::vector<CellUpdate> deltas;
  for (const RawUpdateMsg& u : raw) {
    deltas.clear();
    query.MapRecord(u.ToRecord(site), &deltas);
    for (const CellUpdate& d : deltas) (*out)[d.index] += d.delta;
  }
}

const RealVector& DeliveredDrift(const DriftFlushMsg& msg,
                                 const ContinuousQuery& query, int site,
                                 RealVector* scratch) {
  if (msg.drift->dim() != 0) {
    FGM_CHECK_EQ(msg.drift->dim(), query.dimension());
    return *msg.drift;
  }
  if (scratch->dim() != query.dimension()) {
    *scratch = RealVector(query.dimension());
  } else {
    scratch->SetZero();
  }
  ReprojectRawUpdates(query, site, *msg.raw, scratch);
  return *scratch;
}

}  // namespace fgm
