// Common interface of all monitoring protocols (FGM, classic GM, and the
// centralizing baseline).
//
// The driver feeds records one at a time; a protocol routes each record to
// its site, simulates whatever communication the real protocol would
// perform (synchronously), and keeps the coordinator estimate up to date.

#ifndef FGM_NET_PROTOCOL_H_
#define FGM_NET_PROTOCOL_H_

#include <cstdint>
#include <string>

#include "net/network.h"
#include "net/transport.h"
#include "query/query.h"
#include "stream/record.h"
#include "util/real_vector.h"

namespace fgm {

namespace sim {
struct SimNetStats;
}  // namespace sim

class MonitoringProtocol {
 public:
  virtual ~MonitoringProtocol() = default;

  virtual std::string name() const = 0;

  /// Processes one stream record at its site.
  virtual void ProcessRecord(const StreamRecord& record) = 0;

  /// The coordinator's current estimate vector E.
  virtual const RealVector& GlobalEstimate() const = 0;

  /// Q(E): the answer the coordinator serves to users.
  virtual double Estimate() const = 0;

  /// The thresholds guaranteed for the current round/epoch:
  /// the protocol maintains Q(S_global) ∈ [lo, hi] while quiescent.
  virtual ThresholdPair CurrentThresholds() const = 0;

  /// The transport of the coordinator's own links (the root tier).
  virtual const Transport& transport() const = 0;

  /// Communication performed so far on those links.
  const TrafficStats& traffic() const { return transport().stats(); }

  /// Number of synchronization rounds so far.
  virtual int64_t rounds() const = 0;

  /// True while the protocol can vouch for its thresholds at this instant
  /// (e.g. FGM is mid-subround with counter c ≤ k). Used by correctness
  /// tests to know when to assert the containment Q(S) ∈ [lo, hi]. Under
  /// a simulated network this additionally requires no site down and no
  /// counter increment still in flight.
  virtual bool BoundsCertified() const { return true; }

  /// End-of-stream hook: a protocol over a simulated network (sim/) lets
  /// every in-flight datagram land and drains it here. No-op otherwise.
  virtual void Finish() {}

  /// Network-simulation counters, or nullptr when the protocol runs over
  /// a synchronous transport.
  virtual const sim::SimNetStats* net_stats() const { return nullptr; }
};

}  // namespace fgm

#endif  // FGM_NET_PROTOCOL_H_
