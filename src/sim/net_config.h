// Configuration for the discrete-event network simulator (sim/).
//
// This header is standard-library-only so protocol configuration structs
// (FgmConfig, GmConfig, RunConfig) can embed a NetSimConfig without
// pulling the simulator implementation into their dependency cone.
//
// A NetSimConfig with an empty latency spec, zero drop and no fault plan
// leaves the simulator OFF: protocols use the synchronous transports of
// net/transport.h. `--net_latency 0` turns the event queue ON with zero
// delay, which must be (and is tested to be) bit-identical to the
// synchronous path — the simulator's null mode. A message's delay is its
// sampled latency alone: links have no bandwidth cap and no extra reorder
// jitter.

#ifndef FGM_SIM_NET_CONFIG_H_
#define FGM_SIM_NET_CONFIG_H_

#include <cstdint>
#include <string>
#include <vector>

#include "obs/trace.h"

namespace fgm {
namespace sim {

/// Per-link delivery latency, in ticks (one tick = one stream record at
/// the protocol's ingestion loop).
struct LatencySpec {
  enum class Kind {
    kZero,     ///< instantaneous delivery ("" / "0")
    kFixed,    ///< constant ("fixed:T")
    kUniform,  ///< uniform integer in [a, b] ("uniform:A-B")
    kExp,      ///< exponential with mean a, truncated to integer ("exp:M")
  };
  Kind kind = Kind::kZero;
  double a = 0.0;
  double b = 0.0;
};

/// Parses "", "0", "fixed:T", "uniform:A-B" or "exp:M". Returns false on a
/// malformed spec (values that are negative, not finite or above 2^40
/// ticks, inverted ranges, unknown kind).
bool ParseLatencySpec(const std::string& spec, LatencySpec* out);

/// One scheduled link-state flip from the fault plan.
struct FaultTransition {
  int64_t at = 0;        ///< tick at which the flip takes effect
  int site = 0;
  bool up = false;       ///< false: site goes down, true: it comes back
  const char* reason = kReasonCrash;  ///< kReasonCrash or kReasonOutage
};

/// Parses a ';'-separated fault plan:
///   crash:site=S,at=T[,rejoin=T2]   — site S dies at tick T (volatile
///                                     subround state lost), optionally
///                                     rejoining at T2 > T
///   outage:site=S,from=A,to=B       — S's link is down on [A, B)
/// Both forms produce the same down-window semantics (the coordinator
/// cannot distinguish a dead site from an unreachable one and recovers
/// through the same resync handshake); the verb only labels the SiteDown
/// trace event. Returns false on malformed input, an out-of-range site, or
/// overlapping windows for one site. Transitions come back sorted by time.
bool ParseFaultPlan(const std::string& plan, int sites,
                    std::vector<FaultTransition>* out);

/// Ticks before an RPC attempt counts as lost and is resent.
constexpr int64_t kRetransmitTicks = 64;
/// Ticks of counter silence before a lossy run's coordinator re-polls.
constexpr int64_t kSilenceTicks = 256;
/// Ticks a site may stay down before the round reconfigures without it.
constexpr int64_t kDeadSiteTicks = 4096;

struct NetSimConfig {
  std::string latency;     ///< latency spec; "" disables the simulator
  double drop = 0.0;       ///< iid per-message loss probability in [0, 1)
  uint64_t seed = 0x5eedf00dULL;
  std::string fault_plan;  ///< see ParseFaultPlan; "" = no faults

  /// The simulator runs at all (any latency spec, loss, or faults).
  bool enabled() const {
    return !latency.empty() || drop > 0.0 || !fault_plan.empty();
  }
  /// Messages can be lost — arms the coordinator's silence timeout.
  bool lossy() const { return drop > 0.0 || !fault_plan.empty(); }
};

}  // namespace sim
}  // namespace fgm

#endif  // FGM_SIM_NET_CONFIG_H_
