// Tree topologies for hierarchical FGM (src/hier). FgmProtocol
// (core/fgm_protocol.h) runs over one; the flat star is depth 1.
//
// A TreeTopology arranges the k leaf sites under a root through zero or
// more aggregator tiers. Tier 0 is the root (always one node), tier
// depth() is the leaf tier (k nodes); every tier in between holds
// aggregators. Node counts shrink bottom-up by the per-level fanout:
// with fanouts f_1, …, f_d (tier t's nodes each parent up to f_t
// children at tier t+1), the tier sizes are
//
//   n_d = k,   n_{t-1} = ceil(n_t / f_t),
//
// and the spec is valid iff the chain reaches n_0 == 1, i.e. the fanout
// product covers k. Children are dealt out contiguously and as evenly
// as possible: node i at tier t parents the tier-t+1 range
// [⌊i·n_{t+1}/n_t⌋, ⌊(i+1)·n_{t+1}/n_t⌋), so fan-ins differ by at most
// one and Parent() inverts ChildBegin()/ChildEnd() in O(1).
//
// Specs (the runner's --topology flag):
//
//   tree:<f>          one fanout; the depth is the smallest d with
//                     f^d ≥ k (so tree:f with f ≥ k is the flat star)
//   tree:<f1>,<f2>,…  per-level fanouts, root-side first; the product
//                     must cover k
//
// Parse() rejects malformed specs (missing prefix, empty or non-numeric
// levels, fanout < 2, overflow, product < k) with a one-line message the
// runner surfaces verbatim.

#ifndef FGM_HIER_TOPOLOGY_H_
#define FGM_HIER_TOPOLOGY_H_

#include <string>
#include <vector>

namespace fgm {
namespace hier {

class TreeTopology {
 public:
  /// Parses `spec` ("tree:…") for `leaves` leaf sites. On success fills
  /// `*out` and returns true; on failure returns false with a one-line
  /// diagnostic in `*error`.
  static bool Parse(const std::string& spec, int leaves, TreeTopology* out,
                    std::string* error);

  /// The flat star: the root parents all `leaves` sites directly
  /// (depth 1). Unlike Parse, accepts a single leaf.
  static TreeTopology Star(int leaves);

  /// Number of edges on a root → leaf path (= number of link tiers).
  /// depth() == 1 is the flat star: no aggregators, root parents the
  /// leaves directly.
  int depth() const { return static_cast<int>(counts_.size()) - 1; }
  int leaves() const { return counts_.back(); }
  bool IsFlat() const { return depth() == 1; }

  /// Nodes at tier t (t = 0 root … depth() leaves).
  int NodesAt(int tier) const { return counts_[static_cast<size_t>(tier)]; }

  /// The per-level fanout caps the spec requested (size == depth()).
  const std::vector<int>& fanouts() const { return fanouts_; }

  /// Children of node `node` at tier `tier` occupy
  /// [ChildBegin, ChildEnd) at tier+1. Requires tier < depth().
  int ChildBegin(int tier, int node) const;
  int ChildEnd(int tier, int node) const;

  /// Parent (at tier-1) of node `node` at tier `tier`. Requires
  /// tier >= 1.
  int Parent(int tier, int node) const;

  /// Leaves under node `node` at tier `tier`.
  int LeavesUnder(int tier, int node) const;

  /// The canonical spec string ("tree:f1,f2,…").
  const std::string& spec() const { return spec_; }

 private:
  std::vector<int> counts_;   // counts_[t] = nodes at tier t; counts_[0]==1
  std::vector<int> fanouts_;  // requested fanout per level, root-side first
  std::string spec_;
};

}  // namespace hier
}  // namespace fgm

#endif  // FGM_HIER_TOPOLOGY_H_
