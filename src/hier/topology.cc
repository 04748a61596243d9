#include "hier/topology.h"

#include <cstdint>

#include "util/check.h"

namespace fgm {
namespace hier {
namespace {

constexpr int64_t kMaxFanout = 1000000;  // sanity cap; also overflow guard

bool Fail(std::string* error, const std::string& message) {
  if (error != nullptr) *error = message;
  return false;
}

/// Parses one fanout level: all-digits, >= 2, <= kMaxFanout.
bool ParseLevel(const std::string& token, int64_t* out, std::string* error) {
  if (token.empty()) return Fail(error, "--topology: empty fanout level");
  int64_t value = 0;
  for (char c : token) {
    if (c < '0' || c > '9') {
      return Fail(error, "--topology: fanout '" + token + "' is not a number");
    }
    value = value * 10 + (c - '0');
    if (value > kMaxFanout) {
      return Fail(error, "--topology: fanout '" + token + "' overflows (max " +
                             std::to_string(kMaxFanout) + ")");
    }
  }
  if (value < 2) {
    return Fail(error, "--topology: fanout " + token + " below minimum 2");
  }
  *out = value;
  return true;
}

}  // namespace

bool TreeTopology::Parse(const std::string& spec, int leaves,
                         TreeTopology* out, std::string* error) {
  FGM_CHECK(out != nullptr);
  FGM_CHECK_GE(leaves, 1);
  const std::string prefix = "tree:";
  if (spec.compare(0, prefix.size(), prefix) != 0) {
    return Fail(error, "--topology: expected 'tree:<fanout>' or "
                       "'tree:<f1>,<f2>,…', got '" + spec + "'");
  }
  const std::string body = spec.substr(prefix.size());
  if (body.empty()) return Fail(error, "--topology: no fanouts in '" + spec + "'");

  std::vector<int64_t> fanouts;
  size_t start = 0;
  while (true) {
    const size_t comma = body.find(',', start);
    const std::string token = body.substr(
        start, comma == std::string::npos ? std::string::npos : comma - start);
    int64_t value = 0;
    if (!ParseLevel(token, &value, error)) return false;
    fanouts.push_back(value);
    if (comma == std::string::npos) break;
    start = comma + 1;
  }

  if (fanouts.size() == 1) {
    // Single fanout f: the depth is the smallest d with f^d >= leaves.
    const int64_t f = fanouts[0];
    int64_t cover = f;
    while (cover < leaves) {
      cover *= f;  // f >= 2 and leaves <= INT_MAX: no overflow before cover
      fanouts.push_back(f);
    }
  } else {
    // Explicit per-level list: the product must cover the leaf count.
    int64_t cover = 1;
    for (int64_t f : fanouts) {
      cover *= f;
      if (cover >= leaves) break;  // cap before it can overflow
    }
    if (cover < leaves) {
      return Fail(error, "--topology: fanout product " + std::to_string(cover) +
                             " covers fewer than " + std::to_string(leaves) +
                             " sites");
    }
  }

  // Tier sizes bottom-up: n_d = leaves, n_{t-1} = ceil(n_t / f_t). The
  // covering check above guarantees the chain reaches n_0 == 1.
  const int depth = static_cast<int>(fanouts.size());
  std::vector<int> counts(static_cast<size_t>(depth) + 1);
  counts[static_cast<size_t>(depth)] = leaves;
  for (int t = depth; t >= 1; --t) {
    const int64_t n = counts[static_cast<size_t>(t)];
    const int64_t f = fanouts[static_cast<size_t>(t - 1)];
    counts[static_cast<size_t>(t - 1)] = static_cast<int>((n + f - 1) / f);
  }
  FGM_CHECK_EQ(counts[0], 1);

  out->counts_ = std::move(counts);
  out->fanouts_.assign(fanouts.begin(), fanouts.end());
  out->spec_ = "tree:";
  for (size_t i = 0; i < out->fanouts_.size(); ++i) {
    if (i > 0) out->spec_ += ',';
    out->spec_ += std::to_string(out->fanouts_[i]);
  }
  return true;
}

TreeTopology TreeTopology::Star(int leaves) {
  FGM_CHECK_GE(leaves, 1);
  TreeTopology topo;
  topo.counts_ = {1, leaves};
  topo.fanouts_ = {leaves};
  topo.spec_ = "tree:" + std::to_string(leaves);
  return topo;
}

int TreeTopology::ChildBegin(int tier, int node) const {
  FGM_CHECK(tier >= 0 && tier < depth());
  const int64_t np = counts_[static_cast<size_t>(tier)];
  const int64_t nc = counts_[static_cast<size_t>(tier) + 1];
  FGM_CHECK(node >= 0 && node < np);
  return static_cast<int>(static_cast<int64_t>(node) * nc / np);
}

int TreeTopology::ChildEnd(int tier, int node) const {
  FGM_CHECK(tier >= 0 && tier < depth());
  const int64_t np = counts_[static_cast<size_t>(tier)];
  const int64_t nc = counts_[static_cast<size_t>(tier) + 1];
  FGM_CHECK(node >= 0 && node < np);
  return static_cast<int>((static_cast<int64_t>(node) + 1) * nc / np);
}

int TreeTopology::Parent(int tier, int node) const {
  FGM_CHECK(tier >= 1 && tier <= depth());
  const int64_t np = counts_[static_cast<size_t>(tier) - 1];
  const int64_t nc = counts_[static_cast<size_t>(tier)];
  FGM_CHECK(node >= 0 && node < nc);
  // The parent p is the unique node with ⌊p·nc/np⌋ <= node < ⌊(p+1)·nc/np⌋,
  // i.e. the largest p with p·nc <= node·np + np - 1.
  return static_cast<int>(((static_cast<int64_t>(node) + 1) * np - 1) / nc);
}

int TreeTopology::LeavesUnder(int tier, int node) const {
  FGM_CHECK(tier >= 0 && tier <= depth());
  int begin = node;
  int end = node + 1;
  for (int t = tier; t < depth(); ++t) {
    begin = ChildBegin(t, begin);
    const int64_t np = counts_[static_cast<size_t>(t)];
    const int64_t nc = counts_[static_cast<size_t>(t) + 1];
    end = static_cast<int>(static_cast<int64_t>(end) * nc / np);
  }
  return end - begin;
}

}  // namespace hier
}  // namespace fgm
