#include "sim/net_config.h"

#include <algorithm>
#include <cmath>
#include <cstdlib>

namespace fgm {
namespace sim {

namespace {

/// Splits `text` on `sep`, dropping empty pieces.
std::vector<std::string> Split(const std::string& text, char sep) {
  std::vector<std::string> out;
  size_t start = 0;
  while (start <= text.size()) {
    size_t end = text.find(sep, start);
    if (end == std::string::npos) end = text.size();
    if (end > start) out.push_back(text.substr(start, end - start));
    start = end + 1;
  }
  return out;
}

// Latency parameters above this many ticks are rejected, so every
// sampled delay converts to the int64 tick clock exactly.
constexpr double kMaxLatencyTicks = 1099511627776.0;  // 2^40

/// Parses a whole, finite number (strtod alone accepts "nan" and "inf").
bool ParseNumber(const std::string& text, double* out) {
  if (text.empty()) return false;
  char* end = nullptr;
  *out = std::strtod(text.c_str(), &end);
  return end != nullptr && *end == '\0' && std::isfinite(*out);
}

bool ParseLatency(const std::string& text, double* out) {
  return ParseNumber(text, out) && *out >= 0.0 && *out <= kMaxLatencyTicks;
}

bool ParseCount(const std::string& text, int64_t* out) {
  double value = 0.0;
  if (!ParseNumber(text, &value)) return false;
  // Range-check before the cast: converting a double outside int64's
  // range is undefined behaviour.
  if (!(value >= 0.0 && value < 9223372036854775808.0) ||
      value != std::floor(value)) {
    return false;
  }
  *out = static_cast<int64_t>(value);
  return true;
}

/// Parses "key=value" pairs from a comma-separated clause body.
bool ParsePairs(const std::string& body,
                std::vector<std::pair<std::string, std::string>>* out) {
  for (const std::string& pair : Split(body, ',')) {
    const size_t eq = pair.find('=');
    if (eq == std::string::npos || eq == 0 || eq + 1 >= pair.size()) {
      return false;
    }
    out->emplace_back(pair.substr(0, eq), pair.substr(eq + 1));
  }
  return true;
}

}  // namespace

bool ParseLatencySpec(const std::string& spec, LatencySpec* out) {
  *out = LatencySpec{};
  if (spec.empty() || spec == "0") return true;
  const size_t colon = spec.find(':');
  if (colon == std::string::npos) return false;
  const std::string kind = spec.substr(0, colon);
  const std::string args = spec.substr(colon + 1);
  if (kind == "fixed") {
    out->kind = LatencySpec::Kind::kFixed;
    if (!ParseLatency(args, &out->a)) return false;
    if (out->a == 0.0) out->kind = LatencySpec::Kind::kZero;
    return true;
  }
  if (kind == "uniform") {
    const size_t dash = args.find('-');
    if (dash == std::string::npos) return false;
    out->kind = LatencySpec::Kind::kUniform;
    return ParseLatency(args.substr(0, dash), &out->a) &&
           ParseLatency(args.substr(dash + 1), &out->b) && out->b >= out->a;
  }
  if (kind == "exp") {
    out->kind = LatencySpec::Kind::kExp;
    return ParseLatency(args, &out->a) && out->a > 0.0;
  }
  return false;
}

bool ParseFaultPlan(const std::string& plan, int sites,
                    std::vector<FaultTransition>* out) {
  out->clear();
  for (const std::string& clause : Split(plan, ';')) {
    const size_t colon = clause.find(':');
    if (colon == std::string::npos) return false;
    const std::string verb = clause.substr(0, colon);
    std::vector<std::pair<std::string, std::string>> pairs;
    if (!ParsePairs(clause.substr(colon + 1), &pairs)) return false;
    int64_t site = -1, start = -1, stop = -1;
    for (const auto& [key, value] : pairs) {
      int64_t* slot = nullptr;
      if (key == "site") {
        slot = &site;
      } else if ((verb == "crash" && key == "at") ||
                 (verb == "outage" && key == "from")) {
        slot = &start;
      } else if ((verb == "crash" && key == "rejoin") ||
                 (verb == "outage" && key == "to")) {
        slot = &stop;
      } else {
        return false;
      }
      if (!ParseCount(value, slot)) return false;
    }
    if (verb != "crash" && verb != "outage") return false;
    if (site < 0 || site >= sites || start < 1) return false;
    if (verb == "outage" && stop < 0) return false;  // outages must end
    if (stop >= 0 && stop <= start) return false;
    const char* reason = verb == "crash" ? kReasonCrash : kReasonOutage;
    out->push_back({start, static_cast<int>(site), /*up=*/false, reason});
    if (stop >= 0) {
      out->push_back({stop, static_cast<int>(site), /*up=*/true, reason});
    }
  }
  std::stable_sort(out->begin(), out->end(),
                   [](const FaultTransition& a, const FaultTransition& b) {
                     return a.at < b.at;
                   });
  // Reject overlapping windows: per site, transitions must alternate
  // down/up starting from up.
  std::vector<char> down(static_cast<size_t>(sites), 0);
  for (const FaultTransition& t : *out) {
    if (down[static_cast<size_t>(t.site)] == (t.up ? 0 : 1)) return false;
    down[static_cast<size_t>(t.site)] = t.up ? 0 : 1;
  }
  return true;
}

}  // namespace sim
}  // namespace fgm
