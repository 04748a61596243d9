// Hostile single-field edits of two fixture traces: the runner's flat FGM
// trace (obs_fgm) and its lossy, crashing tree:4 trace (hier_tree_chaos).
// Every edit must be rejected, by the reader (ParseTraceEventJson) or by
// the replay checker. Only the edited line is re-parsed; the checker then
// replays the pre-parsed events with that one event swapped in.

#include <cstddef>
#include <cstdint>
#include <fstream>
#include <random>
#include <set>
#include <string>
#include <utility>
#include <vector>

#include <gtest/gtest.h>

#include "obs/json.h"
#include "obs/replay.h"
#include "obs/trace.h"

namespace fgm {
namespace {

/// One trace line as its (key, JSON text) members, in line order.
using Members = std::vector<std::pair<std::string, std::string>>;

std::string Text(const JsonNode& v) {
  switch (v.type) {
    case JsonNode::Type::kNumber:
      return v.is_int ? std::to_string(v.int_val) : JsonWriter::Number(v.num);
    case JsonNode::Type::kString:
      return JsonWriter::Quoted(v.str);
    case JsonNode::Type::kBool:
      return v.boolean ? "true" : "false";
    default:
      return "null";
  }
}

Members Split(const std::string& line) {
  JsonNode obj;
  std::string error;
  EXPECT_TRUE(ParseJson(line, &obj, &error)) << error;
  Members members;
  for (const auto& [key, value] : obj.members) {
    members.emplace_back(key, Text(value));
  }
  return members;
}

std::string Join(const Members& members) {
  std::string line = "{";
  for (const auto& [key, text] : members) {
    if (line.size() > 1) line += ',';
    line += JsonWriter::Quoted(key) + ":" + text;
  }
  return line + "}";
}

struct Fixture {
  std::vector<std::string> lines;
  std::vector<TraceEvent> events;
  std::set<std::string> keys;  ///< every key the trace holds
};

Fixture Load(const std::string& name) {
  Fixture f;
  std::ifstream in(std::string(FGM_FIXTURE_DIR) + "/" + name);
  EXPECT_TRUE(in.good()) << name;
  std::string line;
  while (std::getline(in, line)) {
    TraceEvent e;
    std::string error;
    EXPECT_TRUE(ParseTraceEventJson(line, &e, &error)) << error;
    f.lines.push_back(line);
    f.events.push_back(e);
  }
  return f;
}

/// True when the trace with line `i` replaced by `edited` is rejected.
bool Rejected(Fixture* f, size_t i, const std::string& edited,
              std::string* why) {
  TraceEvent e;
  if (!ParseTraceEventJson(edited, &e, why)) return true;
  const TraceEvent original = f->events[i];
  f->events[i] = e;
  const ReplayReport report = CheckTraceEvents(f->events);
  f->events[i] = original;
  *why = report.Summary();
  return !report.ok();
}

const std::set<std::string> kDoubleKeys = {
    "psi",      "theta",     "lambda",    "phi0",      "eps_psi",
    "psi_b",    "value",     "threshold", "alpha",     "beta",
    "gamma",    "pred_len",  "pred_gain", "pred_rate", "actual_gain"};
const std::set<std::string> kLabelKeys = {"msg",  "dir",      "reason",
                                          "rule", "topology", "protocol"};

/// Whether lines of `kind` may leave out `key`.
bool Optional(const std::string& kind, const std::string& key) {
  if (key == "tier" || key == "topology" || key == "leaves") return true;
  if (key == "reason") {
    return kind == "\"SubroundEnd\"" || kind == "\"IncrementMsg\"" ||
           kind == "\"AlertRaised\"" || kind == "\"AlertCleared\"";
  }
  return (key == "site" || key == "k") && kind == "\"SubroundEnd\"";
}

enum EditClass {
  kWrongType,
  kFraction,
  kNegative,       ///< a negative id, count or tick
  kNull,           ///< null outside a double field
  kDeleteRequired,
  kAddUnknown,     ///< a key the kind does not carry
  kBadLabel,       ///< an unknown or numeric label
  kOutOfRange,     ///< a site or tier no topology here announces
  kInt64Max,       ///< an INT64_MAX count
  kEditClasses,
};

/// Applies one edit of class `c` to line `m`; false when the line has no
/// field the class can edit.
bool Edit(EditClass c, const Fixture& f, std::mt19937_64& rng, Members* m) {
  const std::string kind = (*m)[0].second;
  if (c == kAddUnknown) {
    std::vector<std::string> foreign = {"bogus"};
    for (const std::string& key : f.keys) {
      bool carried = key == "reason" || Optional(kind, key);
      for (const auto& member : *m) carried = carried || member.first == key;
      if (!carried) foreign.push_back(key);
    }
    m->emplace_back(foreign[rng() % foreign.size()], "1");
    return true;
  }
  if (c == kOutOfRange && rng() % 2 == 0) {
    // The tree trace's tree:4 over 16 leaves has one aggregator tier.
    const std::string tier = std::to_string(2 + rng() % 1000000000);
    for (auto& member : *m) {
      if (member.first == "tier") {
        member.second = tier;
        return true;
      }
    }
    m->emplace_back("tier", tier);
    return true;
  }
  std::vector<size_t> at;
  for (size_t j = 0; j < m->size(); ++j) {
    const auto& [key, text] = (*m)[j];
    const bool integer = kDoubleKeys.count(key) == 0 && text[0] != '"';
    const bool fits[kEditClasses] = {
        true,
        integer,
        integer,
        kDoubleKeys.count(key) == 0,
        !Optional(kind, key),
        false,
        kLabelKeys.count(key) != 0,
        key == "site",
        integer && key != "site" && key != "tier" && key != "t",
    };
    if (fits[c]) at.push_back(j);
  }
  if (at.empty()) return false;
  const size_t j = at[rng() % at.size()];
  std::string& text = (*m)[j].second;
  switch (c) {
    case kWrongType: {
      static const char* kForNumber[] = {"\"7\"", "true", "[1]", "{}"};
      static const char* kForString[] = {"7", "false", "[\"x\"]", "{}"};
      text = text[0] == '"' ? kForString[rng() % 4] : kForNumber[rng() % 4];
      break;
    }
    case kFraction:
      text += ".5";
      break;
    case kNegative:
      text = std::to_string(-2 - static_cast<int64_t>(rng() % 1000));
      break;
    case kNull:
      text = "null";
      break;
    case kDeleteRequired:
      m->erase(m->begin() + static_cast<std::ptrdiff_t>(j));
      break;
    case kBadLabel:
      text = (*m)[j].first == "protocol" || rng() % 2 == 0 ? "3"
                                                         : "\"bogus\"";
      break;
    case kOutOfRange:  // no tier of these traces has 1000 endpoints
      text = std::to_string(1000 + rng() % 1000000000);
      break;
    case kInt64Max:
      text = "9223372036854775807";
      break;
    case kAddUnknown:
    case kEditClasses:
      break;
  }
  return true;
}

void SweepEdits(const std::string& name, int edits) {
  Fixture f = Load(name);
  ASSERT_FALSE(f.lines.empty());
  for (const std::string& line : f.lines) {
    const Members members = Split(line);
    ASSERT_EQ(Join(members), line);
    for (const auto& member : members) f.keys.insert(member.first);
  }
  const ReplayReport clean = CheckTraceEvents(f.events);
  ASSERT_TRUE(clean.ok()) << clean.Summary();
  std::mt19937_64 rng(24);
  for (int n = 0; n < edits; ++n) {
    const auto c = static_cast<EditClass>(n % kEditClasses);
    size_t i = 0;
    Members m;
    do {
      i = rng() % f.lines.size();
      m = Split(f.lines[i]);
    } while (!Edit(c, f, rng, &m));
    const std::string edited = Join(m);
    std::string why;
    EXPECT_TRUE(Rejected(&f, i, edited, &why))
        << "edit class " << c << " certified: " << edited << "\n" << why;
  }
}

TEST(TraceEdits, FlatFgmTraceRejectsEveryEdit) {
  SweepEdits("obs_fgm_trace.jsonl", 540);
}

TEST(TraceEdits, TreeChaosTraceRejectsEveryEdit) {
  SweepEdits("hier_tree_chaos_trace.jsonl", 540);
}

/// The first line of kind `ev` holding `"key":`, with that value replaced.
void ExpectEditRejected(Fixture* f, const std::string& ev,
                        const std::string& key, const std::string& value,
                        const std::string& also = "") {
  for (size_t i = 0; i < f->lines.size(); ++i) {
    const std::string& line = f->lines[i];
    if (line.find("\"ev\":\"" + ev + "\"") == std::string::npos ||
        line.find(also) == std::string::npos) {
      continue;
    }
    Members m = Split(line);
    for (auto& member : m) {
      if (member.first != key) continue;
      member.second = value;
      std::string why;
      EXPECT_TRUE(Rejected(f, i, Join(m), &why)) << Join(m) << "\n" << why;
      return;
    }
  }
  ADD_FAILURE() << "no " << ev << " line with \"" << key << "\"";
}

// Edits the reader used to fill with a default or cast, or the checker's
// sums overflowed on.
TEST(TraceEdits, NamedEditsAreRejected) {
  Fixture flat = Load("obs_fgm_trace.jsonl");
  const std::string max = "9223372036854775807";
  ExpectEditRejected(&flat, "MsgSent", "msg", "\"x\"");
  ExpectEditRejected(&flat, "MsgSent", "site", "-1");
  ExpectEditRejected(&flat, "DriftFlush", "words", max);
  ExpectEditRejected(&flat, "IncrementMsg", "subround", "\"x\"");
  ExpectEditRejected(&flat, "MsgSent", "words", "1e300");
  ExpectEditRejected(&flat, "MsgSent", "words", max);
  ExpectEditRejected(&flat, "RoundStart", "round", max);
  ExpectEditRejected(&flat, "SubroundStart", "subround", max);
  ExpectEditRejected(&flat, "IncrementMsg", "increment", max);
  Fixture tree = Load("hier_tree_chaos_trace.jsonl");
  ExpectEditRejected(&tree, "DriftFlush", "tier", "2000000000",
                     "\"tier\":1");
}

}  // namespace
}  // namespace fgm
