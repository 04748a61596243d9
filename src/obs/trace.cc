#include "obs/trace.h"

#include <array>
#include <climits>
#include <iterator>
#include <set>
#include <span>

#include "net/network.h"
#include "obs/health.h"
#include "obs/json.h"
#include "util/check.h"

namespace fgm {
namespace {

// ---------------------------------------------------------------------------
// The JSONL schema. Each kind's row lists its fields in line order; every
// line starts with "ev" and "seq" and ends with "tier" on tree-tier events.

enum class FieldType : uint8_t {
  kInt,    ///< integer in [min, INT_MAX] into an `int` member
  kCount,  ///< integer in [0, INT64_MAX] into an `int64_t` member
  kReal,   ///< number (null = non-finite) into a `double` member
  kDir,    ///< "up" (dir = +1) or "down" (dir = -1)
  kLabel,  ///< string from `labels` (any string when empty)
};

/// When a field is on the line.
enum class Presence : uint8_t {
  kAlways,
  kWithReason,  ///< exactly when the event's `reason` is set
  kWithTier,    ///< exactly when `tier != 0`
};

struct Field {
  const char* key = nullptr;  ///< nullptr ends a kind's row
  FieldType type = FieldType::kInt;
  Presence presence = Presence::kAlways;
  int TraceEvent::*int_member = nullptr;
  int64_t TraceEvent::*count_member = nullptr;
  double TraceEvent::*real_member = nullptr;
  const char* TraceEvent::*label_member = nullptr;
  std::span<const char* const> labels = {};
  int min = 0;  ///< kInt: -1 where the coordinator stands in for a site
};

constexpr Field Int(const char* key, int TraceEvent::*member, int min = 0,
                    Presence presence = Presence::kAlways) {
  return {.key = key, .type = FieldType::kInt, .presence = presence,
          .int_member = member, .min = min};
}

constexpr Field Count(const char* key, int64_t TraceEvent::*member,
                      Presence presence = Presence::kAlways) {
  return {.key = key, .type = FieldType::kCount, .presence = presence,
          .count_member = member};
}

constexpr Field Real(const char* key, double TraceEvent::*member) {
  return {.key = key, .type = FieldType::kReal, .real_member = member};
}

constexpr Field Label(const char* key, const char* TraceEvent::*member,
                      std::span<const char* const> labels = {},
                      Presence presence = Presence::kAlways) {
  return {.key = key, .type = FieldType::kLabel, .presence = presence,
          .label_member = member, .labels = labels};
}

// The reasons each kind's emitters give, and no others.
constexpr const char* kPollReasons[] = {kReasonResync, kReasonReconfig,
                                        kReasonDeadline, kReasonRebaseline};
constexpr const char* kIncrementReasons[] = {kReasonTimeoutPoll};
constexpr const char* kCrossReasons[] = {kReasonPsiExhausted,
                                         kReasonLocalViolation};
constexpr const char* kDropReasons[] = {kReasonLoss};
constexpr const char* kDownReasons[] = {kReasonCrash, kReasonOutage};
constexpr const char* kResyncReasons[] = {kReasonRejoin, kReasonReconfig};
constexpr const char* kAlertReasons[] = {kReasonDown, kReasonRejoin,
                                         kReasonSlow};

constexpr Field kSeq = Count("seq", &TraceEvent::seq);
constexpr Field kTier = Int("tier", &TraceEvent::tier, 1, Presence::kWithTier);
constexpr Field kRound = Count("round", &TraceEvent::round);
constexpr Field kSubround = Count("subround", &TraceEvent::subround);
constexpr Field kSite = Int("site", &TraceEvent::site);
constexpr Field kK = Int("k", &TraceEvent::k);
constexpr Field kPsi = Real("psi", &TraceEvent::psi);
constexpr Field kWords = Count("words", &TraceEvent::words);
constexpr Field kTick = Count("t", &TraceEvent::t);
constexpr Field kMsg = Label("msg", &TraceEvent::label, kMsgKindNames);
constexpr Field kDir{.key = "dir", .type = FieldType::kDir};
constexpr Field kPredGain = Real("pred_gain", &TraceEvent::pred_gain);
constexpr Field kUpWords = Count("up_words", &TraceEvent::up_words);
constexpr Field kDownWords = Count("down_words", &TraceEvent::down_words);
constexpr Field kUpMsgs = Count("up_msgs", &TraceEvent::up_msgs);
constexpr Field kDownMsgs = Count("down_msgs", &TraceEvent::down_msgs);

struct KindSchema {
  TraceEventKind kind;
  const char* name;
  std::array<Field, 7> fields;
};

// `rule` names the alert rule; `site` is -1 for run-global rules. `value`
// is the observed metric, `threshold` the level it crossed (raise) or
// recovered under (clear).
constexpr std::array<Field, 7> kAlertFields = {
    Label("rule", &TraceEvent::label, kAlertRuleNames),
    Int("site", &TraceEvent::site, -1),
    kRound,
    Real("value", &TraceEvent::value),
    Real("threshold", &TraceEvent::theta),
    kTick,
    Label("reason", &TraceEvent::reason, kAlertReasons,
          Presence::kWithReason)};

constexpr KindSchema kSchema[] = {
    // Tree runs announce their topology spec and leaf count, and `k` is
    // the root's fan-in; flat runs carry neither.
    {TraceEventKind::kRunStart, "RunStart",
     {Label("protocol", &TraceEvent::label), kK,
      Label("topology", &TraceEvent::reason, {}, Presence::kWithReason),
      Count("leaves", &TraceEvent::counter, Presence::kWithReason)}},
    {TraceEventKind::kRoundStart, "RoundStart",
     {kRound, kK, kPsi, Real("phi0", &TraceEvent::value),
      Real("eps_psi", &TraceEvent::eps)}},
    {TraceEventKind::kSubroundStart, "SubroundStart",
     {kRound, kSubround, kPsi, Real("theta", &TraceEvent::theta)}},
    // Forced polls carry a reason; an aggregator's local poll (tier ≥ 1)
    // names the polling node and its fan-in.
    {TraceEventKind::kSubroundEnd, "SubroundEnd",
     {kRound, kSubround, kPsi, Count("counter", &TraceEvent::counter),
      Label("reason", &TraceEvent::reason, kPollReasons,
            Presence::kWithReason),
      Int("site", &TraceEvent::site, 0, Presence::kWithTier),
      Int("k", &TraceEvent::k, 0, Presence::kWithTier)}},
    {TraceEventKind::kIncrementMsg, "IncrementMsg",
     {kRound, kSubround, kSite, Count("increment", &TraceEvent::counter),
      Label("reason", &TraceEvent::reason, kIncrementReasons,
            Presence::kWithReason)}},
    {TraceEventKind::kDriftFlush, "DriftFlush",
     {kRound, kSite, kWords, Count("updates", &TraceEvent::count)}},
    {TraceEventKind::kRebalance, "Rebalance",
     {kRound, Real("lambda", &TraceEvent::lambda),
      Real("psi_b", &TraceEvent::value), kPsi}},
    {TraceEventKind::kThresholdCross, "ThresholdCross",
     {kRound, Int("site", &TraceEvent::site, -1), kPsi,
      Real("value", &TraceEvent::value),
      Label("reason", &TraceEvent::label, kCrossReasons)}},
    {TraceEventKind::kMsgSent, "MsgSent", {kSite, kMsg, kDir, kWords}},
    {TraceEventKind::kPlanChosen, "PlanChosen",
     {kRound, Count("full_sites", &TraceEvent::counter), kK,
      Real("pred_len", &TraceEvent::pred_len), kPredGain,
      Real("pred_rate", &TraceEvent::pred_rate)}},
    {TraceEventKind::kPlanSite, "PlanSite",
     {kRound, kSite, Count("d", &TraceEvent::counter),
      Real("alpha", &TraceEvent::alpha), Real("beta", &TraceEvent::beta),
      Real("gamma", &TraceEvent::gamma)}},
    {TraceEventKind::kPlanOutcome, "PlanOutcome",
     {kRound, Count("updates", &TraceEvent::count), kWords, kPredGain,
      Real("actual_gain", &TraceEvent::actual_gain)}},
    {TraceEventKind::kMsgDelivered, "MsgDelivered",
     {kSite, kMsg, kDir, kWords, kTick}},
    {TraceEventKind::kMsgDropped, "MsgDropped",
     {kSite, kMsg, kDir, kWords, kTick,
      Label("reason", &TraceEvent::reason, kDropReasons)}},
    {TraceEventKind::kSiteDown, "SiteDown",
     {kSite, kTick, Label("reason", &TraceEvent::reason, kDownReasons)}},
    {TraceEventKind::kSiteResync, "SiteResync",
     {kSite, kRound, kWords, kTick,
      Label("reason", &TraceEvent::reason, kResyncReasons)}},
    {TraceEventKind::kAlertRaised, "AlertRaised", kAlertFields},
    {TraceEventKind::kAlertCleared, "AlertCleared", kAlertFields},
    // A tree run's per-tier traffic ledger: the words and messages on the
    // links between tier-`tier` nodes and their children, and in `k` the
    // count of those children. Once per tier, before RunEnd.
    {TraceEventKind::kTierEnd, "TierEnd",
     {kK, kUpWords, kDownWords, kUpMsgs, kDownMsgs}},
    {TraceEventKind::kRunEnd, "RunEnd",
     {Count("events", &TraceEvent::count), kUpWords, kDownWords, kUpMsgs,
      kDownMsgs}},
};

static_assert([] {
  for (size_t i = 0; i < std::size(kSchema); ++i) {
    if (kSchema[i].kind != static_cast<TraceEventKind>(i)) return false;
  }
  return std::size(kSchema) == static_cast<size_t>(TraceEventKind::kKindCount);
}(), "one kSchema row per TraceEventKind, in enum order");

/// Calls `fn` on each field of `kind` in line order, "seq" first and
/// "tier" last; returns false as soon as `fn` does.
template <typename Fn>
bool ForEachField(TraceEventKind kind, Fn&& fn) {
  if (!fn(kSeq)) return false;
  const auto row = static_cast<size_t>(kind);
  if (row < std::size(kSchema)) {
    for (const Field& f : kSchema[row].fields) {
      if (f.key == nullptr) break;
      if (!fn(f)) return false;
    }
  }
  return fn(kTier);
}

bool Present(const Field& f, const TraceEvent& e) {
  return f.presence == Presence::kAlways ||
         (f.presence == Presence::kWithReason ? e.reason != nullptr
                                              : e.tier != 0);
}

/// Free-form labels must outlive the parsed event; interning into a
/// process-lifetime set gives them static storage.
const char* Intern(const std::string& s) {
  static std::set<std::string>* pool = new std::set<std::string>();
  return pool->insert(s).first->c_str();
}

/// Stores JSON value `v` into the member `f` names; false when `v` is not
/// a legal value of `f`.
bool ReadField(const Field& f, const JsonNode& v, TraceEvent* e) {
  using Type = JsonNode::Type;
  switch (f.type) {
    case FieldType::kInt:
      if (v.type != Type::kNumber || !v.is_int || v.int_val < f.min ||
          v.int_val > INT_MAX) {
        return false;
      }
      e->*f.int_member = static_cast<int>(v.int_val);
      return true;
    case FieldType::kCount:
      if (v.type != Type::kNumber || !v.is_int || v.int_val < 0) return false;
      e->*f.count_member = v.int_val;
      return true;
    case FieldType::kReal:
      if (v.type != Type::kNumber && v.type != Type::kNull) return false;
      e->*f.real_member = v.AsDouble();
      return true;
    case FieldType::kDir:
      if (v.type != Type::kString || (v.str != "up" && v.str != "down")) {
        return false;
      }
      e->dir = v.str == "up" ? 1 : -1;
      return true;
    case FieldType::kLabel:
      if (v.type != Type::kString) return false;
      if (f.labels.empty()) {
        e->*f.label_member = Intern(v.str);
        return true;
      }
      for (const char* label : f.labels) {
        if (v.str == label) {
          e->*f.label_member = label;
          return true;
        }
      }
      return false;
  }
  return false;
}

}  // namespace

const char* TraceEventKindName(TraceEventKind kind) {
  const auto row = static_cast<size_t>(kind);
  return row < std::size(kSchema) ? kSchema[row].name : "unknown";
}

JsonlTraceSink::JsonlTraceSink(const std::string& path)
    : out_(std::fopen(path.c_str(), "w")) {
  FGM_CHECK(out_ != nullptr);
}

JsonlTraceSink::~JsonlTraceSink() {
  if (out_ != nullptr) std::fclose(out_);
}

std::string JsonlTraceSink::EventJson(const TraceEvent& e) {
  JsonWriter w;
  w.BeginObject();
  w.Field("ev", TraceEventKindName(e.kind));
  ForEachField(e.kind, [&](const Field& f) {
    if (!Present(f, e)) return true;
    switch (f.type) {
      case FieldType::kInt:
        w.Field(f.key, static_cast<int64_t>(e.*f.int_member));
        break;
      case FieldType::kCount:
        w.Field(f.key, e.*f.count_member);
        break;
      case FieldType::kReal:
        w.Field(f.key, e.*f.real_member);
        break;
      case FieldType::kDir:
        w.Field(f.key, e.dir > 0 ? "up" : "down");
        break;
      case FieldType::kLabel: {
        const char* label = e.*f.label_member;
        w.Field(f.key, label != nullptr ? label : "?");
        break;
      }
    }
    return true;
  });
  w.EndObject();
  return w.Take();
}

void JsonlTraceSink::OnEvent(const TraceEvent& event) {
  const std::string line = EventJson(event);
  std::fwrite(line.data(), 1, line.size(), out_);
  std::fputc('\n', out_);
}

bool ParseTraceEventJson(const std::string& line, TraceEvent* event,
                         std::string* error) {
  JsonNode obj;
  if (!ParseJson(line, &obj, error)) return false;
  if (obj.type != JsonNode::Type::kObject) {
    *error = "trace line is not a JSON object";
    return false;
  }
  const JsonNode* ev = obj.Find("ev");
  const KindSchema* row = nullptr;
  if (ev != nullptr && ev->type == JsonNode::Type::kString) {
    for (const KindSchema& k : kSchema) {
      if (ev->str == k.name) row = &k;
    }
  }
  if (row == nullptr) {
    *error = "missing or unknown \"ev\" kind";
    return false;
  }
  *event = TraceEvent{};
  event->kind = row->kind;
  size_t read = 1;  // "ev"
  const bool legal = ForEachField(row->kind, [&](const Field& f) {
    const JsonNode* v = obj.Find(f.key);
    if (v == nullptr) {
      if (f.presence != Presence::kAlways) return true;
      *error = std::string("missing \"") + f.key + "\"";
      return false;
    }
    ++read;
    if (ReadField(f, *v, event)) return true;
    *error = std::string("illegal \"") + f.key + "\" value";
    return false;
  });
  if (!legal) return false;
  // No key the kind does not carry, and none twice.
  if (read != obj.members.size()) {
    *error = std::string("unexpected or repeated key in ") + row->name;
    return false;
  }
  // An optional field is on the line exactly when its condition holds.
  return ForEachField(row->kind, [&](const Field& f) {
    if (f.presence == Presence::kAlways ||
        (obj.Find(f.key) != nullptr) == Present(f, *event)) {
      return true;
    }
    *error = std::string("\"") + f.key + "\" without its condition";
    return false;
  });
}

}  // namespace fgm
