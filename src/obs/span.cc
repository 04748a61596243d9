#include "obs/span.h"

#include <algorithm>
#include <cstdio>
#include <fstream>
#include <map>
#include <sstream>

#include "obs/json.h"
#include "util/check.h"

namespace fgm {

const char* SpanKindName(SpanKind kind) {
  switch (kind) {
    case SpanKind::kRun:
      return "run";
    case SpanKind::kRound:
      return "round";
    case SpanKind::kSubround:
      return "subround";
    case SpanKind::kRpc:
      return "rpc";
    case SpanKind::kMsg:
      return "msg";
    case SpanKind::kDatagram:
      return "datagram";
    case SpanKind::kResync:
      return "resync";
    case SpanKind::kKindCount:
      break;
  }
  return "unknown";
}

SpanSink::SpanSink() : epoch_(std::chrono::steady_clock::now()) {}

int64_t SpanSink::NowUnlocked() const {
  if (ticks_ != nullptr) return *ticks_;
  return std::chrono::duration_cast<std::chrono::nanoseconds>(
             std::chrono::steady_clock::now() - epoch_)
      .count();
}

void SpanSink::UseTickClock(const int64_t* ticks) {
  std::lock_guard<std::mutex> lock(mu_);
  ticks_ = ticks;
  // Spans opened on the wall clock (the run span precedes the network's
  // existence) are rebased so they still contain their tick-stamped
  // children.
  const int64_t now = NowUnlocked();
  for (const int64_t id : stack_) {
    Span& s = spans_[static_cast<size_t>(id - 1)];
    s.begin = now;
  }
}

int64_t SpanSink::Begin(SpanKind kind, int site, int64_t round,
                        int64_t subround, const char* label) {
  return BeginWithParent(kind, site, round, subround, label,
                         Span::kAutoParent);
}

int64_t SpanSink::BeginWithParent(SpanKind kind, int site, int64_t round,
                                  int64_t subround, const char* label,
                                  int64_t parent) {
  std::lock_guard<std::mutex> lock(mu_);
  Span s;
  s.id = static_cast<int64_t>(spans_.size()) + 1;
  s.parent = parent == Span::kAutoParent
                 ? (stack_.empty() ? 0 : stack_.back())
                 : parent;
  s.kind = kind;
  s.site = site;
  s.round = round;
  s.subround = subround;
  s.begin = NowUnlocked();
  s.end = 0;
  s.label = label;
  spans_.push_back(s);
  open_.push_back(1);
  stack_.push_back(s.id);
  return s.id;
}

void SpanSink::End(int64_t id, const char* reason) {
  std::lock_guard<std::mutex> lock(mu_);
  EndUnlocked(id, reason);
}

void SpanSink::EndWithStats(int64_t id, const char* reason, int64_t words,
                            int64_t count) {
  std::lock_guard<std::mutex> lock(mu_);
  FGM_CHECK(id >= 1 && id <= static_cast<int64_t>(spans_.size()));
  Span& s = spans_[static_cast<size_t>(id - 1)];
  s.words = words;
  s.count = count;
  EndUnlocked(id, reason);
}

void SpanSink::EndUnlocked(int64_t id, const char* reason) {
  FGM_CHECK(id >= 1 && id <= static_cast<int64_t>(spans_.size()));
  const size_t idx = static_cast<size_t>(id - 1);
  FGM_CHECK(open_[idx] != 0);
  Span& s = spans_[idx];
  s.end = std::max(NowUnlocked(), s.begin);
  if (reason != nullptr) s.reason = reason;
  open_[idx] = 0;
  // Usually the innermost scope; forced round ends close a subround from
  // inside a resync scope, so removal searches from the top.
  for (size_t i = stack_.size(); i > 0; --i) {
    if (stack_[i - 1] == id) {
      stack_.erase(stack_.begin() + static_cast<int64_t>(i - 1));
      return;
    }
  }
  FGM_CHECK(false);  // End() on a span that was never on the stack
}

void SpanSink::EmitComplete(Span span) {
  std::lock_guard<std::mutex> lock(mu_);
  span.id = static_cast<int64_t>(spans_.size()) + 1;
  if (span.parent == Span::kAutoParent) {
    span.parent = stack_.empty() ? 0 : stack_.back();
  }
  if (span.end == 0) span.end = span.begin;
  FGM_CHECK_GE(span.end, span.begin);
  spans_.push_back(span);
  open_.push_back(0);
}

void SpanSink::CloseAll(const char* reason) {
  std::lock_guard<std::mutex> lock(mu_);
  int64_t close_at = NowUnlocked();
  for (const Span& s : spans_) {
    close_at = std::max(close_at, std::max(s.begin, s.end));
  }
  while (!stack_.empty()) {
    const size_t idx = static_cast<size_t>(stack_.back() - 1);
    stack_.pop_back();
    Span& s = spans_[idx];
    s.end = close_at;
    if (s.reason == nullptr) s.reason = reason;
    open_[idx] = 0;
  }
}

int64_t SpanSink::root() const {
  std::lock_guard<std::mutex> lock(mu_);
  return spans_.empty() ? 0 : 1;
}

int64_t SpanSink::spans() const {
  std::lock_guard<std::mutex> lock(mu_);
  return static_cast<int64_t>(spans_.size());
}

int64_t SpanSink::open_spans() const {
  std::lock_guard<std::mutex> lock(mu_);
  return static_cast<int64_t>(stack_.size());
}

std::vector<Span> SpanSink::Snapshot() const {
  std::lock_guard<std::mutex> lock(mu_);
  return spans_;
}

std::string SpanSink::ChromeTraceJson() const {
  std::lock_guard<std::mutex> lock(mu_);
  JsonWriter w;
  w.BeginObject();
  w.Key("traceEvents");
  w.BeginArray();
  for (size_t i = 0; i < spans_.size(); ++i) {
    const Span& s = spans_[i];
    const bool is_open = open_[i] != 0;
    w.BeginObject();
    w.Field("name", SpanKindName(s.kind));
    w.Field("cat", "fgm");
    w.Field("ph", is_open ? "B" : "X");
    w.Field("ts", s.begin);
    if (!is_open) w.Field("dur", s.end - s.begin);
    w.Field("pid", int64_t{0});
    w.Field("tid", static_cast<int64_t>(s.site) + 1);
    w.Key("args");
    w.BeginObject();
    w.Field("id", s.id);
    w.Field("parent", s.parent);
    w.Field("kind", SpanKindName(s.kind));
    w.Field("site", static_cast<int64_t>(s.site));
    w.Field("round", s.round);
    w.Field("subround", s.subround);
    w.Field("words", s.words);
    w.Field("count", s.count);
    w.Field("dir", static_cast<int64_t>(s.dir));
    w.Field("transit", s.transit);
    w.Field("drain", s.drain);
    if (s.label != nullptr) w.Field("label", s.label);
    if (s.reason != nullptr) w.Field("reason", s.reason);
    w.EndObject();
    w.EndObject();
  }
  w.EndArray();
  w.Key("otherData");
  w.BeginObject();
  w.Field("clock", ticks_ != nullptr ? "sim-ticks" : "ns");
  w.EndObject();
  w.EndObject();
  return w.Take();
}

void SpanSink::WriteChromeTrace(const std::string& path) const {
  const std::string text = ChromeTraceJson();
  std::FILE* f = std::fopen(path.c_str(), "w");
  FGM_CHECK(f != nullptr);
  std::fwrite(text.data(), 1, text.size(), f);
  std::fputc('\n', f);
  std::fclose(f);
}

namespace {

int64_t ArgInt(const JsonNode& args, const char* key) {
  const JsonNode* v = args.Find(key);
  return v != nullptr ? v->AsInt(0) : 0;
}

std::string ArgStr(const JsonNode& args, const char* key) {
  const JsonNode* v = args.Find(key);
  return v != nullptr && v->type == JsonNode::Type::kString ? v->str
                                                           : std::string();
}

}  // namespace

bool ParseSpanJson(const std::string& text, std::vector<ParsedSpan>* out,
                   std::string* error) {
  out->clear();
  JsonNode doc;
  if (!ParseJson(text, &doc, error)) return false;
  if (doc.type != JsonNode::Type::kObject) {
    *error = "span document is not a JSON object";
    return false;
  }
  const JsonNode* events = doc.Find("traceEvents");
  if (events == nullptr || events->type != JsonNode::Type::kArray) {
    *error = "span document has no traceEvents array";
    return false;
  }
  for (const JsonNode& ev : events->items) {
    if (ev.type != JsonNode::Type::kObject) {
      *error = "traceEvents entry is not an object";
      return false;
    }
    // The fields every Chrome Trace Event viewer needs.
    for (const char* key : {"name", "ph", "ts", "pid", "tid"}) {
      if (ev.Find(key) == nullptr) {
        *error = std::string("traceEvents entry has no \"") + key + "\"";
        return false;
      }
    }
    const JsonNode* ph = ev.Find("ph");
    if (ph->type != JsonNode::Type::kString ||
        (ph->str != "X" && ph->str != "B")) {
      *error = "traceEvents entry has no X/B phase";
      return false;
    }
    const JsonNode* args = ev.Find("args");
    if (args == nullptr || args->type != JsonNode::Type::kObject) {
      *error = "traceEvents entry has no args object";
      return false;
    }
    ParsedSpan s;
    s.closed = ph->str == "X";
    s.begin = ev.Find("ts")->AsInt(0);
    const JsonNode* dur = ev.Find("dur");
    s.end = s.begin + (dur != nullptr ? dur->AsInt(0) : 0);
    s.id = ArgInt(*args, "id");
    s.parent = ArgInt(*args, "parent");
    s.kind = ArgStr(*args, "kind");
    s.site = static_cast<int>(ArgInt(*args, "site"));
    s.round = ArgInt(*args, "round");
    s.subround = ArgInt(*args, "subround");
    s.words = ArgInt(*args, "words");
    s.count = ArgInt(*args, "count");
    s.dir = static_cast<int>(ArgInt(*args, "dir"));
    s.transit = ArgInt(*args, "transit");
    s.drain = ArgInt(*args, "drain");
    s.label = ArgStr(*args, "label");
    s.reason = ArgStr(*args, "reason");
    out->push_back(std::move(s));
  }
  return true;
}

bool ReadSpanFile(const std::string& path, std::vector<ParsedSpan>* out,
                  std::string* error) {
  std::ifstream in(path);
  if (!in) {
    *error = "cannot open " + path;
    return false;
  }
  std::ostringstream text;
  text << in.rdbuf();
  return ParseSpanJson(text.str(), out, error);
}

std::vector<std::string> CheckSpans(const std::vector<ParsedSpan>& spans,
                                    int64_t expect_up_words,
                                    int64_t expect_down_words,
                                    SpanCheckStats* stats) {
  constexpr size_t kMaxIssues = 64;
  std::vector<std::string> issues;
  int64_t suppressed = 0;
  auto issue = [&](const std::string& what) {
    if (issues.size() < kMaxIssues) {
      issues.push_back(what);
    } else {
      ++suppressed;
    }
  };

  SpanCheckStats local;
  std::map<int64_t, const ParsedSpan*> by_id;
  for (const ParsedSpan& s : spans) {
    ++local.spans;
    if (s.id <= 0) {
      issue("span with non-positive id " + std::to_string(s.id));
      continue;
    }
    if (!by_id.emplace(s.id, &s).second) {
      issue("duplicate span id " + std::to_string(s.id));
    }
  }
  for (const ParsedSpan& s : spans) {
    const std::string where = "span " + std::to_string(s.id) + " (" +
                              s.kind + ")";
    if (!s.closed) {
      ++local.open;
      issue(where + " was never closed");
      continue;
    }
    if (s.end < s.begin) {
      issue(where + " ends before it begins");
    }
    if (s.parent != 0) {
      const auto it = by_id.find(s.parent);
      if (it == by_id.end()) {
        issue(where + " has unknown parent " + std::to_string(s.parent));
      } else {
        const ParsedSpan& p = *it->second;
        if (p.closed && (s.begin < p.begin || s.end > p.end)) {
          issue(where + " [" + std::to_string(s.begin) + "," +
                std::to_string(s.end) + "] escapes parent " +
                std::to_string(p.id) + " (" + p.kind + ") [" +
                std::to_string(p.begin) + "," + std::to_string(p.end) +
                "]");
        }
      }
    }
    if (s.kind == "msg" || s.kind == "datagram") {
      if (s.dir > 0) {
        local.msg_up_words += s.words;
      } else if (s.dir < 0) {
        local.msg_down_words += s.words;
      } else {
        issue(where + " has no direction");
      }
    }
  }
  if (expect_up_words >= 0 && local.msg_up_words != expect_up_words) {
    issue("upstream span words " + std::to_string(local.msg_up_words) +
          " != traced MsgSent words " + std::to_string(expect_up_words));
  }
  if (expect_down_words >= 0 && local.msg_down_words != expect_down_words) {
    issue("downstream span words " + std::to_string(local.msg_down_words) +
          " != traced MsgSent words " + std::to_string(expect_down_words));
  }
  if (suppressed > 0) {
    issues.push_back("... " + std::to_string(suppressed) +
                     " more violations suppressed");
  }
  if (stats != nullptr) *stats = local;
  return issues;
}

CriticalPathSummary SummarizeCriticalPath(
    const std::vector<ParsedSpan>& spans) {
  CriticalPathSummary out;
  for (const ParsedSpan& s : spans) {
    const int64_t dur = s.end - s.begin;
    if (s.kind == "run") {
      out.run_time += dur;
    } else if (s.kind == "round") {
      out.round_time += dur;
    } else if (s.kind == "rpc") {
      out.network_time += dur;
      if (s.count > 1) out.retransmits += s.count - 1;
    } else if (s.kind == "datagram") {
      out.network_time += s.transit;
    }
  }
  return out;
}

}  // namespace fgm
