#include "obs/json.h"

#include <cctype>
#include <cerrno>
#include <cmath>
#include <cstdio>
#include <cstdlib>

#include "util/check.h"

namespace fgm {

std::string JsonWriter::Number(double value) {
  // JSON has no inf/nan; both serialize as null so traces stay parseable
  // (a raw `inf` token would invalidate the whole JSONL line). Parsers map
  // null numeric fields back to NaN, keeping "non-finite" observable.
  if (!std::isfinite(value)) return "null";
  char buf[40];
  std::snprintf(buf, sizeof(buf), "%.17g", value);
  return buf;
}

std::string JsonWriter::Quoted(const std::string& value) {
  std::string out;
  out.reserve(value.size() + 2);
  out.push_back('"');
  for (const char c : value) {
    switch (c) {
      case '"':
        out += "\\\"";
        break;
      case '\\':
        out += "\\\\";
        break;
      case '\n':
        out += "\\n";
        break;
      case '\t':
        out += "\\t";
        break;
      case '\r':
        out += "\\r";
        break;
      default:
        if (static_cast<unsigned char>(c) < 0x20) {
          char buf[8];
          std::snprintf(buf, sizeof(buf), "\\u%04x",
                        static_cast<unsigned>(static_cast<unsigned char>(c)));
          out += buf;
        } else {
          out.push_back(c);
        }
    }
  }
  out.push_back('"');
  return out;
}

void JsonWriter::Separate() {
  if (pending_key_) {
    pending_key_ = false;
    return;
  }
  if (!has_item_.empty()) {
    if (has_item_.back()) out_.push_back(',');
    has_item_.back() = true;
  }
}

void JsonWriter::BeginObject() {
  Separate();
  out_.push_back('{');
  has_item_.push_back(false);
}

void JsonWriter::EndObject() {
  FGM_CHECK(!has_item_.empty());
  has_item_.pop_back();
  out_.push_back('}');
}

void JsonWriter::BeginArray() {
  Separate();
  out_.push_back('[');
  has_item_.push_back(false);
}

void JsonWriter::EndArray() {
  FGM_CHECK(!has_item_.empty());
  has_item_.pop_back();
  out_.push_back(']');
}

void JsonWriter::Key(const std::string& name) {
  Separate();
  out_ += Quoted(name);
  out_.push_back(':');
  pending_key_ = true;
}

void JsonWriter::String(const std::string& value) {
  Separate();
  out_ += Quoted(value);
}

void JsonWriter::Int(int64_t value) {
  Separate();
  char buf[24];
  std::snprintf(buf, sizeof(buf), "%lld", static_cast<long long>(value));
  out_ += buf;
}

void JsonWriter::Double(double value) {
  Separate();
  out_ += Number(value);
}

void JsonWriter::Bool(bool value) {
  Separate();
  out_ += value ? "true" : "false";
}

void JsonWriter::Field(const std::string& name, const std::string& value) {
  Key(name);
  String(value);
}

void JsonWriter::Field(const std::string& name, const char* value) {
  Key(name);
  String(value);
}

void JsonWriter::Field(const std::string& name, int64_t value) {
  Key(name);
  Int(value);
}

void JsonWriter::Field(const std::string& name, double value) {
  Key(name);
  Double(value);
}

void JsonWriter::Field(const std::string& name, bool value) {
  Key(name);
  Bool(value);
}

namespace {

void SkipSpace(const std::string& s, size_t* i) {
  while (*i < s.size() && std::isspace(static_cast<unsigned char>(s[*i]))) {
    ++*i;
  }
}

bool ParseString(const std::string& s, size_t* i, std::string* out,
                 std::string* error) {
  if (*i >= s.size() || s[*i] != '"') {
    *error = "expected string";
    return false;
  }
  ++*i;
  out->clear();
  while (*i < s.size() && s[*i] != '"') {
    char c = s[*i];
    if (c == '\\') {
      ++*i;
      if (*i >= s.size()) {
        *error = "truncated escape";
        return false;
      }
      switch (s[*i]) {
        case '"':
          c = '"';
          break;
        case '\\':
          c = '\\';
          break;
        case 'n':
          c = '\n';
          break;
        case 't':
          c = '\t';
          break;
        case 'r':
          c = '\r';
          break;
        case 'u': {
          if (*i + 4 >= s.size()) {
            *error = "truncated \\u escape";
            return false;
          }
          const unsigned long code =
              std::strtoul(s.substr(*i + 1, 4).c_str(), nullptr, 16);
          *i += 4;
          c = static_cast<char>(code & 0x7f);
          break;
        }
        default:
          *error = "unknown escape";
          return false;
      }
    }
    out->push_back(c);
    ++*i;
  }
  if (*i >= s.size()) {
    *error = "unterminated string";
    return false;
  }
  ++*i;  // closing quote
  return true;
}

// A string, true/false/null, or a number. A number token is the run of
// characters a JSON number can hold, and strtod (and strtoll when the
// token is integral) must consume all of it: "1-2", "1e" and a lone "-"
// fail instead of reading as a prefix. Integral tokens must fit int64 and
// doubles must not overflow; subnormals, which the %.17g writer can
// print, still parse.
bool ParseScalar(const std::string& s, size_t* i, JsonNode* out,
                 std::string* error) {
  const char c = s[*i];
  if (c == '"') {
    out->type = JsonNode::Type::kString;
    return ParseString(s, i, &out->str, error);
  }
  if (s.compare(*i, 4, "true") == 0) {
    out->type = JsonNode::Type::kBool;
    out->boolean = true;
    *i += 4;
    return true;
  }
  if (s.compare(*i, 5, "false") == 0) {
    out->type = JsonNode::Type::kBool;
    out->boolean = false;
    *i += 5;
    return true;
  }
  if (s.compare(*i, 4, "null") == 0) {
    out->type = JsonNode::Type::kNull;
    *i += 4;
    return true;
  }
  size_t end = *i;
  bool integral = true;
  while (end < s.size() &&
         (std::isdigit(static_cast<unsigned char>(s[end])) || s[end] == '-' ||
          s[end] == '+' || s[end] == '.' || s[end] == 'e' || s[end] == 'E')) {
    if (s[end] == '.' || s[end] == 'e' || s[end] == 'E') integral = false;
    ++end;
  }
  if (end == *i) {
    *error = "expected value";
    return false;
  }
  const std::string token = s.substr(*i, end - *i);
  const char* const first = token.c_str();
  const char* const last = first + token.size();
  char* stop = nullptr;
  errno = 0;
  const double num = std::strtod(first, &stop);
  if (stop != last) {
    *error = "malformed number '" + token + "'";
    return false;
  }
  if (errno == ERANGE && std::isinf(num)) {
    *error = "number overflows a double '" + token + "'";
    return false;
  }
  out->type = JsonNode::Type::kNumber;
  out->num = num;
  out->is_int = integral;
  if (integral) {
    errno = 0;
    const long long value = std::strtoll(first, &stop, 10);
    if (stop != last || errno == ERANGE) {
      *error = "integer outside int64 '" + token + "'";
      return false;
    }
    out->int_val = value;
  }
  *i = end;
  return true;
}

// Recursive-descent parser over ParseScalar.
bool ParseNode(const std::string& s, size_t* i, JsonNode* out,
               std::string* error, int depth) {
  if (depth > 64) {
    *error = "nesting too deep";
    return false;
  }
  SkipSpace(s, i);
  if (*i >= s.size()) {
    *error = "expected value";
    return false;
  }
  const char c = s[*i];
  if (c == '{') {
    out->type = JsonNode::Type::kObject;
    ++*i;
    SkipSpace(s, i);
    if (*i < s.size() && s[*i] == '}') {
      ++*i;
      return true;
    }
    while (true) {
      SkipSpace(s, i);
      std::string key;
      if (!ParseString(s, i, &key, error)) return false;
      SkipSpace(s, i);
      if (*i >= s.size() || s[*i] != ':') {
        *error = "expected ':'";
        return false;
      }
      ++*i;
      JsonNode child;
      if (!ParseNode(s, i, &child, error, depth + 1)) return false;
      out->members.emplace_back(std::move(key), std::move(child));
      SkipSpace(s, i);
      if (*i < s.size() && s[*i] == ',') {
        ++*i;
        continue;
      }
      if (*i < s.size() && s[*i] == '}') {
        ++*i;
        return true;
      }
      *error = "expected ',' or '}'";
      return false;
    }
  }
  if (c == '[') {
    out->type = JsonNode::Type::kArray;
    ++*i;
    SkipSpace(s, i);
    if (*i < s.size() && s[*i] == ']') {
      ++*i;
      return true;
    }
    while (true) {
      JsonNode child;
      if (!ParseNode(s, i, &child, error, depth + 1)) return false;
      out->items.push_back(std::move(child));
      SkipSpace(s, i);
      if (*i < s.size() && s[*i] == ',') {
        ++*i;
        continue;
      }
      if (*i < s.size() && s[*i] == ']') {
        ++*i;
        return true;
      }
      *error = "expected ',' or ']'";
      return false;
    }
  }
  return ParseScalar(s, i, out, error);
}

}  // namespace

const JsonNode* JsonNode::Find(const std::string& key) const {
  for (const auto& [name, node] : members) {
    if (name == key) return &node;
  }
  return nullptr;
}

double JsonNode::AsDouble(double fallback) const {
  if (type == Type::kNumber) return num;
  // Null numeric fields are the writer's encoding of inf/nan.
  if (type == Type::kNull) return std::nan("");
  return fallback;
}

int64_t JsonNode::AsInt(int64_t fallback) const {
  return type == Type::kNumber && is_int ? int_val : fallback;
}

bool ParseJson(const std::string& text, JsonNode* out, std::string* error) {
  *out = JsonNode();
  size_t i = 0;
  if (!ParseNode(text, &i, out, error, 0)) return false;
  SkipSpace(text, &i);
  if (i != text.size()) {
    *error = "trailing characters after document";
    return false;
  }
  return true;
}

}  // namespace fgm
