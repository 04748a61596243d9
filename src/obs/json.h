// Minimal JSON emission and parsing for the observability layer (trace
// sinks, metrics export, bench reports, replay checker).
//
// The writer is a streaming emitter with automatic comma placement;
// doubles are printed with %.17g so every value round-trips bit-exactly
// through text — the replay checker relies on this to re-verify protocol
// arithmetic (θ = -ψ/2k and friends) on decoded values. One parser reads
// every document, from a JSONL trace line to a nested metrics file, and
// rejects a number token unless it parses in full.

#ifndef FGM_OBS_JSON_H_
#define FGM_OBS_JSON_H_

#include <cstdint>
#include <string>
#include <vector>

namespace fgm {

class JsonWriter {
 public:
  /// Renders a double with round-trip precision. Non-finite values (JSON
  /// has no inf/nan) serialize as `null`; parsers on this side map null
  /// numeric fields back to NaN.
  static std::string Number(double value);
  /// Quotes and escapes a string.
  static std::string Quoted(const std::string& value);

  void BeginObject();
  void EndObject();
  void BeginArray();
  void EndArray();
  void Key(const std::string& name);
  void String(const std::string& value);
  void Int(int64_t value);
  void Double(double value);
  void Bool(bool value);

  /// Convenience: Key + scalar.
  void Field(const std::string& name, const std::string& value);
  void Field(const std::string& name, const char* value);
  void Field(const std::string& name, int64_t value);
  void Field(const std::string& name, double value);
  void Field(const std::string& name, bool value);

  const std::string& str() const { return out_; }
  std::string Take() { return std::move(out_); }

 private:
  void Separate();

  std::string out_;
  std::vector<bool> has_item_;  // per open scope: already holds an item
  bool pending_key_ = false;
};

/// One node of a parsed JSON document (general, nested). Numbers keep
/// the double reading, and the int64 one only when the syntax was
/// integral; null numeric fields read back as NaN through AsDouble().
struct JsonNode {
  enum class Type { kNull, kBool, kNumber, kString, kArray, kObject };
  Type type = Type::kNull;
  bool boolean = false;
  double num = 0.0;
  int64_t int_val = 0;
  bool is_int = false;
  std::string str;
  std::vector<JsonNode> items;  // kArray elements
  std::vector<std::pair<std::string, JsonNode>> members;  // kObject, in order

  /// Member lookup (kObject only); nullptr when absent.
  const JsonNode* Find(const std::string& key) const;
  /// Number as double; NaN for null, `fallback` for any other non-number.
  double AsDouble(double fallback = 0.0) const;
  /// Number with integral syntax; `fallback` for any other value.
  int64_t AsInt(int64_t fallback = 0) const;
};

/// Parses a complete JSON document (objects, arrays, scalars, nesting).
/// Returns false and sets `*error` on malformed input: a number token
/// must parse in full, an integral one must fit int64, and a double must
/// not overflow. Used by the replay checker for each trace line and by
/// the offline analysis tools (fgm_report, bench_gate) for the nested
/// metrics / time-series / BENCH_*.json files.
bool ParseJson(const std::string& text, JsonNode* out, std::string* error);

}  // namespace fgm

#endif  // FGM_OBS_JSON_H_
