// CI bench regression gate.
//
//   ./build/tools/bench_gate --baseline=bench/baselines/BENCH_x.json
//       --current=BENCH_x.json [--tol=0.02] [--time_tol=0]
//       [--tol_field=name=T[,name=T...]] [--verbose]
//
// Diffs two BENCH_*.json reports (bench/bench_common.h JsonReport format:
// {"bench": name, "runs": [{"x": label, ...fields...}], "scalars": {...}}).
// Runs are matched by their "x" label; every numeric field present in the
// baseline must exist in the current report and stay within the relative
// tolerance; string fields (protocol, query) must match exactly.
//
// Machine-dependent fields — name contains "wall", "second", "speedup",
// "per_sec", "ns_per" or "host_" — are skipped unless --time_tol > 0 is
// given, in which case they are gated at that (looser) tolerance.
// Everything else (rounds, words, subrounds, estimates...) is
// deterministic for a fixed seed and gated at --tol; --tol=0 demands
// bit-exact equality.
//
// --tol_field=name=T[,name=T...] overrides the tolerance for individual
// fields by exact name, taking precedence over both --tol and the
// time-like skip — so one noisy field can be loosened (or a time-like
// field force-gated) without loosening the bit-exact --tol=0 gate on
// everything else.
//
// --update inverts the gate: instead of diffing, it validates the
// current report (parseable JSON with a "bench" name) and copies its
// bytes over the baseline path, creating it if absent. This is the one
// sanctioned way to refresh bench/baselines/ after an intentional
// traffic change — the diff shows up in review as a plain file edit.
//
// Exit: 0 = within tolerance, 1 = regression / missing data,
// 2 = usage or parse error.

#include <cmath>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <map>
#include <sstream>
#include <string>
#include <vector>

#include "obs/json.h"
#include "util/flags.h"

namespace {

bool ReadJsonFile(const std::string& path, fgm::JsonNode* out,
                  std::string* error) {
  std::ifstream in(path);
  if (!in) {
    *error = "cannot open " + path;
    return false;
  }
  std::ostringstream text;
  text << in.rdbuf();
  return fgm::ParseJson(text.str(), out, error);
}

/// Machine-dependent fields: wall-clock measurements plus host facts
/// (host_cores). Skipped unless --time_tol force-gates them.
bool IsTimeLike(const std::string& name) {
  for (const char* marker :
       {"wall", "second", "speedup", "per_sec", "ns_per", "host_"}) {
    if (name.find(marker) != std::string::npos) return true;
  }
  return false;
}

/// Parses "name=T[,name=T...]" into per-field tolerance overrides.
/// Returns false on an empty name or a non-numeric / negative value.
bool ParseFieldTols(const std::string& spec,
                    std::map<std::string, double>* out) {
  size_t pos = 0;
  while (pos < spec.size()) {
    size_t comma = spec.find(',', pos);
    if (comma == std::string::npos) comma = spec.size();
    const std::string item = spec.substr(pos, comma - pos);
    const size_t eq = item.find('=');
    if (eq == 0 || eq == std::string::npos) return false;
    const std::string name = item.substr(0, eq);
    char* end = nullptr;
    const double value = std::strtod(item.c_str() + eq + 1, &end);
    if (end == nullptr || *end != '\0' || value < 0.0) return false;
    (*out)[name] = value;
    pos = comma + 1;
  }
  return true;
}

struct Gate {
  double tol = 0.02;
  double time_tol = 0.0;  ///< 0 = skip time-like fields entirely
  /// Exact-name overrides (--tol_field); win over tol AND the
  /// time-like skip.
  std::map<std::string, double> field_tols;
  bool verbose = false;
  int64_t compared = 0;
  int64_t skipped = 0;
  std::vector<std::string> failures;

  void Fail(const std::string& what) { failures.push_back(what); }

  /// Relative comparison: |cur - base| <= tol * max(|base|, 1e-12).
  void Number(const std::string& where, const std::string& name, double base,
              double cur) {
    double limit = tol;
    const auto it = field_tols.find(name);
    if (it != field_tols.end()) {
      limit = it->second;
    } else if (IsTimeLike(name)) {
      if (time_tol <= 0.0) {
        ++skipped;
        return;
      }
      limit = time_tol;
    }
    ++compared;
    const double scale = std::max(std::fabs(base), 1e-12);
    const double rel = std::fabs(cur - base) / scale;
    const bool ok = rel <= limit;
    if (verbose || !ok) {
      std::printf("%s %s.%s: base=%.6g cur=%.6g rel=%.4g (tol %.4g)\n",
                  ok ? "ok  " : "FAIL", where.c_str(), name.c_str(), base,
                  cur, rel, limit);
    }
    if (!ok) {
      Fail(where + "." + name + " drifted beyond tolerance");
    }
  }

  void CompareMembers(const std::string& where, const fgm::JsonNode& base,
                      const fgm::JsonNode& cur) {
    for (const auto& [name, bval] : base.members) {
      const fgm::JsonNode* cval = cur.Find(name);
      if (cval == nullptr) {
        Fail(where + "." + name + " missing from current report");
        continue;
      }
      if (bval.type == fgm::JsonNode::Type::kNumber) {
        if (cval->type != fgm::JsonNode::Type::kNumber) {
          Fail(where + "." + name + " is no longer numeric");
          continue;
        }
        Number(where, name, bval.AsDouble(), cval->AsDouble());
      } else if (bval.type == fgm::JsonNode::Type::kString) {
        ++compared;
        if (cval->type != fgm::JsonNode::Type::kString ||
            cval->str != bval.str) {
          Fail(where + "." + name + ": \"" + bval.str + "\" != \"" +
               (cval->type == fgm::JsonNode::Type::kString ? cval->str
                                                           : "<non-string>") +
               "\"");
        }
      }
      // Nested objects/arrays inside a run are not part of the format.
    }
  }
};

const fgm::JsonNode* FindRun(const fgm::JsonNode& runs,
                             const std::string& label) {
  for (const fgm::JsonNode& run : runs.items) {
    const fgm::JsonNode* x = run.Find("x");
    if (x != nullptr && x->type == fgm::JsonNode::Type::kString &&
        x->str == label) {
      return &run;
    }
  }
  return nullptr;
}

}  // namespace

int main(int argc, char** argv) {
  fgm::Flags flags(argc, argv);
  const std::string baseline_path = flags.GetString("baseline", "");
  const std::string current_path = flags.GetString("current", "");
  const bool update = flags.GetBool("update", false);
  Gate gate;
  gate.tol = flags.GetDouble("tol", 0.02);
  gate.time_tol = flags.GetDouble("time_tol", 0.0);
  gate.verbose = flags.GetBool("verbose", false);
  const std::string tol_field = flags.GetString("tol_field", "");
  bool tol_field_ok = true;
  if (!tol_field.empty()) {
    tol_field_ok = ParseFieldTols(tol_field, &gate.field_tols);
  }
  // Validate prints one line per unknown flag or malformed value, so a
  // mistyped --tol cannot fall back to a looser default unnoticed.
  if (!flags.Validate(nullptr) || baseline_path.empty() ||
      current_path.empty() || !tol_field_ok) {
    if (!tol_field_ok) {
      std::fprintf(stderr, "bad --tol_field=%s (want name=T[,name=T...])\n",
                   tol_field.c_str());
    }
    std::fprintf(stderr,
                 "usage: bench_gate --baseline=BENCH_x.json "
                 "--current=BENCH_x.json [--tol=0.02] [--time_tol=0] "
                 "[--tol_field=name=T[,name=T...]] [--update] [--verbose]\n");
    return 2;
  }

  fgm::JsonNode baseline, current;
  std::string error;

  if (update) {
    // Refresh mode: validate the current report, then copy its bytes to
    // the baseline path verbatim (no reformatting — the committed file
    // stays byte-identical to what the bench wrote).
    if (!ReadJsonFile(current_path, &current, &error)) {
      std::fprintf(stderr, "bench_gate: %s: %s\n", current_path.c_str(),
                   error.c_str());
      return 2;
    }
    const fgm::JsonNode* name = current.Find("bench");
    if (name == nullptr || name->type != fgm::JsonNode::Type::kString ||
        name->str.empty()) {
      std::fprintf(stderr, "bench_gate: %s: missing \"bench\" name\n",
                   current_path.c_str());
      return 2;
    }
    std::ifstream in(current_path, std::ios::binary);
    std::ostringstream bytes;
    bytes << in.rdbuf();
    std::ofstream out(baseline_path, std::ios::binary | std::ios::trunc);
    if (!out) {
      std::fprintf(stderr, "bench_gate: cannot write %s\n",
                   baseline_path.c_str());
      return 2;
    }
    out << bytes.str();
    out.close();
    if (!out) {
      std::fprintf(stderr, "bench_gate: write to %s failed\n",
                   baseline_path.c_str());
      return 2;
    }
    std::printf("bench_gate %s: baseline %s updated from %s (%zu bytes)\n",
                name->str.c_str(), baseline_path.c_str(),
                current_path.c_str(), bytes.str().size());
    return 0;
  }

  if (!ReadJsonFile(baseline_path, &baseline, &error)) {
    std::fprintf(stderr, "bench_gate: %s: %s\n", baseline_path.c_str(),
                 error.c_str());
    return 2;
  }
  if (!ReadJsonFile(current_path, &current, &error)) {
    std::fprintf(stderr, "bench_gate: %s: %s\n", current_path.c_str(),
                 error.c_str());
    return 2;
  }

  const fgm::JsonNode* base_name = baseline.Find("bench");
  const fgm::JsonNode* cur_name = current.Find("bench");
  if (base_name == nullptr || cur_name == nullptr ||
      base_name->str != cur_name->str) {
    std::fprintf(stderr, "bench_gate: bench name mismatch (\"%s\" vs \"%s\")\n",
                 base_name != nullptr ? base_name->str.c_str() : "?",
                 cur_name != nullptr ? cur_name->str.c_str() : "?");
    return 1;
  }

  const fgm::JsonNode* base_runs = baseline.Find("runs");
  const fgm::JsonNode* cur_runs = current.Find("runs");
  if (base_runs != nullptr && cur_runs != nullptr) {
    for (const fgm::JsonNode& run : base_runs->items) {
      const fgm::JsonNode* x = run.Find("x");
      const std::string label =
          x != nullptr && x->type == fgm::JsonNode::Type::kString ? x->str
                                                                  : "?";
      const fgm::JsonNode* cur_run = FindRun(*cur_runs, label);
      if (cur_run == nullptr) {
        gate.Fail("run \"" + label + "\" missing from current report");
        continue;
      }
      gate.CompareMembers("run[" + label + "]", run, *cur_run);
    }
  } else if (base_runs != nullptr) {
    gate.Fail("current report has no runs array");
  }

  const fgm::JsonNode* base_scalars = baseline.Find("scalars");
  const fgm::JsonNode* cur_scalars = current.Find("scalars");
  if (base_scalars != nullptr) {
    if (cur_scalars == nullptr) {
      gate.Fail("current report has no scalars object");
    } else {
      gate.CompareMembers("scalars", *base_scalars, *cur_scalars);
    }
  }

  std::printf(
      "bench_gate %s: %lld comparisons, %lld time-like skipped, %zu "
      "failures\n",
      base_name->str.c_str(), static_cast<long long>(gate.compared),
      static_cast<long long>(gate.skipped), gate.failures.size());
  for (const std::string& f : gate.failures) {
    std::printf("FAIL: %s\n", f.c_str());
  }
  return gate.failures.empty() ? 0 : 1;
}
