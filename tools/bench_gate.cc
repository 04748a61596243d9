// CI bench regression gate.
//
//   ./build/tools/bench_gate --baseline=bench/baselines/BENCH_x.json
//       --current=BENCH_x.json [--update]
//
// Diffs two BENCH_*.json reports (bench/bench_common.h JsonReport format:
// {"bench": name, "runs": [{"x": label, ...fields...}], "scalars": {...}}).
// Runs are matched by their "x" label; every field present in the
// baseline must exist in the current report. Numbers must be equal and
// strings (protocol, query) identical: rounds, words, subrounds and
// estimates are deterministic for a fixed seed, so any drift is a
// behaviour change.
//
// Machine-dependent fields — name contains "wall", "second", "speedup",
// "per_sec", "ns_per" or "host_" — are skipped, so a report of timings
// alone (BENCH_micro) gates only its structure: every benchmark must
// still exist.
//
// --update inverts the gate: instead of diffing, it validates the
// current report (parseable JSON with a "bench" name) and copies its
// bytes over the baseline path, creating it if absent. This is the one
// sanctioned way to refresh bench/baselines/ after an intentional
// traffic change — the diff shows up in review as a plain file edit.
//
// Exit: 0 = every compared field equal, 1 = drift / missing data,
// 2 = usage or parse error.

#include <cstdint>
#include <cstdio>
#include <fstream>
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
/// (host_cores). Never compared.
bool IsTimeLike(const std::string& name) {
  for (const char* marker :
       {"wall", "second", "speedup", "per_sec", "ns_per", "host_"}) {
    if (name.find(marker) != std::string::npos) return true;
  }
  return false;
}

struct Gate {
  int64_t compared = 0;
  int64_t skipped = 0;
  std::vector<std::string> failures;

  void Fail(const std::string& what) { failures.push_back(what); }

  void Number(const std::string& where, const std::string& name, double base,
              double cur) {
    if (IsTimeLike(name)) {
      ++skipped;
      return;
    }
    ++compared;
    if (cur == base) return;
    std::printf("FAIL %s.%s: base=%.17g cur=%.17g\n", where.c_str(),
                name.c_str(), base, cur);
    Fail(where + "." + name + " drifted");
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
  // Validate prints one line per unknown flag or malformed value.
  if (!flags.Validate(nullptr) || baseline_path.empty() ||
      current_path.empty()) {
    std::fprintf(stderr,
                 "usage: bench_gate --baseline=BENCH_x.json "
                 "--current=BENCH_x.json [--update]\n");
    return 2;
  }
  Gate gate;

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
