// Shared infrastructure for the per-figure benchmark binaries.
//
// The paper's evaluation uses day 46 of the WorldCup'98 trace: 50.3M
// requests at 27 mirrors over 24 hours, with sketch sizes D ∈ {7000,
// 21000, 35000} and windows of 1–4 hours. A laptop reproduction cannot
// sweep dozens of 50M-update runs, so every benchmark scales the trace
// down and scales D with it, keeping the dimensionless ratio
//     stream length / (k · D)
// that governs the normalized comm.cost — the quantity all figures plot —
// comparable to the paper's. Window lengths stay in real (simulated)
// seconds, so they cover the same fraction of the day.
//
// Environment knobs:
//   FGM_BENCH_SCALE  — multiplies the trace length (default 1.0; the
//                      default trace is ~1.2M updates ≈ 1/42 of the
//                      paper's day). Larger values sharpen the numbers at
//                      proportionally larger runtime.
//   FGM_BENCH_OUT    — directory for the machine-readable BENCH_<name>.json
//                      reports (default: the working directory).

#ifndef FGM_BENCH_BENCH_COMMON_H_
#define FGM_BENCH_BENCH_COMMON_H_

#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <string>
#include <utility>
#include <vector>

#include "driver/runner.h"
#include "obs/json.h"
#include "stream/partition.h"
#include "stream/worldcup.h"
#include "util/table.h"

namespace fgm {
namespace bench {

inline constexpr double kPaperUpdates = 50.3e6;
inline constexpr int kPaperSites = 27;
inline constexpr int kSketchDepth = 5;

struct BenchScale {
  int64_t updates;

  double sigma() const {
    return static_cast<double>(updates) / kPaperUpdates;
  }

  /// Scales a paper sketch dimension D to this run, returned as the width
  /// of a depth-kSketchDepth Fast-AGMS sketch.
  int WidthForPaperD(double paper_d) const {
    const double scaled = paper_d * sigma() / kSketchDepth;
    const int width = static_cast<int>(scaled + 0.5);
    return width < 8 ? 8 : width;
  }
};

inline BenchScale DefaultScale() {
  double multiplier = 1.0;
  if (const char* env = std::getenv("FGM_BENCH_SCALE")) {
    multiplier = std::strtod(env, nullptr);
    if (multiplier <= 0) multiplier = 1.0;
  }
  BenchScale scale;
  scale.updates = static_cast<int64_t>(1200000.0 * multiplier);
  return scale;
}

/// The day-46-like synthetic trace at 27 sites (generated once per
/// binary).
inline std::vector<StreamRecord> PaperTrace(const BenchScale& scale) {
  WorldCupConfig config;
  config.sites = kPaperSites;
  config.total_updates = scale.updates;
  config.duration = 86400.0;
  config.distinct_clients =
      static_cast<uint64_t>(40000.0 * scale.sigma() * 50.0) + 10000;
  return GenerateWorldCupTrace(config);
}

/// Base run configuration for the sketch queries.
inline RunConfig BaseConfig(QueryKind query, int sites, double paper_d,
                            double epsilon, double window_seconds,
                            const BenchScale& scale) {
  RunConfig config;
  config.query = query;
  config.sites = sites;
  config.depth = kSketchDepth;
  config.width = scale.WidthForPaperD(paper_d);
  config.epsilon = epsilon;
  config.window_seconds = window_seconds;
  // Sparse sanity checks: confirms the guarantee during benches at ~0 cost.
  config.check_every = 20000;
  return config;
}

inline std::string Fmt(const char* format, double value) {
  char buf[64];
  std::snprintf(buf, sizeof(buf), format, value);
  return buf;
}

/// Machine-readable figure data: each benchmark binary registers its name
/// once (Init), every run lands in the report as one JSON object, and the
/// report is written to FGM_BENCH_OUT/BENCH_<name>.json when the process
/// exits. The JSON carries the full RunResult, so figure data can be
/// regenerated without re-parsing the printed tables.
class JsonReport {
 public:
  static JsonReport& Get() {
    static JsonReport* report = new JsonReport();  // survives exit paths
    return *report;
  }

  void Init(const std::string& bench_name) { name_ = bench_name; }

  /// Records one experiment run under the figure's x-axis label.
  void AddRun(const std::string& x_label, const RunResult& r) {
    JsonWriter w;
    w.BeginObject();
    w.Field("x", x_label);
    w.Field("protocol", r.protocol_name);
    w.Field("query", r.query_name);
    w.Field("events", r.events);
    w.Field("rounds", r.rounds);
    w.Field("subrounds", r.subrounds);
    w.Field("rebalances", r.rebalances);
    w.Field("total_words", r.traffic.total_words());
    w.Field("upstream_words", r.traffic.upstream_words);
    w.Field("downstream_words", r.traffic.downstream_words);
    w.Field("comm_cost", r.comm_cost);
    w.Field("upstream_fraction", r.upstream_fraction);
    w.Field("max_violation", r.max_violation);
    w.Field("wall_seconds", r.wall_seconds);
    w.EndObject();
    runs_.push_back(w.Take());
    Arm();
  }

  /// Records a standalone named value (area measurements, counters).
  void AddScalar(const std::string& name, double value) {
    scalars_.emplace_back(name, value);
    Arm();
  }

  /// Records one row of a custom table (benches that do not go through
  /// RunResult): an x-axis label plus named numeric fields.
  void AddEntry(
      const std::string& x_label,
      std::initializer_list<std::pair<const char*, double>> fields) {
    JsonWriter w;
    w.BeginObject();
    w.Field("x", x_label);
    for (const auto& field : fields) w.Field(field.first, field.second);
    w.EndObject();
    runs_.push_back(w.Take());
    Arm();
  }

  void Write() {
    if (name_.empty() || written_ || (runs_.empty() && scalars_.empty())) {
      return;
    }
    written_ = true;
    std::string dir = ".";
    if (const char* env = std::getenv("FGM_BENCH_OUT")) {
      if (env[0] != '\0') dir = env;
    }
    std::string out = "{\"bench\":" + JsonWriter::Quoted(name_) +
                      ",\"runs\":[";
    for (size_t i = 0; i < runs_.size(); ++i) {
      if (i > 0) out += ',';
      out += runs_[i];
    }
    out += "],\"scalars\":{";
    for (size_t i = 0; i < scalars_.size(); ++i) {
      if (i > 0) out += ',';
      out += JsonWriter::Quoted(scalars_[i].first) + ":" +
             JsonWriter::Number(scalars_[i].second);
    }
    out += "}}";
    const std::string path = dir + "/BENCH_" + name_ + ".json";
    if (std::FILE* f = std::fopen(path.c_str(), "w")) {
      std::fwrite(out.data(), 1, out.size(), f);
      std::fputc('\n', f);
      std::fclose(f);
      std::printf("figure data: %s\n", path.c_str());
    } else {
      std::fprintf(stderr, "cannot write %s\n", path.c_str());
    }
  }

 private:
  JsonReport() = default;

  // Flush on normal process exit once there is something to write.
  void Arm() {
    if (!armed_) {
      armed_ = true;
      std::atexit([] { Get().Write(); });
    }
  }

  std::string name_;
  std::vector<std::string> runs_;
  std::vector<std::pair<std::string, double>> scalars_;
  bool armed_ = false;
  bool written_ = false;
};

/// Columns shared by the figure tables. Feeds the run into the JsonReport
/// as a side effect, so table-driven benches export their figure data
/// without extra calls.
inline std::vector<std::string> ResultRow(const std::string& x_label,
                                          const RunResult& r) {
  JsonReport::Get().AddRun(x_label, r);
  return {x_label,
          r.protocol_name,
          Fmt("%.4f", r.comm_cost),
          Fmt("%.1f%%", 100.0 * r.upstream_fraction),
          TablePrinter::Cell(r.rounds),
          Fmt("%.2g", r.max_violation)};
}

inline std::vector<std::string> ResultColumns(const std::string& x_name) {
  return {x_name, "protocol", "comm.cost", "upstream%", "rounds",
          "bound overshoot"};
}

}  // namespace bench
}  // namespace fgm

#endif  // FGM_BENCH_BENCH_COMMON_H_
