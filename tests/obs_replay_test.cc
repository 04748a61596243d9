// End-to-end replay validation: every protocol kind, run under strict
// wire accounting, produces a JSONL trace that the offline checker
// certifies, with summed per-message words bit-matching the run's
// TrafficStats. Also exercises the checker's failure paths on tampered
// and missing traces.

#include <cctype>
#include <cstdio>
#include <fstream>
#include <sstream>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "driver/runner.h"
#include "obs/replay.h"
#include "stream/worldcup.h"

namespace fgm {
namespace {

std::vector<StreamRecord> SmallTrace(int sites) {
  WorldCupConfig config;
  config.sites = sites;
  config.total_updates = 30000;
  config.duration = 86400.0;
  config.distinct_clients = 20000;
  return GenerateWorldCupTrace(config);
}

RunConfig SmallRun(ProtocolKind kind, const std::string& trace_path) {
  RunConfig config;
  config.protocol = kind;
  config.sites = 5;
  config.depth = 5;
  config.width = 60;
  config.epsilon = 0.1;
  config.strict_wire = true;
  config.trace_out = trace_path;
  return config;
}

class ReplayAllProtocols : public ::testing::TestWithParam<ProtocolKind> {};

TEST_P(ReplayAllProtocols, TraceCertifiesAndWordsMatch) {
  const ProtocolKind kind = GetParam();
  const std::string path = ::testing::TempDir() + "/replay_" +
                           std::to_string(static_cast<int>(kind)) + ".jsonl";
  const RunConfig config = SmallRun(kind, path);
  const RunResult result = ::fgm::Run(config, SmallTrace(config.sites));

  const ReplayReport report = CheckTraceFile(path);
  EXPECT_TRUE(report.ok()) << report.Summary();
  EXPECT_TRUE(report.saw_run_end);
  EXPECT_GT(report.events, 0);
  // Summed per-message trace words bit-match the run's TrafficStats.
  EXPECT_EQ(report.up_words, result.traffic.upstream_words);
  EXPECT_EQ(report.down_words, result.traffic.downstream_words);
  std::remove(path.c_str());
}

INSTANTIATE_TEST_SUITE_P(
    AllKinds, ReplayAllProtocols,
    ::testing::Values(ProtocolKind::kCentral, ProtocolKind::kGm,
                      ProtocolKind::kFgmBasic, ProtocolKind::kFgm,
                      ProtocolKind::kFgmOpt),
    [](const ::testing::TestParamInfo<ProtocolKind>& info) {
      switch (info.param) {
        case ProtocolKind::kCentral:
          return std::string("Central");
        case ProtocolKind::kGm:
          return std::string("Gm");
        case ProtocolKind::kFgmBasic:
          return std::string("FgmBasic");
        case ProtocolKind::kFgm:
          return std::string("Fgm");
        case ProtocolKind::kFgmOpt:
          return std::string("FgmOpt");
      }
      return std::string("Unknown");
    });

TEST(ReplayChecker, GmTraceTalliesRoundsAndFlushes) {
  const std::string path = ::testing::TempDir() + "/replay_gm_tally.jsonl";
  const RunConfig config = SmallRun(ProtocolKind::kGm, path);
  const RunResult result = ::fgm::Run(config, SmallTrace(config.sites));

  const ReplayReport report = CheckTraceFile(path);
  EXPECT_TRUE(report.ok()) << report.Summary();
  EXPECT_EQ(report.rounds, result.rounds);
  EXPECT_GT(report.messages, 0);
  // GM has no FGM/O optimizer, so the trace carries no plan audit.
  EXPECT_EQ(report.plans, 0);
  EXPECT_EQ(report.plan_outcomes, 0);
  std::remove(path.c_str());
}

TEST(ReplayChecker, FgmOTraceCarriesPlanAudit) {
  const std::string path = ::testing::TempDir() + "/replay_fgmo_plan.jsonl";
  const RunConfig config = SmallRun(ProtocolKind::kFgmOpt, path);
  const RunResult result = ::fgm::Run(config, SmallTrace(config.sites));

  const ReplayReport report = CheckTraceFile(path);
  EXPECT_TRUE(report.ok()) << report.Summary();
  // One PlanChosen per round; one PlanOutcome per *completed* round (the
  // final round ends with the run, so its outcome is never observed).
  EXPECT_EQ(report.plans, result.rounds);
  EXPECT_EQ(report.plan_outcomes, result.rounds - 1);
  std::remove(path.c_str());
}

/// Replaces the number following `"field":` on the first line containing
/// `"ev":"<ev>"` with `replacement`; returns the tampered trace text.
std::string TamperFirst(const std::string& path, const std::string& ev,
                        const std::string& field,
                        const std::string& replacement, bool* corrupted) {
  std::ifstream in(path);
  EXPECT_TRUE(in.is_open());
  std::string tampered, line;
  const std::string key = "\"" + field + "\":";
  *corrupted = false;
  while (std::getline(in, line)) {
    const size_t at = line.find(key);
    if (!*corrupted &&
        line.find("\"ev\":\"" + ev + "\"") != std::string::npos &&
        at != std::string::npos) {
      size_t begin = at + key.size();
      size_t end = begin;
      while (end < line.size() && line[end] != ',' && line[end] != '}') {
        ++end;
      }
      line.replace(begin, end - begin, replacement);
      *corrupted = true;
    }
    tampered += line + "\n";
  }
  return tampered;
}

// The per-round ledger check: a PlanOutcome's words must re-sum the
// round's MsgSent events bit-exactly.
TEST(ReplayChecker, DetectsTamperedPlanOutcomeWords) {
  const std::string path = ::testing::TempDir() + "/replay_plan_words.jsonl";
  const RunConfig config = SmallRun(ProtocolKind::kFgmOpt, path);
  ::fgm::Run(config, SmallTrace(config.sites));

  bool corrupted = false;
  const std::string tampered =
      TamperFirst(path, "PlanOutcome", "words", "999999999", &corrupted);
  std::remove(path.c_str());
  ASSERT_TRUE(corrupted) << "expected a PlanOutcome in the FGM/O trace";

  std::istringstream in(tampered);
  const ReplayReport report = CheckTrace(in);
  EXPECT_FALSE(report.ok()) << "tampered PlanOutcome words must be detected";
}

// An outcome's actual_gain is updates - words, and its pred_gain restates
// its round's PlanChosen.
TEST(ReplayChecker, DetectsTamperedPlanOutcomeGain) {
  const std::string path = ::testing::TempDir() + "/replay_plan_gain.jsonl";
  const RunConfig config = SmallRun(ProtocolKind::kFgmOpt, path);
  ::fgm::Run(config, SmallTrace(config.sites));

  for (const char* field : {"actual_gain", "pred_gain"}) {
    bool corrupted = false;
    const std::string tampered =
        TamperFirst(path, "PlanOutcome", field, "12345.5", &corrupted);
    ASSERT_TRUE(corrupted) << field;
    std::istringstream in(tampered);
    const ReplayReport report = CheckTrace(in);
    EXPECT_FALSE(report.ok()) << field;
    EXPECT_TRUE(report.read_error.empty()) << report.read_error;
  }
  std::remove(path.c_str());
}

// The run ledger booked in the replay's one pass re-adds to the run's own
// totals: rounds, words by direction and kind, flushes and the plan audit.
TEST(ReplayLedger, RestatesTheRunTotals) {
  const std::string path = ::testing::TempDir() + "/replay_ledger.jsonl";
  const RunConfig config = SmallRun(ProtocolKind::kFgmOpt, path);
  const RunResult result = ::fgm::Run(config, SmallTrace(config.sites));

  const ReplayReport report = CheckTraceFile(path);
  std::remove(path.c_str());
  ASSERT_TRUE(report.ok()) << report.Summary();
  EXPECT_TRUE(report.read_error.empty()) << report.read_error;
  EXPECT_EQ(report.protocol, "FGM/O");
  EXPECT_EQ(report.k, config.sites);
  EXPECT_EQ(report.last_round(), result.rounds);
  EXPECT_EQ(report.run_up_words, result.traffic.upstream_words);
  EXPECT_EQ(report.run_down_words, result.traffic.downstream_words);

  int64_t up = 0, down = 0, msgs = 0, subrounds = 0, plans = 0, outcomes = 0;
  TrafficStats by_kind;
  for (const RoundRow& r : report.round_rows) {
    up += r.up_words;
    down += r.down_words;
    msgs += r.msgs;
    subrounds += r.subrounds;
    plans += r.has_plan ? 1 : 0;
    outcomes += r.has_outcome ? 1 : 0;
    for (size_t i = 0; i < r.words_by_kind.size(); ++i) {
      by_kind.words_by_kind[i] += r.words_by_kind[i];
    }
  }
  EXPECT_EQ(up, result.traffic.upstream_words);
  EXPECT_EQ(down, result.traffic.downstream_words);
  EXPECT_EQ(by_kind.words_by_kind, result.traffic.words_by_kind);
  EXPECT_EQ(msgs, report.messages);
  EXPECT_EQ(subrounds, result.subrounds);
  EXPECT_EQ(plans, report.plans);
  EXPECT_EQ(outcomes, report.plan_outcomes);

  int64_t flushes = 0, increments = 0;
  for (const auto& [site, s] : report.site_rows) {
    EXPECT_LT(site, config.sites);
    flushes += s.flushes;
    increments += s.increments;
  }
  EXPECT_EQ(flushes, report.flushes);
  EXPECT_EQ(increments, report.increments);
}

// The first line the ledger cannot book is named, and fails the replay.
TEST(ReplayLedger, ReadErrorNamesTheFirstUnbookableLine) {
  const std::string path = ::testing::TempDir() + "/replay_unbookable.jsonl";
  const RunConfig config = SmallRun(ProtocolKind::kFgm, path);
  ::fgm::Run(config, SmallTrace(config.sites));

  bool corrupted = false;
  const std::string tampered =
      TamperFirst(path, "SubroundStart", "round", "99", &corrupted);
  ASSERT_TRUE(corrupted);
  // Counts that sum past INT64_MAX, which no sum of ledger entries may.
  const std::string overflow = TamperFirst(
      path, "DriftFlush", "words", "9223372036854775807", &corrupted);
  std::remove(path.c_str());
  ASSERT_TRUE(corrupted);
  std::istringstream lines(tampered);
  std::string line;
  int64_t n = 1;
  while (std::getline(lines, line) &&
         line.find("\"ev\":\"SubroundStart\"") == std::string::npos) {
    ++n;
  }
  {
    std::istringstream in(tampered);
    const ReplayReport report = CheckTrace(in);
    EXPECT_FALSE(report.ok());
    EXPECT_EQ(report.read_error, "line " + std::to_string(n) +
                                     ": round 99 has no RoundStart");
  }
  {
    std::istringstream in("\n" + tampered.substr(0, tampered.find('\n')) +
                          "\nnot json\n");
    const ReplayReport report = CheckTrace(in);
    EXPECT_FALSE(report.ok());
    EXPECT_EQ(report.read_error.rfind("line 2: ", 0), 0u) << report.read_error;
  }
  {
    std::istringstream in(overflow);
    const ReplayReport report = CheckTrace(in);
    EXPECT_FALSE(report.ok());
    EXPECT_NE(report.read_error.find(": counts overflow int64"),
              std::string::npos)
        << report.read_error;
  }
  // Before the first RoundStart every event names round 0, so a trace
  // the ledger cannot book never certifies.
  std::vector<TraceEvent> events(3);
  events[0].k = config.sites;
  events[0].label = "FGM";
  events[1].kind = TraceEventKind::kThresholdCross;
  events[1].seq = 1;
  events[1].label = kReasonLocalViolation;
  events[1].value = 1.0;
  events[2].kind = TraceEventKind::kRunEnd;
  events[2].seq = 2;
  events[2].count = 2;
  EXPECT_TRUE(CheckTraceEvents(events).ok());
  events[1].round = 3;
  const ReplayReport early = CheckTraceEvents(events);
  EXPECT_FALSE(early.ok());
  EXPECT_EQ(early.read_error, "line 2: round 3 has no RoundStart");
}

TEST(ReplayChecker, DetectsTamperedCounterTotal) {
  const std::string path = ::testing::TempDir() + "/replay_tamper.jsonl";
  const RunConfig config = SmallRun(ProtocolKind::kFgm, path);
  ::fgm::Run(config, SmallTrace(config.sites));

  // Corrupt the first poll's counter total; the quantum arithmetic check
  // must flag it.
  std::ifstream in(path);
  ASSERT_TRUE(in.is_open());
  std::string tampered, line;
  bool corrupted = false;
  while (std::getline(in, line)) {
    const size_t at = line.find("\"counter\":");
    if (!corrupted && line.find("\"ev\":\"SubroundEnd\"") != std::string::npos &&
        at != std::string::npos) {
      size_t digits_begin = at + std::string("\"counter\":").size();
      size_t digits_end = digits_begin;
      while (digits_end < line.size() && std::isdigit(line[digits_end])) {
        ++digits_end;
      }
      line.replace(digits_begin, digits_end - digits_begin, "999999999");
      corrupted = true;
    }
    tampered += line + "\n";
  }
  in.close();
  std::remove(path.c_str());
  ASSERT_TRUE(corrupted) << "expected at least one SubroundEnd in the trace";

  std::istringstream tampered_in(tampered);
  const ReplayReport report = CheckTrace(tampered_in);
  EXPECT_FALSE(report.ok()) << "tampered counter must be detected";
}

TEST(ReplayChecker, MissingFileIsAnIssue) {
  const std::string path = ::testing::TempDir() + "/no_such_trace.jsonl";
  const ReplayReport report = CheckTraceFile(path);
  EXPECT_FALSE(report.ok());
  EXPECT_EQ(report.read_error, "cannot open " + path);
}

}  // namespace
}  // namespace fgm
