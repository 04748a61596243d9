#include "exec/parallel_runner.h"

#include <algorithm>
#include <chrono>

#include "obs/span.h"
#include "util/check.h"

namespace fgm {

namespace {

double SecondsSince(std::chrono::steady_clock::time_point start) {
  return std::chrono::duration<double>(std::chrono::steady_clock::now() -
                                       start)
      .count();
}

}  // namespace

ParallelRunner::ParallelRunner(FgmProtocol* protocol,
                               ParallelRunnerOptions options)
    : protocol_(protocol),
      opts_(options),
      pool_(options.threads),
      shards_(static_cast<size_t>(protocol->topology().leaves())),
      series_(static_cast<size_t>(protocol->topology().leaves())),
      horizon_(kMinHorizon, kMaxHorizon) {
  FGM_CHECK(protocol->SupportsSpeculation());
}

void ParallelRunner::Process(const StreamRecord* records, int64_t count) {
  int64_t done = 0;
  while (done < count) {
    const int64_t window = std::min(horizon_.horizon(), count - done);
    int64_t soft = 0;
    bool hard = false;
    const int64_t consumed = RunWindow(records + done, window, &soft, &hard);
    FGM_CHECK_GE(consumed, 1);
    done += consumed;
    horizon_.OnWindow(consumed, window, hard);
    if (soft > 0) horizon_.NoteSoftDensity(soft, consumed);
  }
}

int64_t ParallelRunner::BeginWindow(const StreamRecord* records,
                                    int64_t count) {
  ++windows_;
  active_.clear();
  site_of_.resize(static_cast<size_t>(count));
  for (int64_t pos = 0; pos < count; ++pos) {
    const int32_t s = records[pos].site;
    FGM_CHECK(s >= 0 && s < static_cast<int32_t>(shards_.size()));
    site_of_[static_cast<size_t>(pos)] = s;
    Shard& shard = shards_[static_cast<size_t>(s)];
    if (shard.positions.empty()) active_.push_back(s);
    shard.positions.push_back(pos);
  }
  // The shards' positions partition the window, so every speculated
  // record is either committed or wasted past a barrier
  // (speculated = committed + wasted).
  int64_t placed = 0;
  for (int s : active_) {
    placed += static_cast<int64_t>(
        shards_[static_cast<size_t>(s)].positions.size());
  }
  FGM_CHECK_EQ(placed, count);
  if (opts_.spans == nullptr) return 0;
  // Explicitly parented to the run: the commit below may open protocol
  // round/subround scopes that stay open across windows, so the stack
  // top is not a valid causal parent here.
  return opts_.spans->BeginWithParent(SpanKind::kSpeculate, -1, 0, 0, nullptr,
                                      opts_.spans->root());
}

void ParallelRunner::EmitShardSpans(int64_t window_span) {
  SpanSink* const spans = opts_.spans;
  if (spans == nullptr) return;
  // Barrier-wait: from a shard's own finish to the slowest shard's
  // finish (approximated by the join instant) — the blocked time that
  // explains sub-linear speedup.
  const int64_t join_tick = spans->Now();
  for (int s : active_) {
    const Shard& shard = shards_[static_cast<size_t>(s)];
    Span seg;
    seg.kind = SpanKind::kShardSpeculate;
    seg.parent = window_span;
    seg.site = s;
    seg.begin = shard.span_begin;
    seg.end = std::max(shard.span_end, shard.span_begin);
    seg.count = static_cast<int64_t>(shard.positions.size());
    spans->EmitComplete(seg);
    Span wait;
    wait.kind = SpanKind::kBarrierWait;
    wait.parent = window_span;
    wait.site = s;
    wait.begin = seg.end;
    wait.end = std::max(join_tick, seg.end);
    spans->EmitComplete(wait);
  }
}

void ParallelRunner::EndWindow(int64_t window_span, int64_t commit_begin,
                               int64_t consumed) {
  SpanSink* const spans = opts_.spans;
  if (spans != nullptr) {
    Span commit;
    commit.kind = SpanKind::kCommit;
    commit.parent = window_span;
    commit.begin = commit_begin;
    commit.end = spans->Now();
    commit.count = consumed;
    spans->EmitComplete(commit);
    spans->End(window_span);
  }
  for (int s : active_) {
    Shard& shard = shards_[static_cast<size_t>(s)];
    shard.positions.clear();
    shard.values.clear();
    shard.replay_prefix = 0;
    shard.span_begin = 0;
    shard.span_end = 0;
  }
}

int64_t ParallelRunner::RunWindow(const StreamRecord* records, int64_t count,
                                  int64_t* soft, bool* hard) {
  const int64_t window_span = BeginWindow(records, count);
  SpanSink* const spans = opts_.spans;

  // Checkpoints guard the hard-barrier rollback.
  for (int s : active_) protocol_->SaveCheckpoint(s);

  // Speculate: every active shard folds its WHOLE window batch into its
  // drift and records the per-record value series. No early stop — the
  // counter rule runs at commit, over the recorded values.
  const auto speculate_start = std::chrono::steady_clock::now();
  pool_.ParallelFor(static_cast<int>(active_.size()), [&](int j) {
    const int s = active_[static_cast<size_t>(j)];
    Shard& shard = shards_[static_cast<size_t>(s)];
    if (spans != nullptr) shard.span_begin = spans->Now();
    const int64_t n = static_cast<int64_t>(shard.positions.size());
    shard.values.resize(static_cast<size_t>(n));
    protocol_->SpeculateShard(s, records, shard.positions.data(), n,
                              shard.values.data());
    if (spans != nullptr) shard.span_end = spans->Now();
  });
  speculate_seconds_ += SecondsSince(speculate_start);
  EmitShardSpans(window_span);

  // Commit walk: the protocol zips the per-shard value series back into
  // global stream order (per-shard cursors — no sort) and replays the
  // scalar counter rule; hard interactions call back into
  // MaterializeShards before reading drift state.
  for (int s : active_) {
    const Shard& shard = shards_[static_cast<size_t>(s)];
    series_[static_cast<size_t>(s)] = ValueSeries{
        shard.values.data(), static_cast<int64_t>(shard.values.size())};
  }
  int64_t commit_begin = 0;
  if (spans != nullptr) commit_begin = spans->Now();
  const auto commit_start = std::chrono::steady_clock::now();
  const int64_t consumed = protocol_->CommitValueSeries(
      site_of_.data(), count, series_.data(),
      [&](int64_t pos) { MaterializeShards(records, pos, window_span); },
      soft);
  commit_seconds_ += SecondsSince(commit_start);
  FGM_CHECK_GE(consumed, 1);
  *hard = consumed < count;
  if (*hard) ++barriers_;
  soft_commits_ += *soft;
  EndWindow(window_span, commit_begin, consumed);
  return consumed;
}

void ParallelRunner::MaterializeShards(const StreamRecord* records,
                                       int64_t pos, int64_t window_span) {
  SpanSink* const spans = opts_.spans;
  replay_shards_.clear();
  for (int s : active_) {
    Shard& shard = shards_[static_cast<size_t>(s)];
    const auto prefix_end = std::upper_bound(shard.positions.begin(),
                                             shard.positions.end(), pos);
    shard.replay_prefix = prefix_end - shard.positions.begin();
    const int64_t n = static_cast<int64_t>(shard.positions.size());
    wasted_ += n - shard.replay_prefix;
    // A fully committed shard's evaluator is already exact.
    if (n > shard.replay_prefix) replay_shards_.push_back(s);
  }
  // Restore + replay in parallel: shards are independent, and the
  // recomputed values — discarded, the commit walk already consumed
  // them — overwrite the shard's own spent value buffer. Replay from
  // the bit-exact checkpoint repeats the identical delta sequence in
  // the identical order, so the restored state matches the serial run.
  pool_.ParallelFor(static_cast<int>(replay_shards_.size()), [&](int j) {
    const int s = replay_shards_[static_cast<size_t>(j)];
    Shard& shard = shards_[static_cast<size_t>(s)];
    if (spans != nullptr) shard.span_begin = spans->Now();
    protocol_->RestoreCheckpoint(s);
    if (shard.replay_prefix > 0) {
      protocol_->SpeculateShard(s, records, shard.positions.data(),
                                shard.replay_prefix, shard.values.data());
    }
    if (spans != nullptr) shard.span_end = spans->Now();
  });
  for (int s : replay_shards_) {
    const Shard& shard = shards_[static_cast<size_t>(s)];
    replayed_ += shard.replay_prefix;
    if (spans != nullptr) {
      Span replay;
      replay.kind = SpanKind::kReplay;
      replay.parent = window_span;
      replay.site = s;
      replay.begin = shard.span_begin;
      replay.end = std::max(shard.span_end, shard.span_begin);
      replay.count = shard.replay_prefix;
      spans->EmitComplete(replay);
    }
  }
}

}  // namespace fgm
