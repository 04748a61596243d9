// Speculate-and-replay parallel driver for FGM's value-series speculation.
//
// The runner advances all sites concurrently inside a speculation window
// and commits the coordinator-visible work serially in global stream
// order, producing traffic statistics and event traces that are
// bit-identical to the single-threaded run (see
// FgmProtocol::CommitValueSeries for the contract and DESIGN.md §5d/§5h
// for the argument). Workers fold whole per-site batches into the drift
// and record the per-record value sequence; the coordinator replays the
// scalar counter rule over the recorded values (a linear zipper over the
// per-site series — no sort, no per-event rollback). Subround crossings
// commit softly; only rare hard interactions (rebalance, round end)
// restore checkpoints and replay the committed prefix.
//
// The window length (speculation horizon) adapts via HorizonController:
// re-centered on the observed hard-barrier gap, doubled on clean windows,
// floored by the committed soft-interaction density.

#ifndef FGM_EXEC_PARALLEL_RUNNER_H_
#define FGM_EXEC_PARALLEL_RUNNER_H_

#include <cstdint>
#include <vector>

#include "core/fgm_protocol.h"
#include "exec/horizon.h"
#include "exec/thread_pool.h"
#include "stream/record.h"

namespace fgm {

class SpanSink;

/// Bounds of the adaptive speculation horizon (records per window).
constexpr int64_t kMinHorizon = 128;
constexpr int64_t kMaxHorizon = 65536;

struct ParallelRunnerOptions {
  /// Total worker parallelism including the calling thread.
  int threads = 1;
  /// Causal span sink (non-owning; nullptr = off): one kSpeculate span
  /// per window with per-shard speculate / barrier-wait / replay children
  /// and the serial commit segment. Workers only stamp two timestamps
  /// into their own shard; all span emission is coordinator-side.
  SpanSink* spans = nullptr;
};

class ParallelRunner {
 public:
  /// `protocol` must outlive the runner and SupportsSpeculation().
  ParallelRunner(FgmProtocol* protocol, ParallelRunnerOptions options);

  /// Feeds `count` records to the protocol. After the call returns the
  /// protocol state equals the serial state after ProcessRecord on each
  /// record in order; calls may be split at any record boundary.
  void Process(const StreamRecord* records, int64_t count);

  // Diagnostics.
  int64_t windows() const { return windows_; }
  int64_t barriers() const { return barriers_; }
  int64_t replayed_records() const { return replayed_; }
  /// Speculated records discarded past a barrier (rolled back, NOT
  /// replayed — the rollback restores the checkpoint and the replay of
  /// the prefix is counted separately in replayed_records()).
  int64_t wasted_records() const { return wasted_; }
  /// Soft coordinator interactions committed without ending a window
  /// (value-series subround crossings).
  int64_t soft_commits() const { return soft_commits_; }
  int threads() const { return pool_.threads(); }
  /// Shard tasks each thread ran (slot 0 is the calling thread).
  std::vector<int64_t> thread_tasks() const { return pool_.TaskTally(); }
  /// Wall time in the parallel speculate phase and in the serial commit
  /// walk (replays included), summed over windows.
  double speculate_seconds() const { return speculate_seconds_; }
  double commit_seconds() const { return commit_seconds_; }

 private:
  struct Shard {
    std::vector<int64_t> positions;  ///< window positions, ascending
    std::vector<double> values;      ///< recorded value series
    int64_t replay_prefix = 0;       ///< committed prefix to replay
    int64_t span_begin = 0;  ///< worker-stamped speculate segment start
    int64_t span_end = 0;    ///< worker-stamped speculate segment end
  };

  /// Runs one speculation window; returns how many leading records were
  /// committed. Sets *hard when the window ended at a hard barrier.
  int64_t RunWindow(const StreamRecord* records, int64_t count, int64_t* soft,
                    bool* hard);

  /// Distributes window records to shards (fills site_of_ / positions /
  /// active_) and opens the window span. Returns the span id (0 = off).
  int64_t BeginWindow(const StreamRecord* records, int64_t count);
  /// Emits per-shard speculate + barrier-wait spans after the join.
  void EmitShardSpans(int64_t window_span);
  /// Closes the window: commit span, window span, shard scratch reset.
  void EndWindow(int64_t window_span, int64_t commit_begin, int64_t consumed);

  /// Hard-barrier materialization: every active shard that speculated
  /// past `pos` restores its checkpoint and replays its committed prefix.
  /// The replays are independent per shard and run on the pool; replay
  /// output lands in the shard's own (already consumed) value buffer, so
  /// no shared scratch is touched by workers.
  void MaterializeShards(const StreamRecord* records, int64_t pos,
                         int64_t window_span);

  FgmProtocol* protocol_;
  ParallelRunnerOptions opts_;
  ThreadPool pool_;

  std::vector<Shard> shards_;
  std::vector<int> active_;          ///< shard ids with records this window
  std::vector<int32_t> site_of_;     ///< window position -> shard id
  std::vector<ValueSeries> series_;  ///< per-shard view into Shard::values
  std::vector<int> replay_shards_;   ///< shards rolled back this barrier

  HorizonController horizon_;

  int64_t windows_ = 0;
  int64_t barriers_ = 0;
  int64_t replayed_ = 0;
  int64_t wasted_ = 0;
  int64_t soft_commits_ = 0;
  double speculate_seconds_ = 0.0;
  double commit_seconds_ = 0.0;
};

}  // namespace fgm

#endif  // FGM_EXEC_PARALLEL_RUNNER_H_
