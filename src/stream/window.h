// Sliding windows over a record stream.
//
// The turnstile experiments of the paper slide a time window TW over the
// stream: when a record falls out of the window, its deletion (weight -1)
// is issued at the site that originally received it. SlidingWindowStream
// turns a sorted insert-only trace into the interleaved insert/delete event
// sequence, ordered by event time.

#ifndef FGM_STREAM_WINDOW_H_
#define FGM_STREAM_WINDOW_H_

#include <cstddef>
#include <cstdint>
#include <vector>

#include "stream/record.h"

namespace fgm {

/// Streaming iterator producing inserts and window-expiry deletes in time
/// order. Usage:
///
///   SlidingWindowStream events(trace, /*window_seconds=*/3600.0);
///   while (auto* rec = events.Next()) { ... }
///
/// A nonpositive window means "no window" (cash-register model: inserts
/// only). Deletion of a record at time t is issued at time t + TW.
/// Deletes fire in insert order, so the pending deletes are always the
/// trace slice [next_delete_, next_insert_): the stream keeps two indices
/// into the trace and copies nothing. The trace must outlive the stream.
class SlidingWindowStream {
 public:
  SlidingWindowStream(const std::vector<StreamRecord>* trace,
                      double window_seconds);

  /// Returns the next event, or nullptr at end of stream. The returned
  /// pointer is valid until the next call.
  const StreamRecord* Next();

  /// Total events produced so far.
  int64_t produced() const { return produced_; }

  /// Number of inserts (resp. deletes) produced so far.
  int64_t inserts() const { return inserts_; }
  int64_t deletes() const { return deletes_; }

 private:
  const std::vector<StreamRecord>* trace_;
  double window_;
  size_t next_insert_ = 0;
  size_t next_delete_ = 0;  // oldest insert whose delete is pending
  StreamRecord current_;
  int64_t produced_ = 0;
  int64_t inserts_ = 0;
  int64_t deletes_ = 0;
};

}  // namespace fgm

#endif  // FGM_STREAM_WINDOW_H_
