#include "stream/window.h"

#include "util/check.h"

namespace fgm {

SlidingWindowStream::SlidingWindowStream(
    const std::vector<StreamRecord>* trace, double window_seconds)
    : trace_(trace), window_(window_seconds) {
  FGM_CHECK(trace != nullptr);
}

const StreamRecord* SlidingWindowStream::Next() {
  const std::vector<StreamRecord>& trace = *trace_;
  const bool have_insert = next_insert_ < trace.size();
  const bool have_delete = window_ > 0 && next_delete_ < next_insert_;

  if (!have_insert && !have_delete) return nullptr;

  bool emit_delete;
  if (have_insert && have_delete) {
    // Deletes fire at original time + window; break ties in favor of the
    // delete so the window is never larger than TW.
    emit_delete =
        trace[next_delete_].time + window_ <= trace[next_insert_].time;
  } else {
    emit_delete = have_delete;
  }

  if (emit_delete) {
    current_ = trace[next_delete_++];
    current_.time += window_;
    current_.weight = -1;
    ++deletes_;
  } else {
    current_ = trace[next_insert_++];
    ++inserts_;
  }
  ++produced_;
  return &current_;
}

}  // namespace fgm
