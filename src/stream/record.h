// Stream record model.
//
// Records follow the paper's WorldCup schema R(CID, TYPE): an anonymized
// client id and a requested file type, plus an arrival timestamp and the
// originating site (mirror). `weight` distinguishes insertions (+1) from
// the deletions generated by sliding windows (-1, turnstile model).
//
// The record is the largest allocation of a run (one per trace update), so
// it is packed into 24 bytes: the two 8-byte fields first, then the site,
// the 2-byte weight and the 1-byte type (one byte of tail padding). Every
// producer writes weight ±1 (DESIGN §5b); the integer type holds any other
// value a test feeds in, and the query layer reads it as a double.

#ifndef FGM_STREAM_RECORD_H_
#define FGM_STREAM_RECORD_H_

#include <cstdint>

namespace fgm {

/// File types of the WorldCup workload (coarse classes).
enum class FileType : uint8_t {
  kHtml = 0,
  kImage = 1,
  kAudio = 2,
  kVideo = 3,
  kOther = 4,
};
inline constexpr int kNumFileTypes = 5;

struct StreamRecord {
  double time = 0.0;    ///< arrival time in seconds since trace start
  uint64_t cid = 0;     ///< anonymized client id
  int32_t site = 0;     ///< originating site (mirror) in [0, k)
  int16_t weight = 1;   ///< +1 insert, -1 delete (window expiry)
  FileType type = FileType::kHtml;
};
static_assert(sizeof(StreamRecord) == 24);

}  // namespace fgm

#endif  // FGM_STREAM_RECORD_H_
