// Tests for the message-path vocabulary (net/network.h). Traffic booking
// is exercised through Transport in transport_test.

#include <gtest/gtest.h>

#include "net/network.h"

namespace fgm {
namespace {

TEST(MsgKindNames, AllDistinct) {
  for (int a = 0; a < static_cast<int>(MsgKind::kKindCount); ++a) {
    for (int b = a + 1; b < static_cast<int>(MsgKind::kKindCount); ++b) {
      EXPECT_STRNE(MsgKindName(static_cast<MsgKind>(a)),
                   MsgKindName(static_cast<MsgKind>(b)));
    }
  }
}

}  // namespace
}  // namespace fgm
