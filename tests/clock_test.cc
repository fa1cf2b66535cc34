#include "common/clock.h"

#include <gtest/gtest.h>

namespace idebench {
namespace {

TEST(WallClockTest, MonotonicNonDecreasing) {
  WallClock c;
  const Micros a = c.Now();
  const Micros b = c.Now();
  EXPECT_LE(a, b);
}

TEST(ClockConversionTest, SecondsRoundTrip) {
  EXPECT_EQ(SecondsToMicros(0.5), 500'000);
  EXPECT_EQ(SecondsToMicros(3.0), 3'000'000);
  EXPECT_DOUBLE_EQ(MicrosToSeconds(250'000), 0.25);
  EXPECT_DOUBLE_EQ(MicrosToSeconds(SecondsToMicros(7.25)), 7.25);
}

}  // namespace
}  // namespace idebench
