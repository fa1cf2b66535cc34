#include "common/clock.h"

#include <chrono>

namespace idebench {
namespace {

Micros SteadyNowMicros() {
  return std::chrono::duration_cast<std::chrono::microseconds>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

}  // namespace

WallClock::WallClock() : epoch_(SteadyNowMicros()) {}

Micros WallClock::Now() const { return SteadyNowMicros() - epoch_; }

}  // namespace idebench
