#ifndef IDEBENCH_COMMON_CLOCK_H_
#define IDEBENCH_COMMON_CLOCK_H_

/// \file clock.h
/// Time units and time sources.
///
/// The paper's experiments enforce wall-clock time requirements on
/// terabyte-scale installations.  This reproduction replaces the authors'
/// testbed with deterministic *virtual time*: engines are cooperative
/// simulators that charge a calibrated per-tuple cost, and the session
/// scheduler (session/session.h) advances its virtual clock accordingly.
/// `WallClock` paces the network server and client in real time.

#include <cstdint>

namespace idebench {

/// A duration/time-point in microseconds.  Signed so arithmetic on
/// deadlines is safe.
using Micros = int64_t;

constexpr Micros kMicrosPerSecond = 1'000'000;

/// Converts seconds (double) to microseconds, rounding to nearest.
constexpr Micros SecondsToMicros(double seconds) {
  return static_cast<Micros>(seconds * static_cast<double>(kMicrosPerSecond) +
                             (seconds >= 0 ? 0.5 : -0.5));
}

/// Converts microseconds to seconds.
constexpr double MicrosToSeconds(Micros micros) {
  return static_cast<double>(micros) / static_cast<double>(kMicrosPerSecond);
}

/// Real elapsed time backed by std::chrono::steady_clock.
class WallClock {
 public:
  WallClock();
  /// Microseconds since construction.
  Micros Now() const;

 private:
  Micros epoch_;
};

}  // namespace idebench

#endif  // IDEBENCH_COMMON_CLOCK_H_
