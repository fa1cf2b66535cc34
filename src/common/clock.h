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

/// Abstract monotonic time source.
class Clock {
 public:
  virtual ~Clock() = default;

  /// Current time in microseconds since an arbitrary epoch.
  virtual Micros Now() const = 0;

  /// Advances time by `duration` microseconds.  For a wall clock this
  /// sleeps; for a virtual clock it is a constant-time bookkeeping update.
  virtual void Advance(Micros duration) = 0;
};

/// Deterministic clock: time moves only when `Advance` is called.
class VirtualClock : public Clock {
 public:
  explicit VirtualClock(Micros start = 0) : now_(start) {}

  Micros Now() const override { return now_; }
  void Advance(Micros duration) override {
    if (duration > 0) now_ += duration;
  }

  /// Sets the absolute time; only moves forward.
  void AdvanceTo(Micros t) {
    if (t > now_) now_ = t;
  }

 private:
  Micros now_;
};

/// Real elapsed time backed by std::chrono::steady_clock.
class WallClock : public Clock {
 public:
  WallClock();
  Micros Now() const override;
  /// Sleeps for `duration` microseconds.
  void Advance(Micros duration) override;

 private:
  Micros epoch_;
};

}  // namespace idebench

#endif  // IDEBENCH_COMMON_CLOCK_H_
