#ifndef PERFBENCH_ARITH_H_
#define PERFBENCH_ARITH_H_

/// \file arith.h
/// The benchmark's own arithmetic, kept apart from the workloads so the
/// self-tests (selftest.cc) can pin it down: percentiles under the
/// ten-samples-beyond rule, failure accounting, per-query normalisation and
/// self time from nested spans.

#include <cstdint>
#include <string>
#include <vector>

namespace perfbench {

/// Median (mean of the two middle values for an even count); 0 when empty.
double Median(std::vector<double> values);

/// Nearest-rank percentile: the value at 1-based rank ceil(p * n) of the
/// sorted samples.  Fails (returns false) when fewer than `min_beyond`
/// samples lie strictly above that rank, because a tail percentile read
/// from fewer samples than that is mostly noise.  `p` is in (0, 1].
bool TailPercentile(std::vector<double> samples, double p, int64_t min_beyond,
                    double* out);

/// Samples needed so that the p-percentile has `min_beyond` samples above
/// its rank (1000 for p99 with 10 beyond).
int64_t SamplesNeeded(double p, int64_t min_beyond);

/// Counts attempted and failed operations (queries plus appends) for
/// `failed_share`.  Deadline cancellations are not failures.
class FailureLedger {
 public:
  /// One admitted query: it fails unless it got exactly one terminal
  /// update and that update was not a `failed` one.
  void Query(int64_t terminal_updates, bool failed_update);
  /// One append: it fails unless it was acknowledged durable.
  void Append(bool acknowledged_durable);
  /// An operation refused or broken before it could produce an outcome
  /// (rejected interaction, protocol error): attempted and failed.
  void Refused();
  /// A query already counted by `Query` whose answer failed its check.
  void WrongAnswer();

  FailureLedger& operator+=(const FailureLedger& other) {
    attempted_ += other.attempted_;
    failed_ += other.failed_;
    return *this;
  }

  int64_t attempted() const { return attempted_; }
  int64_t failed() const { return failed_; }
  double share() const;

 private:
  int64_t attempted_ = 0;
  int64_t failed_ = 0;
};

/// `total / count`, or 0 when nothing was counted (a layer the workload
/// bypasses reads 0, never NaN).
double PerQuery(double total, int64_t count);

/// One timed interval on one thread.  Spans of one thread nest: a child
/// lies inside its parent.
struct Interval {
  int64_t start_ns = 0;
  int64_t end_ns = 0;
};

/// Self time of every interval: its duration minus the durations of its
/// direct children (intervals it contains that no deeper interval
/// contains).  `intervals` must come from one thread and nest properly;
/// the result is parallel to the input.
std::vector<int64_t> SelfTimes(const std::vector<Interval>& intervals);

}  // namespace perfbench

#endif  // PERFBENCH_ARITH_H_
