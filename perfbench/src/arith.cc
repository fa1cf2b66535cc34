#include "arith.h"

#include <algorithm>
#include <cmath>
#include <numeric>

namespace perfbench {

double Median(std::vector<double> values) {
  if (values.empty()) return 0.0;
  std::sort(values.begin(), values.end());
  const size_t n = values.size();
  return n % 2 == 1 ? values[n / 2] : (values[n / 2 - 1] + values[n / 2]) / 2;
}

namespace {

/// 1-based nearest rank of the p-percentile among n samples.
int64_t NearestRank(double p, int64_t n) {
  // The epsilon keeps p * n that is integral in exact arithmetic (0.99 *
  // 1000) from rounding up a whole rank.
  const auto rank = static_cast<int64_t>(std::ceil(p * n - 1e-9));
  return std::clamp<int64_t>(rank, 1, n);
}

}  // namespace

bool TailPercentile(std::vector<double> samples, double p, int64_t min_beyond,
                    double* out) {
  const auto n = static_cast<int64_t>(samples.size());
  if (n == 0 || p <= 0.0 || p > 1.0) return false;
  const int64_t rank = NearestRank(p, n);
  if (n - rank < min_beyond) return false;
  std::nth_element(samples.begin(), samples.begin() + (rank - 1),
                   samples.end());
  *out = samples[static_cast<size_t>(rank - 1)];
  return true;
}

int64_t SamplesNeeded(double p, int64_t min_beyond) {
  int64_t n = 1;
  while (n - NearestRank(p, n) < min_beyond) ++n;
  return n;
}

void FailureLedger::Query(int64_t terminal_updates, bool failed_update) {
  ++attempted_;
  if (terminal_updates != 1 || failed_update) ++failed_;
}

void FailureLedger::Append(bool acknowledged_durable) {
  ++attempted_;
  if (!acknowledged_durable) ++failed_;
}

void FailureLedger::Refused() {
  ++attempted_;
  ++failed_;
}

void FailureLedger::WrongAnswer() { ++failed_; }

double FailureLedger::share() const {
  return attempted_ > 0 ? static_cast<double>(failed_) / attempted_ : 0.0;
}

double PerQuery(double total, int64_t count) {
  return count > 0 ? total / static_cast<double>(count) : 0.0;
}

std::vector<int64_t> SelfTimes(const std::vector<Interval>& intervals) {
  std::vector<int64_t> self(intervals.size());
  std::vector<size_t> order(intervals.size());
  std::iota(order.begin(), order.end(), 0);
  // Parents sort before their children: earlier start first, and on equal
  // starts the longer (enclosing) interval first.
  std::sort(order.begin(), order.end(), [&](size_t a, size_t b) {
    if (intervals[a].start_ns != intervals[b].start_ns) {
      return intervals[a].start_ns < intervals[b].start_ns;
    }
    return intervals[a].end_ns > intervals[b].end_ns;
  });
  std::vector<size_t> open;  // chain of enclosing intervals
  for (const size_t i : order) {
    const Interval& span = intervals[i];
    while (!open.empty() && intervals[open.back()].end_ns <= span.start_ns) {
      open.pop_back();
    }
    self[i] = span.end_ns - span.start_ns;
    if (!open.empty()) self[open.back()] -= self[i];
    open.push_back(i);
  }
  return self;
}

}  // namespace perfbench
