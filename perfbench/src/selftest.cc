/// \file selftest.cc
/// Self-tests of the benchmark's own arithmetic (arith.h).  `perfbench
/// selftest` runs them before every benchmark run.

#include <cmath>
#include <cstdio>
#include <vector>

#include "workloads.h"

namespace perfbench {

namespace {

int failures = 0;

void Expect(bool ok, const char* what) {
  if (!ok) {
    ++failures;
    std::fprintf(stderr, "selftest FAILED: %s\n", what);
  }
}

bool Near(double a, double b) { return std::fabs(a - b) < 1e-12; }

void PercentileTests() {
  // p99 under the ten-beyond rule needs 1000 samples: rank 990 leaves 10.
  Expect(SamplesNeeded(0.99, 10) == 1000, "p99 needs 1000 samples");
  Expect(SamplesNeeded(0.5, 10) == 20, "p50 with ten beyond needs 20");
  std::vector<double> samples;
  for (int i = 1; i <= 1000; ++i) samples.push_back(i);
  double p = 0;
  Expect(TailPercentile(samples, 0.99, 10, &p) && Near(p, 990),
         "p99 of 1..1000 is 990");
  samples.pop_back();
  Expect(!TailPercentile(samples, 0.99, 10, &p),
         "p99 of 999 samples is refused");
  Expect(TailPercentile(samples, 0.99, 9, &p) && Near(p, 990),
         "p99 of 999 samples with nine beyond is 990");
  // Order of the input must not matter.
  std::vector<double> reversed(samples.rbegin(), samples.rend());
  Expect(TailPercentile(reversed, 0.5, 10, &p) && Near(p, 500),
         "p50 of 999 shuffled samples is 500");
  Expect(Near(Median({3, 1, 2}), 2) && Near(Median({4, 1, 3, 2}), 2.5) &&
             Near(Median({}), 0),
         "median of odd, even and empty inputs");
}

void FailedShareTests() {
  FailureLedger ledger;
  ledger.Query(1, false);   // answered
  ledger.Query(0, false);   // dropped terminal update
  ledger.Query(2, false);   // duplicate terminal update
  ledger.Query(1, true);    // terminal update marked failed
  ledger.Append(true);      // durable append
  ledger.Append(false);     // rejected append
  Expect(ledger.attempted() == 6 && ledger.failed() == 4,
         "queries plus appends are attempted; drops, duplicates, failed "
         "updates and rejected appends fail");
  ledger.WrongAnswer();     // the answered query failed its output check
  Expect(ledger.attempted() == 6 && ledger.failed() == 5,
         "a wrong answer fails an already attempted query");
  ledger.Refused();         // rejected interaction
  Expect(ledger.attempted() == 7 && ledger.failed() == 6 &&
             Near(ledger.share(), 6.0 / 7.0),
         "a refused interaction is attempted and failed");
  FailureLedger merged;
  merged += ledger;
  merged += ledger;
  Expect(merged.attempted() == 14 && merged.failed() == 12,
         "ledgers merge by summing");
  Expect(Near(FailureLedger().share(), 0), "empty ledger has share 0");
}

void NormalisationTests() {
  Expect(Near(PerQuery(30e6 * 1e-6, 10), 3), "30 ms over 10 queries is 3 ms");
  Expect(Near(PerQuery(5, 0), 0), "a bypassed layer reads 0, not NaN");
}

void SelfTimeTests() {
  // interaction [0,100) > session [10,90) > engine [20,50) and [60,80);
  // a second root [100,130) touching the first is not its child.
  const std::vector<Interval> spans = {
      {20, 50}, {0, 100}, {60, 80}, {10, 90}, {100, 130}, {100, 110}};
  const std::vector<int64_t> self = SelfTimes(spans);
  Expect(self[1] == 20, "interaction self = 100 - 80");
  Expect(self[3] == 30, "session self = 80 - 30 - 20");
  Expect(self[0] == 30 && self[2] == 20, "leaf self = duration");
  Expect(self[4] == 20 && self[5] == 10, "adjacent root keeps its own child");
  int64_t total = 0;
  for (int i = 0; i < 4; ++i) total += self[static_cast<size_t>(i)];
  Expect(total == 100, "self times of one tree sum to the root span");
}

}  // namespace

int RunSelfTest() {
  failures = 0;
  PercentileTests();
  FailedShareTests();
  NormalisationTests();
  SelfTimeTests();
  return failures;
}

}  // namespace perfbench
