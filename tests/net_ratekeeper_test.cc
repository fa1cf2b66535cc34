/// \file net_ratekeeper_test.cc
/// Admission-control contract (net/ratekeeper.h): the throttle ->
/// degrade -> reject ladder, per-tenant isolation, budget shrinkage
/// monotonicity, backlog-driven degradation, and explicit reasons on
/// every refusal.

#include "net/ratekeeper.h"

#include <string>
#include <utility>
#include <vector>

#include <gtest/gtest.h>

namespace idebench::net {
namespace {

RatekeeperOptions SmallOptions() {
  RatekeeperOptions o;
  o.soft_live_limit = 4;
  o.hard_live_limit = 8;
  o.degrade_levels = 4;
  o.min_budget_scale = 0.25;
  o.degraded_update_interval = 50'000;
  o.tenant_rate = 0.0;  // tenant throttling off unless a test arms it
  o.backlog_degrade = 0;
  o.backlog_reject = 0;
  return o;
}

TEST(RatekeeperTest, AdmitsAtFullBudgetBelowSoftLimit) {
  Ratekeeper keeper(SmallOptions());
  for (int i = 0; i < 4; ++i) {
    const AdmitDecision d = keeper.Admit("t", /*now=*/0);
    ASSERT_TRUE(d.admitted());
    EXPECT_EQ(d.degrade_level, 0);
    EXPECT_DOUBLE_EQ(d.budget_scale, 1.0);
    EXPECT_EQ(d.update_interval, 0);
    keeper.OnAdmitted(1);
  }
  EXPECT_EQ(keeper.stats().degraded, 0);
}

TEST(RatekeeperTest, DegradesBetweenSoftAndHardThenRejects) {
  Ratekeeper keeper(SmallOptions());
  // Fill to the hard limit, recording the ladder.
  double last_scale = 1.0;
  int last_level = 0;
  for (int i = 0; i < 8; ++i) {
    const AdmitDecision d = keeper.Admit("t", 0);
    ASSERT_TRUE(d.admitted()) << "i=" << i;
    EXPECT_GE(d.degrade_level, last_level);   // monotone down the ladder
    EXPECT_LE(d.budget_scale, last_scale);    // budgets only shrink
    if (d.degrade_level > 0) {
      EXPECT_GT(d.update_interval, 0);        // cadence stretches
      EXPECT_LT(d.budget_scale, 1.0);
    }
    last_level = d.degrade_level;
    last_scale = d.budget_scale;
    keeper.OnAdmitted(1);
  }
  // Degradation demonstrably happened before any refusal.
  EXPECT_GT(keeper.stats().degraded, 0);
  EXPECT_LT(keeper.stats().min_budget_scale_granted, 1.0);
  EXPECT_EQ(keeper.stats().rejected, 0);

  // At the hard limit: explicit rejection with reason + retry hint.
  const AdmitDecision d = keeper.Admit("t", 0);
  EXPECT_EQ(d.action, AdmitAction::kReject);
  EXPECT_STREQ(d.reason, "over_capacity");
  EXPECT_GT(d.retry_after, 0);
  EXPECT_EQ(keeper.stats().rejected, 1);

  // Finalizations reopen admission.
  keeper.OnFinalized(8);
  const AdmitDecision d2 = keeper.Admit("t", 0);
  EXPECT_TRUE(d2.admitted());
  EXPECT_EQ(d2.degrade_level, 0);
}

TEST(RatekeeperTest, BudgetScaleReachesConfiguredFloor) {
  RatekeeperOptions o = SmallOptions();
  Ratekeeper keeper(o);
  keeper.OnAdmitted(7);  // just below hard: deepest admitted level
  const AdmitDecision d = keeper.Admit("t", 0);
  ASSERT_TRUE(d.admitted());
  EXPECT_EQ(d.degrade_level, o.degrade_levels);
  EXPECT_DOUBLE_EQ(d.budget_scale, o.min_budget_scale);
}

TEST(RatekeeperTest, TenantThrottleIsolatesNoisyTenant) {
  RatekeeperOptions o = SmallOptions();
  o.soft_live_limit = 1000;  // keep global admission out of the picture
  o.hard_live_limit = 2000;
  o.tenant_rate = 10.0;   // 10/s sustained
  o.tenant_burst = 3.0;   // 3 of burst
  Ratekeeper keeper(o);

  // The noisy tenant burns its burst instantly...
  for (int i = 0; i < 3; ++i) {
    EXPECT_TRUE(keeper.Admit("noisy", 0).admitted()) << i;
  }
  const AdmitDecision throttled = keeper.Admit("noisy", 0);
  EXPECT_EQ(throttled.action, AdmitAction::kThrottle);
  EXPECT_STREQ(throttled.reason, "tenant_throttled");
  EXPECT_GT(throttled.retry_after, 0);

  // ...while a quiet tenant sails through at the same instant.
  EXPECT_TRUE(keeper.Admit("quiet", 0).admitted());

  // After the hinted wait, the noisy tenant's bucket refilled.
  const AdmitDecision later =
      keeper.Admit("noisy", throttled.retry_after + 1);
  EXPECT_TRUE(later.admitted());
  EXPECT_EQ(keeper.stats().throttled, 1);
}

TEST(RatekeeperTest, GlobalRejectRefundsTenantToken) {
  RatekeeperOptions o = SmallOptions();
  o.tenant_rate = 10.0;
  o.tenant_burst = 1.0;  // exactly one token
  Ratekeeper keeper(o);
  keeper.OnAdmitted(8);  // at the hard limit: everything rejects

  const AdmitDecision d = keeper.Admit("t", 0);
  EXPECT_EQ(d.action, AdmitAction::kReject);
  // The refusal was global; the tenant's only token must survive so a
  // post-backoff retry is not double-punished.
  keeper.OnFinalized(8);
  EXPECT_TRUE(keeper.Admit("t", 0).admitted());
}

TEST(RatekeeperTest, RejectRefundNeverExceedsBurstCap) {
  RatekeeperOptions o = SmallOptions();
  o.tenant_rate = 10.0;
  o.tenant_burst = 2.0;
  Ratekeeper keeper(o);
  keeper.OnAdmitted(8);  // at the hard limit: everything rejects

  // A full bucket hammered with same-timestamp rejections must not bank
  // refunds above the burst cap.
  for (int i = 0; i < 10; ++i) {
    EXPECT_EQ(keeper.Admit("t", 0).action, AdmitAction::kReject);
  }
  keeper.OnFinalized(8);
  // Exactly burst-many admissions remain before the throttle bites.
  EXPECT_TRUE(keeper.Admit("t", 0).admitted());
  EXPECT_TRUE(keeper.Admit("t", 0).admitted());
  EXPECT_EQ(keeper.Admit("t", 0).action, AdmitAction::kThrottle);
}

TEST(RatekeeperTest, BacklogDegradesThenRejects) {
  RatekeeperOptions o = SmallOptions();
  o.backlog_degrade = 100'000;   // one level per 100ms of lag
  o.backlog_reject = 1'000'000;  // reject at 1s of lag
  Ratekeeper keeper(o);

  // Idle scheduler, no lag: full budget.
  EXPECT_EQ(keeper.Admit("t", 0, /*backlog=*/0).degrade_level, 0);
  // Moderate lag degrades even with zero live queries.
  const AdmitDecision degraded = keeper.Admit("t", 0, /*backlog=*/250'000);
  ASSERT_TRUE(degraded.admitted());
  EXPECT_GT(degraded.degrade_level, 0);
  EXPECT_LT(degraded.budget_scale, 1.0);
  // Deep lag: no admission can meet a deadline; reject with reason.
  const AdmitDecision rejected = keeper.Admit("t", 0, /*backlog=*/2'000'000);
  EXPECT_EQ(rejected.action, AdmitAction::kReject);
  EXPECT_STREQ(rejected.reason, "backlogged");
}

/// Regression: backlog levels added past `degrade_levels` and refused
/// as `over_capacity` with nothing live — at the defaults, every lag
/// from 2 s to just under `backlog_reject` (5 s).  Backlog alone
/// degrades at most to the deepest level; only `backlog_reject` refuses.
TEST(RatekeeperTest, BacklogAloneCapsAtDeepestDegradeLevel) {
  Ratekeeper keeper(RatekeeperOptions{});
  ASSERT_EQ(keeper.live(), 0);
  const std::vector<std::pair<Micros, int>> admitted = {
      {1'400'000, 2}, {2'000'000, 3}, {3'000'000, 3}, {4'999'000, 3}};
  for (const auto& [backlog, level] : admitted) {
    const AdmitDecision d = keeper.Admit("t", 0, backlog);
    EXPECT_TRUE(d.admitted()) << "lag " << backlog << ": " << d.reason;
    EXPECT_EQ(d.degrade_level, level) << "lag " << backlog;
  }
  const AdmitDecision refused = keeper.Admit("t", 0, 5'000'000);
  EXPECT_EQ(refused.action, AdmitAction::kReject);
  EXPECT_STREQ(refused.reason, "backlogged");
}

TEST(RatekeeperTest, StatsAccountEveryDecision) {
  Ratekeeper keeper(SmallOptions());
  keeper.OnAdmitted(6);  // between soft and hard: degraded admissions
  ASSERT_TRUE(keeper.Admit("t", 0).admitted());
  keeper.OnAdmitted(2);  // at hard
  EXPECT_EQ(keeper.Admit("t", 0).action, AdmitAction::kReject);

  const RatekeeperStats stats = keeper.stats();
  EXPECT_EQ(stats.admitted, 1);
  EXPECT_EQ(stats.degraded, 1);
  EXPECT_EQ(stats.rejected, 1);
  EXPECT_EQ(stats.live, 8);
  EXPECT_EQ(stats.peak_live, 8);
  EXPECT_GT(stats.max_level_seen, 0);
}

// --- Wire retry hint --------------------------------------------------------

/// Regression: the server serialized `retry_after / 1000`, so a positive
/// sub-millisecond throttle went out as `retry_after_ms: 0` — "retry
/// immediately" — and a literal client busy-looped against the keeper.
/// The hint must round *up*: positive always >= 1ms, zero stays zero.
TEST(RatekeeperTest, RetryAfterMillisRoundsUpNeverToZero) {
  EXPECT_EQ(RetryAfterMillis(0), 0);
  EXPECT_EQ(RetryAfterMillis(-5), 0);
  EXPECT_EQ(RetryAfterMillis(1), 1);
  EXPECT_EQ(RetryAfterMillis(999), 1);
  EXPECT_EQ(RetryAfterMillis(1000), 1);
  EXPECT_EQ(RetryAfterMillis(1001), 2);
  EXPECT_EQ(RetryAfterMillis(250'000), 250);
  EXPECT_EQ(RetryAfterMillis(250'001), 251);
}

/// A real sub-millisecond throttle verdict from the keeper survives the
/// millisecond conversion as a positive wait.
TEST(RatekeeperTest, SubMillisecondThrottleHintSerializesPositive) {
  RatekeeperOptions o = SmallOptions();
  o.soft_live_limit = 1000;
  o.hard_live_limit = 2000;
  o.tenant_rate = 10'000.0;  // refill 10 tokens/ms: deficit < 1ms
  o.tenant_burst = 1.0;
  Ratekeeper keeper(o);
  ASSERT_TRUE(keeper.Admit("t", 0).admitted());
  const AdmitDecision throttled = keeper.Admit("t", 0);
  ASSERT_EQ(throttled.action, AdmitAction::kThrottle);
  ASSERT_GT(throttled.retry_after, 0);
  ASSERT_LT(throttled.retry_after, 1000);  // the regression's window
  EXPECT_GE(RetryAfterMillis(throttled.retry_after), 1);
}

}  // namespace
}  // namespace idebench::net
