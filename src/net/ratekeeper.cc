#include "net/ratekeeper.h"

#include <algorithm>
#include <cmath>

namespace idebench::net {

Ratekeeper::Ratekeeper(RatekeeperOptions options) : options_(options) {
  options_.soft_live_limit = std::max(1, options_.soft_live_limit);
  options_.hard_live_limit =
      std::max(options_.soft_live_limit, options_.hard_live_limit);
  options_.degrade_levels = std::max(1, options_.degrade_levels);
  options_.min_budget_scale =
      std::min(1.0, std::max(0.01, options_.min_budget_scale));
}

int Ratekeeper::LevelFor(Micros backlog) const {
  const int levels = options_.degrade_levels;
  int level = 0;
  if (live_ >= options_.hard_live_limit) {
    level = levels + 1;
  } else if (live_ >= options_.soft_live_limit) {
    // Linear ramp over [soft, hard): the first admission past soft is
    // already level 1, the last one before hard is level `levels`.
    const int64_t span =
        std::max<int64_t>(1, options_.hard_live_limit - options_.soft_live_limit);
    const int64_t into = live_ - options_.soft_live_limit;
    level = 1 + static_cast<int>((into * levels) / span);
    level = std::min(level, levels);
  }
  if (options_.backlog_degrade > 0 && backlog > 0) {
    if (options_.backlog_reject > 0 && backlog >= options_.backlog_reject) {
      return levels + 1;
    }
    level += static_cast<int>(backlog / options_.backlog_degrade);
  }
  // Only the hard live limit and `backlog_reject` refuse: below them the
  // ladder's deepest rung is degradation, however far the two signals'
  // levels add up.
  return live_ >= options_.hard_live_limit ? levels + 1
                                           : std::min(level, levels);
}

AdmitDecision Ratekeeper::Admit(const std::string& tenant, Micros now,
                                Micros backlog) {
  AdmitDecision decision;

  // Tag throttle first (FDB order: the busiest tenant is shed before the
  // cluster degrades for everyone).
  if (options_.tenant_rate > 0.0) {
    Bucket& bucket = buckets_[tenant];
    if (!bucket.initialized) {
      bucket.tokens = options_.tenant_burst;
      bucket.last_refill = now;
      bucket.initialized = true;
    }
    if (now > bucket.last_refill) {
      bucket.tokens += MicrosToSeconds(now - bucket.last_refill) *
                       options_.tenant_rate;
      bucket.tokens = std::min(bucket.tokens, options_.tenant_burst);
      bucket.last_refill = now;
    }
    if (bucket.tokens < 1.0) {
      decision.action = AdmitAction::kThrottle;
      decision.reason = "tenant_throttled";
      decision.retry_after = SecondsToMicros(
          (1.0 - bucket.tokens) / options_.tenant_rate);
      ++stats_.throttled;
      return decision;
    }
    bucket.tokens -= 1.0;
  }

  const int level = LevelFor(backlog);
  if (level > options_.degrade_levels) {
    // Refund the tenant token: the refusal was global, not the tenant's
    // fault, and a retry after the hint should not double-charge them.
    // Clamped — repeated same-timestamp rejections must not bank burst
    // capacity beyond the cap.
    if (options_.tenant_rate > 0.0) {
      Bucket& bucket = buckets_[tenant];
      bucket.tokens = std::min(bucket.tokens + 1.0, options_.tenant_burst);
    }
    decision.action = AdmitAction::kReject;
    decision.reason =
        (options_.backlog_reject > 0 && backlog >= options_.backlog_reject)
            ? "backlogged"
            : "over_capacity";
    decision.degrade_level = options_.degrade_levels;
    decision.retry_after = options_.reject_retry_after;
    ++stats_.rejected;
    return decision;
  }

  decision.action = AdmitAction::kAdmit;
  decision.degrade_level = level;
  decision.budget_scale =
      1.0 - (1.0 - options_.min_budget_scale) *
                (static_cast<double>(level) /
                 static_cast<double>(options_.degrade_levels));
  decision.update_interval =
      level == 0 ? 0
                 : options_.degraded_update_interval
                       << std::min(level - 1, 16);
  ++stats_.admitted;
  if (level > 0) ++stats_.degraded;
  stats_.max_level_seen = std::max(stats_.max_level_seen, level);
  stats_.min_budget_scale_granted =
      std::min(stats_.min_budget_scale_granted, decision.budget_scale);
  return decision;
}

AdmitDecision Ratekeeper::AdmitIngest(Micros backlog) {
  AdmitDecision decision;
  const int level = LevelFor(backlog);
  if (level >= 1) {
    // Any degradation at all sheds ingest: queries give up sample
    // budget only after ingest has already given up everything.
    decision.action = AdmitAction::kReject;
    decision.reason = "ingest_shed";
    decision.degrade_level = level;
    decision.retry_after = options_.reject_retry_after;
    ++stats_.ingest_shed;
    return decision;
  }
  ++stats_.ingest_admitted;
  return decision;
}

void Ratekeeper::OnAdmitted(int n) {
  live_ += n;
  stats_.peak_live = std::max(stats_.peak_live, live_);
}

void Ratekeeper::OnFinalized(int n) { live_ = std::max<int64_t>(0, live_ - n); }

RatekeeperStats Ratekeeper::stats() const {
  RatekeeperStats s = stats_;
  s.live = live_;
  return s;
}

}  // namespace idebench::net
