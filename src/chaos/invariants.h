#ifndef IDEBENCH_CHAOS_INVARIANTS_H_
#define IDEBENCH_CHAOS_INVARIANTS_H_

/// \file invariants.h
/// Invariant checking over the virtual-clock scheduler under chaos.
///
/// An `InvariantChecker` is a `session::ResultSink` that watches every
/// pushed update of a scenario run and accumulates violations of the
/// scheduler's contract instead of asserting, so a sweep can report every
/// broken seed at once.  The invariants:
///
///  1. *No starvation*: every terminal update lands at or before the
///     query's deadline (`submit_time + time_requirement`), and the
///     manager's `max_deadline_overshoot` stays exactly 0.
///  2. *Exactly one terminal update* per submitted query, carrying
///     exactly one of {completed, cancelled, unsupported, failed}; no
///     update of any kind after the terminal one.
///  3. *Fairness bounds*: no query consumes more than its admission-time
///     compute entitlement, and — when no compute-stealing fault sites
///     are armed — a deadline-cancelled query consumed *exactly* its
///     entitlement (the round-robin neither starves nor over-serves).
///  4. *No leaked or stuck queries*: after a drain, nothing is live and
///     the terminal-outcome counters add up to the submission count.
///  5. *Result integrity* (cross-run): queries that completed despite
///     injected faults must match an uninjected reference run — bit-
///     identical for result-transparent fault sites, within a relative
///     epsilon when morsel-slowdown faults legitimately regroup
///     floating-point merges (see exec/parallel.cc).

#include <cstdint>
#include <map>
#include <string>
#include <vector>

#include "common/clock.h"
#include "query/result.h"
#include "session/session.h"

namespace idebench::chaos {

/// One broken invariant: which one, and a human-readable detail line.
struct InvariantViolation {
  std::string invariant;
  std::string detail;
};

/// Compares two query results bit-for-bit (`rel_eps == 0`) or within a
/// relative epsilon on estimates/margins.  On mismatch returns false and
/// fills `why` (if non-null) with the first difference found.
bool ResultsMatch(const query::QueryResult& a, const query::QueryResult& b,
                  double rel_eps, std::string* why);

/// Scenario-run watcher; install as the sink of every session in the run.
class InvariantChecker : public session::ResultSink {
 public:
  struct Options {
    /// The manager's time requirement (per-query deadline span).
    Micros time_requirement = 0;
    /// Assert the fairness lower bound (deadline-cancelled queries
    /// consumed their full entitlement).  Disable when engine-fault
    /// sites are armed: a query wedged by an injected fault legitimately
    /// consumes less than it was offered.
    bool expect_full_entitlement = true;
  };

  explicit InvariantChecker(Options options) : options_(options) {}

  /// Registers a submitted batch (call right after SubmitInteraction with
  /// the manager's current virtual time).  Unsupported queries have
  /// already pushed their terminal update by the time this runs; the
  /// checker reconciles either order.
  void NoteSubmitted(const std::vector<session::SubmittedQuery>& batch,
                     Micros now);

  /// ResultSink: runs the per-event invariants.
  void OnUpdate(const session::ProgressiveUpdate& u) override;

  /// Post-drain checks against the manager: nothing live, overshoot 0,
  /// outcome counters consistent with the observed terminal updates.
  void CheckDrained(const session::SessionManager& manager);

  const std::vector<InvariantViolation>& violations() const {
    return violations_;
  }
  const std::map<int64_t, session::ProgressiveUpdate>& finals() const {
    return finals_;
  }
  int64_t submitted() const { return static_cast<int64_t>(submits_.size()); }
  int64_t finals_seen() const { return static_cast<int64_t>(finals_.size()); }

  /// Optional deterministic event log: when set, terminal updates append
  /// one line each (used for seed-replay identity checks).
  void set_event_log(std::vector<std::string>* log) { log_ = log; }

 private:
  void Violate(const std::string& invariant, const std::string& detail);

  Options options_;
  /// query_id -> virtual submit time.
  std::map<int64_t, Micros> submits_;
  /// query_id -> the one terminal update.
  std::map<int64_t, session::ProgressiveUpdate> finals_;
  std::vector<InvariantViolation> violations_;
  std::vector<std::string>* log_ = nullptr;
};

}  // namespace idebench::chaos

#endif  // IDEBENCH_CHAOS_INVARIANTS_H_
