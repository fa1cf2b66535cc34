#include "chaos/invariants.h"

#include <cmath>
#include <cstring>
#include <sstream>

namespace idebench::chaos {

namespace {

/// Bitwise double equality (distinguishes -0.0/0.0, treats NaN == NaN —
/// two runs that both produce NaN in the same slot agree).
bool SameBits(double a, double b) {
  return std::memcmp(&a, &b, sizeof(double)) == 0;
}

bool Close(double a, double b, double rel_eps) {
  if (rel_eps <= 0.0) return SameBits(a, b);
  if (SameBits(a, b)) return true;
  const double scale = std::max(std::fabs(a), std::fabs(b));
  return std::fabs(a - b) <= rel_eps * std::max(scale, 1.0);
}

std::string OutcomeName(const session::ProgressiveUpdate& u) {
  if (u.completed) return "completed";
  if (u.failed) return "failed";
  if (u.unsupported) return "unsupported";
  if (u.cancelled) return "cancelled";
  return "none";
}

}  // namespace

bool ResultsMatch(const query::QueryResult& a, const query::QueryResult& b,
                  double rel_eps, std::string* why) {
  const auto fail = [&](const std::string& detail) {
    if (why != nullptr) *why = detail;
    return false;
  };
  if (a.available != b.available) return fail("available differs");
  if (a.exact != b.exact) return fail("exact differs");
  if (a.rows_processed != b.rows_processed) {
    return fail("rows_processed " + std::to_string(a.rows_processed) + " vs " +
                std::to_string(b.rows_processed));
  }
  if (!Close(a.progress, b.progress, rel_eps)) return fail("progress differs");
  if (a.bins.size() != b.bins.size()) {
    return fail("bin count " + std::to_string(a.bins.size()) + " vs " +
                std::to_string(b.bins.size()));
  }
  for (const auto& [key, bin] : a.bins) {
    auto it = b.bins.find(key);
    if (it == b.bins.end()) {
      return fail("bin " + std::to_string(key) + " missing");
    }
    if (bin.values.size() != it->second.values.size()) {
      return fail("bin " + std::to_string(key) + " aggregate count differs");
    }
    for (size_t i = 0; i < bin.values.size(); ++i) {
      if (!Close(bin.values[i].estimate, it->second.values[i].estimate,
                 rel_eps)) {
        return fail("bin " + std::to_string(key) + " agg " +
                    std::to_string(i) + " estimate differs");
      }
      if (!Close(bin.values[i].margin, it->second.values[i].margin, rel_eps)) {
        return fail("bin " + std::to_string(key) + " agg " +
                    std::to_string(i) + " margin differs");
      }
    }
  }
  return true;
}

void InvariantChecker::Violate(const std::string& invariant,
                               const std::string& detail) {
  violations_.push_back({invariant, detail});
}

void InvariantChecker::NoteSubmitted(
    const std::vector<session::SubmittedQuery>& batch, Micros now) {
  for (const session::SubmittedQuery& sq : batch) {
    if (!submits_.emplace(sq.query_id, now).second) {
      Violate("unique-query-id",
              "query " + std::to_string(sq.query_id) + " submitted twice");
      continue;
    }
    // Unsupported queries push their terminal update synchronously inside
    // the submission; re-run the deadline check now that we know when.
    auto fit = finals_.find(sq.query_id);
    if (fit != finals_.end() &&
        fit->second.virtual_time > now + options_.time_requirement) {
      Violate("no-starvation",
              "query " + std::to_string(sq.query_id) + " finalized past its "
              "deadline");
    }
  }
}

void InvariantChecker::OnUpdate(const session::ProgressiveUpdate& u) {
  const std::string qid = std::to_string(u.query_id);
  auto fit = finals_.find(u.query_id);
  if (fit != finals_.end()) {
    Violate(u.final_update ? "one-terminal-update" : "no-update-after-final",
            "query " + qid + " received an update after its terminal one");
    return;
  }
  if (u.consumed > u.budget) {
    Violate("entitlement-bound",
            "query " + qid + " consumed " + std::to_string(u.consumed) +
                " of budget " + std::to_string(u.budget));
  }
  if (u.progress < 0.0) {
    Violate("progress-range", "query " + qid + " progress < 0");
  }
  if (!u.final_update) {
    if (u.completed || u.cancelled || u.unsupported || u.failed) {
      Violate("terminal-flags-on-partial",
              "query " + qid + " carries terminal flags on a partial update");
    }
    return;
  }

  const int terminal = (u.completed ? 1 : 0) + (u.cancelled ? 1 : 0) +
                       (u.unsupported ? 1 : 0) + (u.failed ? 1 : 0);
  if (terminal != 1) {
    Violate("one-terminal-outcome",
            "query " + qid + " terminal update carries " +
                std::to_string(terminal) + " outcome flags");
  }
  auto sit = submits_.find(u.query_id);
  if (sit != submits_.end()) {
    const Micros deadline = sit->second + options_.time_requirement;
    if (u.virtual_time > deadline) {
      Violate("no-starvation", "query " + qid + " finalized at " +
                                   std::to_string(u.virtual_time) +
                                   " past deadline " +
                                   std::to_string(deadline));
    }
    // A terminal update exactly at the deadline is a deadline
    // cancellation (client cancels always land strictly earlier — an
    // overdue query is finalized before control ever returns to a
    // client).  The round-robin must have served it its whole
    // entitlement by then.
    if (options_.expect_full_entitlement && u.cancelled &&
        u.virtual_time == deadline && u.consumed != u.budget) {
      Violate("fairness-full-entitlement",
              "query " + qid + " deadline-cancelled with " +
                  std::to_string(u.consumed) + " of " +
                  std::to_string(u.budget) + " entitlement consumed");
    }
  }
  finals_.emplace(u.query_id, u);
  if (log_ != nullptr) {
    std::ostringstream line;
    line << "t=" << u.virtual_time << " final q" << u.query_id << " "
         << OutcomeName(u) << " viz=" << u.viz_name
         << " consumed=" << u.consumed << " rows=" << u.result.rows_processed;
    log_->push_back(line.str());
  }
}

void InvariantChecker::CheckDrained(const session::SessionManager& manager) {
  if (manager.HasLive()) {
    Violate("no-stuck-queries", "manager still has live queries after drain");
  }
  const session::SchedulerStats stats = manager.stats();
  if (stats.max_deadline_overshoot != 0) {
    Violate("no-starvation",
            "scheduler max_deadline_overshoot = " +
                std::to_string(stats.max_deadline_overshoot));
  }
  const int64_t terminal = stats.completed + stats.deadline_cancelled +
                           stats.client_cancelled + stats.unsupported +
                           stats.failed;
  if (terminal != stats.queries_submitted) {
    Violate("no-leaked-queries",
            std::to_string(stats.queries_submitted) + " submitted but " +
                std::to_string(terminal) + " terminal outcomes counted");
  }
  for (const auto& [id, submit_time] : submits_) {
    if (finals_.find(id) == finals_.end()) {
      Violate("one-terminal-update",
              "query " + std::to_string(id) + " never got a terminal update");
    }
  }
  // The manager may have counted queries this checker never saw only if
  // some session ran without this sink — a harness bug worth flagging.
  if (static_cast<int64_t>(submits_.size()) != stats.queries_submitted) {
    Violate("checker-coverage",
            "checker saw " + std::to_string(submits_.size()) +
                " submissions, manager counted " +
                std::to_string(stats.queries_submitted));
  }
}

}  // namespace idebench::chaos
