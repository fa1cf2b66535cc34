/// \file session_test.cc
/// Unit tests of the session serving API (session/session.h): push
/// delivery, deadline-exact cancellation, round-robin fairness under a
/// contention penalty, idempotent client cancellation, multi-session
/// bookkeeping, scheduler telemetry and the workflow-replay loop.

#include "session/session.h"

#include <algorithm>
#include <memory>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "engines/blocking_engine.h"
#include "engines/online_engine.h"
#include "engines/progressive_engine.h"
#include "engines/registry.h"
#include "tests/test_util.h"
#include "workflow/interaction.h"

namespace idebench::session {
namespace {

using engines::BlockingEngine;
using engines::BlockingEngineConfig;
using engines::ProgressiveEngine;
using engines::ProgressiveEngineConfig;
using workflow::Interaction;

query::VizSpec MakeGroupViz(const std::string& name) {
  query::VizSpec v;
  v.name = name;
  v.source = "tiny";
  query::BinDimension d;
  d.column = "group";
  d.mode = query::BinningMode::kNominal;
  v.bins.push_back(d);
  query::AggregateSpec a;
  a.type = query::AggregateType::kCount;
  v.aggregates.push_back(a);
  return v;
}

/// Sink recording every update in arrival order.
class RecordingSink : public ResultSink {
 public:
  void OnUpdate(const ProgressiveUpdate& update) override {
    updates.push_back(update);
  }

  std::vector<ProgressiveUpdate> finals() const {
    std::vector<ProgressiveUpdate> out;
    for (const ProgressiveUpdate& u : updates) {
      if (u.final_update) out.push_back(u);
    }
    return out;
  }

  std::vector<ProgressiveUpdate> updates;
};

std::shared_ptr<storage::Catalog> Catalog(int64_t nominal) {
  auto catalog = testutil::MakeTinyCatalog();
  catalog->set_nominal_rows(nominal);
  return catalog;
}

TEST(SessionTest, PartialUpdatesStreamThenFinalCompletes) {
  // Progressive engine on a workload sized so several quanta pass before
  // the walk completes: partial updates must stream with monotonically
  // growing row counts, then exactly one final, completed update.
  ProgressiveEngineConfig config;
  config.query_overhead_us = 0;
  config.restart_overhead_us = 0;
  config.sample_us_per_row = 100'000.0;  // 0.1 s per row; 8 rows = 0.8 s
  ProgressiveEngine engine(config);
  auto catalog = Catalog(1'000'000);
  ASSERT_TRUE(engine.Prepare(catalog).ok());

  SessionManagerOptions options;
  options.time_requirement = 2'000'000;
  options.quantum = 200'000;  // 2 rows per slice
  SessionManager manager(options, &engine, catalog);
  RecordingSink sink;
  auto sess = manager.CreateSession(&sink);
  ASSERT_TRUE(sess.ok());

  auto submitted =
      (*sess)->SubmitInteraction(Interaction::CreateViz(MakeGroupViz("v0")));
  ASSERT_TRUE(submitted.ok());
  ASSERT_EQ(submitted->size(), 1u);
  ASSERT_TRUE(manager.RunUntilIdle().ok());

  const auto finals = sink.finals();
  ASSERT_EQ(finals.size(), 1u);
  EXPECT_TRUE(finals[0].completed);
  EXPECT_FALSE(finals[0].cancelled);
  EXPECT_TRUE(finals[0].result.available);
  EXPECT_EQ(finals[0].result.rows_processed, 8);
  EXPECT_EQ(finals[0].query_id, (*submitted)[0].query_id);

  // Partials streamed before the final, rows monotonically increasing.
  int64_t last_rows = 0;
  int partials = 0;
  for (const ProgressiveUpdate& u : sink.updates) {
    if (u.final_update) break;
    EXPECT_TRUE(u.result.available);
    EXPECT_GT(u.result.rows_processed, last_rows);
    last_rows = u.result.rows_processed;
    ++partials;
  }
  EXPECT_GE(partials, 2);
  EXPECT_EQ(manager.stats().partial_updates, partials);
}

TEST(SessionTest, OverdueQueryCancelledExactlyAtDeadline) {
  BlockingEngineConfig config;
  config.scan_ns_per_row = 10'000.0;  // 1 B nominal: never finishes
  config.query_overhead_us = 0;
  BlockingEngine engine(config);
  auto catalog = Catalog(1'000'000'000);
  ASSERT_TRUE(engine.Prepare(catalog).ok());

  SessionManagerOptions options;
  options.time_requirement = 1'000'000;
  options.quantum = 64'000;  // deliberately not a divisor of the TR
  SessionManager manager(options, &engine, catalog);
  RecordingSink sink;
  auto sess = manager.CreateSession(&sink);
  ASSERT_TRUE(sess.ok());

  auto submitted =
      (*sess)->SubmitInteraction(Interaction::CreateViz(MakeGroupViz("v0")));
  ASSERT_TRUE(submitted.ok());
  ASSERT_TRUE(manager.RunUntilIdle().ok());

  const auto finals = sink.finals();
  ASSERT_EQ(finals.size(), 1u);
  EXPECT_TRUE(finals[0].cancelled);
  EXPECT_FALSE(finals[0].completed);
  EXPECT_FALSE(finals[0].result.available);  // blocking: nothing mid-scan
  // Cancelled exactly at the time requirement, never past it.
  EXPECT_EQ(finals[0].virtual_time, 1'000'000);
  const SchedulerStats stats = manager.stats();
  EXPECT_EQ(stats.deadline_cancelled, 1);
  EXPECT_EQ(stats.max_deadline_overshoot, 0);
}

TEST(SessionTest, ContentionPenaltyShrinksAdmittedBudgets) {
  BlockingEngineConfig config;
  config.query_overhead_us = 0;
  BlockingEngine engine(config);
  auto catalog = Catalog(1'000'000);
  ASSERT_TRUE(engine.Prepare(catalog).ok());

  SessionManagerOptions options;
  options.time_requirement = 1'000'000;
  options.contention_penalty = 1.0;
  SessionManager manager(options, &engine, catalog);
  RecordingSink sink_a;
  RecordingSink sink_b;
  auto a = manager.CreateSession(&sink_a);
  auto b = manager.CreateSession(&sink_b);
  ASSERT_TRUE(a.ok() && b.ok());

  // Session A admits one query alone: full budget.
  auto qa = (*a)->SubmitInteraction(Interaction::CreateViz(MakeGroupViz("v")));
  ASSERT_TRUE(qa.ok());
  // Session B admits while A is live: n = 2 -> budget halves.
  auto qb = (*b)->SubmitInteraction(Interaction::CreateViz(MakeGroupViz("w")));
  ASSERT_TRUE(qb.ok());
  ASSERT_TRUE(manager.RunUntilIdle().ok());

  ASSERT_EQ(sink_a.finals().size(), 1u);
  ASSERT_EQ(sink_b.finals().size(), 1u);
  EXPECT_EQ(sink_a.finals()[0].budget, 1'000'000);
  EXPECT_EQ(sink_b.finals()[0].budget, 500'000);
}

TEST(SessionTest, ClientCancelIsIdempotentAndPushesFinal) {
  BlockingEngineConfig config;
  config.scan_ns_per_row = 10'000.0;
  config.query_overhead_us = 0;
  BlockingEngine engine(config);
  auto catalog = Catalog(1'000'000'000);
  ASSERT_TRUE(engine.Prepare(catalog).ok());

  SessionManagerOptions options;
  options.time_requirement = 10'000'000;
  SessionManager manager(options, &engine, catalog);
  RecordingSink sink;
  auto sess = manager.CreateSession(&sink);
  ASSERT_TRUE(sess.ok());

  auto submitted =
      (*sess)->SubmitInteraction(Interaction::CreateViz(MakeGroupViz("v0")));
  ASSERT_TRUE(submitted.ok());
  const int64_t qid = (*submitted)[0].query_id;

  ASSERT_TRUE((*sess)->Cancel(qid).ok());
  EXPECT_TRUE((*sess)->Cancel(qid).ok());      // second cancel: no-op
  EXPECT_TRUE((*sess)->Cancel(99'999).ok());   // unknown id: no-op
  EXPECT_EQ((*sess)->live_queries(), 0);

  const auto finals = sink.finals();
  ASSERT_EQ(finals.size(), 1u);
  EXPECT_TRUE(finals[0].cancelled);
  EXPECT_EQ(manager.stats().client_cancelled, 1);
  EXPECT_FALSE(manager.HasLive());
}

TEST(SessionTest, CloseSessionCancelsItsLiveQueriesOnly) {
  BlockingEngineConfig config;
  config.scan_ns_per_row = 10'000.0;
  config.query_overhead_us = 0;
  BlockingEngine engine(config);
  auto catalog = Catalog(1'000'000'000);
  ASSERT_TRUE(engine.Prepare(catalog).ok());

  SessionManagerOptions options;
  options.time_requirement = 10'000'000;
  SessionManager manager(options, &engine, catalog);
  RecordingSink sink_a;
  RecordingSink sink_b;
  auto a = manager.CreateSession(&sink_a);
  auto b = manager.CreateSession(&sink_b);
  ASSERT_TRUE(a.ok() && b.ok());
  ASSERT_TRUE(
      (*a)->SubmitInteraction(Interaction::CreateViz(MakeGroupViz("va")))
          .ok());
  ASSERT_TRUE(
      (*b)->SubmitInteraction(Interaction::CreateViz(MakeGroupViz("vb")))
          .ok());

  ASSERT_TRUE(manager.CloseSession(*a).ok());
  ASSERT_EQ(sink_a.finals().size(), 1u);
  EXPECT_TRUE(sink_a.finals()[0].cancelled);
  EXPECT_TRUE(sink_b.finals().empty());  // B untouched
  EXPECT_TRUE(manager.HasLive());
  EXPECT_EQ((*b)->live_queries(), 1);
}

TEST(SessionTest, LinkAndSelectionPropagateThroughSessionGraph) {
  BlockingEngineConfig config;
  config.scan_ns_per_row = 10.0;
  config.query_overhead_us = 0;
  BlockingEngine engine(config);
  auto catalog = Catalog(1'000'000);
  ASSERT_TRUE(engine.Prepare(catalog).ok());

  SessionManagerOptions options;
  options.time_requirement = 1'000'000;
  SessionManager manager(options, &engine, catalog);
  RecordingSink sink;
  auto sess = manager.CreateSession(&sink);
  ASSERT_TRUE(sess.ok());

  ASSERT_TRUE(
      (*sess)->SubmitInteraction(Interaction::CreateViz(MakeGroupViz("v0")))
          .ok());
  ASSERT_TRUE(
      (*sess)->SubmitInteraction(Interaction::CreateViz(MakeGroupViz("v1")))
          .ok());
  // The LinkVizs convenience wraps a link interaction: the target
  // re-queries.
  auto linked = (*sess)->LinkVizs("v0", "v1");
  ASSERT_TRUE(linked.ok());
  ASSERT_EQ(linked->size(), 1u);
  EXPECT_EQ((*linked)[0].spec.viz_name, "v1");

  // A selection on v0 propagates its filter to v1's query.
  expr::FilterExpr selection;
  expr::Predicate p;
  p.column = "flag";
  p.op = expr::CompareOp::kEq;
  p.value = 1.0;
  selection.And(p);
  auto brushed =
      (*sess)->SubmitInteraction(Interaction::SetSelection("v0", selection));
  ASSERT_TRUE(brushed.ok());
  ASSERT_EQ(brushed->size(), 1u);
  EXPECT_EQ((*brushed)[0].spec.viz_name, "v1");
  EXPECT_EQ((*brushed)[0].spec.filter.predicates().size(), 1u);
  ASSERT_TRUE(manager.RunUntilIdle().ok());

  // All four queries completed on the tiny catalog; the brushed count
  // totals the 4 flag==1 rows.
  const auto finals = sink.finals();
  ASSERT_EQ(finals.size(), 4u);
  EXPECT_TRUE(finals[3].completed);
  EXPECT_NEAR(finals[3].result.TotalEstimate(), 4.0, 1e-9);

  // DiscardViz drops the dashboard node: selections stop propagating.
  ASSERT_TRUE((*sess)->DiscardViz("v1").ok());
  auto after =
      (*sess)->SubmitInteraction(Interaction::SetSelection("v0", selection));
  ASSERT_TRUE(after.ok());
  EXPECT_TRUE(after->empty());
}

TEST(SessionTest, UnsupportedQueriesReportedAsFinalUpdates) {
  // The online engine without fallback rejects AVG queries.
  engines::OnlineEngineConfig config;
  config.enable_fallback = false;
  engines::OnlineEngine online(config);
  auto catalog = Catalog(1'000'000);
  ASSERT_TRUE(online.Prepare(catalog).ok());

  SessionManagerOptions options;
  SessionManager manager(options, &online, catalog);
  RecordingSink sink;
  auto sess = manager.CreateSession(&sink);
  ASSERT_TRUE(sess.ok());

  query::VizSpec avg_viz = MakeGroupViz("v0");
  avg_viz.aggregates[0].type = query::AggregateType::kAvg;
  avg_viz.aggregates[0].column = "value";
  auto submitted =
      (*sess)->SubmitInteraction(Interaction::CreateViz(avg_viz));
  ASSERT_TRUE(submitted.ok());
  ASSERT_EQ(submitted->size(), 1u);
  EXPECT_TRUE((*submitted)[0].unsupported);
  EXPECT_FALSE(manager.HasLive());

  const auto finals = sink.finals();
  ASSERT_EQ(finals.size(), 1u);
  EXPECT_TRUE(finals[0].unsupported);
  EXPECT_TRUE(finals[0].final_update);
  EXPECT_FALSE(finals[0].result.available);
  EXPECT_EQ(manager.stats().unsupported, 1);
}

TEST(SessionTest, RoundRobinInterleavesSessionsWithinASlice) {
  // Two sessions, each a never-finishing scan; with a finite quantum the
  // scheduler must advance both queries in lockstep (fair division), not
  // run one to its deadline first.
  BlockingEngineConfig config;
  config.scan_ns_per_row = 1'000.0;  // 1 us per actual row
  config.query_overhead_us = 0;
  BlockingEngine engine(config);
  auto catalog = Catalog(8'000'000);  // scan cost 8 s >> TR
  ASSERT_TRUE(engine.Prepare(catalog).ok());

  SessionManagerOptions options;
  options.time_requirement = 1'000'000;
  options.quantum = 100'000;
  options.push_partials = false;
  SessionManager manager(options, &engine, catalog);
  RecordingSink sink_a;
  RecordingSink sink_b;
  auto a = manager.CreateSession(&sink_a);
  auto b = manager.CreateSession(&sink_b);
  ASSERT_TRUE(a.ok() && b.ok());
  ASSERT_TRUE(
      (*a)->SubmitInteraction(Interaction::CreateViz(MakeGroupViz("va")))
          .ok());
  ASSERT_TRUE(
      (*b)->SubmitInteraction(Interaction::CreateViz(MakeGroupViz("vb")))
          .ok());

  // After half the TR, both queries must have consumed equal compute.
  ASSERT_TRUE(manager.AdvanceTo(500'000).ok());
  ASSERT_TRUE(manager.HasLive());
  ASSERT_TRUE(manager.RunUntilIdle().ok());
  ASSERT_EQ(sink_a.finals().size(), 1u);
  ASSERT_EQ(sink_b.finals().size(), 1u);
  // Both ran their full (equal) entitlement and were cancelled together.
  EXPECT_EQ(sink_a.finals()[0].consumed, sink_b.finals()[0].consumed);
  EXPECT_EQ(sink_a.finals()[0].virtual_time, 1'000'000);
  EXPECT_EQ(sink_b.finals()[0].virtual_time, 1'000'000);
  EXPECT_EQ(manager.stats().max_deadline_overshoot, 0);
}

TEST(SessionTest, StatsCountersAddUp) {
  BlockingEngineConfig config;
  config.scan_ns_per_row = 10.0;
  config.query_overhead_us = 0;
  BlockingEngine engine(config);
  auto catalog = Catalog(1'000'000);
  ASSERT_TRUE(engine.Prepare(catalog).ok());

  SessionManagerOptions options;
  options.time_requirement = 1'000'000;
  SessionManager manager(options, &engine, catalog);
  RecordingSink sink;
  auto sess = manager.CreateSession(&sink);
  ASSERT_TRUE(sess.ok());
  ASSERT_TRUE(
      (*sess)->SubmitInteraction(Interaction::CreateViz(MakeGroupViz("v0")))
          .ok());
  ASSERT_TRUE(
      (*sess)->SubmitInteraction(Interaction::CreateViz(MakeGroupViz("v1")))
          .ok());
  ASSERT_TRUE(manager.RunUntilIdle().ok());

  const SchedulerStats stats = manager.stats();
  EXPECT_EQ(stats.sessions_opened, 1);
  EXPECT_EQ(stats.queries_submitted, 2);
  EXPECT_EQ(stats.completed, 2);
  EXPECT_EQ(stats.deadline_cancelled, 0);
  EXPECT_EQ(stats.client_cancelled, 0);
  EXPECT_EQ(stats.unsupported, 0);
  EXPECT_EQ(stats.max_deadline_overshoot, 0);
  EXPECT_EQ(stats.virtual_now, manager.VirtualNow());
}

TEST(SessionTest, CloseIsIdempotentAndSubmitAfterCloseFailsCleanly) {
  BlockingEngineConfig config;
  config.scan_ns_per_row = 10.0;
  config.query_overhead_us = 0;
  BlockingEngine engine(config);
  auto catalog = Catalog(1'000'000);
  ASSERT_TRUE(engine.Prepare(catalog).ok());

  SessionManager manager({}, &engine, catalog);
  RecordingSink sink;
  auto sess = manager.CreateSession(&sink);
  ASSERT_TRUE(sess.ok());
  ExplorationSession* session = *sess;
  EXPECT_FALSE(session->closed());

  ASSERT_TRUE(manager.CloseSession(session).ok());
  EXPECT_TRUE(session->closed());
  // Double close is a no-op, and the handle stays dereferenceable.
  EXPECT_TRUE(manager.CloseSession(session).ok());

  // Submitting on a closed session fails with a clean status instead of
  // touching freed memory.
  auto submitted =
      session->SubmitInteraction(Interaction::CreateViz(MakeGroupViz("v0")));
  ASSERT_FALSE(submitted.ok());
  EXPECT_EQ(submitted.status().code(), StatusCode::kInvalidArgument);
  // Cancelling through a closed session is still the usual no-op.
  EXPECT_TRUE(session->Cancel(0).ok());
  EXPECT_EQ(manager.stats().queries_submitted, 0);
}

TEST(SessionTest, ClosingOneSessionLeavesOthersServing) {
  BlockingEngineConfig config;
  config.scan_ns_per_row = 10.0;
  config.query_overhead_us = 0;
  BlockingEngine engine(config);
  auto catalog = Catalog(1'000'000);
  ASSERT_TRUE(engine.Prepare(catalog).ok());

  SessionManager manager({}, &engine, catalog);
  RecordingSink sink_a, sink_b;
  auto a = manager.CreateSession(&sink_a);
  auto b = manager.CreateSession(&sink_b);
  ASSERT_TRUE(a.ok());
  ASSERT_TRUE(b.ok());

  // Close A with a live query: its query cancels, B keeps serving
  // (the engine-wide WorkflowEnd only fires at the *last* close).
  ASSERT_TRUE(
      (*a)->SubmitInteraction(Interaction::CreateViz(MakeGroupViz("va"))).ok());
  ASSERT_TRUE(manager.CloseSession(*a).ok());
  ASSERT_EQ(sink_a.finals().size(), 1u);
  EXPECT_TRUE(sink_a.finals()[0].cancelled);

  ASSERT_TRUE(
      (*b)->SubmitInteraction(Interaction::CreateViz(MakeGroupViz("vb"))).ok());
  ASSERT_TRUE(manager.RunUntilIdle().ok());
  ASSERT_EQ(sink_b.finals().size(), 1u);
  EXPECT_TRUE(sink_b.finals()[0].completed);
  ASSERT_TRUE(manager.CloseSession(*b).ok());
  EXPECT_EQ(manager.stats().completed, 1);
  EXPECT_EQ(manager.stats().client_cancelled, 1);
}

TEST(SessionTest, VizNamespacingShieldsReuseSnapshotsAcrossSessions) {
  // Regression: two sessions sharing one engine both call their chart
  // "viz_0".  Engine-facing names are session-qualified ("s0/viz_0" vs
  // "s1/viz_0"), so when B discards *its* viz_0 the engine must not drop
  // A's reuse snapshots.  Before namespacing, B's discard of the raw
  // name wiped A's cache entries and A's identical resubmission missed.
  ProgressiveEngineConfig config;
  config.query_overhead_us = 0;
  config.restart_overhead_us = 0;
  config.sample_us_per_row = 100'000.0;  // completes within the TR
  config.reuse_cache = true;
  // Semantic reuse would serve A's resubmission from the engine's own
  // sample state before the cross-interaction cache is consulted; turn
  // it off so every submission cold-starts through the cache lookup.
  config.enable_reuse = false;
  config.expected_sessions = 2;
  ProgressiveEngine engine(config);
  auto catalog = Catalog(1'000'000);
  ASSERT_TRUE(engine.Prepare(catalog).ok());

  SessionManagerOptions options;
  options.time_requirement = 2'000'000;
  SessionManager manager(options, &engine, catalog);
  RecordingSink sink_a, sink_b;
  // Both sessions open before any query: WorkflowStart (which clears the
  // cache) fires only when serving starts.
  auto a = manager.CreateSession(&sink_a);
  auto b = manager.CreateSession(&sink_b);
  ASSERT_TRUE(a.ok() && b.ok());

  // A completes viz_0: the engine snapshots it under owner "s0/viz_0".
  ASSERT_TRUE(
      (*a)->SubmitInteraction(Interaction::CreateViz(MakeGroupViz("viz_0")))
          .ok());
  ASSERT_TRUE(manager.RunUntilIdle().ok());
  ASSERT_EQ(sink_a.finals().size(), 1u);
  EXPECT_TRUE(sink_a.finals()[0].completed);
  // Client-facing updates carry the raw name, not the qualified one.
  EXPECT_EQ(sink_a.finals()[0].viz_name, "viz_0");
  ASSERT_GT(engine.reuse_cache_stats().entries, 0);

  // B runs the same chart under the same raw name, then discards it.
  ASSERT_TRUE(
      (*b)->SubmitInteraction(Interaction::CreateViz(MakeGroupViz("viz_0")))
          .ok());
  ASSERT_TRUE(manager.RunUntilIdle().ok());
  ASSERT_EQ(sink_b.finals().size(), 1u);
  EXPECT_EQ(sink_b.finals()[0].viz_name, "viz_0");
  ASSERT_TRUE((*b)->DiscardViz("viz_0").ok());

  // A resubmits the identical spec: its snapshot must have survived B's
  // discard, so the lookup is an equal hit.
  const auto mid = engine.reuse_cache_stats();
  (*a)->ResetDashboard();
  ASSERT_TRUE(
      (*a)->SubmitInteraction(Interaction::CreateViz(MakeGroupViz("viz_0")))
          .ok());
  ASSERT_TRUE(manager.RunUntilIdle().ok());
  const auto after = engine.reuse_cache_stats();
  EXPECT_GT(after.equal_hits, mid.equal_hits);
  EXPECT_EQ(after.misses, mid.misses);
}

TEST(SessionTest, BudgetScaleShrinksEntitlementDeadlineUnchanged) {
  // Graceful degradation hook: a scaled submission answers from a
  // smaller sample (less virtual work granted) but keeps the same
  // deadline, so a degraded query still terminates on time.
  ProgressiveEngineConfig config;
  config.query_overhead_us = 0;
  config.restart_overhead_us = 0;
  config.sample_us_per_row = 1'000'000.0;  // never finishes 8 rows in TR
  auto catalog = Catalog(1'000'000);

  SessionManagerOptions options;
  options.time_requirement = 2'000'000;

  auto run = [&](double budget_scale) {
    ProgressiveEngine engine(config);
    EXPECT_TRUE(engine.Prepare(catalog).ok());
    SessionManager manager(options, &engine, catalog);
    RecordingSink sink;
    auto sess = manager.CreateSession(&sink);
    EXPECT_TRUE(sess.ok());
    auto submitted = (*sess)->SubmitInteraction(
        Interaction::CreateViz(MakeGroupViz("v0")), budget_scale);
    EXPECT_TRUE(submitted.ok());
    EXPECT_TRUE(manager.RunUntilIdle().ok());
    EXPECT_EQ(sink.finals().size(), 1u);
    return sink.finals()[0];
  };

  const ProgressiveUpdate full = run(1.0);
  const ProgressiveUpdate degraded = run(0.5);
  // Half the entitlement: half the rows sampled, same deadline.
  EXPECT_EQ(degraded.budget, full.budget / 2);
  EXPECT_LT(degraded.consumed, full.consumed);
  EXPECT_LE(degraded.virtual_time, full.virtual_time);
  EXPECT_GT(degraded.result.rows_processed, 0);
  EXPECT_LT(degraded.result.rows_processed, full.result.rows_processed);
  // budget_scale outside (0, 1] is a client error, reported eagerly.
  ProgressiveEngine engine(config);
  ASSERT_TRUE(engine.Prepare(catalog).ok());
  SessionManager manager(options, &engine, catalog);
  RecordingSink sink;
  auto sess = manager.CreateSession(&sink);
  ASSERT_TRUE(sess.ok());
  EXPECT_FALSE(
      (*sess)
          ->SubmitInteraction(Interaction::CreateViz(MakeGroupViz("v0")), 0.0)
          .ok());
  EXPECT_FALSE(
      (*sess)
          ->SubmitInteraction(Interaction::CreateViz(MakeGroupViz("v0")), 1.5)
          .ok());
}

TEST(SessionTest, ReplayHandsOnEachFinalizedBatchOnce) {
  // 10 ms scans on a 5 ms quantum: the filtered query of interaction 3
  // (cost multiplier 1.08) finalizes one slice after its unfiltered
  // sibling, so a batch can be half final when the scheduler stops.
  BlockingEngineConfig config;
  config.scan_ns_per_row = 10.0;
  config.query_overhead_us = 0;
  BlockingEngine engine(config);
  auto catalog = Catalog(1'000'000);
  ASSERT_TRUE(engine.Prepare(catalog).ok());

  expr::FilterExpr filter;
  expr::Predicate p;
  p.column = "value";
  p.op = expr::CompareOp::kGe;
  p.value = 0;
  filter.And(p);
  workflow::Workflow wf;
  wf.interactions = {Interaction::CreateViz(MakeGroupViz("a")),
                     Interaction::CreateViz(MakeGroupViz("b")),
                     Interaction::Link("a", "b"),
                     Interaction::SetFilter("a", filter),  // two queries
                     Interaction::Discard("b")};           // no query

  SessionManagerOptions options;
  options.time_requirement = 1'000'000;
  options.quantum = 5'000;
  options.push_partials = false;
  SessionManager manager(options, &engine, catalog);
  RecordingSink sinks[2];
  std::vector<SessionReplay> runs;
  for (RecordingSink& sink : sinks) {
    auto created = manager.CreateSession(&sink);
    ASSERT_TRUE(created.ok());
    runs.push_back({*created, {&wf}});
  }
  runs[0].workflows.push_back(&wf);  // the same workflow again

  struct Seen {
    size_t run;
    int64_t interaction;
    Micros admitted;
    Micros done;  // latest final update of the batch
  };
  std::vector<Seen> seen;
  const auto on_batch = [&](const ReplayedBatch& batch) -> Status {
    EXPECT_EQ(batch.workflow, &wf);
    EXPECT_FALSE(batch.queries.empty());
    Micros done = batch.admitted;
    for (const SubmittedQuery& q : batch.queries) {
      int finals = 0;
      for (const ProgressiveUpdate& u : sinks[batch.run].finals()) {
        if (u.query_id != q.query_id) continue;
        ++finals;
        done = std::max(done, u.virtual_time);
      }
      EXPECT_EQ(finals, 1) << "query " << q.query_id;
    }
    EXPECT_EQ(done, manager.VirtualNow());
    seen.push_back({batch.run, batch.interaction, batch.admitted, done});
    return Status::OK();
  };
  constexpr Micros kThink = 200'000;
  ASSERT_TRUE(
      ReplaySessionsToCompletion(&manager, runs, kThink, on_batch).ok());

  // Once per batch that submitted queries, never for the discard; the
  // second workflow replays on a fresh dashboard.
  const std::vector<int64_t> once = {0, 1, 2, 3};
  const std::vector<int64_t> twice = {0, 1, 2, 3, 0, 1, 2, 3};
  for (size_t run = 0; run < 2; ++run) {
    std::vector<int64_t> interactions;
    const Seen* last = nullptr;
    for (const Seen& s : seen) {
      if (s.run != run) continue;
      interactions.push_back(s.interaction);
      if (last != nullptr) {
        // Think time follows each finalized batch, and the discard.
        const Micros thinks = s.interaction == 0 ? 2 : 1;
        EXPECT_EQ(s.admitted, last->done + thinks * kThink)
            << "run " << run << " interaction " << s.interaction;
      }
      last = &s;
    }
    EXPECT_EQ(interactions, run == 0 ? twice : once) << "run " << run;
  }
  const SchedulerStats stats = manager.stats();
  EXPECT_EQ(stats.queries_submitted, 3 * 5);
  EXPECT_EQ(stats.completed, 3 * 5);
  EXPECT_FALSE(manager.HasLive());
}

}  // namespace
}  // namespace idebench::session
