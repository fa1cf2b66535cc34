#ifndef IDEBENCH_TESTS_WORKFLOW_HARNESS_H_
#define IDEBENCH_TESTS_WORKFLOW_HARNESS_H_

/// \file workflow_harness.h
/// Differential workflow harness: replays a generated workflow against an
/// engine the way the benchmark driver does (dashboard graph, query
/// building/resolution, budgeted RunFor, poll, cancel, think time) but
/// captures the raw `QueryResult` of every query instead of quality
/// metrics — so two runs of the same workflow under different execution
/// configurations (reuse cache on/off, thread counts, future pipeline
/// variants) can be compared bit for bit.  Shared by
/// `workflow_fuzz_test.cc` and available to future differential suites.

#include <string>
#include <unordered_map>
#include <vector>

#include <gtest/gtest.h>

#include "driver/benchmark_driver.h"
#include "engines/engine.h"
#include "query/result.h"
#include "session/session.h"
#include "storage/catalog.h"
#include "workflow/resolve.h"
#include "workflow/viz_graph.h"
#include "workflow/workflow.h"

namespace idebench::testharness {

/// The raw answer of one query triggered by one interaction.
struct QueryOutcome {
  int64_t interaction_id = 0;
  std::string viz;
  bool unsupported = false;  // engine returned NotImplemented at Submit
  query::QueryResult result;
};

/// Replay knobs.  Budgets cycle per query so a workflow exercises full
/// completions, partial walks, and overhead-starved queries alike.
struct HarnessOptions {
  std::vector<Micros> budgets = {3'000'000, 50'000, 400'000};
  Micros think_time = 1'000'000;
};

/// Replays `wf` against a prepared `engine`; returns one outcome per
/// (interaction, affected viz) in driver order.  Query enumeration is
/// shared with the benchmark driver (`workflow::ForEachInteraction`), so
/// the harness replays exactly the queries a real run would submit.
inline Result<std::vector<QueryOutcome>> RunWorkflowOnEngine(
    engines::Engine* engine, const storage::Catalog& catalog,
    const workflow::Workflow& wf, const HarnessOptions& options = {}) {
  std::vector<QueryOutcome> outcomes;
  engine->WorkflowStart();
  int64_t query_index = 0;
  IDB_RETURN_NOT_OK(workflow::ForEachInteraction(
      catalog, wf,
      [&](const workflow::Interaction& interaction, int64_t interaction_id,
          std::vector<query::QuerySpec>& specs) -> Status {
        if (interaction.type == workflow::InteractionType::kLink) {
          engine->LinkVizs(interaction.link_from, interaction.link_to);
        } else if (interaction.type == workflow::InteractionType::kDiscard) {
          engine->DiscardViz(interaction.viz_name);
        }

        for (query::QuerySpec& spec : specs) {
          QueryOutcome outcome;
          outcome.interaction_id = interaction_id;
          outcome.viz = spec.viz_name;
          auto submit = engine->Submit(spec);
          const Micros budget =
              options.budgets.empty()
                  ? 1'000'000
                  : options.budgets[static_cast<size_t>(
                        query_index %
                        static_cast<int64_t>(options.budgets.size()))];
          ++query_index;
          if (!submit.ok()) {
            if (submit.status().code() != StatusCode::kNotImplemented) {
              return submit.status();
            }
            outcome.unsupported = true;
            outcomes.push_back(std::move(outcome));
            continue;
          }
          const engines::QueryHandle handle = *submit;
          Micros consumed = 0;
          while (consumed < budget && !engine->IsDone(handle)) {
            const Micros step = engine->RunFor(handle, budget - consumed);
            if (step <= 0) break;
            consumed += step;
          }
          IDB_ASSIGN_OR_RETURN(outcome.result, engine->PollResult(handle));
          engine->Cancel(handle);
          outcomes.push_back(std::move(outcome));
        }
        engine->OnThink(options.think_time);
        return Status::OK();
      }));
  engine->WorkflowEnd();
  return outcomes;
}

/// Replays `wf` the way the *seed* benchmark driver pulled the engine:
/// per interaction, submit every affected query, grant each its full
/// `budget` sequentially, poll all, cancel all, think.  The legacy
/// single-client reference the session serving path is held to.
struct BatchedHarnessOptions {
  Micros budget = 3'000'000;
  Micros think_time = 1'000'000;
};

inline Result<std::vector<QueryOutcome>> RunWorkflowOnEngineBatched(
    engines::Engine* engine, const storage::Catalog& catalog,
    const workflow::Workflow& wf, const BatchedHarnessOptions& options = {}) {
  std::vector<QueryOutcome> outcomes;
  engine->WorkflowStart();
  IDB_RETURN_NOT_OK(workflow::ForEachInteraction(
      catalog, wf,
      [&](const workflow::Interaction& interaction, int64_t interaction_id,
          std::vector<query::QuerySpec>& specs) -> Status {
        if (interaction.type == workflow::InteractionType::kLink) {
          engine->LinkVizs(interaction.link_from, interaction.link_to);
        } else if (interaction.type == workflow::InteractionType::kDiscard) {
          engine->DiscardViz(interaction.viz_name);
        }

        struct InFlight {
          QueryOutcome outcome;
          engines::QueryHandle handle = -1;
        };
        std::vector<InFlight> inflight;
        for (query::QuerySpec& spec : specs) {
          InFlight q;
          q.outcome.interaction_id = interaction_id;
          q.outcome.viz = spec.viz_name;
          auto submit = engine->Submit(spec);
          if (!submit.ok()) {
            if (submit.status().code() != StatusCode::kNotImplemented) {
              return submit.status();
            }
            q.outcome.unsupported = true;
            inflight.push_back(std::move(q));
            continue;
          }
          q.handle = *submit;
          inflight.push_back(std::move(q));
        }
        for (InFlight& q : inflight) {
          if (q.outcome.unsupported) continue;
          Micros consumed = 0;
          while (consumed < options.budget && !engine->IsDone(q.handle)) {
            const Micros step =
                engine->RunFor(q.handle, options.budget - consumed);
            if (step <= 0) break;
            consumed += step;
          }
        }
        for (InFlight& q : inflight) {
          if (!q.outcome.unsupported) {
            IDB_ASSIGN_OR_RETURN(q.outcome.result,
                                 engine->PollResult(q.handle));
            engine->Cancel(q.handle);
          }
          outcomes.push_back(std::move(q.outcome));
        }
        engine->OnThink(options.think_time);
        return Status::OK();
      }));
  engine->WorkflowEnd();
  return outcomes;
}

/// Replays `wf` through the session serving API (session/session.h): one
/// `ExplorationSession`, one `SubmitInteraction` + `RunUntilIdle` per
/// interaction, outcomes taken from the pushed final updates in
/// submission order.  With `quantum == 0` (default) the scheduler's
/// engine call sequence must match `RunWorkflowOnEngineBatched` exactly;
/// any `quantum` must still deliver exactly one final update per query.
struct SessionHarnessOptions {
  Micros budget = 3'000'000;  // the manager's time requirement
  Micros think_time = 1'000'000;
  Micros quantum = 0;
  bool push_partials = true;  // prove mid-run polling never perturbs
};

inline Result<std::vector<QueryOutcome>> RunWorkflowThroughSession(
    engines::Engine* engine, std::shared_ptr<const storage::Catalog> catalog,
    const workflow::Workflow& wf, const SessionHarnessOptions& options = {}) {
  class Collector : public session::ResultSink {
   public:
    void OnUpdate(const session::ProgressiveUpdate& update) override {
      if (update.final_update) finals_[update.query_id] = update;
    }
    std::unordered_map<int64_t, session::ProgressiveUpdate> finals_;
  };

  session::SessionManagerOptions mopts;
  mopts.time_requirement = options.budget;
  mopts.quantum = options.quantum;
  mopts.push_partials = options.push_partials;
  Collector sink;  // must outlive the manager
  session::SessionManager manager(mopts, engine, std::move(catalog));
  IDB_ASSIGN_OR_RETURN(session::ExplorationSession * sess,
                       manager.CreateSession(&sink));

  std::vector<QueryOutcome> outcomes;
  for (size_t i = 0; i < wf.interactions.size(); ++i) {
    IDB_ASSIGN_OR_RETURN(std::vector<session::SubmittedQuery> submitted,
                         sess->SubmitInteraction(wf.interactions[i]));
    IDB_RETURN_NOT_OK(manager.RunUntilIdle());
    for (const session::SubmittedQuery& sq : submitted) {
      auto it = sink.finals_.find(sq.query_id);
      if (it == sink.finals_.end()) {
        return Status::Unknown("no final update for submitted query");
      }
      QueryOutcome outcome;
      outcome.interaction_id = static_cast<int64_t>(i);
      outcome.viz = sq.spec.viz_name;
      outcome.unsupported = it->second.unsupported;
      outcome.result = it->second.result;
      outcomes.push_back(std::move(outcome));
    }
    sess->Think(options.think_time);
  }
  IDB_RETURN_NOT_OK(manager.CloseSession(sess));
  return outcomes;
}

/// Asserts two query results agree bit for bit: flags, progress, row
/// counters, bin keys, and every estimate/margin compared with exact
/// (==) double equality.
inline void ExpectResultsBitIdentical(const query::QueryResult& a,
                                      const query::QueryResult& b,
                                      const std::string& label) {
  EXPECT_EQ(a.available, b.available) << label;
  EXPECT_EQ(a.exact, b.exact) << label;
  EXPECT_EQ(a.progress, b.progress) << label;
  EXPECT_EQ(a.rows_processed, b.rows_processed) << label;
  ASSERT_EQ(a.bins.size(), b.bins.size()) << label;
  for (const auto& [key, bin] : a.bins) {
    auto it = b.bins.find(key);
    ASSERT_NE(it, b.bins.end()) << label << ": bin " << key << " missing";
    ASSERT_EQ(bin.values.size(), it->second.values.size())
        << label << ": bin " << key;
    for (size_t v = 0; v < bin.values.size(); ++v) {
      EXPECT_EQ(bin.values[v].estimate, it->second.values[v].estimate)
          << label << ": estimate, bin " << key << " agg " << v;
      EXPECT_EQ(bin.values[v].margin, it->second.values[v].margin)
          << label << ": margin, bin " << key << " agg " << v;
    }
  }
}

/// Asserts two workflow replays delivered bit-identical answers.
inline void ExpectOutcomesBitIdentical(const std::vector<QueryOutcome>& a,
                                       const std::vector<QueryOutcome>& b,
                                       const std::string& label) {
  ASSERT_EQ(a.size(), b.size()) << label;
  for (size_t i = 0; i < a.size(); ++i) {
    const std::string q = label + ", query " + std::to_string(i) + " (viz " +
                          a[i].viz + ", interaction " +
                          std::to_string(a[i].interaction_id) + ")";
    EXPECT_EQ(a[i].interaction_id, b[i].interaction_id) << q;
    EXPECT_EQ(a[i].viz, b[i].viz) << q;
    ASSERT_EQ(a[i].unsupported, b[i].unsupported) << q;
    if (!a[i].unsupported) {
      ExpectResultsBitIdentical(a[i].result, b[i].result, q);
    }
  }
}

}  // namespace idebench::testharness

#endif  // IDEBENCH_TESTS_WORKFLOW_HARNESS_H_
