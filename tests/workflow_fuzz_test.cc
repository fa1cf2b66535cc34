/// \file workflow_fuzz_test.cc
/// Differential workflow fuzz: sweep the workflow generator across seeds
/// and replay every generated workflow on each engine with the
/// cross-interaction reuse cache on vs. off, at 1 and 4 execution
/// threads, asserting bit-identical `QueryResult`s throughout.  This is
/// the transparency proof for exec/reuse_cache.h — reuse may only
/// displace physical work, never change an answer — and the regression
/// harness future execution-pipeline changes run under (see
/// workflow_harness.h).
///
/// The fixture catalog stays below exec::kMorselRows so every feed chunk
/// aggregates sequentially: with larger inputs, real-valued sums across
/// differently-chunked morsel merges may regroup in the last ulp (the
/// documented exec/parallel.h caveat), which would make exact ==
/// comparison too strict without weakening the test where it matters.

#include <functional>
#include <memory>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "common/logging.h"
#include "datagen/flights_seed.h"
#include "engines/registry.h"
#include "ingest/ingest.h"
#include "storage/segment.h"
#include "tests/workflow_harness.h"
#include "workflow/generator.h"

namespace idebench {
namespace {

constexpr int kSeeds = 20;
constexpr int kThreadCounts[] = {1, 4};

/// Shared small flights catalog (4000 rows, denormalized — the layout
/// all four engines support).
std::shared_ptr<storage::Catalog> FuzzCatalog() {
  static const std::shared_ptr<storage::Catalog> catalog = [] {
    datagen::FlightsSeedConfig config;
    config.rows = 4000;
    config.seed = 11;
    auto table = datagen::GenerateFlightsSeed(config);
    IDB_CHECK(table.ok());
    auto c = std::make_shared<storage::Catalog>();
    IDB_CHECK(c->AddTable(std::make_shared<storage::Table>(
                              std::move(table).MoveValueUnsafe()))
                  .ok());
    return c;
  }();
  return catalog;
}

/// One generated workflow per seed (mixed type: covers create/filter/
/// brush/link/discard segments of all four browsing patterns).
const workflow::Workflow& FuzzWorkflow(int seed) {
  static std::vector<workflow::Workflow>* workflows = [] {
    auto* out = new std::vector<workflow::Workflow>();
    for (int s = 0; s < kSeeds; ++s) {
      workflow::GeneratorConfig config;
      workflow::WorkflowGenerator generator(FuzzCatalog()->fact_table(),
                                            config,
                                            static_cast<uint64_t>(s) + 1);
      auto wf = generator.Generate(workflow::WorkflowType::kMixed,
                                   "fuzz_" + std::to_string(s));
      IDB_CHECK(wf.ok());
      out->push_back(std::move(wf).MoveValueUnsafe());
    }
    return out;
  }();
  return (*workflows)[static_cast<size_t>(seed)];
}

/// FuzzCatalog packed into segment files and decoded back
/// (storage/segment.h) — byte-for-byte interchangeable with the original
/// by the decode contract, which the segment sweep below proves through
/// all four engines.
std::shared_ptr<storage::Catalog> SegmentCatalog() {
  static const std::shared_ptr<storage::Catalog> catalog = [] {
    const std::string dir =
        std::string(::testing::TempDir()) + "/fuzz_segment_cache";
    IDB_CHECK(storage::WriteCatalogSegments(*FuzzCatalog(), dir).ok());
    auto loaded = storage::LoadCatalogSegments(dir);
    IDB_CHECK(loaded.ok());
    return std::make_shared<storage::Catalog>(
        std::move(loaded).MoveValueUnsafe());
  }();
  return catalog;
}

/// Replays workflow `seed` on a fresh engine over `catalog`; returns the
/// outcomes and (optionally) the engine's reuse telemetry.
std::vector<testharness::QueryOutcome> ReplayOn(
    const std::shared_ptr<storage::Catalog>& catalog,
    const std::string& engine_name, int seed, int threads, bool reuse,
    metrics::ReuseCacheStats* stats = nullptr) {
  auto engine = engines::CreateEngine(engine_name, /*seed=*/0, threads, reuse);
  IDB_CHECK(engine.ok());
  auto prepared = (*engine)->Prepare(catalog);
  IDB_CHECK(prepared.ok());
  auto outcomes = testharness::RunWorkflowOnEngine(engine->get(), *catalog,
                                                   FuzzWorkflow(seed));
  IDB_CHECK(outcomes.ok());
  if (stats != nullptr) *stats += (*engine)->reuse_cache_stats();
  return std::move(outcomes).MoveValueUnsafe();
}

std::vector<testharness::QueryOutcome> Replay(
    const std::string& engine_name, int seed, int threads, bool reuse,
    metrics::ReuseCacheStats* stats = nullptr) {
  return ReplayOn(FuzzCatalog(), engine_name, seed, threads, reuse, stats);
}

/// The differential sweep for one engine: reuse on vs. off must be
/// bit-identical for every seed and thread count, and across all seeds
/// the cache must actually have served work (otherwise the test proves
/// nothing).
void RunFuzz(const std::string& engine_name) {
  metrics::ReuseCacheStats total;
  for (int seed = 0; seed < kSeeds; ++seed) {
    for (int threads : kThreadCounts) {
      const std::string label = engine_name + ", seed " +
                                std::to_string(seed) + ", threads " +
                                std::to_string(threads);
      auto off = Replay(engine_name, seed, threads, /*reuse=*/false);
      auto on = Replay(engine_name, seed, threads, /*reuse=*/true, &total);
      testharness::ExpectOutcomesBitIdentical(off, on, label);
      if (::testing::Test::HasFatalFailure()) return;
    }
  }
  EXPECT_GT(total.equal_hits + total.refinement_hits, 0)
      << engine_name << ": the sweep never hit the cache";
  EXPECT_GT(total.rows_served, 0)
      << engine_name << ": hits never displaced physical work";
}

/// The segment sweep: every engine, seed and thread count must produce
/// bit-identical outcomes whether the catalog came straight from the
/// generator or through a segment-file round trip — the load-path half
/// of the tiered-storage bit-identity contract (plus a reuse-off
/// sub-sweep so the cache can't mask a divergence).
void RunSegmentFuzz(const std::string& engine_name) {
  for (int seed = 0; seed < kSeeds; ++seed) {
    for (int threads : kThreadCounts) {
      const std::string label = engine_name + " on segments, seed " +
                                std::to_string(seed) + ", threads " +
                                std::to_string(threads);
      auto flat = Replay(engine_name, seed, threads, /*reuse=*/true);
      auto seg = ReplayOn(SegmentCatalog(), engine_name, seed, threads,
                          /*reuse=*/true);
      testharness::ExpectOutcomesBitIdentical(flat, seg, label);
      if (::testing::Test::HasFatalFailure()) return;
    }
  }
  for (int seed = 0; seed < 5; ++seed) {
    const std::string label =
        engine_name + " on segments, reuse off, seed " + std::to_string(seed);
    auto flat = Replay(engine_name, seed, /*threads=*/1, /*reuse=*/false);
    auto seg = ReplayOn(SegmentCatalog(), engine_name, seed, /*threads=*/1,
                        /*reuse=*/false);
    testharness::ExpectOutcomesBitIdentical(flat, seg, label);
    if (::testing::Test::HasFatalFailure()) return;
  }
}

TEST(WorkflowFuzzTest, BlockingSegmentCatalogBitIdentical) {
  RunSegmentFuzz("blocking");
}

TEST(WorkflowFuzzTest, OnlineSegmentCatalogBitIdentical) {
  RunSegmentFuzz("online");
}

TEST(WorkflowFuzzTest, ProgressiveSegmentCatalogBitIdentical) {
  RunSegmentFuzz("progressive");
}

TEST(WorkflowFuzzTest, StratifiedSegmentCatalogBitIdentical) {
  RunSegmentFuzz("stratified");
}

TEST(WorkflowFuzzTest, BlockingReuseOnOffBitIdentical) { RunFuzz("blocking"); }

TEST(WorkflowFuzzTest, OnlineReuseOnOffBitIdentical) { RunFuzz("online"); }

TEST(WorkflowFuzzTest, ProgressiveReuseOnOffBitIdentical) {
  RunFuzz("progressive");
}

TEST(WorkflowFuzzTest, StratifiedReuseOnOffBitIdentical) {
  RunFuzz("stratified");
}

// --- Session serving API vs the legacy single-client pull path ------------

/// Budgets cycled across seeds so the sweep exercises full completions,
/// partial walks and overhead-starved queries alike (one budget per seed:
/// the session manager's time requirement is fixed per run).
constexpr Micros kSessionBudgets[] = {3'000'000, 50'000, 400'000};

/// Replays workflow `seed` through the seed driver's batched pull loop
/// (submit-all, run-each-to-budget, poll-all, cancel-all per interaction).
std::vector<testharness::QueryOutcome> ReplayBatched(
    const std::string& engine_name, int seed, int threads, bool reuse) {
  auto engine = engines::CreateEngine(engine_name, /*seed=*/0, threads, reuse);
  IDB_CHECK(engine.ok());
  IDB_CHECK((*engine)->Prepare(FuzzCatalog()).ok());
  testharness::BatchedHarnessOptions options;
  options.budget = kSessionBudgets[seed % 3];
  auto outcomes = testharness::RunWorkflowOnEngineBatched(
      engine->get(), *FuzzCatalog(), FuzzWorkflow(seed), options);
  IDB_CHECK(outcomes.ok());
  return std::move(outcomes).MoveValueUnsafe();
}

/// Replays workflow `seed` through the push-based session API.
std::vector<testharness::QueryOutcome> ReplaySession(
    const std::string& engine_name, int seed, int threads, bool reuse,
    Micros quantum = 0) {
  auto engine = engines::CreateEngine(engine_name, /*seed=*/0, threads, reuse);
  IDB_CHECK(engine.ok());
  IDB_CHECK((*engine)->Prepare(FuzzCatalog()).ok());
  testharness::SessionHarnessOptions options;
  options.budget = kSessionBudgets[seed % 3];
  options.quantum = quantum;
  auto outcomes = testharness::RunWorkflowThroughSession(
      engine->get(), FuzzCatalog(), FuzzWorkflow(seed), options);
  IDB_CHECK(outcomes.ok());
  return std::move(outcomes).MoveValueUnsafe();
}

/// The seed-parity sweep for one engine: the session scheduler in
/// single-session mode must deliver bit-identical QueryResults to the
/// legacy pull loop for every seed, thread count and reuse setting —
/// the transparency proof of the serving-API redesign.
void RunSessionFuzz(const std::string& engine_name) {
  for (int seed = 0; seed < kSeeds; ++seed) {
    for (int threads : kThreadCounts) {
      for (bool reuse : {false, true}) {
        const std::string label =
            engine_name + " via session, seed " + std::to_string(seed) +
            ", threads " + std::to_string(threads) +
            (reuse ? ", reuse on" : ", reuse off");
        auto legacy = ReplayBatched(engine_name, seed, threads, reuse);
        auto pushed = ReplaySession(engine_name, seed, threads, reuse);
        testharness::ExpectOutcomesBitIdentical(legacy, pushed, label);
        if (::testing::Test::HasFatalFailure()) return;
      }
    }
  }
}

TEST(SessionFuzzTest, BlockingMatchesLegacyClient) {
  RunSessionFuzz("blocking");
}

TEST(SessionFuzzTest, OnlineMatchesLegacyClient) { RunSessionFuzz("online"); }

TEST(SessionFuzzTest, ProgressiveMatchesLegacyClient) {
  RunSessionFuzz("progressive");
}

TEST(SessionFuzzTest, StratifiedMatchesLegacyClient) {
  RunSessionFuzz("stratified");
}

/// The time-sliced scheduler path (quantum > 0): slicing may legitimately
/// regroup the engines' sub-row credit arithmetic relative to one-shot
/// grants, so no bit-parity with the batched reference is claimed —
/// instead every run must be deterministic (two identical sliced runs
/// agree bit for bit), structurally complete (exactly one final update
/// per query the batched reference submits, same order/viz/support), and
/// partial polling must never corrupt an answer.
TEST(SessionFuzzTest, QuantumSlicedSchedulingDeterministicAndComplete) {
  constexpr Micros kQuantum = 64'000;  // deliberately no divisor of budgets
  for (const char* engine :
       {"blocking", "online", "progressive", "stratified"}) {
    for (int seed : {0, 1, 2, 3, 4, 5}) {
      const std::string label = std::string(engine) + ", sliced, seed " +
                                std::to_string(seed);
      auto batched = ReplayBatched(engine, seed, /*threads=*/1,
                                   /*reuse=*/false);
      auto sliced = ReplaySession(engine, seed, /*threads=*/1,
                                  /*reuse=*/false, kQuantum);
      auto again = ReplaySession(engine, seed, /*threads=*/1,
                                 /*reuse=*/false, kQuantum);
      testharness::ExpectOutcomesBitIdentical(sliced, again,
                                              label + " (determinism)");
      ASSERT_EQ(sliced.size(), batched.size()) << label;
      for (size_t i = 0; i < sliced.size(); ++i) {
        EXPECT_EQ(sliced[i].interaction_id, batched[i].interaction_id)
            << label << " query " << i;
        EXPECT_EQ(sliced[i].viz, batched[i].viz) << label << " query " << i;
        EXPECT_EQ(sliced[i].unsupported, batched[i].unsupported)
            << label << " query " << i;
      }
      if (::testing::Test::HasFatalFailure()) return;
    }
  }
}

/// A multi-session interleaved run is a pure function of (workflows,
/// options): the pushed update stream is bit-identical run-to-run and at
/// every physical thread count.
struct UpdateTrace {
  int64_t session_id;
  int64_t query_id;
  std::string viz;
  bool final_update;
  bool cancelled;
  bool unsupported;
  Micros virtual_time;
  bool available;
  int64_t rows_processed;
  double total_estimate;
};

std::vector<UpdateTrace> ReplayMultiSession(const std::string& engine_name,
                                            int threads, int sessions) {
  class TraceSink : public session::ResultSink {
   public:
    explicit TraceSink(std::vector<UpdateTrace>* out) : out_(out) {}
    void OnUpdate(const session::ProgressiveUpdate& u) override {
      out_->push_back({u.session_id, u.query_id, u.viz_name, u.final_update,
                       u.cancelled, u.unsupported, u.virtual_time,
                       u.result.available, u.result.rows_processed,
                       u.result.TotalEstimate()});
    }
    std::vector<UpdateTrace>* out_;
  };

  auto engine =
      engines::CreateEngine(engine_name, /*seed=*/0, threads, /*reuse=*/true);
  IDB_CHECK(engine.ok());
  IDB_CHECK((*engine)->Prepare(FuzzCatalog()).ok());

  session::SessionManagerOptions mopts;
  mopts.time_requirement = 400'000;
  mopts.quantum = 50'000;
  mopts.contention_penalty = 0.25;
  session::SessionManager manager(mopts, engine->get(), FuzzCatalog());

  std::vector<UpdateTrace> trace;
  TraceSink sink(&trace);
  std::vector<session::SessionReplay> runs;
  for (int s = 0; s < sessions; ++s) {
    auto created = manager.CreateSession(&sink);
    IDB_CHECK(created.ok());
    runs.push_back({*created, {&FuzzWorkflow(s)}});
  }
  IDB_CHECK(session::ReplaySessionsToCompletion(&manager, runs,
                                                /*think_time=*/100'000)
                .ok());
  const session::SchedulerStats stats = manager.stats();
  // Fairness guarantee: nothing ever ran past its time requirement.
  IDB_CHECK(stats.max_deadline_overshoot == 0);
  return trace;
}

TEST(SessionFuzzTest, MultiSessionDeterministicAcrossRunsAndThreads) {
  for (const char* engine : {"blocking", "progressive"}) {
    const std::vector<UpdateTrace> reference =
        ReplayMultiSession(engine, /*threads=*/1, /*sessions=*/3);
    EXPECT_GT(reference.size(), 0u) << engine;
    for (int threads : {1, 4}) {
      const std::vector<UpdateTrace> repeat =
          ReplayMultiSession(engine, threads, /*sessions=*/3);
      ASSERT_EQ(reference.size(), repeat.size())
          << engine << " threads " << threads;
      for (size_t i = 0; i < reference.size(); ++i) {
        const UpdateTrace& a = reference[i];
        const UpdateTrace& b = repeat[i];
        const std::string label = std::string(engine) + " threads " +
                                  std::to_string(threads) + " update " +
                                  std::to_string(i);
        EXPECT_EQ(a.session_id, b.session_id) << label;
        EXPECT_EQ(a.query_id, b.query_id) << label;
        EXPECT_EQ(a.viz, b.viz) << label;
        EXPECT_EQ(a.final_update, b.final_update) << label;
        EXPECT_EQ(a.cancelled, b.cancelled) << label;
        EXPECT_EQ(a.unsupported, b.unsupported) << label;
        EXPECT_EQ(a.virtual_time, b.virtual_time) << label;
        EXPECT_EQ(a.available, b.available) << label;
        EXPECT_EQ(a.rows_processed, b.rows_processed) << label;
        EXPECT_EQ(a.total_estimate, b.total_estimate) << label;
      }
      if (::testing::Test::HasFatalFailure()) return;
    }
  }
}

// --- Ingest-interleaved sweep ----------------------------------------------
//
// Streaming ingest races the workflow: epochs are appended and published
// at interaction boundaries while queries (pinned to their submit-time
// watermark) are still exploring.  Every cell of the sweep must be
// bit-identical to the reference replay because
//  * append timing is invisible — only publish instants matter, so the
//    live variant (rows dribbled across two boundaries) matches the
//    pre-loaded variant (each epoch loaded in one shot at its publish
//    boundary);
//  * visibility is epoch-atomic and walks are a pure function of the
//    epoch history, so thread count doesn't matter; and
//  * reuse-cache delta maintenance only displaces physical work — a
//    snapshot stored at an older watermark plus a delta scan (or a
//    candidate replay when a publish re-shaped the bin tables) must give
//    the same answer as rescanning from zero.

constexpr int64_t kIngestBase = 4000;
constexpr int64_t kIngestEpochRows = 100;
constexpr int kIngestEpochs = 4;

/// The full generation: base rows plus every epoch's tail rows.
std::shared_ptr<storage::Table> IngestSourceTable() {
  static const std::shared_ptr<storage::Table> source = [] {
    datagen::FlightsSeedConfig config;
    config.rows = kIngestBase + kIngestEpochs * kIngestEpochRows;
    config.seed = 11;
    auto table = datagen::GenerateFlightsSeed(config);
    IDB_CHECK(table.ok());
    return std::make_shared<storage::Table>(
        std::move(table).MoveValueUnsafe());
  }();
  return source;
}

/// A fresh pre-ingest fact table (each replay mutates its own copy).
std::shared_ptr<storage::Table> IngestBaseFact() {
  return IngestSourceTable()->Prefix(kIngestBase);
}

/// Workflows for the ingest sweep, generated once from a pristine copy of
/// the base table (generation reads column stats, which ingest moves).
const workflow::Workflow& IngestWorkflow(int seed) {
  static std::vector<workflow::Workflow>* workflows = [] {
    auto* out = new std::vector<workflow::Workflow>();
    auto base = IngestBaseFact();
    for (int s = 0; s < kSeeds; ++s) {
      workflow::GeneratorConfig config;
      workflow::WorkflowGenerator generator(
          base.get(), config, static_cast<uint64_t>(s) + 101);
      auto wf = generator.Generate(workflow::WorkflowType::kMixed,
                                   "ingest_fuzz_" + std::to_string(s));
      IDB_CHECK(wf.ok());
      out->push_back(std::move(wf).MoveValueUnsafe());
    }
    return out;
  }();
  return (*workflows)[static_cast<size_t>(seed)];
}

/// RunWorkflowOnEngine with an ingest hook: `boundary(b)` runs after
/// interaction `b` completes (queries polled, think time charged), which
/// is where a serving deployment folds in arrived data between bursts.
Result<std::vector<testharness::QueryOutcome>> RunWorkflowWithIngest(
    engines::Engine* engine, const storage::Catalog& catalog,
    const workflow::Workflow& wf,
    const std::function<Status(int64_t)>& boundary) {
  std::vector<testharness::QueryOutcome> outcomes;
  engine->WorkflowStart();
  int64_t query_index = 0;
  int64_t boundary_index = 0;
  const testharness::HarnessOptions options;
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
          testharness::QueryOutcome outcome;
          outcome.interaction_id = interaction_id;
          outcome.viz = spec.viz_name;
          auto submit = engine->Submit(spec);
          const Micros budget = options.budgets[static_cast<size_t>(
              query_index % static_cast<int64_t>(options.budgets.size()))];
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
        return boundary(boundary_index++);
      }));
  engine->WorkflowEnd();
  return outcomes;
}

/// One replay cell.  Epoch `e` publishes at boundary `2e + 1`.  The live
/// variant stages half the epoch one boundary early (racing the previous
/// interaction's unpublished-row invisibility); the pre-loaded variant
/// stages the whole epoch at its publish boundary.
std::vector<testharness::QueryOutcome> ReplayIngest(
    const std::string& engine_name, int seed, int threads, bool reuse,
    bool preloaded) {
  auto source = IngestSourceTable();
  auto catalog = std::make_shared<storage::Catalog>();
  IDB_CHECK(catalog->AddTable(IngestBaseFact()).ok());
  auto created = ingest::Ingestor::Create(catalog, source->num_rows());
  IDB_CHECK(created.ok());
  auto ingestor = std::move(*created);

  auto engine = engines::CreateEngine(engine_name, /*seed=*/0, threads, reuse);
  IDB_CHECK(engine.ok());
  IDB_CHECK((*engine)->Prepare(catalog).ok());

  auto boundary = [&](int64_t b) -> Status {
    for (int e = 0; e < kIngestEpochs; ++e) {
      const int64_t lo = kIngestBase + e * kIngestEpochRows;
      const int64_t mid = lo + kIngestEpochRows / 2;
      const int64_t hi = lo + kIngestEpochRows;
      const int64_t publish_at = 2 * e + 1;
      if (!preloaded && b == publish_at - 1) {
        IDB_RETURN_NOT_OK(
            ingestor->Append(ingest::BatchFromTable(*source, lo, mid)));
      }
      if (b == publish_at) {
        IDB_RETURN_NOT_OK(ingestor->Append(
            ingest::BatchFromTable(*source, preloaded ? lo : mid, hi)));
        IDB_ASSIGN_OR_RETURN(const int64_t watermark, ingestor->Publish());
        (void)watermark;
      }
    }
    return Status::OK();
  };
  auto outcomes = RunWorkflowWithIngest(engine->get(), *catalog,
                                        IngestWorkflow(seed), boundary);
  IDB_CHECK(outcomes.ok());
  // The sweep proves nothing unless data actually arrived mid-workflow.
  EXPECT_GT(ingestor->stats().epochs_published, 0)
      << engine_name << " seed " << seed;
  return std::move(outcomes).MoveValueUnsafe();
}

void RunIngestFuzz(const std::string& engine_name) {
  for (int seed = 0; seed < kSeeds; ++seed) {
    const auto reference = ReplayIngest(engine_name, seed, /*threads=*/1,
                                        /*reuse=*/false, /*preloaded=*/false);
    for (int threads : kThreadCounts) {
      for (bool reuse : {false, true}) {
        for (bool preloaded : {false, true}) {
          if (threads == 1 && !reuse && !preloaded) continue;  // the reference
          const std::string label =
              engine_name + " ingest sweep, seed " + std::to_string(seed) +
              ", threads " + std::to_string(threads) +
              (reuse ? ", reuse on" : ", reuse off") +
              (preloaded ? ", pre-loaded" : ", live");
          auto other = ReplayIngest(engine_name, seed, threads, reuse,
                                    preloaded);
          testharness::ExpectOutcomesBitIdentical(reference, other, label);
          if (::testing::Test::HasFatalFailure()) return;
        }
      }
    }
  }
}

TEST(IngestFuzzTest, BlockingIngestInterleavedBitIdentical) {
  RunIngestFuzz("blocking");
}

TEST(IngestFuzzTest, OnlineIngestInterleavedBitIdentical) {
  RunIngestFuzz("online");
}

TEST(IngestFuzzTest, ProgressiveIngestInterleavedBitIdentical) {
  RunIngestFuzz("progressive");
}

TEST(IngestFuzzTest, StratifiedIngestInterleavedBitIdentical) {
  RunIngestFuzz("stratified");
}

/// Reuse must also compose with thread-count invariance: the same
/// workflow with the cache on yields bit-identical results at 1 and 4
/// threads (each feed chunk of the fixture spans a single morsel, so the
/// parallel path's determinism contract gives exact equality).
TEST(WorkflowFuzzTest, ReuseOnThreadInvariant) {
  for (const char* engine : {"blocking", "online", "progressive",
                             "stratified"}) {
    for (int seed = 0; seed < 5; ++seed) {
      auto t1 = Replay(engine, seed, /*threads=*/1, /*reuse=*/true);
      auto t4 = Replay(engine, seed, /*threads=*/4, /*reuse=*/true);
      testharness::ExpectOutcomesBitIdentical(
          t1, t4,
          std::string(engine) + " seed " + std::to_string(seed) +
              ", threads 1 vs 4");
      if (::testing::Test::HasFatalFailure()) return;
    }
  }
}

}  // namespace
}  // namespace idebench
