/// \file bench_micro.cc
/// google-benchmark micro-benchmarks of the substrate operators: filtered
/// scan + binned aggregation, join-index build/probe, samplers, the data
/// scaler, and workflow generation.  These are throughput sanity checks
/// for the cost model's *real* counterparts, not paper artifacts.

#include <benchmark/benchmark.h>

#include <filesystem>

#include "aqp/sampler.h"
#include "common/logging.h"
#include "common/random.h"
#include "core/dataset.h"
#include "datagen/cholesky_scaler.h"
#include "datagen/flights_seed.h"
#include "driver/ground_truth.h"
#include "engines/blocking_engine.h"
#include "engines/progressive_engine.h"
#include "exec/aggregator.h"
#include "exec/bound_query.h"
#include "exec/parallel.h"
#include "ingest/ingest.h"
#include "session/session.h"
#include "workflow/generator.h"

namespace {

using namespace idebench;

/// Shared medium dataset wrapped in a catalog (built once).
std::shared_ptr<storage::Catalog> SharedCatalog() {
  static std::shared_ptr<storage::Catalog> catalog = [] {
    datagen::FlightsSeedConfig config;
    config.rows = 100'000;
    config.seed = 3;
    auto t = datagen::GenerateFlightsSeed(config);
    IDB_CHECK(t.ok());
    auto c = std::make_shared<storage::Catalog>();
    IDB_CHECK(c->AddTable(std::make_shared<storage::Table>(
                              std::move(t).MoveValueUnsafe()))
                  .ok());
    return c;
  }();
  return catalog;
}

const storage::Table& SharedTable() { return *SharedCatalog()->fact_table(); }

query::QuerySpec CountByCarrierSpec() {
  query::QuerySpec spec;
  spec.viz_name = "bench";
  query::BinDimension d;
  d.column = "carrier";
  d.mode = query::BinningMode::kNominal;
  spec.bins = {d};
  query::AggregateSpec agg;
  agg.type = query::AggregateType::kCount;
  spec.aggregates = {agg};
  IDB_CHECK(spec.ResolveBins(*SharedCatalog()).ok());
  return spec;
}

/// The sampled-aggregation hot loop: a shuffled walk over the fact table
/// feeding a filtered, binned COUNT + AVG — the per-row work every
/// sampling engine performs.  Three variants trace the perf trajectory:
/// scalar reference, vectorized kernels + hash bin table, and vectorized
/// kernels + dense bin table (the default).  Run with
/// `bench_micro --benchmark_filter=HotLoop`.
query::QuerySpec HotLoopSpec() {
  query::QuerySpec spec;
  spec.viz_name = "hot_loop";
  query::BinDimension d;
  d.column = "dep_delay";
  d.mode = query::BinningMode::kFixedCount;
  d.requested_bins = 25;
  spec.bins = {d};
  query::AggregateSpec count;
  count.type = query::AggregateType::kCount;
  query::AggregateSpec avg;
  avg.type = query::AggregateType::kAvg;
  avg.column = "distance";
  spec.aggregates = {count, avg};
  expr::Predicate p;
  p.column = "air_time";
  p.op = expr::CompareOp::kRange;
  p.lo = 50;
  p.hi = 200;
  spec.filter.And(p);
  IDB_CHECK(spec.ResolveBins(*SharedCatalog()).ok());
  return spec;
}

/// Shuffled row order shared by the hot-loop variants (sampling engines
/// walk a random permutation, not the physical order).
const std::vector<int64_t>& SharedWalk() {
  static const std::vector<int64_t> walk = [] {
    Rng rng(17);
    aqp::ShuffledIndex index(SharedTable().num_rows(), &rng);
    return index.permutation();
  }();
  return walk;
}

void BM_HotLoopScalar(benchmark::State& state) {
  auto catalog = SharedCatalog();
  query::QuerySpec spec = HotLoopSpec();
  auto bound = exec::BoundQuery::Bind(spec, *catalog);
  IDB_CHECK(bound.ok());
  const std::vector<int64_t>& walk = SharedWalk();
  exec::BinnedAggregatorOptions options;
  options.enable_vectorized = false;
  for (auto _ : state) {
    exec::BinnedAggregator agg(&*bound, options);
    for (int64_t row : walk) agg.ProcessRow(row);
    benchmark::DoNotOptimize(agg.rows_matched());
  }
  state.SetItemsProcessed(state.iterations() *
                          static_cast<int64_t>(walk.size()));
}
BENCHMARK(BM_HotLoopScalar);

void BM_HotLoopVectorizedHashBins(benchmark::State& state) {
  auto catalog = SharedCatalog();
  query::QuerySpec spec = HotLoopSpec();
  auto bound = exec::BoundQuery::Bind(spec, *catalog);
  IDB_CHECK(bound.ok());
  const std::vector<int64_t>& walk = SharedWalk();
  exec::BinnedAggregatorOptions options;
  options.enable_dense_bins = false;
  for (auto _ : state) {
    exec::BinnedAggregator agg(&*bound, options);
    agg.ProcessBatch(walk.data(), static_cast<int64_t>(walk.size()));
    benchmark::DoNotOptimize(agg.rows_matched());
  }
  state.SetItemsProcessed(state.iterations() *
                          static_cast<int64_t>(walk.size()));
}
BENCHMARK(BM_HotLoopVectorizedHashBins);

void BM_HotLoopVectorized(benchmark::State& state) {
  auto catalog = SharedCatalog();
  query::QuerySpec spec = HotLoopSpec();
  auto bound = exec::BoundQuery::Bind(spec, *catalog);
  IDB_CHECK(bound.ok());
  const std::vector<int64_t>& walk = SharedWalk();
  for (auto _ : state) {
    exec::BinnedAggregator agg(&*bound);
    IDB_CHECK(agg.uses_dense_bins());
    agg.ProcessBatch(walk.data(), static_cast<int64_t>(walk.size()));
    benchmark::DoNotOptimize(agg.rows_matched());
  }
  state.SetItemsProcessed(state.iterations() *
                          static_cast<int64_t>(walk.size()));
}
BENCHMARK(BM_HotLoopVectorized);

/// Morsel-parallel variant of the hot loop: the same shuffled walk, fed
/// through exec::MorselProcessWalk at 1/2/4/8 worker threads.  Each
/// iteration walks the table `kWalkRepeats` times so it feeds many
/// 64K-row morsels (a single pass over the 100K-row table is barely two).
/// Run
///   bench_micro --benchmark_filter=HotLoopParallel
void BM_HotLoopParallel(benchmark::State& state) {
  constexpr int64_t kWalkRepeats = 8;
  const int threads = static_cast<int>(state.range(0));
  auto catalog = SharedCatalog();
  query::QuerySpec spec = HotLoopSpec();
  auto bound = exec::BoundQuery::Bind(spec, *catalog);
  IDB_CHECK(bound.ok());
  static const aqp::ShuffledIndex* walk_order = [] {
    Rng rng(17);
    return new aqp::ShuffledIndex(SharedTable().num_rows(), &rng);
  }();
  const int64_t rows = walk_order->size();
  for (auto _ : state) {
    exec::BinnedAggregator agg(&*bound);
    for (int64_t r = 0; r < kWalkRepeats; ++r) {
      exec::MorselProcessWalk(&agg, *walk_order, /*key=*/0, 0, rows, threads);
    }
    benchmark::DoNotOptimize(agg.rows_matched());
  }
  state.SetItemsProcessed(state.iterations() * kWalkRepeats * rows);
}
// Wall-clock measurement: the work happens on pool threads, so the
// default main-thread CPU-time metric would wildly overstate throughput.
BENCHMARK(BM_HotLoopParallel)->Arg(1)->Arg(2)->Arg(4)->Arg(8)->UseRealTime();

/// Zone-map block pruning on the full-scan path: a time-ordered fact
/// table (monotone `day` column, the append-ordered case zone maps are
/// built for) scanned end to end under a selective day-range filter.
/// Arg 0 = pruning off, arg 1 = on; the on-variant reports how many rows
/// and 64K blocks the fact-column zone maps excluded.  Run
///   bench_micro --benchmark_filter=ZoneMap
std::shared_ptr<storage::Catalog> ClusteredCatalog() {
  static std::shared_ptr<storage::Catalog> catalog = [] {
    constexpr int64_t kScanRows = 2'000'000;
    constexpr int64_t kDays = 64;
    storage::Schema schema({
        {"day", storage::DataType::kInt64,
         storage::AttributeKind::kQuantitative},
        {"metric", storage::DataType::kDouble,
         storage::AttributeKind::kQuantitative},
    });
    auto table = std::make_shared<storage::Table>("events", schema);
    table->mutable_column(0).Reserve(kScanRows);
    table->mutable_column(1).Reserve(kScanRows);
    Rng rng(41);
    for (int64_t i = 0; i < kScanRows; ++i) {
      table->mutable_column(0).AppendInt(i / (kScanRows / kDays));
      table->mutable_column(1).AppendDouble(rng.Uniform(0.0, 100.0));
    }
    auto c = std::make_shared<storage::Catalog>();
    IDB_CHECK(c->AddTable(table).ok());
    return c;
  }();
  return catalog;
}

void BM_ZoneMapFullScan(benchmark::State& state) {
  const bool prune = state.range(0) != 0;
  auto catalog = ClusteredCatalog();
  const int64_t rows = catalog->fact_table()->num_rows();

  query::QuerySpec spec;
  spec.viz_name = "zone_scan";
  query::BinDimension d;
  d.column = "metric";
  d.mode = query::BinningMode::kFixedCount;
  d.requested_bins = 20;
  spec.bins = {d};
  query::AggregateSpec count;
  count.type = query::AggregateType::kCount;
  query::AggregateSpec avg;
  avg.type = query::AggregateType::kAvg;
  avg.column = "metric";
  spec.aggregates = {count, avg};
  expr::Predicate p;
  p.column = "day";
  p.op = expr::CompareOp::kRange;
  p.lo = 20;
  p.hi = 24;  // ~4/64 days ≈ 2 of 31 zone blocks survive
  spec.filter.And(p);
  IDB_CHECK(spec.ResolveBins(*catalog).ok());
  auto bound = exec::BoundQuery::Bind(spec, *catalog);
  IDB_CHECK(bound.ok());

  exec::BinnedAggregatorOptions options;
  options.enable_zone_pruning = prune;
  int64_t rows_skipped = 0;
  int64_t blocks_skipped = 0;
  for (auto _ : state) {
    exec::BinnedAggregator agg(&*bound, options);
    agg.ProcessRange(0, rows);
    rows_skipped = agg.zone_rows_skipped();
    blocks_skipped = agg.zone_blocks_skipped();
    benchmark::DoNotOptimize(agg.rows_matched());
  }
  state.SetItemsProcessed(state.iterations() * rows);
  state.counters["zone_rows_skipped"] =
      static_cast<double>(rows_skipped);
  state.counters["zone_blocks_skipped"] =
      static_cast<double>(blocks_skipped);
}
BENCHMARK(BM_ZoneMapFullScan)->Arg(0)->Arg(1);

/// Repeated-refinement workflow through the blocking engine: a base
/// filtered aggregation followed by five drill-down steps that each AND
/// one more (or a narrower) predicate — the canonical IDEBench
/// interaction sequence.  With the cross-interaction reuse cache on,
/// step k+1 replays only step k's candidate rows instead of rescanning
/// the full table, so physical work tracks the shrinking selectivity.
/// Results are bit-identical either way (the transparency contract of
/// exec/reuse_cache.h); only wall-clock changes.  Run with
/// `bench_micro --benchmark_filter=RefinementWorkflow`.
void BM_RefinementWorkflow(benchmark::State& state) {
  const bool reuse = state.range(0) != 0;
  auto catalog = SharedCatalog();

  // The drill-down chain: each step's filter refines the previous one.
  // Selectivities follow the workflow generator's brush/filter ranges
  // (base ~25 %, refinements narrowing toward a few percent).
  std::vector<query::QuerySpec> steps;
  {
    query::QuerySpec base = HotLoopSpec();
    expr::Predicate air = base.filter.predicates()[0];  // air_time range
    air.lo = 50;
    air.hi = 90;  // ~25 % of rows
    base.filter = expr::FilterExpr({air});
    steps.push_back(base);
    expr::Predicate narrow = air;
    narrow.hi = 70;  // ~13 %
    query::QuerySpec s1 = base;
    s1.filter = expr::FilterExpr({narrow});
    steps.push_back(s1);
    expr::Predicate dist;
    dist.column = "distance";
    dist.op = expr::CompareOp::kRange;
    dist.lo = 200;
    dist.hi = 500;
    query::QuerySpec s2 = s1;
    s2.filter.And(dist);
    steps.push_back(s2);
    expr::Predicate delay;
    delay.column = "dep_delay";
    delay.op = expr::CompareOp::kRange;
    delay.lo = 0;
    delay.hi = 20;
    query::QuerySpec s3 = s2;
    s3.filter.And(delay);
    steps.push_back(s3);
    steps.push_back(s3);  // linked-viz update re-triggers the same query
    expr::Predicate tight = dist;
    tight.lo = 250;
    tight.hi = 450;
    query::QuerySpec s5 = s3;
    s5.filter.ReplaceOn(tight);
    steps.push_back(s5);
    // The user toggles between the two drill-down views (A/B
    // comparison): every toggle resubmits a previously seen query.
    steps.push_back(s5);
    steps.push_back(s3);
    steps.push_back(s5);
  }

  int64_t rows_total = 0;
  for (auto _ : state) {
    engines::BlockingEngineConfig config;
    config.query_overhead_us = 0;
    config.reuse_cache = reuse;
    engines::BlockingEngine engine(config);
    IDB_CHECK(engine.Prepare(catalog).ok());
    for (const query::QuerySpec& spec : steps) {
      auto handle = engine.Submit(spec);
      IDB_CHECK(handle.ok());
      while (!engine.IsDone(*handle)) {
        engine.RunFor(*handle, 60'000'000'000LL);
      }
      auto result = engine.PollResult(*handle);
      IDB_CHECK(result.ok());
      benchmark::DoNotOptimize(result->bins.size());
      engine.Cancel(*handle);  // snapshots into the reuse cache
      rows_total += SharedTable().num_rows();
    }
  }
  state.SetItemsProcessed(rows_total);
  state.SetLabel(reuse ? "reuse_cache=on" : "reuse_cache=off");
}
BENCHMARK(BM_RefinementWorkflow)->Arg(0)->Arg(1);

/// Multi-session serving sweep (1/4/16/64 concurrent dashboards): each
/// session replays its own generated mixed workflow against ONE shared
/// progressive engine through the session scheduler
/// (session/session.h) — round-robin time slices, per-query deadlines,
/// push-based result delivery.  Total per-query work is fixed, so the
/// sweep isolates the multiplexing overhead and the contention penalty's
/// fair budget division.  Run with
/// `bench_micro --benchmark_filter=SessionConcurrency`.
void BM_SessionConcurrency(benchmark::State& state) {
  const int sessions = static_cast<int>(state.range(0));
  static std::vector<workflow::Workflow>* workflows = [] {
    auto* out = new std::vector<workflow::Workflow>();
    workflow::GeneratorConfig config;
    for (int s = 0; s < 64; ++s) {
      workflow::WorkflowGenerator generator(&SharedTable(), config,
                                            static_cast<uint64_t>(s) + 1);
      auto wf = generator.Generate(workflow::WorkflowType::kMixed,
                                   "session_" + std::to_string(s));
      IDB_CHECK(wf.ok());
      out->push_back(std::move(wf).MoveValueUnsafe());
    }
    return out;
  }();

  class CountingSink : public idebench::session::ResultSink {
   public:
    void OnUpdate(const idebench::session::ProgressiveUpdate& u) override {
      ++updates;
      if (u.final_update && u.cancelled) ++cancelled;
    }
    int64_t updates = 0;
    int64_t cancelled = 0;
  };

  int64_t queries = 0;
  int64_t updates = 0;
  int64_t cancelled = 0;
  for (auto _ : state) {
    engines::ProgressiveEngineConfig config;
    config.query_overhead_us = 0;
    config.restart_overhead_us = 0;
    engines::ProgressiveEngine engine(config);
    IDB_CHECK(engine.Prepare(SharedCatalog()).ok());

    idebench::session::SessionManagerOptions opts;
    opts.time_requirement = 250'000;
    opts.quantum = 50'000;
    opts.contention_penalty = 0.1;
    CountingSink sink;  // must outlive the manager
    idebench::session::SessionManager manager(opts, &engine, SharedCatalog());
    std::vector<idebench::session::SessionReplay> runs;
    for (int s = 0; s < sessions; ++s) {
      auto created = manager.CreateSession(&sink);
      IDB_CHECK(created.ok());
      runs.push_back({*created, {&(*workflows)[static_cast<size_t>(s)]}});
    }
    IDB_CHECK(idebench::session::ReplaySessionsToCompletion(&manager, runs,
                                                            /*think_time=*/0)
                  .ok());
    const idebench::session::SchedulerStats stats = manager.stats();
    IDB_CHECK(stats.max_deadline_overshoot == 0);  // fairness guarantee
    queries += stats.queries_submitted;
    updates += sink.updates;
    cancelled += sink.cancelled;
  }
  state.SetItemsProcessed(queries);
  state.counters["updates"] =
      benchmark::Counter(static_cast<double>(updates));
  state.counters["tr_cancelled"] =
      benchmark::Counter(static_cast<double>(cancelled));
}
BENCHMARK(BM_SessionConcurrency)->Arg(1)->Arg(4)->Arg(16)->Arg(64)
    ->UseRealTime()->Unit(benchmark::kMillisecond);

void BM_ScanBinnedCount(benchmark::State& state) {
  auto catalog = SharedCatalog();
  query::QuerySpec spec = CountByCarrierSpec();
  auto bound = exec::BoundQuery::Bind(spec, *catalog);
  IDB_CHECK(bound.ok());
  for (auto _ : state) {
    exec::BinnedAggregator agg(&*bound);
    agg.ProcessRange(0, SharedTable().num_rows());
    benchmark::DoNotOptimize(agg.rows_matched());
  }
  state.SetItemsProcessed(state.iterations() * SharedTable().num_rows());
}
BENCHMARK(BM_ScanBinnedCount);

void BM_ScanFilteredAvg2D(benchmark::State& state) {
  auto catalog = SharedCatalog();
  query::QuerySpec spec;
  spec.viz_name = "bench2d";
  query::BinDimension d1;
  d1.column = "dep_delay";
  d1.mode = query::BinningMode::kFixedCount;
  d1.requested_bins = 25;
  query::BinDimension d2;
  d2.column = "arr_delay";
  d2.mode = query::BinningMode::kFixedCount;
  d2.requested_bins = 25;
  spec.bins = {d1, d2};
  query::AggregateSpec agg;
  agg.type = query::AggregateType::kAvg;
  agg.column = "distance";
  spec.aggregates = {agg};
  expr::Predicate p;
  p.column = "air_time";
  p.op = expr::CompareOp::kRange;
  p.lo = 50;
  p.hi = 200;
  spec.filter.And(p);
  IDB_CHECK(spec.ResolveBins(*catalog).ok());
  auto bound = exec::BoundQuery::Bind(spec, *catalog);
  IDB_CHECK(bound.ok());
  for (auto _ : state) {
    exec::BinnedAggregator agg_exec(&*bound);
    agg_exec.ProcessRange(0, SharedTable().num_rows());
    benchmark::DoNotOptimize(agg_exec.rows_matched());
  }
  state.SetItemsProcessed(state.iterations() * SharedTable().num_rows());
}
BENCHMARK(BM_ScanFilteredAvg2D);

void BM_StratifiedSampleBuild(benchmark::State& state) {
  Rng rng(1);
  for (auto _ : state) {
    auto sample =
        aqp::BuildStratifiedSample(SharedTable(), "carrier", 0.01, 50, &rng);
    IDB_CHECK(sample.ok());
    benchmark::DoNotOptimize(sample->size());
  }
  state.SetItemsProcessed(state.iterations() * SharedTable().num_rows());
}
BENCHMARK(BM_StratifiedSampleBuild);

void BM_ShuffledIndexBuild(benchmark::State& state) {
  Rng rng(2);
  for (auto _ : state) {
    aqp::ShuffledIndex index(SharedTable().num_rows(), &rng);
    benchmark::DoNotOptimize(index.size());
  }
  state.SetItemsProcessed(state.iterations() * SharedTable().num_rows());
}
BENCHMARK(BM_ShuffledIndexBuild);

void BM_FlightsSeedGeneration(benchmark::State& state) {
  datagen::FlightsSeedConfig config;
  config.rows = state.range(0);
  config.seed = 5;
  for (auto _ : state) {
    auto t = datagen::GenerateFlightsSeed(config);
    IDB_CHECK(t.ok());
    benchmark::DoNotOptimize(t->num_rows());
  }
  state.SetItemsProcessed(state.iterations() * config.rows);
}
BENCHMARK(BM_FlightsSeedGeneration)->Arg(10'000)->Arg(50'000);

void BM_CholeskyScale(benchmark::State& state) {
  datagen::ScalerConfig config;
  config.target_rows = state.range(0);
  config.sample_size = 10'000;
  config.derived = datagen::FlightsDerivedColumns();
  for (auto _ : state) {
    auto t = datagen::ScaleDataset(SharedTable(), config);
    IDB_CHECK(t.ok());
    benchmark::DoNotOptimize(t->num_rows());
  }
  state.SetItemsProcessed(state.iterations() * config.target_rows);
}
BENCHMARK(BM_CholeskyScale)->Arg(10'000)->Arg(100'000);

void BM_WorkflowGeneration(benchmark::State& state) {
  workflow::GeneratorConfig config;
  uint64_t seed = 0;
  for (auto _ : state) {
    workflow::WorkflowGenerator generator(&SharedTable(), config, ++seed);
    auto wf = generator.Generate(workflow::WorkflowType::kMixed, "bench");
    IDB_CHECK(wf.ok());
    benchmark::DoNotOptimize(wf->size());
  }
}
BENCHMARK(BM_WorkflowGeneration);

void BM_GroundTruthQuery(benchmark::State& state) {
  auto catalog = SharedCatalog();
  query::QuerySpec spec = CountByCarrierSpec();
  for (auto _ : state) {
    driver::GroundTruthOracle oracle(catalog);  // cold cache each time
    auto truth = oracle.Get(spec);
    IDB_CHECK(truth.ok());
    benchmark::DoNotOptimize((*truth)->bins.size());
  }
  state.SetItemsProcessed(state.iterations() * SharedTable().num_rows());
}
BENCHMARK(BM_GroundTruthQuery);

// --- Streaming ingest while serving ----------------------------------------
//
// A dashboard re-renders its filtered aggregation after every published
// ingest epoch (10 epochs x 1000 rows onto a 100K-row base).  With
// delta maintenance (the default) each re-render serves the cached
// snapshot and scans only the epoch's delta rows; the
// invalidate-on-growth baseline drops the entry at every publish and
// rescans from zero.  Results are bit-identical either way
// (tests/workflow_fuzz_test.cc ingest sweep); only physical work moves.
// Run with `bench_micro --benchmark_filter=IngestWhileServing`.

/// Base rows plus every epoch's tail, generated once.
std::shared_ptr<storage::Table> IngestBenchSource() {
  static const std::shared_ptr<storage::Table> source = [] {
    datagen::FlightsSeedConfig config;
    config.rows = 110'000;
    config.seed = 3;
    auto t = datagen::GenerateFlightsSeed(config);
    IDB_CHECK(t.ok());
    return std::make_shared<storage::Table>(std::move(t).MoveValueUnsafe());
  }();
  return source;
}

void BM_IngestWhileServing(benchmark::State& state) {
  const bool delta = state.range(0) != 0;
  constexpr int64_t kBase = 100'000;
  constexpr int kEpochs = 10;
  constexpr int64_t kEpochRows = 1'000;
  auto source = IngestBenchSource();

  const auto run_to_completion = [](engines::BlockingEngine* engine,
                                    const query::QuerySpec& spec) {
    auto handle = engine->Submit(spec);
    IDB_CHECK(handle.ok());
    while (!engine->IsDone(*handle)) {
      engine->RunFor(*handle, 60'000'000'000LL);
    }
    auto result = engine->PollResult(*handle);
    IDB_CHECK(result.ok());
    benchmark::DoNotOptimize(result->bins.size());
    engine->Cancel(*handle);  // snapshots into the reuse cache
  };

  int64_t rows_total = 0;
  for (auto _ : state) {
    state.PauseTiming();
    auto fact =
        std::make_shared<storage::Table>(source->name(), source->schema());
    for (int64_t r = 0; r < kBase; ++r) {
      IDB_CHECK(fact->AppendRowFrom(*source, r).ok());
    }
    auto catalog = std::make_shared<storage::Catalog>();
    IDB_CHECK(catalog->AddTable(fact).ok());
    auto ingestor = ingest::Ingestor::Create(catalog, source->num_rows());
    IDB_CHECK(ingestor.ok());

    engines::BlockingEngineConfig config;
    config.query_overhead_us = 0;
    config.reuse_cache = true;
    engines::BlockingEngine engine(config);
    IDB_CHECK(engine.Prepare(catalog).ok());

    // The dashboard's standing query: filtered, binned COUNT + AVG,
    // ~25 % selective.  Resolved once — re-renders reuse the binding.
    query::QuerySpec spec;
    spec.viz_name = "ingest_bench";
    query::BinDimension d;
    d.column = "carrier";
    d.mode = query::BinningMode::kNominal;
    spec.bins = {d};
    query::AggregateSpec count;
    count.type = query::AggregateType::kCount;
    query::AggregateSpec avg;
    avg.type = query::AggregateType::kAvg;
    avg.column = "distance";
    spec.aggregates = {count, avg};
    expr::Predicate p;
    p.column = "air_time";
    p.op = expr::CompareOp::kRange;
    p.lo = 50;
    p.hi = 90;
    spec.filter.And(p);
    IDB_CHECK(spec.ResolveBins(*catalog).ok());

    run_to_completion(&engine, spec);  // the materialize-once base render
    state.ResumeTiming();

    int64_t cursor = kBase;
    for (int e = 0; e < kEpochs; ++e) {
      // The append + publish cost is identical in both modes (and paid by
      // the ingest path, not the query path): keep it out of the
      // timing so the measurement isolates the re-render cost the two
      // maintenance policies differ on.
      state.PauseTiming();
      IDB_CHECK((*ingestor)
                    ->Append(ingest::BatchFromTable(*source, cursor,
                                                    cursor + kEpochRows))
                    .ok());
      cursor += kEpochRows;
      IDB_CHECK((*ingestor)->Publish().ok());
      // Invalidate-on-growth baseline: every publish drops the cached
      // snapshots (the blocking engine's WorkflowStart only clears its
      // reuse cache), so the re-render rescans from zero.
      if (!delta) engine.WorkflowStart();
      state.ResumeTiming();
      run_to_completion(&engine, spec);
      rows_total += (*ingestor)->visible_rows();
    }
    const metrics::ReuseCacheStats rs = engine.reuse_cache_stats();
    state.counters["rows_served"] +=
        benchmark::Counter(static_cast<double>(rs.rows_served));
    state.counters["equal_hits"] +=
        benchmark::Counter(static_cast<double>(rs.equal_hits));
  }
  state.SetItemsProcessed(rows_total);
  state.SetLabel(delta ? "delta_maintenance" : "invalidate_and_rescan");
}
BENCHMARK(BM_IngestWhileServing)->Arg(0)->Arg(1)
    ->Unit(benchmark::kMillisecond);

/// WAL append+commit throughput across the fsync-policy sweep: the
/// durability tax an ingest pipeline pays per published epoch.  Arg(0)
/// = no fsync (upper bound, page-cache speed), Arg(1) = grouped (one
/// fsync per 8 commits), Arg(2) = fsync every commit (the default
/// publish-is-durable contract).  Run with
/// `bench_micro --benchmark_filter=WalAppend`.
void BM_WalAppend(benchmark::State& state) {
  constexpr int64_t kBatchRows = 200;
  constexpr int kEpochs = 16;
  ingest::WalOptions options;
  switch (state.range(0)) {
    case 0: options.sync = ingest::WalSync::kNone; break;
    case 1:
      options.sync = ingest::WalSync::kGrouped;
      options.group_commit_interval = 8;
      break;
    default: options.sync = ingest::WalSync::kEveryCommit; break;
  }
  const std::string dir =
      std::filesystem::temp_directory_path().string() + "/bench_wal";
  std::filesystem::create_directories(dir);
  const storage::Table& source = SharedTable();
  const std::vector<std::vector<std::string>> batch =
      ingest::BatchFromTable(source, 0, kBatchRows).rows;

  int64_t rows_total = 0;
  for (auto _ : state) {
    state.PauseTiming();
    std::filesystem::remove(dir + "/ingest.wal");
    ingest::WalHeader header;
    header.table_name = source.name();
    header.baseline_rows = source.num_rows();
    header.num_columns = source.num_columns();
    auto wal = ingest::WalWriter::Create(dir + "/ingest.wal", header, options);
    IDB_CHECK(wal.ok());
    state.ResumeTiming();
    int64_t watermark = source.num_rows();
    for (int epoch = 1; epoch <= kEpochs; ++epoch) {
      IDB_CHECK((*wal)->AppendBatch(batch).ok());
      watermark += kBatchRows;
      IDB_CHECK((*wal)->AppendCommit(watermark, epoch).ok());
    }
    IDB_CHECK((*wal)->Sync().ok());
    rows_total += kEpochs * kBatchRows;
    state.counters["syncs"] +=
        benchmark::Counter(static_cast<double>((*wal)->stats().syncs));
    state.counters["wal_bytes"] +=
        benchmark::Counter(static_cast<double>((*wal)->stats().bytes_logged));
  }
  std::error_code ec;
  std::filesystem::remove_all(dir, ec);
  state.SetItemsProcessed(rows_total);
  state.SetLabel(ingest::WalSyncName(options.sync));
}
BENCHMARK(BM_WalAppend)->Arg(0)->Arg(1)->Arg(2)
    ->Unit(benchmark::kMillisecond);

}  // namespace

BENCHMARK_MAIN();
