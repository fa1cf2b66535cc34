#include "engines/online_engine.h"

#include "exec/parallel.h"

namespace idebench::engines {

OnlineEngine::OnlineEngine(OnlineEngineConfig config)
    : EngineBase("online", config.confidence_level, config.seed),
      config_(config) {}

bool OnlineEngine::SupportsOnline(const query::QuerySpec& spec) {
  if (spec.aggregates.size() != 1) return false;
  const query::AggregateType type = spec.aggregates[0].type;
  return type == query::AggregateType::kCount ||
         type == query::AggregateType::kSum;
}

Result<Micros> OnlineEngine::Prepare(
    std::shared_ptr<const storage::Catalog> catalog) {
  IDB_RETURN_NOT_OK(Attach(std::move(catalog)));
  if (config_.reuse_cache) {
    EnableReuseCacheForSessions(config_.expected_sessions);
  }
  double rows = 0.0;
  for (const auto& table : this->catalog().tables()) {
    rows += table.get() == this->catalog().fact_table()
                ? static_cast<double>(nominal_rows())
                : static_cast<double>(table->num_rows());
  }
  return static_cast<Micros>(rows * config_.load_ns_per_row / 1000.0);
}

Result<QueryHandle> OnlineEngine::Submit(const query::QuerySpec& spec) {
  if (!attached()) return Status::Invalid("engine not prepared");
  auto state = std::make_shared<OnlineQuery>();
  state->online = SupportsOnline(spec);
  if (!state->online && !config_.enable_fallback) {
    return Status::NotImplemented(
        "query not supported online and fallback is disabled");
  }

  // Wander-join sampling builds no hash join; only the fallback pays one.
  int joins_charged = 0;
  IDB_RETURN_NOT_OK(BindState(state.get(), spec,
                              state->online ? nullptr : &joins_charged));
  const double mult = ComplexityMultiplier(spec, state->joins, config_.factors);
  Micros overhead = static_cast<Micros>(config_.query_overhead_us);
  if (state->online) {
    // Wander-join-style sampling: each sampled tuple costs sample_us
    // (times complexity), independent of data scale — absolute sample
    // size is what determines estimate quality.  The walk offset is a
    // stable function of the query's core signature, so equal or refined
    // queries re-walk the same rows — the precondition for reuse.
    state->row_cost_us = config_.sample_us_per_row * mult;
    state->walk_offset = WalkOffsetFor(spec);
  } else {
    // Blocking fallback at row-store scan speed over the nominal data;
    // the normalized fact table's narrower rows scan faster.
    double scan_ns = config_.fallback_scan_ns_per_row;
    if (this->catalog().is_normalized()) {
      scan_ns *= 1.0 - config_.normalized_scan_discount;
    }
    state->row_cost_us = scan_ns * mult * scale() / 1000.0;
    // Fallback joins are materialized and charged like a hash join build.
    overhead += static_cast<Micros>(static_cast<double>(joins_charged) *
                                    static_cast<double>(nominal_rows()) *
                                    (2.0 * config_.fallback_scan_ns_per_row) /
                                    1000.0);
  }
  // Pin the published watermark: the walk/scan never reads past it, so
  // the answer is independent of rows staged or published afterwards.
  state->pinned_rows = visible_rows();
  return Register(std::move(state), overhead);
}

void OnlineEngine::Feed(QueryState* state, int64_t begin, int64_t end) {
  if (static_cast<const OnlineQuery*>(state)->online) {
    // Batched shuffled-walk sampling through the vectorized pipeline.
    exec::ProcessWalkParallel(state->aggregator.get(), ShuffledRows(),
                              state->walk_offset, begin, end - begin,
                              config_.execution_threads);
  } else {
    exec::ProcessRangeParallel(state->aggregator.get(), begin, end,
                               config_.execution_threads);
  }
}

void OnlineEngine::AfterSlice(QueryState* state, Micros rows_us) {
  auto* oq = static_cast<OnlineQuery*>(state);
  oq->work_done_us += rows_us;
  // Intermediate results surface only at report-interval boundaries.
  if (!oq->online ||
      oq->work_done_us - oq->last_report_us < config_.report_interval_us) {
    return;
  }
  oq->snapshot = oq->aggregator->EstimateFromUniformSample(oq->pinned_rows,
                                                           z_score());
  oq->snapshot.available = oq->aggregator->rows_seen() > 0;
  oq->last_report_us = oq->work_done_us;
}

query::QueryResult OnlineEngine::Answer(const RunningQuery& rq) const {
  const auto& oq = static_cast<const OnlineQuery&>(*rq.state);
  if (rq.done) {
    query::QueryResult result = oq.aggregator->ExactResult();
    result.available = true;
    return result;
  }
  if (!oq.online) {
    query::QueryResult pending;
    pending.available = false;
    return pending;
  }
  return oq.snapshot;  // may be unavailable before the first interval
}

}  // namespace idebench::engines
