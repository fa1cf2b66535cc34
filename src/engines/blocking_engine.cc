#include "engines/blocking_engine.h"

#include "exec/parallel.h"

namespace idebench::engines {

BlockingEngine::BlockingEngine(BlockingEngineConfig config)
    : EngineBase("blocking", config.confidence_level, config.seed),
      config_(config) {}

Result<Micros> BlockingEngine::Prepare(
    std::shared_ptr<const storage::Catalog> catalog) {
  IDB_RETURN_NOT_OK(Attach(std::move(catalog)));
  if (config_.reuse_cache) {
    EnableReuseCacheForSessions(config_.expected_sessions);
  }
  // CSV ingest of every table; dimensions are negligible next to the fact
  // table but are charged for completeness.
  double rows = 0.0;
  for (const auto& table : this->catalog().tables()) {
    if (table.get() == this->catalog().fact_table()) {
      rows += static_cast<double>(nominal_rows());
    } else {
      rows += static_cast<double>(table->num_rows());
    }
  }
  return static_cast<Micros>(rows * config_.load_ns_per_row / 1000.0);
}

Result<QueryHandle> BlockingEngine::Submit(const query::QuerySpec& spec) {
  if (!attached()) return Status::Invalid("engine not prepared");
  auto state = std::make_shared<QueryState>();
  int joins_charged = 0;
  IDB_RETURN_NOT_OK(BindState(state.get(), spec, &joins_charged));

  const double mult = ComplexityMultiplier(spec, state->joins, config_.factors);
  // Virtual cost per *actual* row so that scanning all actual rows costs
  // scan_ns * nominal rows.
  double scan_ns = config_.scan_ns_per_row;
  if (this->catalog().is_normalized()) {
    scan_ns *= 1.0 - config_.normalized_scan_discount;
  }
  state->row_cost_us = scan_ns * mult * scale() / 1000.0;
  // Pin the published watermark: the scan stops at it, so rows staged or
  // published after submission never leak into the answer.
  state->pinned_rows = visible_rows();
  const Micros overhead =
      static_cast<Micros>(config_.query_overhead_us) +
      static_cast<Micros>(static_cast<double>(joins_charged) *
                          static_cast<double>(nominal_rows()) *
                          config_.join_build_ns_per_row / 1000.0);
  return Register(std::move(state), overhead);
}

void BlockingEngine::Feed(QueryState* state, int64_t begin, int64_t end) {
  // Fused kernels + zone-map block skipping: this is the full-scan path
  // the zone maps exist for (the virtual cost model still charges every
  // row; only wall-clock work shrinks).
  exec::ProcessRangeParallel(state->aggregator.get(), begin, end,
                             config_.execution_threads);
}

query::QueryResult BlockingEngine::Answer(const RunningQuery& rq) const {
  const QueryState& state = *rq.state;
  if (!rq.done) {
    // Blocking execution: nothing is fetchable until completion.
    query::QueryResult pending;
    pending.available = false;
    pending.progress = state.pinned_rows > 0
                           ? static_cast<double>(state.cursor) /
                                 static_cast<double>(state.pinned_rows)
                           : 0.0;
    return pending;
  }
  query::QueryResult result = state.aggregator->ExactResult();
  result.available = true;
  return result;
}

}  // namespace idebench::engines
