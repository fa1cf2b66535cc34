#include "engines/stratified_engine.h"

#include "exec/parallel.h"

namespace idebench::engines {

StratifiedEngine::StratifiedEngine(StratifiedEngineConfig config)
    : EngineBase("stratified", config.confidence_level, config.seed),
      config_(config) {}

Result<Micros> StratifiedEngine::Prepare(
    std::shared_ptr<const storage::Catalog> catalog) {
  // Reject unsupported layouts *before* attaching: a failed Prepare must
  // leave the engine unprepared (Submit keeps failing cleanly) instead of
  // half-attached with an empty sample.
  if (catalog != nullptr && catalog->fact_table() != nullptr &&
      catalog->is_normalized()) {
    return Status::NotImplemented(
        "the stratified engine only supports de-normalized data");
  }
  IDB_RETURN_NOT_OK(Attach(std::move(catalog)));
  const storage::Table& fact = *this->catalog().fact_table();
  strat_column_ =
      fact.ColumnByName(config_.stratify_by) != nullptr ? config_.stratify_by
                                                        : std::string();
  // Sample the published watermark only: rows staged in an open ingest
  // epoch stay invisible until published (then ExtendSampleFor-
  // PublishedEpochs covers them with per-epoch delta blocks).
  sampled_watermark_ = fact.visible_rows();
  IDB_ASSIGN_OR_RETURN(
      sample_, aqp::BuildStratifiedSample(fact, strat_column_,
                                          config_.sampling_rate,
                                          config_.min_rows_per_stratum, rng(),
                                          /*row_begin=*/0,
                                          /*row_end=*/sampled_watermark_));
  if (config_.reuse_cache) {
    EnableReuseCacheForSessions(config_.expected_sessions);
  }
  // Preparation = CSV ingest + offline sample construction + warm-up
  // query over the sample (paper §5.2: 27 min at 500 M).
  const double nominal = static_cast<double>(nominal_rows());
  const double load_us = nominal * config_.load_ns_per_row / 1000.0;
  const double build_us =
      nominal *
      (config_.sample_build_scan_ns_per_row +
       config_.sampling_rate * config_.sample_build_write_ns_per_sample) /
      1000.0;
  const double warmup_us = nominal * config_.sampling_rate *
                           config_.sample_scan_ns_per_row / 1000.0;
  return static_cast<Micros>(load_us + build_us + warmup_us);
}

namespace {
/// Stream id base for per-epoch stratified delta-sample shuffles, forked
/// from a fresh Rng(seed); disjoint from the walk-segment stream base in
/// engine_base.cc.
constexpr uint64_t kStratifiedEpochStreamBase = 0x1DEB1000ULL;
}  // namespace

void StratifiedEngine::ExtendSampleForPublishedEpochs() {
  const storage::Table& fact = *catalog().fact_table();
  if (!fact.ingest_enabled()) return;
  const std::vector<int64_t>& epochs = fact.epoch_boundaries();
  for (size_t e = 0; e < epochs.size(); ++e) {
    if (epochs[e] <= sampled_watermark_) continue;
    Rng child = Rng(seed()).Fork(kStratifiedEpochStreamBase + e);
    auto delta = aqp::BuildStratifiedSample(
        fact, strat_column_, config_.sampling_rate,
        config_.min_rows_per_stratum, &child, sampled_watermark_, epochs[e]);
    if (!delta.ok()) continue;
    const aqp::StratifiedSample& block = *delta;
    sample_.rows.insert(sample_.rows.end(), block.rows.begin(),
                        block.rows.end());
    sample_.weights.insert(sample_.weights.end(), block.weights.begin(),
                           block.weights.end());
    sample_.base_rows += block.base_rows;
    sampled_watermark_ = epochs[e];
  }
}

Result<QueryHandle> StratifiedEngine::Submit(const query::QuerySpec& spec) {
  if (!attached()) return Status::Invalid("engine not prepared");
  // Cover any epochs published since the last submission before pinning
  // this query's sample extent.
  ExtendSampleForPublishedEpochs();

  auto state = std::make_shared<QueryState>();
  IDB_RETURN_NOT_OK(BindState(state.get(), spec));
  const double mult = ComplexityMultiplier(spec, state->joins, config_.factors);
  // Scanning the whole sample costs rate * nominal * ns; spread evenly
  // over the actual sample rows.
  const double total_us = static_cast<double>(nominal_rows()) *
                          config_.sampling_rate *
                          config_.sample_scan_ns_per_row * mult / 1000.0;
  state->row_cost_us =
      sample_.size() > 0 ? total_us / static_cast<double>(sample_.size()) : 0.0;
  state->pinned_rows = sample_.size();
  return Register(std::move(state),
                  static_cast<Micros>(config_.query_overhead_us));
}

void StratifiedEngine::Feed(QueryState* state, int64_t begin, int64_t end) {
  // The sample is laid out stratum by stratum, so per-row weights form
  // runs of equal values; feed each run as one weighted batch through the
  // vectorized pipeline.  (Positions served from the reuse cache replay
  // with their recorded stratum weights.)
  for (int64_t i = begin; i < end;) {
    const size_t pos = static_cast<size_t>(i);
    const double w = sample_.weights[pos];
    int64_t j = i + 1;
    while (j < end && sample_.weights[static_cast<size_t>(j)] == w) {
      ++j;
    }
    exec::ProcessBatchParallel(state->aggregator.get(), &sample_.rows[pos],
                               j - i, w, config_.execution_threads);
    i = j;
  }
}

query::QueryResult StratifiedEngine::Answer(const RunningQuery& rq) const {
  if (!rq.done) {
    // The sample scan is blocking: no intermediate results.
    query::QueryResult pending;
    pending.available = false;
    return pending;
  }
  query::QueryResult result =
      rq.state->aggregator->EstimateFromWeightedSample(z_score());
  result.available = true;
  // Progress in nominal terms: the whole sample covers `sampling_rate` of
  // the data.
  result.progress = config_.sampling_rate;
  return result;
}

}  // namespace idebench::engines
