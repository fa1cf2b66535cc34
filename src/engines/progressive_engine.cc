#include "engines/progressive_engine.h"

#include <algorithm>

#include "exec/parallel.h"

namespace idebench::engines {

ProgressiveEngine::ProgressiveEngine(ProgressiveEngineConfig config)
    : EngineBase("progressive", config.confidence_level, config.seed),
      config_(config) {}

Result<Micros> ProgressiveEngine::Prepare(
    std::shared_ptr<const storage::Catalog> catalog) {
  IDB_RETURN_NOT_OK(Attach(std::move(catalog)));
  if (config_.reuse_cache) {
    EnableReuseCacheForSessions(config_.expected_sessions);
  }
  first_query_after_prepare_ = true;
  // IDEA "expects data in a single CSV file and does not need any
  // pre-processing"; start-up loads a fixed amount into memory (§5.2).
  return config_.prepare_time_us;
}

Result<std::shared_ptr<EngineBase::QueryState>> ProgressiveEngine::MakeState(
    const query::QuerySpec& spec) {
  auto state = std::make_shared<QueryState>();
  IDB_RETURN_NOT_OK(BindState(state.get(), spec));
  const double mult = ComplexityMultiplier(spec, state->joins, config_.factors);
  state->row_cost_us = config_.sample_us_per_row * mult;
  // Stable per-core-signature offset: equal or refined queries re-walk
  // the same permutation positions, which is what lets the reuse cache
  // replay one query's candidates under another's filter.
  state->walk_offset = WalkOffsetFor(spec);
  state->pinned_rows = visible_rows();
  return state;
}

Result<QueryHandle> ProgressiveEngine::Submit(const query::QuerySpec& spec) {
  if (!attached()) return Status::Invalid("engine not prepared");
  const std::string signature = spec.Signature();

  std::shared_ptr<QueryState> state;
  // 1. Continue the cached sample state of an identical query.  Adopting
  // re-pins it to the current watermark, so it must not be one that
  // another live handle runs at an older watermark (use_count 1: only
  // the cache holds it).  And its bins must still be the spec's: a
  // publish can re-resolve them.  Otherwise start cold, and the new
  // state replaces the entry.
  if (config_.enable_reuse) {
    auto cached = cache_.find(signature);
    if (cached != cache_.end() &&
        exec::SameBinTables(cached->second->spec, spec) &&
        (cached->second->pinned_rows == visible_rows() ||
         cached->second.use_count() == 1)) {
      state = cached->second;
      ++reuse_hits_;
    }
  }
  // 2. Adopt a speculative pre-execution.
  if (state == nullptr) {
    auto spec_it = speculations_.find(signature);
    if (spec_it != speculations_.end()) {
      state = spec_it->second.state;
      if (state->cursor > 0) ++speculation_hits_;
      speculations_.erase(spec_it);
    }
  }
  // 3. Cold start.
  if (state == nullptr) {
    IDB_ASSIGN_OR_RETURN(state, MakeState(spec));
  }
  // (Re)pin to the watermark current at this submission: an adopted
  // cached state keeps its sample and extends its walk over any epochs
  // published since it last ran.
  state->pinned_rows = visible_rows();
  if (config_.enable_reuse) cache_[signature] = state;

  Micros overhead = static_cast<Micros>(config_.query_overhead_us);
  if (first_query_after_prepare_) {
    overhead += static_cast<Micros>(config_.restart_overhead_us);
    first_query_after_prepare_ = false;
  }
  const bool done = state->cursor >= state->pinned_rows;

  // Only speculation reads last_spec_ and links_; with it off, recording
  // them would grow both by every viz a long-lived server ever sees.
  if (config_.enable_speculation) {
    if (!spec.viz_name.empty()) last_spec_[spec.viz_name] = spec;
    RefreshSpeculations();
  }
  return Register(std::move(state), overhead, done);
}

void ProgressiveEngine::Feed(QueryState* state, int64_t begin, int64_t end) {
  // Batched shuffled-walk sampling through the vectorized pipeline,
  // morsel-parallel when worker threads are configured.
  exec::ProcessWalkParallel(state->aggregator.get(), ShuffledRows(),
                            state->walk_offset, begin, end - begin,
                            config_.execution_threads);
}

query::QueryResult ProgressiveEngine::Answer(const RunningQuery& rq) const {
  const QueryState& state = *rq.state;
  query::QueryResult result =
      state.aggregator->EstimateFromUniformSample(state.pinned_rows, z_score());
  // Fully progressive: anything sampled so far is fetchable immediately.
  result.available = state.aggregator->rows_seen() > 0;
  return result;
}

void ProgressiveEngine::LinkVizs(const std::string& from,
                                 const std::string& to) {
  if (!config_.enable_speculation) return;  // see Submit
  const std::pair<std::string, std::string> edge{from, to};
  if (std::find(links_.begin(), links_.end(), edge) == links_.end()) {
    links_.push_back(edge);
  }
  RefreshSpeculations();
}

void ProgressiveEngine::DiscardViz(const std::string& viz) {
  EngineBase::DiscardViz(viz);
  last_spec_.erase(viz);
  links_.erase(std::remove_if(links_.begin(), links_.end(),
                              [&](const auto& edge) {
                                return edge.first == viz || edge.second == viz;
                              }),
               links_.end());
  if (config_.enable_speculation) RefreshSpeculations();
}

void ProgressiveEngine::WorkflowStart() {
  // A workflow models a fresh user session: the dashboard state resets
  // (the base drops the cross-interaction reuse snapshots).
  EngineBase::WorkflowStart();
  links_.clear();
  last_spec_.clear();
  speculations_.clear();
}

void ProgressiveEngine::RefreshSpeculations() {
  // For every link whose endpoint specs are known, enumerate single-bin
  // selections of the source's first binning dimension and pre-plan the
  // target's query under each selection.  Popularity weights come from
  // the source query's current sample counts when available.
  for (const auto& [from, to] : links_) {
    auto from_it = last_spec_.find(from);
    auto to_it = last_spec_.find(to);
    if (from_it == last_spec_.end() || to_it == last_spec_.end()) continue;
    const query::QuerySpec& source = from_it->second;
    const query::QuerySpec& target = to_it->second;
    if (source.bins.empty() || !source.bins[0].resolved) continue;
    const query::BinDimension& dim = source.bins[0];
    const int64_t bins =
        std::min<int64_t>(dim.bin_count,
                          static_cast<int64_t>(config_.max_speculations_per_link));

    // Bin popularity from the source's cached sample, when present.
    std::unordered_map<int64_t, double> popularity;
    if (config_.enable_reuse) {
      auto cached = cache_.find(source.Signature());
      if (cached != cache_.end()) {
        const query::QueryResult sample =
            cached->second->aggregator->EstimateFromUniformSample(
                cached->second->pinned_rows, z_score());
        for (const auto& [key, bin] : sample.bins) {
          if (!bin.values.empty()) {
            popularity[query::BinKeyDim1(key)] = bin.values[0].estimate;
          }
        }
      }
    }

    for (int64_t b = 0; b < bins; ++b) {
      query::QuerySpec candidate = target;
      expr::Predicate selection;
      selection.column = dim.column;
      if (dim.mode == query::BinningMode::kNominal) {
        selection.op = expr::CompareOp::kIn;
        selection.set_values = {dim.lo + static_cast<double>(b)};
        const storage::Table* owner = nullptr;
        auto owner_result = catalog().TableForColumn(dim.column);
        if (owner_result.ok()) owner = owner_result.ValueOrDie();
        selection.string_values = {dim.BinLabel(b, owner)};
      } else {
        selection.op = expr::CompareOp::kRange;
        selection.lo = dim.BinLowerEdge(b);
        selection.hi = dim.BinLowerEdge(b) + dim.width;
      }
      candidate.filter.And(selection);
      // The driver also conjoins the source's own filter into the target
      // query; mirror that.
      for (const expr::Predicate& p : source.filter.predicates()) {
        candidate.filter.And(p);
      }
      const std::string signature = candidate.Signature();
      if (speculations_.count(signature) != 0) continue;
      auto state_result = MakeState(candidate);
      if (!state_result.ok()) continue;
      Speculation spec_entry;
      spec_entry.state = std::move(state_result).MoveValueUnsafe();
      auto pop = popularity.find(b);
      spec_entry.weight = pop != popularity.end() ? std::max(pop->second, 1.0)
                                                  : 1.0;
      speculations_.emplace(signature, std::move(spec_entry));
    }
  }
}

void ProgressiveEngine::OnThink(Micros duration) {
  if (!config_.enable_speculation || speculations_.empty() || duration <= 0) {
    return;
  }
  // Split think time across candidates proportionally to popularity: the
  // engine bets on the selections the user is most likely to make.
  double total_weight = 0.0;
  for (const auto& [sig, spec_entry] : speculations_) {
    total_weight += spec_entry.weight;
  }
  if (total_weight <= 0.0) return;
  for (auto& [sig, spec_entry] : speculations_) {
    const Micros share = static_cast<Micros>(
        static_cast<double>(duration) * spec_entry.weight / total_weight);
    Advance(spec_entry.state.get(), share);
  }
}

}  // namespace idebench::engines
