#include "engines/progressive_engine.h"

#include <algorithm>
#include <cmath>

#include "chaos/fault_injector.h"
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

Result<std::shared_ptr<ProgressiveEngine::SampleState>>
ProgressiveEngine::MakeState(const query::QuerySpec& spec) {
  auto state = std::make_shared<SampleState>();
  state->spec = spec;
  IDB_ASSIGN_OR_RETURN(exec::BoundQuery bound,
                       BindQuery(state->spec, /*lazy=*/true));
  state->bound = std::make_unique<exec::BoundQuery>(std::move(bound));
  state->aggregator = std::make_unique<exec::BinnedAggregator>(
      state->bound.get(), MakeAggregatorOptions());
  state->reuse = AcquireReuse(state->spec);
  IDB_ASSIGN_OR_RETURN(std::vector<std::string> dims, RequiredJoins(spec));
  const double mult = ComplexityMultiplier(
      spec, static_cast<int>(dims.size()), config_.factors);
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
  const std::string signature = QuerySignature(spec);

  auto rq = std::make_unique<RunningQuery>();
  // 1. Reuse a cached sample state for an identical query.
  if (config_.enable_reuse) {
    auto cached = cache_.find(signature);
    if (cached != cache_.end()) {
      rq->state = cached->second;
      ++reuse_hits_;
    }
  }
  // 2. Adopt a speculative pre-execution.
  if (rq->state == nullptr) {
    auto spec_it = speculations_.find(signature);
    if (spec_it != speculations_.end()) {
      rq->state = spec_it->second.state;
      if (rq->state->cursor > 0) ++speculation_hits_;
      speculations_.erase(spec_it);
    }
  }
  // 3. Cold start.
  if (rq->state == nullptr) {
    IDB_ASSIGN_OR_RETURN(rq->state, MakeState(spec));
  }
  // (Re)pin to the watermark current at this submission: an adopted
  // cached state keeps its sample and extends its walk over any epochs
  // published since it last ran.
  rq->state->pinned_rows = visible_rows();
  if (config_.enable_reuse) cache_[signature] = rq->state;

  rq->overhead_remaining = static_cast<Micros>(config_.query_overhead_us);
  if (first_query_after_prepare_) {
    rq->overhead_remaining +=
        static_cast<Micros>(config_.restart_overhead_us);
    first_query_after_prepare_ = false;
  }
  rq->done = rq->state->cursor >= rq->state->pinned_rows;

  // Only speculation reads last_spec_ and links_; with it off, recording
  // them would grow both by every viz a long-lived server ever sees.
  if (config_.enable_speculation) {
    if (!spec.viz_name.empty()) last_spec_[spec.viz_name] = spec;
    RefreshSpeculations();
  }

  const QueryHandle handle = NextHandle();
  queries_.emplace(handle, std::move(rq));
  return handle;
}

Micros ProgressiveEngine::AdvanceState(SampleState* state, Micros budget) {
  if (budget <= 0) return 0;
  state->credit_us += static_cast<double>(budget);
  const int64_t affordable =
      state->row_cost_us > 0.0
          ? static_cast<int64_t>(state->credit_us / state->row_cost_us)
          : state->pinned_rows;
  const int64_t remaining = state->pinned_rows - state->cursor;
  const int64_t todo = std::min(affordable, remaining);
  if (todo <= 0) {
    // Either out of budget for even one row, or the walk is complete.
    if (remaining == 0) {
      state->credit_us = 0.0;
      return 0;
    }
    return 0;
  }
  // Walk positions covered by a cached snapshot are served from it; the
  // remainder runs batched shuffled-walk sampling through the vectorized
  // pipeline, morsel-parallel when worker threads are configured.
  const int64_t end = state->cursor + todo;
  const int64_t served_to =
      ServeReuse(state->reuse, state->aggregator.get(), state->cursor, end);
  if (served_to < end) {
    exec::ProcessWalkParallel(state->aggregator.get(), ShuffledRows(),
                              state->walk_offset, served_to, end - served_to,
                              config_.execution_threads);
  }
  state->cursor += todo;
  const double spent = static_cast<double>(todo) * state->row_cost_us;
  state->credit_us -= spent;
  return static_cast<Micros>(std::llround(spent));
}

Micros ProgressiveEngine::RunFor(QueryHandle handle, Micros budget) {
  auto it = queries_.find(handle);
  if (it == queries_.end() || budget <= 0) return 0;
  RunningQuery& rq = *it->second;
  if (rq.done || rq.faulted) return 0;
  // Chaos site: transient mid-run failure; the handle wedges and the
  // error surfaces on the next PollResult.
  if (chaos::FaultInjector::Fire(chaos::FaultSite::kEngineRun)) {
    rq.faulted = true;
    return 0;
  }

  Micros consumed = 0;
  const Micros overhead = std::min(budget, rq.overhead_remaining);
  rq.overhead_remaining -= overhead;
  consumed += overhead;
  if (rq.overhead_remaining > 0) return consumed;

  consumed += AdvanceState(rq.state.get(), budget - consumed);
  if (rq.state->cursor >= rq.state->pinned_rows) rq.done = true;
  // Leftover sub-row budget is banked in the state's credit, so the whole
  // slice counts as consumed while the walk is still running.
  if (!rq.done) return budget;
  return std::min(consumed, budget);
}

bool ProgressiveEngine::IsDone(QueryHandle handle) const {
  auto it = queries_.find(handle);
  return it != queries_.end() && it->second->done;
}

Result<query::QueryResult> ProgressiveEngine::PollResult(QueryHandle handle) {
  auto it = queries_.find(handle);
  if (it == queries_.end()) return Status::KeyError("unknown query handle");
  RunningQuery& rq = *it->second;
  if (rq.faulted) {
    return Status::IOError("injected run fault (engine '" + name() + "')");
  }
  query::QueryResult result = rq.state->aggregator->EstimateFromUniformSample(
      rq.state->pinned_rows, z_score());
  // Fully progressive: anything sampled so far is fetchable immediately.
  result.available = rq.state->aggregator->rows_seen() > 0;
  return result;
}

void ProgressiveEngine::Cancel(QueryHandle handle) {
  // The sample state stays in the semantic reuse cache; only the handle
  // dies.  The cross-interaction cache snapshots the state's progress so
  // later equal/refined queries can skip the physical recomputation.
  auto it = queries_.find(handle);
  if (it != queries_.end()) {
    const SampleState& state = *it->second->state;
    StoreReuse(state.spec, *state.aggregator, /*lazy_joins=*/true);
    queries_.erase(it);
  }
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
      auto cached = cache_.find(QuerySignature(source));
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
      const std::string signature = QuerySignature(candidate);
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
    AdvanceState(spec_entry.state.get(), share);
  }
}

}  // namespace idebench::engines
