#include "engines/engine_base.h"

#include <algorithm>
#include <cmath>

#include "aqp/confidence.h"
#include "chaos/fault_injector.h"
#include "exec/parallel.h"

namespace idebench::engines {

EngineBase::EngineBase(std::string name, const EngineOptions& options)
    : name_(std::move(name)),
      z_(aqp::ZScoreForConfidence(aqp::kConfidenceLevel)),
      seed_(options.seed),
      threads_(options.execution_threads),
      reuse_cache_on_(options.reuse_cache),
      expected_sessions_(options.expected_sessions),
      rng_(options.seed) {}

Status EngineBase::Attach(std::shared_ptr<const storage::Catalog> catalog) {
  // Chaos site: data preparation fails I/O-style before any state is
  // bound, so a later Prepare retry starts clean and can succeed.
  if (chaos::FaultInjector::Fire(chaos::FaultSite::kEnginePrepare)) {
    return Status::IOError("injected prepare fault (engine '" + name_ + "')");
  }
  if (catalog == nullptr || catalog->fact_table() == nullptr) {
    return Status::Invalid("engine '" + name_ + "': empty catalog");
  }
  if (attached()) {
    return Status::Invalid("engine '" + name_ + "' already prepared");
  }
  catalog_ = std::move(catalog);
  joins_ = exec::JoinIndexCache(catalog_.get());
  // Visible (published-watermark) rows only: rows staged in an open
  // ingest epoch are invisible to every reader until published.
  actual_rows_ = catalog_->fact_table()->visible_rows();
  nominal_rows_ = catalog_->nominal_rows();
  scale_ = actual_rows_ > 0 ? static_cast<double>(nominal_rows_) /
                                  static_cast<double>(actual_rows_)
                            : 1.0;
  if (scale_ < 1.0) scale_ = 1.0;
  if (reuse_cache_on_) {
    // The global entry cap scales with the session count; the byte
    // budget stays the fixed process-level bound.
    exec::ReuseCacheOptions options;
    options.max_entries_total *= std::max(1, expected_sessions_);
    reuse_cache_ = std::make_unique<exec::ReuseCache>(options);
  }
  return Status::OK();
}

Result<exec::BoundQuery> EngineBase::BindQuery(const query::QuerySpec& spec,
                                               int* num_joins,
                                               int* joins_charged) {
  IDB_ASSIGN_OR_RETURN(std::vector<const exec::JoinIndex*> joins,
                       joins_.For(spec));
  if (num_joins != nullptr) *num_joins = static_cast<int>(joins.size());
  if (joins_charged != nullptr) {
    *joins_charged = 0;
    for (const exec::JoinIndex* join : joins) {
      if (charged_joins_.insert(join->dimension_table()).second) {
        ++*joins_charged;
      }
    }
  }
  return exec::BoundQuery::Bind(spec, *catalog_, joins);
}

int64_t EngineBase::visible_rows() const {
  if (catalog_ == nullptr || catalog_->fact_table() == nullptr) return 0;
  return catalog_->fact_table()->visible_rows();
}

namespace {

/// Stream id base for per-epoch walk-segment shuffles, forked from a
/// fresh Rng(seed): far away from any other fork stream in the codebase.
constexpr uint64_t kWalkEpochStreamBase = 0x1DEB0000ULL;

/// A stable, platform-independent 64-bit string hash (std::hash makes no
/// such promise): an FNV-1a-style pass with FNV's 64-bit prime, finished
/// with a SplitMix64 mix.  Its basis, xored with the seed, is not
/// FNV-1a's standard offset basis (14695981039346656037) but that number
/// with its last digit dropped.  Keep the constants: they fix every walk
/// key, hence every sample the walking engines draw.
uint64_t StableHash(const std::string& s, uint64_t seed) {
  uint64_t h = 1469598103934665603ULL ^ seed;
  for (const char c : s) {
    h ^= static_cast<uint8_t>(c);
    h *= 1099511628211ULL;
  }
  h += 0x9e3779b97f4a7c15ULL;
  h = (h ^ (h >> 30)) * 0xbf58476d1ce4e5b9ULL;
  h = (h ^ (h >> 27)) * 0x94d049bb133111ebULL;
  return h ^ (h >> 31);
}

}  // namespace

exec::FeedOrder EngineBase::WalkOrder(const query::QuerySpec& spec) {
  if (shuffled_ == nullptr) {
    // The base segment is the table's own row order, so it needs no
    // index.  Ingest-enabled tables: it covers only the first epoch (the
    // pre-ingest rows); epochs published *before* this engine attached
    // are appended below through the same per-epoch streams a live
    // engine would have used, so the walk is a pure function of the
    // table's epoch history, not of when the engine showed up.
    int64_t base = actual_rows_;
    const storage::Table* t = catalog_->fact_table();
    if (t->ingest_enabled() && !t->epoch_boundaries().empty()) {
      base = std::min(base, t->epoch_boundaries().front());
    }
    shuffled_ = std::make_unique<aqp::ShuffledIndex>(base);
  }
  // Streaming ingest: cover any epochs published since the last call,
  // one segment per epoch, before any of their positions is fed.  Each
  // segment's shuffle is keyed purely by (engine seed, epoch index) —
  // never by the advancing member rng_ or by when this engine happened
  // to observe the publish — so a live run and a pre-staged run that
  // publish the same epochs build identical indexes no matter how
  // publishes interleave with queries.  Earlier segments are never
  // touched (ShuffledIndex prefix property), keeping in-flight walks and
  // cached replay positions valid.
  const storage::Table* fact = catalog_->fact_table();
  if (fact->ingest_enabled()) {
    const std::vector<int64_t>& epochs = fact->epoch_boundaries();
    for (size_t e = 0; e < epochs.size(); ++e) {
      if (epochs[e] > shuffled_->size()) {
        Rng child = Rng(seed_).Fork(kWalkEpochStreamBase + e);
        shuffled_->ExtendTo(epochs[e], &child);
      }
    }
  }
  int64_t key = 0;
  if (actual_rows_ > 0) {
    const uint64_t h = StableHash(spec.CoreSignature(), seed_);
    key = static_cast<int64_t>(h % static_cast<uint64_t>(actual_rows_));
  }
  return exec::FeedOrder::Walk(shuffled_.get(), key);
}

void EngineBase::WorkflowStart() {
  if (reuse_cache_ != nullptr) reuse_cache_->Clear();
}

void EngineBase::DiscardViz(const std::string& viz) {
  if (reuse_cache_ != nullptr) reuse_cache_->DropViz(viz);
}

metrics::ReuseCacheStats EngineBase::reuse_cache_stats() const {
  return reuse_cache_ != nullptr ? reuse_cache_->stats()
                                 : metrics::ReuseCacheStats{};
}

Status EngineBase::BindState(QueryState* state, const query::QuerySpec& spec,
                             int* joins_charged) {
  state->spec = spec;
  IDB_ASSIGN_OR_RETURN(exec::BoundQuery bound,
                       BindQuery(state->spec, &state->joins, joins_charged));
  state->bound = std::make_unique<exec::BoundQuery>(std::move(bound));
  // Candidates are recorded only for the reuse cache to store at Cancel.
  exec::BinnedAggregatorOptions options;
  options.record_matches = reuse_cache_ != nullptr;
  state->aggregator =
      std::make_unique<exec::BinnedAggregator>(state->bound.get(), options);
  if (reuse_cache_ != nullptr) state->reuse = reuse_cache_->Lookup(state->spec);
  return Status::OK();
}

QueryHandle EngineBase::Register(std::shared_ptr<QueryState> state,
                                 Micros overhead_us, bool done) {
  const QueryHandle handle = next_handle_++;
  RunningQuery& rq = queries_[handle];
  rq.state = std::move(state);
  rq.overhead_remaining = overhead_us;
  rq.done = done;
  return handle;
}

Micros EngineBase::Advance(QueryState* state, Micros budget) {
  if (budget <= 0) return 0;
  state->credit_us += static_cast<double>(budget);
  const int64_t affordable =
      state->row_cost_us > 0.0
          ? static_cast<int64_t>(state->credit_us / state->row_cost_us)
          : state->pinned_rows;
  const int64_t remaining = state->pinned_rows - state->cursor;
  const int64_t todo = std::min(affordable, remaining);
  if (todo <= 0) {
    // Out of budget for even one position, or the extent is complete.
    if (remaining == 0) state->credit_us = 0.0;
    return 0;
  }
  // Positions covered by a cached snapshot are served from it, through
  // the query's own order; the remainder runs through the engine's
  // physical pipeline.  The virtual cost model charges every position
  // either way.
  const int64_t end = state->cursor + todo;
  int64_t served_to = state->cursor;
  if (reuse_cache_ != nullptr) {
    served_to = exec::ReuseCache::Serve(state->reuse, state->order,
                                        state->aggregator.get(),
                                        state->cursor, end);
    if (served_to > state->cursor) {
      reuse_cache_->AddRowsServed(served_to - state->cursor);
    }
  }
  if (served_to < end) {
    if (threads_ == 1) {
      state->aggregator->Process(state->order, served_to, end);
    } else {
      exec::MorselProcess(state->aggregator.get(), state->order, served_to,
                          end, exec::ResolveThreadCount(threads_));
    }
  }
  state->cursor = end;
  const double spent = static_cast<double>(todo) * state->row_cost_us;
  state->credit_us -= spent;
  return static_cast<Micros>(std::llround(spent));
}

Micros EngineBase::RunFor(QueryHandle handle, Micros budget) {
  auto it = queries_.find(handle);
  if (it == queries_.end() || budget <= 0) return 0;
  RunningQuery& rq = it->second;
  if (rq.done || rq.faulted) return 0;
  // Chaos site: the physical pipeline hits a transient I/O-style failure
  // mid-run.  The handle wedges (no further progress) and the error
  // surfaces on the next PollResult, mirroring a real engine whose fetch
  // fails after submission.
  if (chaos::FaultInjector::Fire(chaos::FaultSite::kEngineRun)) {
    rq.faulted = true;
    return 0;
  }
  // Pay fixed costs first.
  Micros consumed = std::min(budget, rq.overhead_remaining);
  rq.overhead_remaining -= consumed;
  if (rq.overhead_remaining > 0) return consumed;

  const Micros rows_us = Advance(rq.state.get(), budget - consumed);
  consumed += rows_us;
  rq.done = rq.state->cursor >= rq.state->pinned_rows;
  AfterSlice(rq.state.get(), rows_us);
  // Leftover sub-position budget is banked in the state's credit, so the
  // whole slice counts as consumed while the query is still running.
  if (!rq.done) return budget;
  return std::min(consumed, budget);
}

bool EngineBase::IsDone(QueryHandle handle) const {
  auto it = queries_.find(handle);
  return it != queries_.end() && it->second.done;
}

Result<query::QueryResult> EngineBase::PollResult(QueryHandle handle) {
  auto it = queries_.find(handle);
  if (it == queries_.end()) return Status::KeyError("unknown query handle");
  if (it->second.faulted) {
    return Status::IOError("injected run fault (engine '" + name_ + "')");
  }
  return Answer(it->second);
}

void EngineBase::Cancel(QueryHandle handle) {
  auto it = queries_.find(handle);
  if (it == queries_.end()) return;
  // Snapshot the query's progress so later equal or refined queries can
  // skip the physical recomputation.
  if (reuse_cache_ != nullptr) {
    const QueryState& state = *it->second.state;
    reuse_cache_->Store(
        state.spec, *state.aggregator,
        [this](const query::QuerySpec& s) { return BindQuery(s); });
  }
  queries_.erase(it);
}

}  // namespace idebench::engines
