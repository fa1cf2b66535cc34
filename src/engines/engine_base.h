#ifndef IDEBENCH_ENGINES_ENGINE_BASE_H_
#define IDEBENCH_ENGINES_ENGINE_BASE_H_

/// \file engine_base.h
/// The one query lifecycle every concrete engine runs on, plus shared
/// plumbing: catalog/handle bookkeeping, join-index caches (materialized
/// and lazy), query binding, the shuffled row order used by sampling
/// engines, and the cross-interaction reuse cache.
///
/// `EngineBase` implements the adapter protocol (§4.5) once.  `RunFor`
/// fires the `kEngineRun` chaos site, pays the query's fixed overhead,
/// buys feed positions with the budget plus banked credit, serves the
/// reuse cache's prefix and feeds the rest physically.  `IsDone`,
/// `Cancel` and `PollResult`'s handle and fault checks are shared too.
/// A concrete engine implements only what differs:
///
///  * `Submit` — bind the query (`BindState`), set its per-position cost
///    and fixed overhead, pin its extent, and `Register` it;
///  * `Feed` — the physical work for feed positions [begin, end);
///  * `Answer` — what `PollResult` returns for a live, unfaulted handle.

#include <memory>
#include <mutex>
#include <string>
#include <unordered_map>
#include <vector>

#include "aqp/sampler.h"
#include "common/random.h"
#include "engines/cost.h"
#include "engines/engine.h"
#include "exec/aggregator.h"
#include "exec/bound_query.h"
#include "exec/reuse_cache.h"

namespace idebench::engines {

/// Common engine state, the shared query lifecycle, and helpers.
class EngineBase : public Engine {
 public:
  EngineBase(std::string name, double confidence_level, uint64_t seed);

  const std::string& name() const override { return name_; }

  /// Grants `budget` to the query (see the file comment).  Fixed overhead
  /// is paid first; the rest buys feed positions at the query's row cost,
  /// and sub-position leftovers are banked, so the whole slice counts as
  /// consumed while the query runs — the scheduler's entitlement
  /// accounting relies on that.  An injected `kEngineRun` fault wedges
  /// the handle: no further progress, and `PollResult` reports it.
  Micros RunFor(QueryHandle handle, Micros budget) final;
  bool IsDone(QueryHandle handle) const final;
  /// Unknown handle -> KeyError, faulted handle -> IOError, otherwise the
  /// engine's `Answer`.
  Result<query::QueryResult> PollResult(QueryHandle handle) final;
  /// Snapshots the query into the reuse cache, then releases the handle.
  void Cancel(QueryHandle handle) final;

  /// Nominal rows the catalog represents (drives the cost model).
  int64_t nominal_rows() const { return nominal_rows_; }

  /// Physically materialized fact rows *at attach time* (drives the cost
  /// model and walk offsets).  Deliberately frozen under streaming
  /// ingest: per-query walk offsets hash modulo this value, and reuse
  /// replay requires the same core signature to keep the same offset for
  /// the lifetime of the engine.
  int64_t actual_rows() const { return actual_rows_; }

  /// Fact rows visible under the current published watermark — equals
  /// `actual_rows()` until ingest publishes an epoch.  Queries pin this
  /// at submission and never read past their pinned value.
  int64_t visible_rows() const;

  /// Telemetry of the cross-interaction reuse cache (zeros when off).
  metrics::ReuseCacheStats reuse_cache_stats() const override;

  /// A workflow models a fresh user session: cached physical work must
  /// not carry across the boundary.  Engines overriding this must call
  /// the base implementation.
  void WorkflowStart() override;

  /// Discarding a viz drops its cached snapshots.  Engines overriding
  /// this must call the base implementation.
  void DiscardViz(const std::string& viz) override;

 protected:
  /// Binds the engine to a catalog; called from Prepare implementations.
  Status Attach(std::shared_ptr<const storage::Catalog> catalog);

  /// True once Attach succeeded.
  bool attached() const { return catalog_ != nullptr; }

  /// A query's execution state: its binding, the feed positions it has
  /// bought and the credit it has banked.  Feed positions are whatever
  /// the engine's `Feed` walks — fact rows, shuffled-walk steps, sample
  /// indices — and the query covers [0, pinned_rows).  Each handle owns
  /// one, except that the progressive engine's semantic cache lets equal
  /// handles share one (and its speculation advances some no handle
  /// holds yet).  An engine may derive from it to keep fields of its own.
  struct QueryState {
    query::QuerySpec spec;
    std::unique_ptr<exec::BoundQuery> bound;
    std::unique_ptr<exec::BinnedAggregator> aggregator;
    exec::ReuseCache::Match reuse;  // cached prefix to serve positions from
    bool lazy_joins = false;        // join strategy `bound` was built with
    int64_t walk_offset = 0;        // start into the shuffled walk (walkers)
    int64_t cursor = 0;             // next feed position
    int64_t pinned_rows = 0;        // extent pinned at Submit
    double row_cost_us = 0.0;       // virtual cost per feed position
    double credit_us = 0.0;         // banked sub-position budget
  };

  /// One live handle.
  struct RunningQuery {
    std::shared_ptr<QueryState> state;
    Micros overhead_remaining = 0;  // fixed costs to pay before any row
    bool done = false;
    bool faulted = false;           // injected run fault; surfaced via Poll
  };

  /// Physical work for feed positions [begin, end) of `state` — the part
  /// of a slice's purchase the reuse cache did not serve.
  virtual void Feed(QueryState* state, int64_t begin, int64_t end) = 0;

  /// What `PollResult` returns for a known, unfaulted handle.
  virtual query::QueryResult Answer(const RunningQuery& rq) const = 0;

  /// Runs at the end of every `RunFor` slice that got past the overhead;
  /// `rows_us` is the virtual time the slice spent on feed positions.
  virtual void AfterSlice(QueryState* state, Micros rows_us) {
    (void)state;
    (void)rows_us;
  }

  /// Binds `spec` into a fresh `state` with materialized (`lazy ==
  /// false`) or lazy joins, gives it an aggregator, and acquires the
  /// reuse cache's best match for it.  `joins_built_now` (optional)
  /// receives the number of materialized indexes this call constructed.
  Status BindState(QueryState* state, const query::QuerySpec& spec,
                   bool lazy, int* joins_built_now = nullptr);

  /// Hands `state` a fresh handle that must pay `overhead_us` before its
  /// first feed position; `done` marks it complete from the start.
  QueryHandle Register(std::shared_ptr<QueryState> state, Micros overhead_us,
                       bool done = false);

  /// Spends `budget` plus `state`'s banked credit on its next feed
  /// positions: serves the reuse cache's prefix, then `Feed`s the rest.
  /// Leftover sub-position budget stays banked.  Returns the virtual time
  /// spent on positions.
  Micros Advance(QueryState* state, Micros budget);

  /// Scale-up factor nominal/actual (>= 1 in normal configurations).
  double scale() const { return scale_; }

  /// z-score matching the configured confidence level.
  double z_score() const { return z_; }

  Rng* rng() { return &rng_; }

  /// Engine seed — the base for per-epoch derived streams (walk-segment
  /// and stratified-delta shuffles must be pure functions of
  /// (seed, epoch), never of when the engine observed the publish).
  uint64_t seed() const { return seed_; }

  const storage::Catalog& catalog() const { return *catalog_; }

  /// Returns the dimension tables `spec` needs joins for.
  Result<std::vector<std::string>> RequiredJoins(
      const query::QuerySpec& spec) const;

  /// Shared shuffled row order over the fact table (built lazily); the
  /// basis of without-replacement online sampling.
  const aqp::ShuffledIndex& ShuffledRows();

  /// Turns the cross-interaction reuse cache (exec/reuse_cache.h) on,
  /// sized for `expected_sessions` concurrent dashboards
  /// (session/session.h): the global entry cap scales with the session
  /// count so one session's working set cannot evict every other
  /// session's snapshots; the byte budget stays the fixed process-level
  /// bound.  `expected_sessions <= 1` keeps the default options.  First
  /// call wins.  Engines opt in from Prepare; the lifecycle then records
  /// candidates (`BindState`), serves cached prefixes (`Advance`) and
  /// stores snapshots (`Cancel`) with no further engine code.  With the
  /// cache off all of that is skipped, and results are identical either
  /// way (the transparency contract in reuse_cache.h).
  void EnableReuseCacheForSessions(int expected_sessions);

  /// Deterministic start offset into the shuffled walk for `spec`:
  /// stable-hashed from the engine seed and the spec's *core* signature,
  /// so queries that differ only in their predicate sets share one walk —
  /// the precondition for replaying a cached prefix under a refined
  /// filter — and repeated submissions re-walk identical rows.
  int64_t WalkOffsetFor(const query::QuerySpec& spec) const;

 private:
  /// Returns (building and caching if needed) the materialized join index
  /// for `dimension`; sets `*built_now` when this call constructed it (the
  /// caller must charge the build cost).
  ///
  /// Threading: join indexes are built *eagerly and completely* here at
  /// bind time — before any morsel dispatch — and a `JoinIndex`'s flat
  /// fact→dim mapping is immutable after construction, so morsel workers
  /// only ever read frozen arrays.  The cache maps themselves are guarded
  /// by `join_mu_` so concurrent Submit calls cannot race on insertion.
  Result<const exec::JoinIndex*> MaterializedJoin(const std::string& dimension,
                                                  bool* built_now);

  /// Returns (building and caching if needed) the lazy join index; same
  /// threading contract as `MaterializedJoin`.
  Result<const exec::JoinIndex*> LazyJoin(const std::string& dimension);

  /// Binds `spec` using materialized (`lazy == false`) or lazy joins.
  /// `spec` must outlive the returned BoundQuery.  `joins_built_now`
  /// (optional) receives the number of materialized indexes constructed
  /// by this call.
  Result<exec::BoundQuery> BindQuery(const query::QuerySpec& spec, bool lazy,
                                     int* joins_built_now = nullptr);

  std::string name_;
  double confidence_level_;
  double z_;
  uint64_t seed_;
  Rng rng_;
  std::shared_ptr<const storage::Catalog> catalog_;
  int64_t nominal_rows_ = 0;
  int64_t actual_rows_ = 0;
  double scale_ = 1.0;
  QueryHandle next_handle_ = 1;
  /// Guards the join caches: binding may run while morsel workers of a
  /// previously bound query are still touching *other* join mappings, and
  /// rehashing the cache map must never invalidate anything mid-build.
  std::mutex join_mu_;
  std::unordered_map<std::string, std::unique_ptr<exec::JoinIndex>>
      materialized_joins_;
  std::unordered_map<std::string, std::unique_ptr<exec::JoinIndex>>
      lazy_joins_;
  std::unique_ptr<aqp::ShuffledIndex> shuffled_;
  std::unique_ptr<exec::ReuseCache> reuse_cache_;
  std::unordered_map<QueryHandle, RunningQuery> queries_;
};

/// Canonical signature of a query (bins + aggregates + canonicalized
/// predicate set); used for result reuse and speculative-result matching.
/// Delegates to `query::QuerySpec::Signature`.
std::string QuerySignature(const query::QuerySpec& spec);

}  // namespace idebench::engines

#endif  // IDEBENCH_ENGINES_ENGINE_BASE_H_
