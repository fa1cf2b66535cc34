#ifndef IDEBENCH_ENGINES_ENGINE_BASE_H_
#define IDEBENCH_ENGINES_ENGINE_BASE_H_

/// \file engine_base.h
/// The one query lifecycle every concrete engine runs on, plus shared
/// plumbing: catalog/handle bookkeeping, one join index per dimension
/// with the once-per-engine charge for its build, query binding, the
/// shuffled row order used by sampling engines, and the cross-interaction
/// reuse cache.
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
#include <string>
#include <unordered_map>
#include <unordered_set>
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
    int joins = 0;                  // dimensions the query reads through
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

  /// Binds `spec` into a fresh `state`, counts its joins into
  /// `state->joins`, gives it an aggregator, and acquires the reuse
  /// cache's best match for it.  Every engine binds through the same join
  /// index per dimension; what differs is the cost model.  An engine that
  /// pays a materialized build (a hash join) passes `joins_charged`,
  /// which receives the number of `spec`'s dimensions this engine has not
  /// charged before: each is charged once per engine.  Wander-join
  /// sampling passes nothing and is never charged.
  Status BindState(QueryState* state, const query::QuerySpec& spec,
                   int* joins_charged = nullptr);

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
  /// Binds `spec` (which must outlive the result) through `joins_`;
  /// counts into `num_joins` and `joins_charged` as `BindState`
  /// documents.
  Result<exec::BoundQuery> BindQuery(const query::QuerySpec& spec,
                                     int* num_joins = nullptr,
                                     int* joins_charged = nullptr);

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
  exec::JoinIndexCache joins_;
  std::unordered_set<std::string> charged_joins_;  // dimensions charged
  std::unique_ptr<aqp::ShuffledIndex> shuffled_;
  std::unique_ptr<exec::ReuseCache> reuse_cache_;
  std::unordered_map<QueryHandle, RunningQuery> queries_;
};

}  // namespace idebench::engines

#endif  // IDEBENCH_ENGINES_ENGINE_BASE_H_
