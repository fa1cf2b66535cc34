#ifndef IDEBENCH_ENGINES_ENGINE_BASE_H_
#define IDEBENCH_ENGINES_ENGINE_BASE_H_

/// \file engine_base.h
/// The one query lifecycle every concrete engine runs on, the engine-wide
/// options every engine takes, plus shared plumbing: catalog/handle
/// bookkeeping, one join index per dimension with the once-per-engine
/// charge for its build, query binding, the walk order used by sampling
/// engines, and the cross-interaction reuse cache.
///
/// Each engine's config extends `EngineOptions` with its own cost knobs
/// and default seed.  `EngineBase` applies the options itself: randomness
/// from `seed`, `execution_threads` in every feed, and the reuse cache,
/// sized for `expected_sessions`, turned on in `Attach` when
/// `reuse_cache` is set.  Margins are at `aqp::kConfidenceLevel`.
///
/// `EngineBase` implements the adapter protocol (§4.5) once.  `RunFor`
/// fires the `kEngineRun` chaos site, pays the query's fixed overhead,
/// buys feed positions with the budget plus banked credit, serves the
/// reuse cache's prefix and feeds the rest through the query's
/// `exec::FeedOrder`.  `IsDone`, `Cancel` and `PollResult`'s handle and
/// fault checks are shared too.  A concrete engine implements only what
/// differs:
///
///  * `Submit` — bind the query (`BindState`), set its per-position cost
///    and fixed overhead, pin its extent, pick its feed order, and
///    `Register` it;
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

/// Options every `EngineBase` engine takes, whatever its cost model.
struct EngineOptions {
  /// Base of the engine's internal randomness; each engine's config
  /// sets its own default.
  uint64_t seed = 0;
  /// Physical worker threads for the feed pipeline: 1 = the exact
  /// single-threaded code path, 0 = hardware concurrency, n = n-way
  /// morsel-parallel execution (exec/parallel.h).  Virtual-time cost
  /// accounting is unaffected; this controls wall-clock speed only.
  int execution_threads = 1;
  /// Cross-interaction reuse cache (exec/reuse_cache.h): repeated or
  /// refined queries resume from cached snapshots.  Physical work only;
  /// virtual costs and results are unchanged.
  bool reuse_cache = false;
  /// Concurrent exploration sessions the engine is expected to serve
  /// (session/session.h).  The reuse cache's global entry cap scales with
  /// it, so one dashboard's working set cannot evict every other
  /// session's snapshots.
  int expected_sessions = 1;
};

/// Common engine state, the shared query lifecycle, and helpers.
class EngineBase : public Engine {
 public:
  EngineBase(std::string name, const EngineOptions& options);

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
  /// model and walk keys).  Deliberately frozen under streaming ingest:
  /// a query's walk key, which picks the base row its walk starts at,
  /// hashes modulo this value, and reuse replay requires the same core
  /// signature to keep the same key for the lifetime of the engine.
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
  /// Binds the engine to a catalog and, when the options ask for it,
  /// turns the reuse cache on; called from Prepare implementations.  With
  /// the cache on, the lifecycle records candidates (`BindState`), serves
  /// cached prefixes (`Advance`) and stores snapshots (`Cancel`) with no
  /// engine code; with it off all of that is skipped, and results are
  /// identical either way (the transparency contract in reuse_cache.h).
  Status Attach(std::shared_ptr<const storage::Catalog> catalog);

  /// True once Attach succeeded.
  bool attached() const { return catalog_ != nullptr; }

  /// A query's execution state: its binding, its feed order, the feed
  /// positions it has bought and the credit it has banked.  The order
  /// says which row each position is — a fact row, a walk step, a sample
  /// index (a scan unless `Submit` picks otherwise) — and the query
  /// covers positions [0, pinned_rows).  Each handle owns one, except
  /// that the progressive engine's semantic cache lets equal handles
  /// share one (and its speculation advances some no handle holds yet).
  /// An engine may derive from it to keep fields of its own.
  struct QueryState {
    query::QuerySpec spec;
    std::unique_ptr<exec::BoundQuery> bound;
    std::unique_ptr<exec::BinnedAggregator> aggregator;
    exec::ReuseCache::Match reuse;  // cached prefix to serve positions from
    int joins = 0;                  // dimensions the query reads through
    exec::FeedOrder order;          // which row each feed position is
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
  /// positions: serves the reuse cache's prefix, then feeds the rest
  /// through `state->order` — `BinnedAggregator::Process` when
  /// `execution_threads` is 1, `exec::MorselProcess` otherwise.  Leftover
  /// sub-position budget stays banked.  Returns the virtual time spent on
  /// positions.
  Micros Advance(QueryState* state, Micros budget);

  /// Scale-up factor nominal/actual (>= 1 in normal configurations).
  double scale() const { return scale_; }

  /// z-score of `aqp::kConfidenceLevel`.
  double z_score() const { return z_; }

  Rng* rng() { return &rng_; }

  /// Engine seed — the base for per-epoch derived streams (walk-segment
  /// and stratified-delta shuffles must be pure functions of
  /// (seed, epoch), never of when the engine observed the publish).
  uint64_t seed() const { return seed_; }

  const storage::Catalog& catalog() const { return *catalog_; }

  /// The walk order of `spec`, the basis of without-replacement online
  /// sampling: the fact table's base rows in their own order, as a ring
  /// rotated by the query's key, then one shuffled ring per epoch
  /// published since (`exec::FeedOrder::Walk` states the precondition on
  /// the base's order).  The engine keeps one such index, created on
  /// first use and extended here.  The key is stable-hashed from the
  /// engine seed and the spec's *core* signature, so queries that differ
  /// only in their predicate sets share one walk — the precondition for
  /// replaying a cached prefix under a refined filter — and repeated
  /// submissions re-walk identical rows.  Call it wherever a query is
  /// pinned: the order then covers every position below the pinned
  /// watermark.
  exec::FeedOrder WalkOrder(const query::QuerySpec& spec);

 private:
  /// Binds `spec` (which must outlive the result) through `joins_`;
  /// counts into `num_joins` and `joins_charged` as `BindState`
  /// documents.
  Result<exec::BoundQuery> BindQuery(const query::QuerySpec& spec,
                                     int* num_joins = nullptr,
                                     int* joins_charged = nullptr);

  std::string name_;
  double z_;
  uint64_t seed_;
  int threads_;
  bool reuse_cache_on_;    // turn the reuse cache on in Attach
  int expected_sessions_;  // sizes its global entry cap
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
