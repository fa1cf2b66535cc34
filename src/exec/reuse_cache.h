#ifndef IDEBENCH_EXEC_REUSE_CACHE_H_
#define IDEBENCH_EXEC_REUSE_CACHE_H_

/// \file reuse_cache.h
/// Cross-interaction result-reuse cache.
///
/// IDEBench workflows are sequences of *related* interactions: each step
/// tweaks a filter, drills down, or re-bins the previous visualization,
/// so consecutive queries recompute mostly-overlapping aggregates.  This
/// cache lets an engine resume from the physical work of an earlier
/// interaction instead of restarting:
///
///  * Entries snapshot a `BinnedAggregator`'s partial bin tables, keyed
///    by the normalized query signature (`query::QuerySpec::Signature`:
///    bin spec + aggregates + canonicalized predicate set; the table and
///    join chain are implied by the catalog) together with the
///    sampled-row *watermark* — how far along its feed (sampling walk,
///    scan, or weighted sample) the snapshot got.
///  * Each snapshot carries a *candidate bitmap*: one bit per feed
///    position below the watermark, set where the position matched (the
///    recording aggregator's `match_bits()`).  Positions, not rows: the
///    serving query maps them to rows through its own `FeedOrder`.  A
///    million-position snapshot costs 125 KB of bitmap at any
///    selectivity, so the recorder needs no cap.
///  * A subsumption matcher recognizes when a new interaction's predicate
///    set is *equal to* a cached entry (serve the snapshot and continue
///    sampling past the watermark) or a *refinement* of one (replay only
///    the candidate positions through the refined filter instead of
///    rescanning every row — rows the weaker filter rejected cannot pass
///    the stronger one).
///
/// Transparency contract: serving from the cache reproduces, bit for
/// bit, the aggregator state the engine would have built by feeding the
/// same positions sequentially (see `BinnedAggregator::ReplayMatches`;
/// `Serve` states what it assumes of the feed order).
/// The virtual cost model is never touched — reuse displaces *physical*
/// work (benchmark wall-clock), not simulated time — so results with
/// the cache on and off are identical; `tests/workflow_fuzz_test.cc`
/// holds every engine to that differentially.  Caveat mirroring
/// exec/parallel.h: integer-valued fields (counters, COUNT, MIN/MAX)
/// are bit-identical unconditionally, but with `threads > 1` on feeds
/// spanning multiple morsels, serving shifts the remainder's morsel
/// boundaries, so real-valued sums may regroup in the last ulp relative
/// to a cache-off run (the fuzz fixture stays below one morsel so its
/// exact comparison is valid).
///
/// Snapshots compose with morsel-parallel execution: they are adopted
/// via `MergeFrom` (which also carries the candidate bitmap) and the
/// remainder of a feed may run through `exec/parallel.h` as usual.
///
/// Entries survive ingest epochs: every feed order is prefix-invariant
/// under epoch publishes (see `FeedOrder`), so a snapshot's first
/// `watermark` positions mean the same rows at any later epoch, and a new
/// epoch folds into a matching snapshot by feeding only the positions
/// past its watermark.
///
/// Eviction is per-visualization LRU: dashboards hold few live vizs, and
/// a viz's next query overwhelmingly resembles its previous one, so each
/// viz keeps its most recent signatures; a global cap bounds the total.

#include <cstdint>
#include <functional>
#include <memory>
#include <string>
#include <unordered_map>

#include "common/result.h"
#include "exec/aggregator.h"
#include "exec/bound_query.h"
#include "metrics/metrics.h"
#include "query/spec.h"

namespace idebench::exec {

/// True when `a` and `b` resolved their bins to the same tables (count,
/// origin and width per dimension), so aggregator state built for one is
/// laid out index-wise for the other.  An epoch publish that moves a
/// column's min/max or grows a dictionary re-resolves a spec's bins, and
/// state resolved under the old tables can then no longer be adopted.
bool SameBinTables(const query::QuerySpec& a, const query::QuerySpec& b);

/// Capacity knobs.
struct ReuseCacheOptions {
  /// Entries retained per visualization (LRU within the viz).
  int64_t max_entries_per_viz = 4;

  /// Global entry cap (LRU across all vizs).
  int64_t max_entries_total = 64;

  /// Global byte budget over the entries' dominant allocations
  /// (candidate bitmaps + bin tables, estimated); LRU-evicts past it, so
  /// entries over long feeds or wide bin tables cannot pin unbounded
  /// memory.
  int64_t max_total_bytes = 64 << 20;
};

/// Per-engine cross-interaction reuse cache.  Not thread-safe: engines
/// are single-threaded simulators; only the aggregation *inside* a feed
/// is morsel-parallel.
class ReuseCache {
 public:
  /// One cached snapshot.  The entry owns its spec copy and binding so
  /// the snapshot stays valid after the originating query is released;
  /// the join indexes and catalog it references belong to the engine,
  /// which outlives the cache.
  struct Entry {
    std::string full_key;   // query::QuerySpec::Signature()
    std::string core_key;   // query::QuerySpec::CoreSignature()
    std::string viz;        // owning viz (LRU bucket)
    std::unique_ptr<query::QuerySpec> spec;  // stable address for `bound`
    std::unique_ptr<BoundQuery> bound;
    /// Aggregator state after the first `watermark` feed positions; its
    /// `match_bits()` mark the candidate (matched) positions of that
    /// prefix.
    std::unique_ptr<BinnedAggregator> snapshot;
    int64_t watermark = 0;
    uint64_t last_used = 0;
    /// Estimated resident size (candidate bitmap + bin tables); the unit
    /// of the cache's byte budget.
    int64_t approx_bytes = 0;
  };

  /// How a lookup matched.
  enum class MatchKind : uint8_t {
    kNone = 0,
    kEqual,       // identical canonical predicate set
    kRefinement,  // new predicates refine the cached ones
  };

  /// A pinned lookup result: keeps the entry alive across evictions for
  /// the lifetime of the query that holds it.
  struct Match {
    std::shared_ptr<const Entry> entry;
    MatchKind kind = MatchKind::kNone;

    explicit operator bool() const { return entry != nullptr; }
    int64_t watermark() const { return entry != nullptr ? entry->watermark : 0; }
  };

  /// Binds an entry-owned spec copy for snapshot storage (supplied by the
  /// engine, which knows its join strategy).
  using Binder =
      std::function<Result<BoundQuery>(const query::QuerySpec& spec)>;

  explicit ReuseCache(ReuseCacheOptions options = {});

  /// Finds the best usable entry for `spec`: an equal-signature entry if
  /// one exists, otherwise the deepest-watermark entry with the same core
  /// signature whose predicate set `spec`'s filter refines.  Bumps LRU
  /// and hit/miss counters.
  Match Lookup(const query::QuerySpec& spec);

  /// Snapshots `agg` (which must have been built with `record_matches`,
  /// and fed from position 0 in feed-position order) under `spec`'s
  /// signature; an aggregator without a recorder is not stored.
  /// Replaces an existing entry only when the new watermark is deeper;
  /// evicts per-viz and global LRU overflow.
  void Store(const query::QuerySpec& spec, const BinnedAggregator& agg,
             const Binder& binder);

  /// Serves feed positions [begin, end) of `match` into `agg`, which has
  /// been fed [0, begin) of `order` already: adopts the whole snapshot
  /// via MergeFrom when the range covers the watermark from zero,
  /// otherwise replays the snapshot's candidate positions of the range
  /// through `order` (`BinnedAggregator::ReplayMatches`).  Returns the
  /// position up to which the cache served (== begin when the match is
  /// empty or exhausted); the caller feeds the remainder physically.
  ///
  /// Precondition: `order` is the serving query's own feed order, and
  /// below the watermark it names the same rows as the order the
  /// snapshot was recorded under.  The engines guarantee it:
  ///  * every engine gives all queries of one core signature one order —
  ///    a scan (the blocking engine; the online engine's fallback, which
  ///    it picks from the aggregates alone, as it does its walk), the
  ///    walk `EngineBase::WalkOrder` keys by the core signature, or the
  ///    stratified engine's single sample;
  ///  * entries match only on an equal full or core signature;
  ///  * every order is prefix-invariant under epoch publishes (see
  ///    `FeedOrder`), so positions below the watermark name the same
  ///    rows at any later epoch.
  static int64_t Serve(const Match& match, const FeedOrder& order,
                       BinnedAggregator* agg, int64_t begin, int64_t end);

  /// Adds to the rows-served telemetry (the engine knows how many
  /// positions `Serve` displaced).
  void AddRowsServed(int64_t n) { stats_.rows_served += n; }

  /// Drops every entry owned by `viz` (the dashboard discarded it).
  /// Pinned matches stay alive through their shared_ptrs.
  void DropViz(const std::string& viz);

  /// Drops all entries — a workflow boundary models a fresh user
  /// session, so physical work must not carry across it (it would
  /// distort per-workflow wall-clock accounting; results would be
  /// unchanged either way).  Counters are cumulative and survive.
  void Clear();

  /// Counters plus the current entry count.
  metrics::ReuseCacheStats stats() const;

  size_t size() const { return entries_.size(); }

  /// Estimated resident bytes across all entries.
  int64_t total_bytes() const { return total_bytes_; }

 private:
  void EvictOverflow(const std::string& viz);
  void Erase(std::unordered_map<std::string,
                                std::shared_ptr<Entry>>::iterator it);

  ReuseCacheOptions options_;
  std::unordered_map<std::string, std::shared_ptr<Entry>> entries_;
  uint64_t use_tick_ = 0;
  int64_t total_bytes_ = 0;
  metrics::ReuseCacheStats stats_;
};

}  // namespace idebench::exec

#endif  // IDEBENCH_EXEC_REUSE_CACHE_H_
