#ifndef IDEBENCH_EXEC_AGGREGATOR_H_
#define IDEBENCH_EXEC_AGGREGATOR_H_

/// \file aggregator.h
/// Incremental binned aggregation with exact and approximate snapshots.
///
/// All engines funnel rows through a `BinnedAggregator`; what differs is
/// *which* rows they feed (full scan, growing uniform sample, weighted
/// stratified sample) and which snapshot they take:
///
///  * `ExactResult()` — the blocking engine after a complete scan.
///  * `EstimateFromUniformSample()` — progressive/online engines that have
///    processed a uniform sample of `rows_seen()` rows out of a population;
///    estimates are Horvitz–Thompson scale-ups with CLT confidence
///    intervals and a finite-population correction.
///  * `EstimateFromWeightedSample()` — the offline stratified engine,
///    where each row carries its stratum weight N_s/n_s; variances use a
///    Poisson-sampling approximation, sum of w(w-1) terms (`AggAccum`).
///
/// Rows arrive through two equivalent paths:
///
///  * the scalar path (`ProcessRow` / `ProcessRowWeighted`), one
///    `MatchesFilter`+`BinKey`+`AggValueAt` chain per row — the reference
///    implementation for differential testing, which
///    `BinnedAggregatorOptions::enable_vectorized = false` forces for the
///    batch entry points too;
///  * the fused path behind `ProcessBatch` / `ProcessRange` /
///    `ProcessWalk`: one compiled plan per query (exec/vectorized.h) walks
///    each ~1024-row batch once — every distinct column gathered exactly
///    once, vertical mask predicates, branchless SIMD bin keys — and
///    accumulates straight into a *dense flat bin table* whenever the
///    resolved bin-key space is small (the common IDEBench case),
///    falling back to the hash map transparently otherwise.
///
/// Both paths write the same accumulator streams in the same per-bin
/// order, so results are bit-identical.
///
/// `ProcessRange` feeds additionally consult the fact columns' zone maps
/// (storage/column.h) through the compiled prune checks: 64K blocks that
/// provably cannot contain a match are skipped wholesale (rows still
/// advance `rows_seen()`, so results stay bit-identical).  This is the
/// only place a scan prunes; the morsel path reaches it once per morsel.
/// Shuffled walks cannot prune — their batches mix rows from every block.
///
/// For multi-core execution (exec/parallel.h) an aggregator is
/// *mergeable*: morsel workers accumulate into partial aggregators
/// created with `NewPartial()` — each with its own dense/hash bin table
/// but sharing this aggregator's immutable compiled kernels — and the
/// dispatcher folds them back with `MergeFrom()` in morsel order.  Every
/// accumulator field is a sum (or min/max), so merging is exact for
/// counts, weights with integral values, and extremes; double-valued
/// sums merge associatively up to the usual last-ulp floating-point
/// grouping effects (see exec/parallel.h for the determinism contract).

#include <algorithm>
#include <cstdint>
#include <limits>
#include <memory>
#include <unordered_map>
#include <vector>

#include "aqp/sampler.h"
#include "exec/bound_query.h"
#include "exec/vectorized.h"
#include "query/result.h"

namespace idebench::exec {

/// Per-(bin, aggregate) running sums.
struct AggAccum {
  int64_t n = 0;          // matched rows
  double sum = 0.0;       // sum of input values (weighted when weights used)
  double sumsq = 0.0;     // sum of squared inputs (unweighted)
  double wsum = 0.0;      // sum of weights
  double wvar = 0.0;      // sum of w*(w-1) — Poisson variance term
  double wvsum = 0.0;     // sum of w*v
  double wvsumsq = 0.0;   // sum of w*(w-1)*v^2
  double min = std::numeric_limits<double>::infinity();
  double max = -std::numeric_limits<double>::infinity();
};

/// Execution knobs; defaults enable the fast paths.
struct BinnedAggregatorOptions {
  /// Compile and use the vectorized kernels for batch entry points.
  /// Disable to force the scalar reference path everywhere.
  bool enable_vectorized = true;

  /// Skip zone-map-excluded 64K blocks on `ProcessRange` feeds (skipped
  /// rows still advance `rows_seen()` via SkipRows, so results — rows
  /// seen, matches, every accumulator — are bit-identical with pruning
  /// on or off).  Shuffled and explicit-row feeds never prune.
  bool enable_zone_pruning = true;

  /// Use the dense flat-array bin table when the key space is small.
  bool enable_dense_bins = true;

  /// Dense table engages only when the resolved bin-key space is at most
  /// this many keys...
  int64_t dense_key_limit = 64 * 1024;

  /// ...and keys x aggregates is at most this many accumulators.
  int64_t dense_accum_limit = 128 * 1024;

  /// Record every matched row as (feed position, row id, weight) so the
  /// accumulated state can later be replayed into another aggregator over
  /// an equivalent (or refined) query — the substrate of the
  /// cross-interaction reuse cache (exec/reuse_cache.h).  Off by default:
  /// recording costs memory proportional to the matched row count.
  bool record_matches = false;

  /// Hard cap on recorded matches: beyond it the recorder overflows
  /// (releases its memory and marks the state non-replayable — see
  /// `matches_overflowed`) instead of growing without bound.  1 M
  /// matches = 24 MB, already far past where replaying beats rescanning.
  int64_t record_matches_limit = 1 << 20;
};

/// One recorded match: the position of the row in this aggregator's feed
/// (0-based; skipped/unmatched rows still advance positions), the fact
/// row id, and the weight it was fed with.  Deliberately trivial (no
/// default member initializers) so bulk vector growth in the recording
/// hot path memsets instead of constructing element-wise.
struct MatchedRow {
  int64_t pos;
  int64_t row;
  double weight;
};

/// Streaming group-by aggregation for one bound query.
class BinnedAggregator {
 public:
  explicit BinnedAggregator(const BoundQuery* query,
                            BinnedAggregatorOptions options = {});

  /// Creates an empty partial aggregator over the same bound query that
  /// *shares* this aggregator's compiled kernels (immutable after
  /// construction, so safe to use from many threads at once) but owns its
  /// own bin tables and counters.  Morsel workers accumulate into
  /// partials; the dispatcher folds them back with `MergeFrom`.
  std::unique_ptr<BinnedAggregator> NewPartial() const;

  /// Pops a pooled (reset) partial or creates one via `NewPartial` — the
  /// morsel dispatcher's allocation-churn guard: dense bin tables and
  /// batch scratch survive across waves and across successive
  /// `MorselProcess*` calls on the same aggregator instead of being
  /// reallocated every morsel.  Caller-thread only (not for workers).
  std::unique_ptr<BinnedAggregator> AcquirePartial();

  /// Resets `partial` and returns it to this aggregator's pool (bounded;
  /// overflow is simply destroyed).  `partial` must have been created by
  /// this aggregator's `AcquirePartial`/`NewPartial`.
  void ReleasePartial(std::unique_ptr<BinnedAggregator> partial);

  /// Pooled partials currently held (diagnostics/tests).
  size_t partial_pool_size() const { return partial_pool_.size(); }

  /// Folds `other`'s accumulated state into this aggregator: counters
  /// add, per-bin accumulators merge field-wise (sums add, min/max fold),
  /// and bins only one side touched are reconciled across the dense/hash
  /// table boundary.  `other` must aggregate the same bound query, or an
  /// equivalent binding of the same spec (identical bins and aggregates —
  /// how the reuse cache revives snapshots bound to an entry-owned spec
  /// copy).  Recorded matches are appended with positions shifted past
  /// this aggregator's rows seen so far, which is exactly right both for
  /// morsel partials folded in morsel order and for adopting a snapshot
  /// into an empty aggregator.
  void MergeFrom(const BinnedAggregator& other);

  /// Feeds fact row `row` with weight 1 (scalar reference path).
  void ProcessRow(int64_t row) { ProcessRowWeighted(row, 1.0); }

  /// Feeds fact row `row` with inverse-inclusion-probability `weight`
  /// (scalar reference path).
  void ProcessRowWeighted(int64_t row, double weight);

  /// Feeds `n` gathered fact-row ids with a shared `weight` through the
  /// vectorized kernels (chunked at kVectorBatchSize); falls back to the
  /// scalar path when the query could not be compiled.
  void ProcessBatch(const int64_t* rows, int64_t n, double weight = 1.0);

  /// Feeds the half-open fact-row range [begin, end) with weight 1.
  void ProcessRange(int64_t begin, int64_t end);

  /// Feeds `count` positions starting at `start_pos` of the keyed
  /// per-epoch-segment walk `order.GatherWalk(key, ...)`, gathering into
  /// batches internally — the shared hot loop of the sampling engines.
  void ProcessWalk(const aqp::ShuffledIndex& order, int64_t key,
                   int64_t start_pos, int64_t count);

  /// Advances `rows_seen()` by `n` without feeding rows — the accounting
  /// for feed positions whose rows are known (from a recorded match list)
  /// not to pass the filter.
  void SkipRows(int64_t n) { rows_seen_ += n; }

  /// Rows / block-sized ranges skipped by zone-map pruning so far
  /// (telemetry; folded by MergeFrom like the row counters).
  int64_t zone_rows_skipped() const { return zone_rows_skipped_; }
  int64_t zone_blocks_skipped() const { return zone_blocks_skipped_; }

  /// Replays the slice of `matches` with positions in [pos_begin,
  /// pos_end) through the normal processing pipeline (each row re-runs
  /// filter + bin + aggregate, at its original feed position and weight)
  /// and accounts the gaps with `SkipRows` — on return `rows_seen()` has
  /// advanced by exactly `pos_end - pos_begin`.  When `matches` was
  /// recorded by an aggregator whose filter this query's filter equals or
  /// refines, and both fed the same underlying row sequence, the
  /// resulting state is identical to having fed that sequence directly.
  /// `matches` must be position-sorted (recorders only ever append in
  /// feed order).
  void ReplayMatches(const std::vector<MatchedRow>& matches,
                     int64_t pos_begin, int64_t pos_end);

  /// Matched rows recorded so far (empty unless
  /// `options().record_matches`).
  const std::vector<MatchedRow>& matched_rows() const { return matches_; }

  /// True when recording hit `record_matches_limit` (directly or via a
  /// merge): the candidate list is incomplete, so this state must not be
  /// replayed or cached.
  bool matches_overflowed() const { return matches_overflowed_; }

  /// Estimated resident bytes of the accumulated state (bin tables +
  /// recorded matches) — what a cache entry holding this state costs.
  int64_t ApproxMemoryBytes() const {
    const size_t naggs = query_->spec().aggregates.size();
    return static_cast<int64_t>(
        matches_.size() * sizeof(MatchedRow) +
        dense_.size() * sizeof(AggAccum) + dense_touched_.size() +
        bins_.size() * (naggs * sizeof(AggAccum) + 64));
  }

  /// Rows fed so far (matched or not).
  int64_t rows_seen() const { return rows_seen_; }

  /// Rows that passed the filter so far.
  int64_t rows_matched() const { return rows_matched_; }

  /// True when this aggregator accumulates into the dense flat bin table
  /// (diagnostics/tests).
  bool uses_dense_bins() const { return use_dense_; }

  /// True when the batch entry points run the vectorized kernels.
  bool uses_vectorized() const { return vec_ != nullptr && vec_->ok(); }

  /// The bound query this aggregator executes.
  const BoundQuery& query() const { return *query_; }

  /// The execution options this aggregator was built with.
  const BinnedAggregatorOptions& options() const { return options_; }

  /// Exact answer (weight-1 complete scan).
  query::QueryResult ExactResult() const;

  /// Scale-up estimate assuming the fed rows are a uniform sample of
  /// `population` rows.  `z` is the normal quantile of the confidence
  /// level (1.96 for 95 %).  Margins include a finite-population
  /// correction so they shrink to zero as the sample approaches the
  /// population.
  query::QueryResult EstimateFromUniformSample(int64_t population,
                                               double z) const;

  /// Estimate from weighted rows (stratified/offline sampling); weights
  /// were supplied per row via `ProcessRowWeighted`/`ProcessBatch`.
  query::QueryResult EstimateFromWeightedSample(double z) const;

  /// Drops all accumulated state.
  void Reset();

 private:
  /// Adopts an already-compiled kernel table instead of recompiling.
  /// `vec` must have been compiled from `*query`.  This is how partials
  /// share their parent's kernels (`NewPartial`).
  BinnedAggregator(const BoundQuery* query, BinnedAggregatorOptions options,
                   std::shared_ptr<const VectorizedQuery> vec);

  /// Applies the dense-table sizing decision shared by both constructors.
  void DecideDense();

  /// Folds one accumulator into another: sums add, extremes fold.
  static void MergeAccum(AggAccum* into, const AggAccum& from) {
    into->n += from.n;
    into->sum += from.sum;
    into->sumsq += from.sumsq;
    into->wsum += from.wsum;
    into->wvar += from.wvar;
    into->wvsum += from.wvsum;
    into->wvsumsq += from.wvsumsq;
    into->min = std::min(into->min, from.min);
    into->max = std::max(into->max, from.max);
  }

  /// Applies one (value, weight) observation to `acc`; the single shared
  /// update both paths funnel through.
  static void Accumulate(AggAccum* acc, double v, double weight) {
    ++acc->n;
    acc->sum += v;
    acc->sumsq += v * v;
    acc->wsum += weight;
    acc->wvar += weight * (weight - 1.0);
    acc->wvsum += weight * v;
    acc->wvsumsq += weight * (weight - 1.0) * v * v;
    acc->min = std::min(acc->min, v);
    acc->max = std::max(acc->max, v);
  }

  /// Weight-1 specialization of `Accumulate`: the Poisson terms
  /// w*(w-1) and w*(w-1)*v^2 are exactly 0 and w*v is exactly v, so the
  /// stored values are bit-identical to the general update (-0.0 vs +0.0
  /// is unobservable: the estimators compare/max against 0 first).
  static void AccumulateUnit(AggAccum* acc, double v) {
    ++acc->n;
    acc->sum += v;
    acc->sumsq += v * v;
    acc->wsum += 1.0;
    acc->wvsum += v;
    acc->min = std::min(acc->min, v);
    acc->max = std::max(acc->max, v);
  }

  /// Accumulator row (naggs entries) for a public packed bin key,
  /// creating it on first touch.
  AggAccum* AccumsForPublicKey(int64_t key);

  /// Allocates the dense table on first touch.
  void EnsureDenseAllocated();

  /// Visits (public_key, accums) for every touched bin.
  template <typename Fn>
  void ForEachBin(Fn&& fn) const {
    const size_t naggs = query_->spec().aggregates.size();
    if (use_dense_) {
      if (dense_touched_.empty()) return;
      for (int64_t d = 0; d < dense_keys_; ++d) {
        if (!dense_touched_[static_cast<size_t>(d)]) continue;
        fn(vec_->DenseKeyToPublic(d),
           dense_.data() + static_cast<size_t>(d) * naggs);
      }
    } else {
      for (const auto& [key, accums] : bins_) fn(key, accums.data());
    }
  }

  const BoundQuery* query_;
  BinnedAggregatorOptions options_;
  // Compiled kernel table; immutable after construction and shared with
  // partial aggregators, so morsel workers can run it concurrently.
  std::shared_ptr<const VectorizedQuery> vec_;

  // Hash-map bin store (always correct; the fallback).
  std::unordered_map<int64_t, std::vector<AggAccum>> bins_;

  // Dense flat bin store (used when the key space is small).
  bool use_dense_ = false;
  int64_t dense_keys_ = 0;
  std::vector<AggAccum> dense_;         // dense_keys_ x naggs, lazy
  std::vector<uint8_t> dense_touched_;  // per dense key

  /// Applies one row through filter + bin + aggregates, recording the
  /// match at feed position `pos`; the scalar reference path.
  void ProcessRowAt(int64_t row, double weight, int64_t pos);

  int64_t rows_seen_ = 0;
  int64_t rows_matched_ = 0;
  int64_t zone_rows_skipped_ = 0;
  int64_t zone_blocks_skipped_ = 0;

  // Reset partials awaiting reuse (AcquirePartial/ReleasePartial).
  std::vector<std::unique_ptr<BinnedAggregator>> partial_pool_;

  // Matched-row recorder (options_.record_matches).
  std::vector<MatchedRow> matches_;
  bool matches_overflowed_ = false;

  /// True when the recorder should take `count` more matches; flips to
  /// overflowed (and releases the list) when that would exceed the cap.
  bool RecorderAccepts(int64_t count) {
    if (!options_.record_matches || matches_overflowed_) return false;
    if (static_cast<int64_t>(matches_.size()) + count >
        options_.record_matches_limit) {
      matches_overflowed_ = true;
      matches_ = {};
      return false;
    }
    return true;
  }
  // During ReplayMatches: original feed positions of the current batch
  // (parallel to the batch's rows); null in normal processing, where the
  // position is the running rows_seen index.
  const int64_t* replay_positions_ = nullptr;
};

}  // namespace idebench::exec

#endif  // IDEBENCH_EXEC_AGGREGATOR_H_
