#ifndef IDEBENCH_EXEC_AGGREGATOR_H_
#define IDEBENCH_EXEC_AGGREGATOR_H_

/// \file aggregator.h
/// Incremental binned aggregation with exact and approximate snapshots.
///
/// All engines funnel rows through a `BinnedAggregator`; what differs is
/// *which* rows they feed (a `FeedOrder`: full scan, growing uniform
/// sample, weighted stratified sample) and which snapshot they take:
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
///  * the fused path behind `ProcessBatch` / `Process`: one compiled plan
///    per query (exec/vectorized.h) walks each ~1024-row batch once —
///    every distinct column gathered exactly once, vertical mask
///    predicates, branchless SIMD bin keys — and accumulates straight
///    into a *dense flat bin table* whenever the resolved bin-key space
///    is small (the common IDEBench case), falling back to the hash map
///    transparently otherwise.  Scan ranges and walk batches inside the
///    base are fed as row runs (`RowBatch`'s run form), with no row-id
///    list; wrapped walk batches, epochs, samples and picked replay
///    candidates as id lists.
///
/// Both paths apply the same updates, in the same per-bin order, to
/// every accumulator field an estimator reads (`AggAccum`), so results
/// are bit-identical.
///
/// Scan feeds additionally consult the fact columns' zone maps
/// (storage/column.h) through the compiled prune checks: 64K blocks that
/// provably cannot contain a match are skipped wholesale (rows still
/// advance `rows_seen()`, so results stay bit-identical).  This, the scan
/// branch of `Process`, is the only place a scan prunes; the morsel path
/// reaches it once per morsel.  Walks and samples do not prune: a
/// sample's batches mix rows from every block, and a walk's base window
/// runs over an unordered table (`FeedOrder::Walk`'s precondition), where
/// every block's bounds span nearly the whole value range and would
/// almost never exclude it.
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

/// Per-(bin, aggregate) running sums.  The scalar path and every
/// weighted feed update all of them (`Accumulate`).  Unit-weight feeds on
/// the fused path update only the fields the three estimators
/// (`ExactResult`, `EstimateFromUniformSample`,
/// `EstimateFromWeightedSample`) read for the aggregate's type:
///
///  * COUNT: n and wsum;
///  * SUM: sum, sumsq and wvsum;
///  * AVG: n, sum, sumsq, wsum and wvsum;
///  * MIN / MAX: n and the extreme (min / max).
///
/// Each of those gets the operations `Accumulate` applies at weight 1, in
/// the same order (w*v is exactly v); the Poisson terms wvar and wvsumsq
/// would only gain exactly 0.  So every estimate is bit-identical to the
/// scalar path's, while fields no estimator of the type reads may differ.
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

  /// Skip zone-map-excluded 64K blocks on scan feeds (skipped rows still
  /// advance `rows_seen()`, so results — rows seen, matches, every
  /// accumulator — are bit-identical with pruning on or off).  Walk,
  /// sample and explicit-row feeds never prune.
  bool enable_zone_pruning = true;

  /// Use the dense flat-array bin table when the key space is small.
  bool enable_dense_bins = true;

  /// Dense table engages only when the resolved bin-key space is at most
  /// this many keys...
  int64_t dense_key_limit = 64 * 1024;

  /// ...and keys x aggregates is at most this many accumulators.
  int64_t dense_accum_limit = 128 * 1024;

  /// Record one bit per feed position, set when the position matched (a
  /// *candidate bitmap*), so the accumulated state can later be replayed
  /// into another aggregator over an equal or refined query through the
  /// same feed order — the substrate of the cross-interaction reuse cache
  /// (exec/reuse_cache.h).  Off by default; costs one bit per position
  /// fed (125 KB per million), whatever the filter's selectivity.
  bool record_matches = false;
};

/// Which fact row, at which weight, each feed position of a query is.
/// An engine picks a query's order once, at Submit, and every feed maps
/// positions through it — `BinnedAggregator::Process` on one thread,
/// `exec::MorselProcess` on several — so the position -> row mapping has
/// this one owner.  Three forms:
///
///  * `Scan()` — position p is fact row p, at weight 1 (the blocking
///    engine, the online engine's fallback, the ground-truth oracle).
///    The one form that prunes by zone map: its positions are blocks.
///  * `Walk(index, key)` — position p is step p of the keyed walk
///    `index->GatherWalk(key, ...)`, at weight 1 (the progressive engine,
///    the online engine's sampling path).  Over a base of B rows,
///    position p is fact row (key % B + p) % B: a window over the table's
///    own order, rotated by the key, with no per-row index; each
///    published epoch is a ring over its own shuffle.  Precondition: the
///    base rows were drawn independently of one another, so every window
///    of them is a simple random sample.  Outside hand-built test
///    fixtures every fact table the engines read comes from
///    `datagen::ScaleDataset` — directly, normalized, packed to segments,
///    round-tripped through CSV, or scaled from a CSV seed — which draws
///    each row independently; `WalkPreconditionTest` (core_test.cc)
///    fails if its output is ever sorted or clustered.  A table ordered
///    by a column would bias every walk that stops short of the whole.
///  * `Sample(sample)` — position p is `sample->rows[p]` at weight
///    `sample->weights[p]` (the stratified engine).  The sample is laid
///    out stratum by stratum, so its weights form runs of equal values,
///    and each run feeds as one weighted batch.
///
/// Every form is prefix-invariant under epoch publishes.  Each only ever
/// appends: a scan grows with the table, a walk by one shuffled segment
/// per published epoch (`aqp::ShuffledIndex::ExtendTo`), a stratified
/// sample by one delta block per epoch.  So positions below a watermark
/// name the same rows at every later epoch, which queries pinned to an
/// older watermark and reuse snapshots (exec/reuse_cache.h) rely on.
/// The index and the sample are borrowed: their owner extends them over
/// a position before the position is fed.
struct FeedOrder {
  enum class Kind : uint8_t { kScan, kWalk, kSample };

  static FeedOrder Scan() { return {}; }
  static FeedOrder Walk(const aqp::ShuffledIndex* index, int64_t key) {
    return {Kind::kWalk, index, key, nullptr};
  }
  static FeedOrder Sample(const aqp::StratifiedSample* sample) {
    return {Kind::kSample, nullptr, 0, sample};
  }

  /// End of the equal-weight run that starts at position `begin`, capped
  /// at `end`; `end` itself for the unit-weight forms.
  int64_t RunEnd(int64_t begin, int64_t end) const;

  Kind kind = Kind::kScan;
  const aqp::ShuffledIndex* index = nullptr;      // kWalk
  int64_t key = 0;                                // kWalk: ring rotation
  const aqp::StratifiedSample* sample = nullptr;  // kSample
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
  /// `MorselProcess` calls on the same aggregator instead of being
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
  /// copy).  `other`'s candidate bits are ORed in at bit offset
  /// `rows_seen()` (any offset, not only whole words), which is exactly
  /// right both for morsel partials folded in morsel order and for
  /// adopting a snapshot into an empty aggregator.  A recording
  /// aggregator merges only recording sides: a side without bits would
  /// leave matched positions unmarked.
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

  /// Feeds positions [begin, end) of `order`, the one single-threaded
  /// feed: a scan range with zone-map pruning, as row runs; a walk batch
  /// by batch, as a row run inside the base and gathered where it wraps
  /// the base or reaches an epoch; or a sample's equal-weight runs as
  /// weighted batches of row ids.
  void Process(const FeedOrder& order, int64_t begin, int64_t end);

  /// Rows / block-sized ranges skipped by zone-map pruning so far
  /// (telemetry; folded by MergeFrom like the row counters).
  int64_t zone_rows_skipped() const { return zone_rows_skipped_; }
  int64_t zone_blocks_skipped() const { return zone_blocks_skipped_; }

  /// Feeds the positions of [begin, end) whose bits are set in
  /// `candidates` (another aggregator's `match_bits()`) through `order`,
  /// each re-running filter + bin + aggregate at its own position and
  /// weight, and accounts the others without feeding them: on return
  /// `rows_seen()` has advanced by exactly `end - begin`.  This
  /// aggregator must have been fed positions [0, begin) already
  /// (`rows_seen() == begin`), and `candidates` must cover `end`.
  ///
  /// When `candidates` was recorded under `order` by an aggregator whose
  /// filter this query's filter equals or refines, the resulting state —
  /// bins, counters and recorded bits — is identical to feeding
  /// [begin, end) of `order` directly: a position the recorder rejected
  /// cannot pass an equal or stricter filter.  The same argument lets a
  /// mostly-candidate window of `kVectorBatchSize` positions be fed
  /// whole, which costs less than picking its candidates out.
  void ReplayMatches(const std::vector<uint64_t>& candidates,
                     const FeedOrder& order, int64_t begin, int64_t end);

  /// The candidate bitmap recorded so far: bit p % 64 of word p / 64 is
  /// set when feed position p matched.  Exactly ceil(rows_seen() / 64)
  /// words with no bit set at or past `rows_seen()`; empty unless
  /// `options().record_matches`.
  const std::vector<uint64_t>& match_bits() const { return match_bits_; }

  /// Estimated resident bytes of the accumulated state (bin tables +
  /// candidate bitmap) — what a cache entry holding this state costs.
  int64_t ApproxMemoryBytes() const {
    const size_t naggs = query_->spec().aggregates.size();
    return static_cast<int64_t>(
        match_bits_.size() * sizeof(uint64_t) +
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

  /// Applies one (value, weight) observation to every field of `acc`:
  /// the scalar path's update, and the fused path's for weights other
  /// than 1 (unit weights update per type; see `AggAccum`).
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

  /// Applies one row through filter + bin + aggregates, setting the
  /// candidate bit of feed position `pos` on a match; the scalar
  /// reference path.  The caller has accounted `pos` in `rows_seen_`.
  void ProcessRowAt(int64_t row, double weight, int64_t pos);

  /// Feeds `n` <= kVectorBatchSize rows at `weight` through the fused
  /// kernels (the scalar path when uncompiled).  Row i is `rows[i]`, or
  /// `first_row + i` when `rows` is null (`RowBatch`'s run form); it sits
  /// at feed position `positions[i]`, or `first_pos + i` when
  /// `positions` is null.  The caller has accounted every position in
  /// `rows_seen_`.
  void FeedChunk(const int64_t* rows, int64_t first_row, int64_t n,
                 double weight, int64_t first_pos, const int64_t* positions);

  /// Feeds `n` rows — `rows[0..n)`, or the run from `first_row` when
  /// `rows` is null — at `weight` and the next `n` feed positions, in
  /// chunks of at most kVectorBatchSize.
  void FeedRows(const int64_t* rows, int64_t first_row, int64_t n,
                double weight);

  /// Advances `rows_seen_` by `n`, growing the candidate bitmap (when
  /// recording) to cover it with zero bits.
  void AdvanceRows(int64_t n) {
    rows_seen_ += n;
    if (options_.record_matches) {
      match_bits_.resize(static_cast<size_t>((rows_seen_ + 63) >> 6));
    }
  }

  void SetMatchBit(int64_t pos) {
    match_bits_[static_cast<size_t>(pos >> 6)] |= uint64_t{1} << (pos & 63);
  }

  int64_t rows_seen_ = 0;
  int64_t rows_matched_ = 0;
  int64_t zone_rows_skipped_ = 0;
  int64_t zone_blocks_skipped_ = 0;

  // Reset partials awaiting reuse (AcquirePartial/ReleasePartial).
  std::vector<std::unique_ptr<BinnedAggregator>> partial_pool_;

  // Candidate bitmap (options_.record_matches); see `match_bits()`.
  std::vector<uint64_t> match_bits_;
};

}  // namespace idebench::exec

#endif  // IDEBENCH_EXEC_AGGREGATOR_H_
