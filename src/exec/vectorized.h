#ifndef IDEBENCH_EXEC_VECTORIZED_H_
#define IDEBENCH_EXEC_VECTORIZED_H_

/// \file vectorized.h
/// Vectorized (batch-at-a-time) execution kernels for sampled aggregation.
///
/// A `BinnedAggregator` runs rows through one of two paths.  The scalar
/// path runs one `MatchesFilter` + `BinKey` + `AggValueAt` call chain per
/// row, each doing a per-call type switch inside `Column::ValueAsDouble`;
/// it is the oracle the differential tests compare against.  This
/// subsystem is the other path: type-specialized kernels compiled once
/// per bound query.
///
///  * a `RowBatch` carries up to `kVectorBatchSize` fact rows — a list of
///    row ids, or in its *run form* the consecutive rows [first, first +
///    n) with no list at all — plus a *selection vector* that filter
///    kernels compact in place;
///  * every kernel reads its column through one gather, which loads the
///    raw contiguous array (`Column::Int64Data` / `DoubleData`) of a fact
///    column, or of a dimension column through the join mapping, into a
///    contiguous value lane; a join miss loads NaN, so join misses and
///    NaN cells are one case from there on.  The gather branches once per
///    call on the batch's form: a run indexes the column (or the join
///    mapping) from `first` by selection index alone, with no row id
///    read, and a run's first filter over a double column compares the
///    column slice in place instead of copying it;
///  * each filter predicate compiles to one two-phase kernel per (op,
///    load path): the gather, then a compare fused into branchless
///    compaction (IN-sets inside-out, one sweep per set element);
///  * each bin dimension compiles to one fused kernel: the gather (the
///    dimension column loaded once per batch) and a *vertical* key
///    phase: quantitative bins evaluate `(v - lo) / width` (an exact
///    `* inv_width` multiply when width is a power of two), nominal
///    bins — string dictionary codes included — truncate `v - lo`.  Compare-guarded truncating casts replace the scalar
///    path's `std::floor` call + integer range check: identical results
///    for every value, no libm call, no per-row branch, fully
///    vectorizable.  Every key is range-checked at run time, so a
///    dictionary code that joined after compile lands in no bin;
///  * selection, keys, and the stashed dimension values compact in one
///    branchless pass, and aggregate inputs that share a binned dimension
///    column are read from the stash instead of re-gathered.
///
/// The kernels are bit-compatible with the scalar path: every kernel
/// evaluates the same double-typed expression the scalar path evaluates
/// (including int64→double casts, NaN-never-matches, truncation for
/// nominal bins and floor-division for quantitative bins), and surviving
/// rows hit each per-bin accumulator in the same order, so every
/// accumulator field an estimator reads gets identical values in
/// identical order (exec/aggregator.h's `AggAccum`).
///
/// The compiled form also carries **zone-map prune checks**: for every
/// filter predicate and bin dimension that reads a fact column directly,
/// a per-64K-block test against the column's zone map
/// (`storage::Column::zone_map()`) that proves "no row in this block can
/// match".  The scan branch of `BinnedAggregator::Process` asks
/// `BlockCanMatch` before scanning each block; the tests evaluate the
/// *same* monotone floating-point expressions as the kernels at the
/// block bounds, so a skipped block can never contain a matching row.
/// Walk and sample feeds do not use them (see exec/aggregator.h's file
/// comment).

#include <array>
#include <cstdint>
#include <vector>

#include "exec/bound_query.h"
#include "storage/column.h"

namespace idebench::exec {

/// Rows processed per kernel invocation.  Large enough to amortize
/// dispatch, small enough that batch scratch stays cache-resident.
inline constexpr int64_t kVectorBatchSize = 1024;

/// One batch of fact rows threaded through the kernels.  Row i of the
/// batch is `rows[i]` when `rows` is set (a caller-owned id list: a
/// wrapped walk batch, an epoch's shuffle, a sample, picked replay
/// candidates), or `first + i` when `rows` is null (the run form: a scan
/// range, a walk batch inside the base).  The two forms feed the same
/// values in the same order, so every result is bit-identical between
/// them.  `sel` holds the batch indices that survived filtering; `keys`
/// holds the dense bin key per selected row after `FilterAndBin`;
/// `bin_vals`/`bin_vals2` stash the binned dimension values (compacted
/// with the selection) so aggregates sharing a binned column skip their
/// gather.
struct RowBatch {
  const int64_t* rows = nullptr;
  int64_t first = 0;  // run form (rows == nullptr): the batch's first row
  int64_t n = 0;
  int64_t n_sel = 0;
  std::array<int32_t, kVectorBatchSize> sel;
  std::array<int64_t, kVectorBatchSize> keys;
  std::array<int64_t, kVectorBatchSize> keys2;   // scratch: 2nd-dim indices
  std::array<double, kVectorBatchSize> values;   // gathered agg inputs
  std::array<double, kVectorBatchSize> values2;  // a 2nd agg's, fused pass
  std::array<double, kVectorBatchSize> bin_vals;   // dim-0 value lane
  std::array<double, kVectorBatchSize> bin_vals2;  // dim-1 value lane
};

/// A compiled column access path: exactly one of `i64`/`f64` is set
/// (dictionary codes ride the int64 array); `join` is the flat fact→dim
/// mapping for dimension columns, nullptr for fact columns.
struct ColumnAccess {
  const int64_t* i64 = nullptr;
  const double* f64 = nullptr;
  const int32_t* join = nullptr;
};

/// A compiled filter predicate: a type-specialized function pointer plus
/// its operands.  Every kernel takes its batch's rows as `(rows, first)`,
/// `RowBatch`'s two forms.
struct FilterKernel {
  using Fn = int64_t (*)(const FilterKernel&, const int64_t* rows,
                         int64_t first, int32_t* sel, int64_t n_sel);
  Fn fn = nullptr;
  ColumnAccess col;
  double value = 0.0;  // kEq..kGe
  double lo = 0.0;     // kRange
  double hi = 0.0;     // kRange (exclusive)
  const double* set_begin = nullptr;  // kIn
  const double* set_end = nullptr;
};

/// A compiled bin dimension: maps selected rows to per-dimension bin
/// indices (-1 = out of range / join miss / NaN), writing the loaded
/// value per row into `out_vals` (NaN on join miss) so aggregates over
/// the same column can reuse it.
struct BinKernel {
  using Fn = void (*)(const BinKernel&, const int64_t* rows, int64_t first,
                      const int32_t* sel, int64_t n_sel, int64_t* out,
                      double* out_vals);
  Fn fn = nullptr;
  ColumnAccess col;
  double lo = 0.0;
  double width = 1.0;
  double inv_width = 1.0;  // exact reciprocal (power-of-two width only)
  int64_t bin_count = 0;
};

/// A compiled aggregate input: gathers the aggregate's value per selected
/// row (NaN on join miss).  COUNT has no kernel (`is_count`).
struct AggKernel {
  using Fn = void (*)(const AggKernel&, const int64_t* rows, int64_t first,
                      const int32_t* sel, int64_t n_sel, double* out);
  Fn fn = nullptr;
  ColumnAccess col;
  bool is_count = false;
};

/// The vectorized form of one `BoundQuery`: a kernel table compiled at
/// bind time.  When a query shape cannot be compiled (`!ok()`), callers
/// fall back to the scalar reference path.
class VectorizedQuery {
 public:
  /// Compiles kernels for `query`.  The query (and the spec/storage it
  /// points into) must outlive the compiled form.
  static VectorizedQuery Compile(const BoundQuery& query);

  /// False when the query shape could not be vectorized.
  bool ok() const { return ok_; }

  /// Size of the dense bin-key space (product of per-dimension counts).
  int64_t key_space() const { return key_space_; }

  size_t num_aggregates() const { return agg_kernels_.size(); }
  bool agg_is_count(size_t a) const { return agg_kernels_[a].is_count; }

  /// Runs all filter kernels then the bin-key kernels over the batch's
  /// `n` rows, in either form.  On return `batch->sel[0..n_sel)` are the
  /// surviving row indices and `batch->keys[0..n_sel)` their *dense* bin
  /// keys.  Returns `n_sel`.
  int64_t FilterAndBin(RowBatch* batch) const;

  /// Returns aggregate `a`'s inputs for the current selection (requires
  /// `!agg_is_count(a)`): a pointer into `batch->bin_vals`/`bin_vals2`
  /// when the aggregate reads a binned dimension column (no re-gather),
  /// otherwise gathers into `lane` (`batch->values` or `values2`) and
  /// returns that.
  const double* GatherAggValues(size_t a, RowBatch* batch,
                                double* lane) const;

  // --- Zone-map block pruning -------------------------------------------

  /// True unless the fact-column zone maps *prove* that no row of zone
  /// block `block` (`storage::kZoneMapBlockRows` rows) can survive
  /// filtering and binning.  Sound, not complete: `false` guarantees zero
  /// matches in the block; `true` promises nothing.
  bool BlockCanMatch(int64_t block) const;

  /// Converts a dense key to the public packed key used in results.
  int64_t DenseKeyToPublic(int64_t dense) const {
    if (!two_d_) return dense;
    return query::EncodeBinKey(dense / bins1_, dense % bins1_);
  }

  /// Converts a public packed key to its dense index.
  int64_t PublicKeyToDense(int64_t key) const {
    if (!two_d_) return key;
    return query::BinKeyDim0(key) * bins1_ + query::BinKeyDim1(key);
  }

 private:
  /// One zone-map exclusion test over a fact column.
  struct PruneCheck {
    enum class Kind : uint8_t { kCompare, kBinQuant, kBinNominal };
    Kind kind = Kind::kCompare;
    expr::CompareOp op = expr::CompareOp::kEq;
    const storage::Column* col = nullptr;
    double value = 0.0;
    double lo = 0.0;
    double hi = 0.0;     // kCompare/kRange
    double width = 1.0;  // kBinQuant
    int64_t bin_count = 0;
    const double* set_begin = nullptr;  // kIn
    const double* set_end = nullptr;

    /// True unless the block bounds prove no row can match this check.
    bool CanMatch(const storage::ZoneEntry& z) const;
  };

  /// Compiles the prune checks (called after the kernels compiled).
  void CompilePrune(const BoundQuery& query);

  std::vector<FilterKernel> filters_;
  std::vector<BinKernel> bins_;  // 1 or 2, one per dimension
  std::vector<AggKernel> agg_kernels_;
  bool two_d_ = false;
  int64_t bins1_ = 1;        // 2nd-dimension bin count (1 for 1-D)
  int64_t key_space_ = 0;
  bool ok_ = false;

  // Gather dedup: per aggregate, the bin dimension whose stashed values
  // it can reuse (-1 = gather normally); the per-dimension flags turn on
  // value-lane compaction in the shared body.
  std::vector<int8_t> agg_shared_dim_;
  bool stash_vals0_ = false;
  bool stash_vals1_ = false;

  // Zone-map prune checks.
  std::vector<PruneCheck> prune_checks_;
};

}  // namespace idebench::exec

#endif  // IDEBENCH_EXEC_VECTORIZED_H_
