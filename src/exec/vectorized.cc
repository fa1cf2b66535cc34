#include "exec/vectorized.h"

#include <cmath>
#include <limits>
#include <type_traits>

namespace idebench::exec {
namespace {

using expr::CompareOp;

constexpr double kNaN = std::numeric_limits<double>::quiet_NaN();

/// Physical load path a kernel is specialized on.
enum class Ld { kI64, kF64, kI64Join, kF64Join };

/// Calls `f` with load path `load` as a compile-time constant, so one
/// switch serves every kernel family.
template <typename F>
auto WithLoad(Ld load, F f) {
  switch (load) {
    case Ld::kI64:
      return f(std::integral_constant<Ld, Ld::kI64>{});
    case Ld::kF64:
      return f(std::integral_constant<Ld, Ld::kF64>{});
    case Ld::kI64Join:
      return f(std::integral_constant<Ld, Ld::kI64Join>{});
    case Ld::kF64Join:
      break;
  }
  return f(std::integral_constant<Ld, Ld::kF64Join>{});
}

/// The one gather every kernel reads its column through: loads the
/// numeric-view value of each selected row into the contiguous lane
/// `out[0..n)`.  Row i is `rows[sel[i]]`, or `rows[i]` when `First` (a
/// chain's first filter, whose identity selection is never written).  A
/// join miss loads NaN, which then passes no predicate and lands in no
/// bin, exactly like a NaN cell.
template <Ld L, bool First>
void Gather(const ColumnAccess& c, const int64_t* rows, const int32_t* sel,
            int64_t n, double* out) {
  for (int64_t i = 0; i < n; ++i) {
    const int64_t row = rows[First ? i : sel[i]];
    if constexpr (L == Ld::kI64) {
      out[i] = static_cast<double>(c.i64[row]);
    } else if constexpr (L == Ld::kF64) {
      out[i] = c.f64[row];
    } else {
      const int32_t dim = c.join[row];
      if (dim < 0) {
        out[i] = kNaN;
      } else if (L == Ld::kI64Join) {
        out[i] = static_cast<double>(c.i64[dim]);
      } else {
        out[i] = c.f64[dim];
      }
    }
  }
}

/// Predicate test on a gathered value, mirroring expr::Predicate::Matches.
/// NaN fails every comparison by IEEE rules except `!=`, which needs the
/// explicit guard (NaN rows never match: scalar parity).
template <CompareOp Op>
inline bool Test(double v, double value, double lo, double hi) {
  if constexpr (Op == CompareOp::kEq) return v == value;
  if constexpr (Op == CompareOp::kNeq) return (v == v) & (v != value);
  if constexpr (Op == CompareOp::kLt) return v < value;
  if constexpr (Op == CompareOp::kLe) return v <= value;
  if constexpr (Op == CompareOp::kGt) return v > value;
  if constexpr (Op == CompareOp::kGe) return v >= value;
  if constexpr (Op == CompareOp::kRange) return (v >= lo) & (v < hi);
}

/// One filter predicate, two phases: `Gather` fills a contiguous lane,
/// then one loop compares each lane value and compacts the selection
/// branchlessly.  IN-sets first build a pass mask inside-out, one
/// vertical equality sweep per set element (an empty set selects
/// nothing; duplicates are harmless).  `First` synthesizes the identity
/// selection, so the caller skips the selection-vector init pass.
template <CompareOp Op, Ld L, bool First>
int64_t FilterImpl(const FilterKernel& k, const int64_t* rows, int32_t* sel,
                   int64_t n_sel) {
  alignas(64) double vals[kVectorBatchSize];
  Gather<L, First>(k.col, rows, sel, n_sel, vals);
  [[maybe_unused]] alignas(64) uint8_t pass[kVectorBatchSize];
  if constexpr (Op == CompareOp::kIn) {
    for (int64_t i = 0; i < n_sel; ++i) pass[i] = 0;
    for (const double* s = k.set_begin; s != k.set_end; ++s) {
      const double v = *s;
      for (int64_t i = 0; i < n_sel; ++i) {
        pass[i] |= static_cast<uint8_t>(vals[i] == v);
      }
    }
  }
  const double value = k.value;
  const double lo = k.lo;
  const double hi = k.hi;
  int64_t out = 0;
  for (int64_t i = 0; i < n_sel; ++i) {
    sel[out] = First ? static_cast<int32_t>(i) : sel[i];
    if constexpr (Op == CompareOp::kIn) {
      out += pass[i];
    } else {
      out += Test<Op>(vals[i], value, lo, hi);
    }
  }
  return out;
}

template <Ld L, bool First>
FilterKernel::Fn PickFilterFor(CompareOp op) {
  switch (op) {
    case CompareOp::kEq:
      return &FilterImpl<CompareOp::kEq, L, First>;
    case CompareOp::kNeq:
      return &FilterImpl<CompareOp::kNeq, L, First>;
    case CompareOp::kLt:
      return &FilterImpl<CompareOp::kLt, L, First>;
    case CompareOp::kLe:
      return &FilterImpl<CompareOp::kLe, L, First>;
    case CompareOp::kGt:
      return &FilterImpl<CompareOp::kGt, L, First>;
    case CompareOp::kGe:
      return &FilterImpl<CompareOp::kGe, L, First>;
    case CompareOp::kRange:
      return &FilterImpl<CompareOp::kRange, L, First>;
    case CompareOp::kIn:
      return &FilterImpl<CompareOp::kIn, L, First>;
  }
  return nullptr;
}

FilterKernel::Fn PickFilter(CompareOp op, Ld load, bool first) {
  return WithLoad(load, [&](auto l) {
    constexpr Ld L = decltype(l)::value;
    return first ? PickFilterFor<L, true>(op) : PickFilterFor<L, false>(op);
  });
}

template <Ld L>
void AggImpl(const AggKernel& k, const int64_t* rows, const int32_t* sel,
             int64_t n_sel, double* out) {
  Gather<L, false>(k.col, rows, sel, n_sel, out);
}

/// Resolves the access path of `binding`; returns false when it cannot be
/// vectorized.
bool CompileAccess(const ColumnBinding& binding, ColumnAccess* access,
                   Ld* load) {
  if (binding.column == nullptr) return false;
  const bool is_double =
      binding.column->type() == storage::DataType::kDouble;
  if (is_double) {
    access->f64 = binding.column->DoubleData();
  } else {
    access->i64 = binding.column->Int64Data();
  }
  if (binding.join != nullptr) {
    access->join = binding.join->mapping_data();
    *load = is_double ? Ld::kF64Join : Ld::kI64Join;
  } else {
    *load = is_double ? Ld::kF64 : Ld::kI64;
  }
  return true;
}

bool SameAccess(const ColumnAccess& a, const ColumnAccess& b) {
  return a.i64 == b.i64 && a.f64 == b.f64 && a.join == b.join;
}

// --- Fused bin kernels -----------------------------------------------------

/// Fused bin keys: `Gather` loads each selected row's value once into the
/// contiguous lane `out_vals` (NaN on a join miss), then a *vertical* key
/// phase evaluates the scalar path's bin index.
///
///  * Quantitative bins floor-divide `(v - lo) / width`.  The range check
///    moves onto the quotient itself: `t >= 0` iff `floor(t) >= 0`, and
///    (bin_count being an exactly representable integer) `t < bin_count`
///    iff `floor(t) < bin_count`; after it, truncation *is* floor (t is
///    non-negative).  `UseInv` replaces the division with an exact
///    reciprocal multiply, chosen at compile time only when width is a
///    power of two, where `v * (1/width)` rounds identically to
///    `v / width` for every v.
///  * Nominal bins truncate `v - lo`, the scalar path's
///    `(int64_t)(v - lo)`; guarding with `d > -1` (not `d >= 0`)
///    reproduces its boundary behavior exactly (v - lo in (-1, 0)
///    truncates to bin 0).  String dimensions bin their dictionary codes
///    here as well: the range check bounds every code, so a code that
///    joined the dictionary after the query compiled lands in no bin.
///
/// Either way the key phase is two compares, one select in the double
/// domain (the cast is always of a value in [-1, bin_count), never UB)
/// and one truncating cast: no libm floor call, no per-row branch, fully
/// vectorizable.  NaN fails both compares and keys to -1, matching the
/// scalar NaN/miss path.
template <Ld L, bool Nominal, bool UseInv>
void FusedBinImpl(const BinKernel& k, const int64_t* rows, const int32_t* sel,
                  int64_t n_sel, int64_t* out, double* out_vals) {
  Gather<L, false>(k.col, rows, sel, n_sel, out_vals);
  const double lo = k.lo;
  const double width = k.width;
  const double inv = k.inv_width;
  const double dbc = static_cast<double>(k.bin_count);
  const auto key = [&](double v) {
    const double d = v - lo;
    const double t = Nominal ? d : UseInv ? d * inv : d / width;
    return (Nominal ? t > -1.0 : t >= 0.0) & (t < dbc) ? t : -1.0;
  };
#if defined(__AVX512DQ__)
  // vcvttpd2qq converts packed double -> int64 directly; no staging.
  for (int64_t i = 0; i < n_sel; ++i) {
    out[i] = static_cast<int64_t>(key(out_vals[i]));
  }
#else
  // Staging through int32 lets the cast vectorize (cvttpd2dq exists from
  // SSE2 on; packed double->int64 needs AVX-512).  Bin indices are far
  // below 2^21 (`query::kBinKeyStride`), so the narrow cast is lossless.
  alignas(64) int32_t stage[kVectorBatchSize];
  for (int64_t i = 0; i < n_sel; ++i) {
    stage[i] = static_cast<int32_t>(key(out_vals[i]));
  }
  for (int64_t i = 0; i < n_sel; ++i) out[i] = stage[i];
#endif
}

BinKernel::Fn PickFusedBin(Ld load, bool nominal, bool use_inv) {
  return WithLoad(load, [&](auto l) -> BinKernel::Fn {
    constexpr Ld L = decltype(l)::value;
    if (nominal) return &FusedBinImpl<L, true, false>;
    return use_inv ? &FusedBinImpl<L, false, true>
                   : &FusedBinImpl<L, false, false>;
  });
}

/// True when 1/width is exactly representable, i.e. multiplying by the
/// reciprocal rounds identically to dividing (width a power of two).
bool ExactReciprocal(double width) {
  if (!(width > 0.0) || !std::isfinite(width)) return false;
  int exp = 0;
  const double mant = std::frexp(width, &exp);
  const double inv = 1.0 / width;
  return mant == 0.5 && std::isfinite(inv);
}

}  // namespace

void VectorizedQuery::CompilePrune(const BoundQuery& query) {
  const query::QuerySpec& spec = query.spec();
  // Only fact columns prune: a block of fact rows says nothing about the
  // dimension-table values reached through its join column.
  const auto& predicates = spec.filter.predicates();
  for (size_t p = 0; p < predicates.size(); ++p) {
    const ColumnBinding& binding = query.filter_bindings()[p];
    if (binding.join != nullptr) continue;
    PruneCheck c;
    c.kind = PruneCheck::Kind::kCompare;
    c.op = predicates[p].op;
    c.col = binding.column;
    c.value = filters_[p].value;
    c.lo = filters_[p].lo;
    c.hi = filters_[p].hi;
    c.set_begin = filters_[p].set_begin;
    c.set_end = filters_[p].set_end;
    prune_checks_.push_back(c);
  }
  for (size_t d = 0; d < spec.bins.size(); ++d) {
    const ColumnBinding& binding = query.bin_bindings()[d];
    if (binding.join != nullptr) continue;
    const query::BinDimension& dim = spec.bins[d];
    PruneCheck c;
    c.col = binding.column;
    c.lo = bins_[d].lo;
    c.bin_count = bins_[d].bin_count;
    if (dim.mode == query::BinningMode::kNominal) {
      c.kind = PruneCheck::Kind::kBinNominal;
    } else {
      if (!(bins_[d].width > 0.0)) continue;
      c.kind = PruneCheck::Kind::kBinQuant;
      c.width = bins_[d].width;
    }
    prune_checks_.push_back(c);
  }
}

bool VectorizedQuery::PruneCheck::CanMatch(
    const storage::ZoneEntry& z) const {
  // All tests are written so that a block with no finite values
  // (min = +inf > max = -inf) is excluded — its rows are all NaN and NaN
  // rows can never match — and so that NaN operands make the test return
  // "can match" (never prune on garbage).
  switch (kind) {
    case Kind::kCompare:
      switch (op) {
        case expr::CompareOp::kEq:
          return value >= z.min && value <= z.max;
        case expr::CompareOp::kNeq:
          // Excluded only when every finite value in the block equals
          // `value` exactly.
          return z.min < z.max || (z.min == z.max && z.min != value);
        case expr::CompareOp::kLt:
          return z.min < value;
        case expr::CompareOp::kLe:
          return z.min <= value;
        case expr::CompareOp::kGt:
          return z.max > value;
        case expr::CompareOp::kGe:
          return z.max >= value;
        case expr::CompareOp::kRange:
          return z.max >= lo && z.min < hi;
        case expr::CompareOp::kIn:
          for (const double* s = set_begin; s != set_end; ++s) {
            if (*s >= z.min && *s <= z.max) return true;
          }
          return false;  // empty sets match nothing (kernel parity)
      }
      return true;
    case Kind::kBinQuant: {
      // floor((v - lo) / width) is monotone non-decreasing in v (IEEE
      // subtraction and division by a positive constant are monotone, as
      // is floor), so evaluating the *kernel's own expression* at the
      // block bounds brackets every row's bin index — boundary rounding
      // included.
      const double bin_of_max = std::floor((z.max - lo) / width);
      const double bin_of_min = std::floor((z.min - lo) / width);
      return bin_of_max >= 0.0 &&
             bin_of_min < static_cast<double>(bin_count);
    }
    case Kind::kBinNominal: {
      // trunc(v - lo) is likewise monotone; `> -1` mirrors the kernel's
      // post-truncation `idx >= 0` (v - lo in (-1, 0) truncates to 0).
      const double t_max = std::trunc(z.max - lo);
      const double t_min = std::trunc(z.min - lo);
      return t_max > -1.0 && t_min < static_cast<double>(bin_count);
    }
  }
  return true;
}

bool VectorizedQuery::BlockCanMatch(int64_t block) const {
  for (const PruneCheck& c : prune_checks_) {
    const std::vector<storage::ZoneEntry>& zones = c.col->zone_map();
    if (block < static_cast<int64_t>(zones.size()) &&
        !c.CanMatch(zones[static_cast<size_t>(block)])) {
      return false;
    }
  }
  return true;
}

VectorizedQuery VectorizedQuery::Compile(const BoundQuery& query) {
  VectorizedQuery vq;
  const query::QuerySpec& spec = query.spec();
  if (spec.bins.empty() || spec.bins.size() > 2) return vq;

  // Bin-key kernels, one per dimension.
  for (size_t d = 0; d < spec.bins.size(); ++d) {
    const query::BinDimension& dim = spec.bins[d];
    if (!dim.resolved || dim.bin_count <= 0) return vq;
    BinKernel k;
    Ld load;
    if (!CompileAccess(query.bin_bindings()[d], &k.col, &load)) return vq;
    const bool nominal = dim.mode == query::BinningMode::kNominal;
    const bool use_inv = !nominal && ExactReciprocal(dim.width);
    k.fn = PickFusedBin(load, nominal, use_inv);
    k.lo = dim.lo;
    k.width = dim.width;
    if (use_inv) k.inv_width = 1.0 / dim.width;
    k.bin_count = dim.bin_count;
    if (k.fn == nullptr) return vq;
    vq.bins_.push_back(k);
  }
  vq.two_d_ = spec.bins.size() == 2;
  vq.bins1_ = vq.two_d_ ? spec.bins[1].bin_count : 1;
  vq.key_space_ = spec.bins[0].bin_count * vq.bins1_;

  // Filter kernels, one per conjunct.
  const auto& predicates = spec.filter.predicates();
  for (size_t p = 0; p < predicates.size(); ++p) {
    const expr::Predicate& pred = predicates[p];
    FilterKernel k;
    Ld load;
    if (!CompileAccess(query.filter_bindings()[p], &k.col, &load)) return vq;
    k.fn = PickFilter(pred.op, load, /*first=*/p == 0);
    if (k.fn == nullptr) return vq;
    k.value = pred.value;
    k.lo = pred.lo;
    k.hi = pred.hi;
    k.set_begin = pred.set_values.data();
    k.set_end = pred.set_values.data() + pred.set_values.size();
    vq.filters_.push_back(k);
  }

  // Aggregate gather kernels.
  for (size_t a = 0; a < spec.aggregates.size(); ++a) {
    AggKernel k;
    if (query.agg_bindings()[a].column == nullptr) {
      k.is_count = true;  // COUNT contributes 1 per row
    } else {
      Ld load;
      if (!CompileAccess(query.agg_bindings()[a], &k.col, &load)) return vq;
      k.fn = WithLoad(load, [](auto l) -> AggKernel::Fn {
        return &AggImpl<decltype(l)::value>;
      });
      if (k.fn == nullptr) return vq;
    }
    vq.agg_kernels_.push_back(k);
  }

  // Gather dedup: aggregates whose input column *is* a binned dimension
  // read the values the bin kernels already loaded.
  vq.agg_shared_dim_.assign(vq.agg_kernels_.size(), -1);
  for (size_t a = 0; a < vq.agg_kernels_.size(); ++a) {
    if (vq.agg_kernels_[a].is_count) continue;
    for (size_t d = 0; d < vq.bins_.size(); ++d) {
      if (SameAccess(vq.agg_kernels_[a].col, vq.bins_[d].col)) {
        vq.agg_shared_dim_[a] = static_cast<int8_t>(d);
        if (d == 0) vq.stash_vals0_ = true;
        if (d == 1) vq.stash_vals1_ = true;
        break;
      }
    }
  }

  vq.ok_ = true;
  vq.CompilePrune(query);
  return vq;
}

int64_t VectorizedQuery::FilterAndBin(RowBatch* batch) const {
  const int64_t n = batch->n;
  int64_t n_sel = n;
  // The first filter kernel synthesizes the identity selection itself;
  // only filter-less queries need the explicit init for the bin kernels.
  if (filters_.empty()) {
    for (int64_t i = 0; i < n; ++i) batch->sel[i] = static_cast<int32_t>(i);
  }
  for (const FilterKernel& k : filters_) {
    if (n_sel == 0) break;
    n_sel = k.fn(k, batch->rows, batch->sel.data(), n_sel);
  }
  if (n_sel == 0) {
    batch->n_sel = 0;
    return 0;
  }

  const BinKernel& b0 = bins_[0];
  b0.fn(b0, batch->rows, batch->sel.data(), n_sel, batch->keys.data(),
        batch->bin_vals.data());
  if (two_d_) {
    const BinKernel& b1 = bins_[1];
    b1.fn(b1, batch->rows, batch->sel.data(), n_sel, batch->keys2.data(),
          batch->bin_vals2.data());
  }

  // Drop rows with any out-of-range dimension and pack dense keys
  // (branchless compaction: out <= i, so in-place writes are safe).  The
  // stashed dimension value lanes compact alongside when an aggregate
  // reuses them.
  int64_t out = 0;
  if (!two_d_) {
    for (int64_t i = 0; i < n_sel; ++i) {
      const int64_t i0 = batch->keys[i];
      batch->sel[out] = batch->sel[i];
      batch->keys[out] = i0;
      if (stash_vals0_) batch->bin_vals[out] = batch->bin_vals[i];
      out += i0 >= 0;
    }
  } else {
    for (int64_t i = 0; i < n_sel; ++i) {
      const int64_t i0 = batch->keys[i];
      const int64_t i1 = batch->keys2[i];
      batch->sel[out] = batch->sel[i];
      batch->keys[out] = i0 * bins1_ + i1;
      if (stash_vals0_) batch->bin_vals[out] = batch->bin_vals[i];
      if (stash_vals1_) batch->bin_vals2[out] = batch->bin_vals2[i];
      out += (i0 >= 0) & (i1 >= 0);
    }
  }
  batch->n_sel = out;
  return out;
}

const double* VectorizedQuery::GatherAggValues(size_t a,
                                               RowBatch* batch) const {
  const int8_t shared = agg_shared_dim_[a];
  if (shared == 0) return batch->bin_vals.data();
  if (shared == 1) return batch->bin_vals2.data();
  const AggKernel& k = agg_kernels_[a];
  k.fn(k, batch->rows, batch->sel.data(), batch->n_sel, batch->values.data());
  return batch->values.data();
}

}  // namespace idebench::exec
