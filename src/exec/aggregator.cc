#include "exec/aggregator.h"

#include <algorithm>
#include <array>
#include <cmath>
#include <type_traits>

#include "common/logging.h"

namespace idebench::exec {

using query::AggregateType;
using query::BinResult;
using query::QueryResult;

BinnedAggregator::BinnedAggregator(const BoundQuery* query,
                                   BinnedAggregatorOptions options)
    : query_(query), options_(options) {
  if (!options_.enable_vectorized) return;
  auto vec =
      std::make_shared<VectorizedQuery>(VectorizedQuery::Compile(*query));
  if (!vec->ok()) return;
  vec_ = std::move(vec);
  DecideDense();
}

BinnedAggregator::BinnedAggregator(const BoundQuery* query,
                                   BinnedAggregatorOptions options,
                                   std::shared_ptr<const VectorizedQuery> vec)
    : query_(query), options_(options), vec_(std::move(vec)) {
  if (vec_ != nullptr && vec_->ok()) DecideDense();
}

void BinnedAggregator::DecideDense() {
  const int64_t keys = vec_->key_space();
  const int64_t naggs =
      std::max<int64_t>(1, static_cast<int64_t>(vec_->num_aggregates()));
  use_dense_ = options_.enable_dense_bins && keys > 0 &&
               keys <= options_.dense_key_limit &&
               keys * naggs <= options_.dense_accum_limit;
  dense_keys_ = use_dense_ ? keys : 0;
}

std::unique_ptr<BinnedAggregator> BinnedAggregator::NewPartial() const {
  return std::unique_ptr<BinnedAggregator>(
      new BinnedAggregator(query_, options_, vec_));
}

std::unique_ptr<BinnedAggregator> BinnedAggregator::AcquirePartial() {
  if (!partial_pool_.empty()) {
    std::unique_ptr<BinnedAggregator> p = std::move(partial_pool_.back());
    partial_pool_.pop_back();
    return p;
  }
  return NewPartial();
}

void BinnedAggregator::ReleasePartial(
    std::unique_ptr<BinnedAggregator> partial) {
  if (partial == nullptr) return;
  // Bounded by the widest wave the dispatcher can run (pool thread cap);
  // Reset() keeps the dense-table capacity, which is the point.
  constexpr size_t kMaxPooledPartials = 64;
  if (partial_pool_.size() >= kMaxPooledPartials) return;
  partial->Reset();
  partial_pool_.push_back(std::move(partial));
}

namespace {

/// Equivalent query shape: same binning columns and resolved bin counts,
/// same aggregate list.  (Filters are intentionally not compared: the
/// reuse cache only merges equal-signature snapshots, and morsel
/// partials share the identical bound query anyway.)
bool SameQueryShape(const query::QuerySpec& a, const query::QuerySpec& b) {
  if (a.bins.size() != b.bins.size() ||
      a.aggregates.size() != b.aggregates.size()) {
    return false;
  }
  for (size_t i = 0; i < a.bins.size(); ++i) {
    if (a.bins[i].column != b.bins[i].column ||
        a.bins[i].bin_count != b.bins[i].bin_count) {
      return false;
    }
  }
  for (size_t i = 0; i < a.aggregates.size(); ++i) {
    if (a.aggregates[i].type != b.aggregates[i].type ||
        a.aggregates[i].column != b.aggregates[i].column) {
      return false;
    }
  }
  return true;
}

}  // namespace

void BinnedAggregator::MergeFrom(const BinnedAggregator& other) {
  // Same bound query (morsel partials), or an equivalent binding of an
  // equal-shape spec (the reuse cache merges snapshots bound to
  // entry-owned spec copies).
  IDB_CHECK(query_ == other.query_ ||
            SameQueryShape(query_->spec(), other.query_->spec()));
  IDB_CHECK(!options_.record_matches || other.options_.record_matches);
  if (other.rows_seen_ == 0) return;
  const int64_t offset = rows_seen_;
  AdvanceRows(other.rows_seen_);
  if (options_.record_matches) {
    // OR the other side's bits in past ours: partials fold in morsel
    // order, so bit p stays feed position p of the whole feed; snapshots
    // adopt into empty aggregators at offset 0.  Bits past each side's
    // rows seen are zero, so a word straddling the seam ORs cleanly.
    const std::vector<uint64_t>& from = other.match_bits_;
    uint64_t* into = match_bits_.data() + (offset >> 6);
    const int shift = static_cast<int>(offset & 63);
    const size_t room = match_bits_.size() - static_cast<size_t>(offset >> 6);
    for (size_t i = 0; i < from.size(); ++i) {
      into[i] |= from[i] << shift;
      if (shift > 0 && i + 1 < room) into[i + 1] |= from[i] >> (64 - shift);
    }
  }
  rows_matched_ += other.rows_matched_;
  zone_rows_skipped_ += other.zone_rows_skipped_;
  zone_blocks_skipped_ += other.zone_blocks_skipped_;
  const size_t naggs = query_->spec().aggregates.size();

  // Fast path: both sides use the same dense layout — a flat index-wise
  // fold with no key translation.
  if (use_dense_ && other.use_dense_ && dense_keys_ == other.dense_keys_) {
    if (other.dense_touched_.empty()) return;
    EnsureDenseAllocated();
    for (int64_t d = 0; d < dense_keys_; ++d) {
      if (!other.dense_touched_[static_cast<size_t>(d)]) continue;
      dense_touched_[static_cast<size_t>(d)] = 1;
      AggAccum* into = dense_.data() + static_cast<size_t>(d) * naggs;
      const AggAccum* from =
          other.dense_.data() + static_cast<size_t>(d) * naggs;
      for (size_t a = 0; a < naggs; ++a) MergeAccum(&into[a], from[a]);
    }
    return;
  }

  // General path reconciling the dense/hash boundary: walk the other
  // side's touched bins by public key and fold into whichever table this
  // side uses.  Bins are independent, so the visit order is immaterial.
  other.ForEachBin([&](int64_t key, const AggAccum* from) {
    AggAccum* into = AccumsForPublicKey(key);
    for (size_t a = 0; a < naggs; ++a) MergeAccum(&into[a], from[a]);
  });
}

void BinnedAggregator::EnsureDenseAllocated() {
  if (!dense_touched_.empty()) return;
  const size_t naggs = query_->spec().aggregates.size();
  dense_.assign(static_cast<size_t>(dense_keys_) * naggs, AggAccum{});
  dense_touched_.assign(static_cast<size_t>(dense_keys_), 0);
}

AggAccum* BinnedAggregator::AccumsForPublicKey(int64_t key) {
  const size_t naggs = query_->spec().aggregates.size();
  if (use_dense_) {
    EnsureDenseAllocated();
    const int64_t d = vec_->PublicKeyToDense(key);
    dense_touched_[static_cast<size_t>(d)] = 1;
    return dense_.data() + static_cast<size_t>(d) * naggs;
  }
  auto it = bins_.find(key);
  if (it == bins_.end()) {
    it = bins_.emplace(key, std::vector<AggAccum>(naggs)).first;
  }
  return it->second.data();
}

void BinnedAggregator::ProcessRowWeighted(int64_t row, double weight) {
  const int64_t pos = rows_seen_;
  AdvanceRows(1);
  ProcessRowAt(row, weight, pos);
}

void BinnedAggregator::ProcessRowAt(int64_t row, double weight, int64_t pos) {
  if (!query_->MatchesFilter(row)) return;
  const int64_t key = query_->BinKey(row);
  if (key < 0) return;
  ++rows_matched_;
  if (options_.record_matches) SetMatchBit(pos);

  AggAccum* accums = AccumsForPublicKey(key);
  const size_t naggs = query_->spec().aggregates.size();
  for (size_t a = 0; a < naggs; ++a) {
    const double v = query_->AggValueAt(a, row);
    if (std::isnan(v)) continue;
    Accumulate(&accums[a], v, weight);
  }
}

void BinnedAggregator::ProcessBatch(const int64_t* rows, int64_t n,
                                    double weight) {
  FeedRows(rows, 0, n, weight);
}

void BinnedAggregator::FeedRows(const int64_t* rows, int64_t first_row,
                                int64_t n, double weight) {
  for (int64_t off = 0; off < n; off += kVectorBatchSize) {
    const int64_t c = std::min(n - off, kVectorBatchSize);
    const int64_t first_pos = rows_seen_;
    AdvanceRows(c);
    FeedChunk(rows != nullptr ? rows + off : nullptr, first_row + off, c,
              weight, first_pos, nullptr);
  }
}

namespace {

/// Calls `f` with `type` as a compile-time constant.
template <typename F>
void WithAggType(AggregateType type, F f) {
  switch (type) {
    case AggregateType::kCount:
      return f(std::integral_constant<AggregateType, AggregateType::kCount>{});
    case AggregateType::kSum:
      return f(std::integral_constant<AggregateType, AggregateType::kSum>{});
    case AggregateType::kAvg:
      return f(std::integral_constant<AggregateType, AggregateType::kAvg>{});
    case AggregateType::kMin:
      return f(std::integral_constant<AggregateType, AggregateType::kMin>{});
    case AggregateType::kMax:
      break;
  }
  return f(std::integral_constant<AggregateType, AggregateType::kMax>{});
}

/// The weight-1 update of an aggregate of type `T`: only the fields its
/// estimators read (`AggAccum`), each with the operation `Accumulate`
/// applies at weight 1.
template <AggregateType T>
inline void UnitUpdate(AggAccum* acc, double v) {
  constexpr bool kSums = T == AggregateType::kSum || T == AggregateType::kAvg;
  if constexpr (T != AggregateType::kSum) ++acc->n;
  if constexpr (kSums) {
    acc->sum += v;
    acc->sumsq += v * v;
  }
  if constexpr (T == AggregateType::kCount || T == AggregateType::kAvg) {
    acc->wsum += 1.0;
  }
  if constexpr (kSums) acc->wvsum += v;
  if constexpr (T == AggregateType::kMin) acc->min = std::min(acc->min, v);
  if constexpr (T == AggregateType::kMax) acc->max = std::max(acc->max, v);
}

/// A slot of the fused unit-weight pass: how row i updates one
/// aggregate's accumulator.  `OnesSlot` is a COUNT without an input
/// column (1 per row, no lane); `LaneSlot<T>` reads a value lane and
/// skips NaN inputs (scalar parity); `NoSlot` marks a one-aggregate pass.
struct NoSlot {};
struct OnesSlot {
  static void Apply(AggAccum* acc, const double*, int64_t) {
    UnitUpdate<AggregateType::kCount>(acc, 1.0);
  }
};
template <AggregateType T>
struct LaneSlot {
  static void Apply(AggAccum* acc, const double* values, int64_t i) {
    const double v = values[i];
    if (v == v) UnitUpdate<T>(acc, v);
  }
};

/// The fused dense pass of a unit-weight chunk with one or two
/// aggregates: one sweep over the selection, each row's accumulator row
/// resolved once.  Per-cell order (aggregate 0 then 1 within a row, rows
/// in feed order) matches the aggregate-major general path bit-exactly,
/// because two aggregates never share a cell.
template <typename S0, typename S1>
void FusedUnitPass(const int64_t* keys, int64_t m, AggAccum* dense,
                   uint8_t* touched, const double* v0, const double* v1) {
  constexpr size_t kAggs = std::is_same_v<S1, NoSlot> ? 1 : 2;
  for (int64_t i = 0; i < m; ++i) {
    const size_t d = static_cast<size_t>(keys[i]);
    touched[d] = 1;
    AggAccum* base = dense + d * kAggs;
    S0::Apply(&base[0], v0, i);
    if constexpr (kAggs == 2) S1::Apply(&base[1], v1, i);
  }
}

}  // namespace

void BinnedAggregator::FeedChunk(const int64_t* rows, int64_t first_row,
                                 int64_t n, double weight, int64_t first_pos,
                                 const int64_t* positions) {
  if (vec_ == nullptr) {
    for (int64_t i = 0; i < n; ++i) {
      ProcessRowAt(rows != nullptr ? rows[i] : first_row + i, weight,
                   positions != nullptr ? positions[i] : first_pos + i);
    }
    return;
  }
  RowBatch batch;
  batch.rows = rows;
  batch.first = first_row;
  batch.n = n;
  const int64_t m = vec_->FilterAndBin(&batch);
  rows_matched_ += m;
  if (m == 0) return;

  if (options_.record_matches) {
    if (positions != nullptr) {
      for (int64_t i = 0; i < m; ++i) SetMatchBit(positions[batch.sel[i]]);
    } else {
      for (int64_t i = 0; i < m; ++i) SetMatchBit(first_pos + batch.sel[i]);
    }
  }

  const std::vector<query::AggregateSpec>& aggs = query_->spec().aggregates;
  const size_t naggs = aggs.size();
  const bool unit_weight = weight == 1.0;
  // A COUNT without input fuses as `OnesSlot`; any other aggregate
  // without input (the constant 1 under another type) takes the general
  // path below.
  const auto fusable = [&](size_t a) {
    return !vec_->agg_is_count(a) || aggs[a].type == AggregateType::kCount;
  };
  if (use_dense_ && unit_weight && (naggs == 1 || naggs == 2) &&
      fusable(0) && (naggs == 1 || fusable(1))) {
    EnsureDenseAllocated();
    const auto lane = [&](size_t a, double* out) -> const double* {
      return vec_->agg_is_count(a) ? nullptr
                                   : vec_->GatherAggValues(a, &batch, out);
    };
    const double* v0 = lane(0, batch.values.data());
    const double* v1 = naggs == 2 ? lane(1, batch.values2.data()) : nullptr;
    const auto with_slot = [&](size_t a, auto f) {
      if (vec_->agg_is_count(a)) return f(OnesSlot{});
      WithAggType(aggs[a].type,
                  [&](auto t) { f(LaneSlot<decltype(t)::value>{}); });
    };
    const int64_t* keys = batch.keys.data();
    AggAccum* dense = dense_.data();
    uint8_t* touched = dense_touched_.data();
    with_slot(0, [&](auto s0) {
      using S0 = decltype(s0);
      if (naggs == 1) {
        FusedUnitPass<S0, NoSlot>(keys, m, dense, touched, v0, v1);
        return;
      }
      with_slot(1, [&](auto s1) {
        FusedUnitPass<S0, decltype(s1)>(keys, m, dense, touched, v0, v1);
      });
    });
    return;
  }

  // General path: resolve each selected row's accumulator row once, then
  // accumulate aggregate by aggregate.
  std::array<AggAccum*, kVectorBatchSize> bases;
  if (use_dense_) {
    EnsureDenseAllocated();
    for (int64_t i = 0; i < m; ++i) {
      const size_t d = static_cast<size_t>(batch.keys[i]);
      dense_touched_[d] = 1;
      bases[i] = dense_.data() + d * naggs;
    }
  } else {
    for (int64_t i = 0; i < m; ++i) {
      const int64_t key = vec_->DenseKeyToPublic(batch.keys[i]);
      auto it = bins_.find(key);
      if (it == bins_.end()) {
        it = bins_.emplace(key, std::vector<AggAccum>(naggs)).first;
      }
      bases[i] = it->second.data();
    }
  }

  for (size_t a = 0; a < naggs; ++a) {
    const double* values = vec_->agg_is_count(a)
                               ? nullptr
                               : vec_->GatherAggValues(a, &batch,
                                                       batch.values.data());
    const auto feed = [&](auto update) {
      if (values == nullptr) {  // COUNT-style input: 1 per row
        for (int64_t i = 0; i < m; ++i) update(bases[i] + a, 1.0);
        return;
      }
      for (int64_t i = 0; i < m; ++i) {
        const double v = values[i];
        if (v == v) update(bases[i] + a, v);  // NaN input: scalar parity
      }
    };
    if (unit_weight) {
      WithAggType(aggs[a].type, [&](auto t) {
        feed([](AggAccum* acc, double v) {
          UnitUpdate<decltype(t)::value>(acc, v);
        });
      });
    } else {
      feed([weight](AggAccum* acc, double v) { Accumulate(acc, v, weight); });
    }
  }
}

int64_t FeedOrder::RunEnd(int64_t begin, int64_t end) const {
  if (kind != Kind::kSample) return end;
  const double* w = sample->weights.data();
  int64_t j = begin + 1;
  while (j < end && w[j] == w[begin]) ++j;
  return j;
}

void BinnedAggregator::Process(const FeedOrder& order, int64_t begin,
                               int64_t end) {
  std::array<int64_t, kVectorBatchSize> rows;
  switch (order.kind) {
    case FeedOrder::Kind::kScan:
      if (vec_ == nullptr) {
        for (int64_t row = begin; row < end; ++row) ProcessRow(row);
        return;
      }
      // Physical scans consult the fact columns' zone maps block by
      // block: a 64K block whose bounds prove no row can pass the filter
      // (or land in any bin) is skipped wholesale — rows still accounted,
      // so results are bit-identical to the unpruned scan.  This is the
      // only place a scan prunes: a morsel is one block, and each runs
      // through here.  The rest of a block feeds as one row run.
      for (int64_t seg = begin; seg < end;) {
        // Zone-block-aligned segment [seg, seg_end).
        const int64_t block_end = (seg / storage::kZoneMapBlockRows + 1) *
                                  storage::kZoneMapBlockRows;
        const int64_t seg_end = std::min(end, block_end);
        if (options_.enable_zone_pruning &&
            !vec_->BlockCanMatch(seg / storage::kZoneMapBlockRows)) {
          AdvanceRows(seg_end - seg);
          zone_rows_skipped_ += seg_end - seg;
          ++zone_blocks_skipped_;
          seg = seg_end;
          continue;
        }
        FeedRows(nullptr, seg, seg_end - seg, 1.0);
        seg = seg_end;
      }
      return;
    case FeedOrder::Kind::kWalk:
      // The shared hot loop of the sampling engines: a batch of walk
      // steps inside the base is one run of rows and feeds as such; one
      // that wraps the base ring or reaches an epoch is gathered first.
      for (int64_t pos = begin; pos < end; pos += kVectorBatchSize) {
        const int64_t c = std::min(end - pos, kVectorBatchSize);
        const int64_t first = order.index->BaseRun(order.key, pos, c);
        if (first >= 0) {
          FeedRows(nullptr, first, c, 1.0);
        } else {
          order.index->GatherWalk(order.key, pos, c, rows.data());
          FeedRows(rows.data(), 0, c, 1.0);
        }
      }
      return;
    case FeedOrder::Kind::kSample:
      for (int64_t pos = begin; pos < end;) {
        const int64_t run_end = order.RunEnd(pos, end);
        const size_t i = static_cast<size_t>(pos);
        ProcessBatch(&order.sample->rows[i], run_end - pos,
                     order.sample->weights[i]);
        pos = run_end;
      }
      return;
  }
}

namespace {

/// Bits [begin, end) of `bits`, visited one word-sized slice at a time:
/// `fn(first, v)` gets the slice's first position and its bits shifted
/// down to bit 0, masked to the slice.
template <typename Fn>
void ForEachBitSlice(const std::vector<uint64_t>& bits, int64_t begin,
                     int64_t end, Fn&& fn) {
  for (int64_t p = begin; p < end;) {
    const int shift = static_cast<int>(p & 63);
    const int64_t take = std::min<int64_t>(64 - shift, end - p);
    uint64_t v = bits[static_cast<size_t>(p >> 6)] >> shift;
    if (take < 64) v &= (uint64_t{1} << take) - 1;
    fn(p, v);
    p += take;
  }
}

}  // namespace

void BinnedAggregator::ReplayMatches(const std::vector<uint64_t>& candidates,
                                     const FeedOrder& order, int64_t begin,
                                     int64_t end) {
  IDB_CHECK(rows_seen_ == begin);
  IDB_CHECK(end <= static_cast<int64_t>(candidates.size()) * 64);
  // Window by window of kVectorBatchSize positions: a window with no
  // candidate is only accounted; one that is mostly candidates is fed
  // whole (its other rows fail this filter as they failed the
  // recorder's); otherwise its candidates are picked out and fed at their
  // own positions and weights, gathered across windows into full
  // batches.  Either way rows reach the accumulators in feed order, so
  // the state is bit-identical to feeding [begin, end) directly.
  std::array<int64_t, kVectorBatchSize> window;
  std::array<int64_t, kVectorBatchSize> rows;
  std::array<int64_t, kVectorBatchSize> positions;
  int64_t n = 0;
  double weight = 1.0;
  const auto flush = [&] {
    if (n > 0) FeedChunk(rows.data(), 0, n, weight, 0, positions.data());
    n = 0;
  };
  for (int64_t w = begin, w_end; w < end; w = w_end) {
    w_end = std::min(end, (w / kVectorBatchSize + 1) * kVectorBatchSize);
    int64_t count = 0;
    ForEachBitSlice(candidates, w, w_end, [&](int64_t, uint64_t v) {
      count += __builtin_popcountll(v);
    });
    if (2 * count > w_end - w) {
      flush();
      Process(order, w, w_end);
      continue;
    }
    AdvanceRows(w_end - w);
    if (count == 0) continue;
    if (n + count > kVectorBatchSize) flush();
    // Rows (and weights) of the window's positions under `order`; a
    // scan's position is its row.
    const int64_t* window_rows = window.data();
    const double* weights = nullptr;
    switch (order.kind) {
      case FeedOrder::Kind::kScan:
        window_rows = nullptr;
        break;
      case FeedOrder::Kind::kWalk:
        order.index->GatherWalk(order.key, w, w_end - w, window.data());
        break;
      case FeedOrder::Kind::kSample:
        window_rows = order.sample->rows.data() + w;
        weights = order.sample->weights.data() + w;
        break;
    }
    ForEachBitSlice(candidates, w, w_end, [&](int64_t first, uint64_t v) {
      for (; v != 0; v &= v - 1) {
        const int64_t p = first + __builtin_ctzll(v);
        const size_t i = static_cast<size_t>(p - w);
        const double wp = weights != nullptr ? weights[i] : 1.0;
        if (n > 0 && wp != weight) flush();  // split at weight changes
        weight = wp;
        rows[static_cast<size_t>(n)] =
            window_rows != nullptr ? window_rows[i] : p;
        positions[static_cast<size_t>(n)] = p;
        ++n;
      }
    });
  }
  flush();
}

void BinnedAggregator::Reset() {
  bins_.clear();
  dense_.clear();  // keeps capacity: pooled partials reuse the buffer
  dense_touched_.clear();
  match_bits_.clear();
  rows_seen_ = 0;
  rows_matched_ = 0;
  zone_rows_skipped_ = 0;
  zone_blocks_skipped_ = 0;
  partial_pool_.clear();
}

namespace {

/// Sample standard deviation from n / sum / sumsq; 0 when n < 2.
double SampleStddev(int64_t n, double sum, double sumsq) {
  if (n < 2) return 0.0;
  const double dn = static_cast<double>(n);
  const double var = (sumsq - sum * sum / dn) / (dn - 1.0);
  return var > 0.0 ? std::sqrt(var) : 0.0;
}

}  // namespace

QueryResult BinnedAggregator::ExactResult() const {
  QueryResult result;
  result.exact = true;
  result.progress = 1.0;
  result.rows_processed = rows_seen_;
  const auto& aggs = query_->spec().aggregates;
  ForEachBin([&](int64_t key, const AggAccum* accums) {
    BinResult bin;
    bin.values.resize(aggs.size());
    for (size_t a = 0; a < aggs.size(); ++a) {
      const AggAccum& acc = accums[a];
      query::AggValue& out = bin.values[a];
      out.margin = 0.0;
      switch (aggs[a].type) {
        case AggregateType::kCount:
          out.estimate = static_cast<double>(acc.n);
          break;
        case AggregateType::kSum:
          out.estimate = acc.sum;
          break;
        case AggregateType::kAvg:
          out.estimate = acc.n > 0 ? acc.sum / static_cast<double>(acc.n) : 0.0;
          break;
        case AggregateType::kMin:
          out.estimate = acc.n > 0 ? acc.min : 0.0;
          break;
        case AggregateType::kMax:
          out.estimate = acc.n > 0 ? acc.max : 0.0;
          break;
      }
    }
    if (!bin.values.empty()) result.bins.emplace(key, std::move(bin));
  });
  return result;
}

QueryResult BinnedAggregator::EstimateFromUniformSample(int64_t population,
                                                        double z) const {
  QueryResult result;
  result.exact = false;
  result.rows_processed = rows_seen_;
  const double s = static_cast<double>(rows_seen_);
  const double pop = static_cast<double>(std::max<int64_t>(population, 1));
  result.progress = std::min(1.0, s / pop);
  if (rows_seen_ <= 0) return result;

  const double scale = pop / s;
  // Finite-population correction: when the sample approaches the
  // population, scale-up variance vanishes.
  const double fpc = std::max(0.0, 1.0 - s / pop);
  const bool complete = rows_seen_ >= population;
  result.exact = complete;

  const auto& aggs = query_->spec().aggregates;
  ForEachBin([&](int64_t key, const AggAccum* accums) {
    BinResult bin;
    bin.values.resize(aggs.size());
    for (size_t a = 0; a < aggs.size(); ++a) {
      const AggAccum& acc = accums[a];
      query::AggValue& out = bin.values[a];
      switch (aggs[a].type) {
        case AggregateType::kCount: {
          // y_i = 1{row in bin}; est = N * mean(y).
          const double mean_y = static_cast<double>(acc.n) / s;
          out.estimate = complete ? static_cast<double>(acc.n)
                                  : scale * static_cast<double>(acc.n);
          const double var_y = mean_y * (1.0 - mean_y);
          out.margin =
              complete ? 0.0 : z * pop * std::sqrt(var_y * fpc / s);
          break;
        }
        case AggregateType::kSum: {
          // y_i = v_i * 1{row in bin}; est = N * mean(y).
          const double mean_y = acc.sum / s;
          out.estimate = complete ? acc.sum : scale * acc.sum;
          const double var_y = std::max(0.0, acc.sumsq / s - mean_y * mean_y);
          out.margin = complete ? 0.0 : z * pop * std::sqrt(var_y * fpc / s);
          break;
        }
        case AggregateType::kAvg: {
          const double n = static_cast<double>(acc.n);
          out.estimate = acc.n > 0 ? acc.sum / n : 0.0;
          const double sd = SampleStddev(acc.n, acc.sum, acc.sumsq);
          out.margin =
              complete || acc.n == 0 ? 0.0 : z * sd * std::sqrt(fpc) / std::sqrt(n);
          break;
        }
        case AggregateType::kMin:
          out.estimate = acc.n > 0 ? acc.min : 0.0;
          out.margin = 0.0;  // no distribution-free CI for extremes
          break;
        case AggregateType::kMax:
          out.estimate = acc.n > 0 ? acc.max : 0.0;
          out.margin = 0.0;
          break;
      }
    }
    if (!bin.values.empty()) result.bins.emplace(key, std::move(bin));
  });
  return result;
}

QueryResult BinnedAggregator::EstimateFromWeightedSample(double z) const {
  QueryResult result;
  result.exact = false;
  result.rows_processed = rows_seen_;
  // Progress is intentionally left at the sample coverage the caller
  // reports; weighted samples are fixed-size, so "progress" is 1 once the
  // sample is fully scanned.  The engine overrides this field.
  result.progress = 1.0;

  const auto& aggs = query_->spec().aggregates;
  ForEachBin([&](int64_t key, const AggAccum* accums) {
    BinResult bin;
    bin.values.resize(aggs.size());
    for (size_t a = 0; a < aggs.size(); ++a) {
      const AggAccum& acc = accums[a];
      query::AggValue& out = bin.values[a];
      switch (aggs[a].type) {
        case AggregateType::kCount:
          // Horvitz–Thompson: est = sum of weights; Poisson-approximation
          // variance sum w_i (w_i - 1).
          out.estimate = acc.wsum;
          out.margin = z * std::sqrt(std::max(0.0, acc.wvar));
          break;
        case AggregateType::kSum:
          out.estimate = acc.wvsum;
          out.margin = z * std::sqrt(std::max(0.0, acc.wvsumsq));
          break;
        case AggregateType::kAvg: {
          // Ratio estimator: weighted mean; CI from within-bin spread of
          // the unweighted sample (Hájek-style approximation).
          out.estimate = acc.wsum > 0 ? acc.wvsum / acc.wsum : 0.0;
          const double sd = SampleStddev(acc.n, acc.sum, acc.sumsq);
          out.margin =
              acc.n > 0 ? z * sd / std::sqrt(static_cast<double>(acc.n)) : 0.0;
          break;
        }
        case AggregateType::kMin:
          out.estimate = acc.n > 0 ? acc.min : 0.0;
          out.margin = 0.0;
          break;
        case AggregateType::kMax:
          out.estimate = acc.n > 0 ? acc.max : 0.0;
          out.margin = 0.0;
          break;
      }
    }
    if (!bin.values.empty()) result.bins.emplace(key, std::move(bin));
  });
  return result;
}

}  // namespace idebench::exec
