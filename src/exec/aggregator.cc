#include "exec/aggregator.h"

#include <algorithm>
#include <array>
#include <cmath>

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
  if (other.rows_seen_ == 0) return;
  if (options_.record_matches) {
    // A side whose matched rows were not (fully) recorded poisons the
    // candidate list: mark this recorder overflowed rather than leave an
    // incomplete list that looks replay-safe.
    const bool other_replayable =
        other.options_.record_matches && !other.matches_overflowed_;
    if (!other_replayable) {
      if (other.rows_matched_ > 0) {
        matches_overflowed_ = true;
        matches_ = {};
      }
    } else if (!other.matches_.empty() &&
               RecorderAccepts(static_cast<int64_t>(other.matches_.size()))) {
      // Shift the other side's feed positions past ours: partials fold
      // in morsel order, so positions stay the walk positions of the
      // whole feed; snapshots adopt into empty aggregators with a zero
      // shift.
      matches_.reserve(matches_.size() + other.matches_.size());
      for (const MatchedRow& m : other.matches_) {
        matches_.push_back({m.pos + rows_seen_, m.row, m.weight});
      }
    }
  }
  rows_seen_ += other.rows_seen_;
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
  ProcessRowAt(row, weight, rows_seen_);
}

void BinnedAggregator::ProcessRowAt(int64_t row, double weight, int64_t pos) {
  ++rows_seen_;
  if (!query_->MatchesFilter(row)) return;
  const int64_t key = query_->BinKey(row);
  if (key < 0) return;
  ++rows_matched_;
  if (RecorderAccepts(1)) matches_.push_back({pos, row, weight});

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
  if (vec_ == nullptr) {
    for (int64_t i = 0; i < n; ++i) {
      ProcessRowAt(rows[i], weight,
                   replay_positions_ != nullptr ? replay_positions_[i]
                                                : rows_seen_);
    }
    return;
  }
  RowBatch batch;
  std::array<AggAccum*, kVectorBatchSize> bases;
  const size_t naggs = query_->spec().aggregates.size();

  for (int64_t off = 0; off < n; off += kVectorBatchSize) {
    batch.rows = rows + off;
    batch.n = std::min(n - off, kVectorBatchSize);
    const int64_t pos_base = rows_seen_;  // feed position of batch.rows[0]
    rows_seen_ += batch.n;

    const int64_t m = vec_->FilterAndBin(&batch);
    rows_matched_ += m;
    if (m == 0) continue;

    if (RecorderAccepts(m)) {
      // Bulk-append with one resize: per-element push_back capacity
      // checks cost more than the whole recording otherwise.
      const size_t old_size = matches_.size();
      matches_.resize(old_size + static_cast<size_t>(m));
      MatchedRow* out = matches_.data() + old_size;
      if (replay_positions_ != nullptr) {
        for (int64_t i = 0; i < m; ++i) {
          const int64_t idx = batch.sel[i];
          out[i] = {replay_positions_[off + idx], batch.rows[idx], weight};
        }
      } else {
        for (int64_t i = 0; i < m; ++i) {
          const int64_t idx = batch.sel[i];
          out[i] = {pos_base + idx, batch.rows[idx], weight};
        }
      }
    }

    // Fused agg-set kernel for the canonical dashboard shape — COUNT
    // plus one value aggregate, unit weight, dense table: one pass over
    // the selection, accumulator row resolved once per row, no bases
    // scratch.  Per-cell accumulation order (agg 0 then agg 1 within a
    // row, rows in feed order) matches the agg-major loops below
    // bit-exactly because the two aggregates never share a cell.
    if (use_dense_ && weight == 1.0 && naggs == 2 &&
        vec_->agg_is_count(0) && !vec_->agg_is_count(1)) {
      EnsureDenseAllocated();
      const double* values = vec_->GatherAggValues(1, &batch);
      for (int64_t i = 0; i < m; ++i) {
        const size_t d = static_cast<size_t>(batch.keys[i]);
        dense_touched_[d] = 1;
        AggAccum* base = dense_.data() + d * 2;
        AccumulateUnit(&base[0], 1.0);
        const double v = values[i];
        if (v == v) AccumulateUnit(&base[1], v);
      }
      continue;
    }

    // Resolve each selected row's accumulator base once.
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

    const bool unit_weight = weight == 1.0;
    for (size_t a = 0; a < naggs; ++a) {
      if (vec_->agg_is_count(a)) {
        if (unit_weight) {
          for (int64_t i = 0; i < m; ++i) AccumulateUnit(&bases[i][a], 1.0);
        } else {
          for (int64_t i = 0; i < m; ++i) Accumulate(&bases[i][a], 1.0, weight);
        }
        continue;
      }
      const double* values = vec_->GatherAggValues(a, &batch);
      for (int64_t i = 0; i < m; ++i) {
        const double v = values[i];
        if (!(v == v)) continue;  // NaN input: scalar parity
        if (unit_weight) {
          AccumulateUnit(&bases[i][a], v);
        } else {
          Accumulate(&bases[i][a], v, weight);
        }
      }
    }
  }
}

void BinnedAggregator::ProcessRange(int64_t begin, int64_t end) {
  if (vec_ == nullptr) {
    for (int64_t row = begin; row < end; ++row) ProcessRow(row);
    return;
  }
  // Physical scans consult the fact columns' zone maps block by block:
  // a 64K block whose bounds prove no row can pass the filter (or land
  // in any bin) is skipped wholesale — rows still accounted, so results
  // are bit-identical to the unpruned scan.  This is the only place a
  // scan prunes: a morsel is one block, and each runs through here.
  std::array<int64_t, kVectorBatchSize> rows;
  for (int64_t seg = begin; seg < end;) {
    // Zone-block-aligned segment [seg, seg_end).
    const int64_t block_end =
        (seg / storage::kZoneMapBlockRows + 1) * storage::kZoneMapBlockRows;
    const int64_t seg_end = std::min(end, block_end);
    if (options_.enable_zone_pruning &&
        !vec_->BlockCanMatch(seg / storage::kZoneMapBlockRows)) {
      rows_seen_ += seg_end - seg;
      zone_rows_skipped_ += seg_end - seg;
      ++zone_blocks_skipped_;
      seg = seg_end;
      continue;
    }
    for (int64_t b = seg; b < seg_end; b += kVectorBatchSize) {
      const int64_t c = std::min(seg_end - b, kVectorBatchSize);
      for (int64_t i = 0; i < c; ++i) rows[static_cast<size_t>(i)] = b + i;
      ProcessBatch(rows.data(), c);
    }
    seg = seg_end;
  }
}

void BinnedAggregator::ProcessWalk(const aqp::ShuffledIndex& order,
                                   int64_t key, int64_t start_pos,
                                   int64_t count) {
  std::array<int64_t, kVectorBatchSize> rows;
  for (int64_t done = 0; done < count;) {
    const int64_t c = std::min(count - done, kVectorBatchSize);
    order.GatherWalk(key, start_pos + done, c, rows.data());
    ProcessBatch(rows.data(), c);
    done += c;
  }
}

void BinnedAggregator::ReplayMatches(const std::vector<MatchedRow>& matches,
                                     int64_t pos_begin, int64_t pos_end) {
  const int64_t span = pos_end - pos_begin;
  if (span <= 0) return;
  auto it = std::lower_bound(
      matches.begin(), matches.end(), pos_begin,
      [](const MatchedRow& m, int64_t p) { return m.pos < p; });

  // Feed the recorded rows in batches sharing one weight, carrying their
  // original positions for the recorder; gaps (rows that did not match
  // the recording filter, so cannot match this one either) are accounted
  // at the end in one SkipRows.  Accumulator update order equals the
  // original feed order, so the state is bit-compatible with a direct
  // walk of the underlying rows.
  std::array<int64_t, kVectorBatchSize> rows;
  std::array<int64_t, kVectorBatchSize> positions;
  int64_t fed = 0;
  int64_t n = 0;
  double w = 1.0;
  const auto flush = [&] {
    if (n == 0) return;
    replay_positions_ = positions.data();
    ProcessBatch(rows.data(), n, w);
    replay_positions_ = nullptr;
    fed += n;
    n = 0;
  };
  for (; it != matches.end() && it->pos < pos_end; ++it) {
    if (n == kVectorBatchSize || (n > 0 && it->weight != w)) flush();
    if (n == 0) w = it->weight;
    rows[static_cast<size_t>(n)] = it->row;
    positions[static_cast<size_t>(n)] = it->pos;
    ++n;
  }
  flush();
  SkipRows(span - fed);
}

void BinnedAggregator::Reset() {
  bins_.clear();
  dense_.clear();  // keeps capacity: pooled partials reuse the buffer
  dense_touched_.clear();
  matches_.clear();
  matches_overflowed_ = false;
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
