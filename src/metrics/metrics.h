#ifndef IDEBENCH_METRICS_METRICS_H_
#define IDEBENCH_METRICS_METRICS_H_

/// \file metrics.h
/// The IDEBench quality metrics (paper §4.7), computed per query from the
/// engine's answer and the exact ground truth:
///
///  * Time Requirement Violated — no fetchable result at the deadline;
///  * Missing Bins — ground-truth bins with no delivered result;
///  * Mean Relative Error — mean of |F−A|/|A| over delivered bins
///    (undefined for A = 0; such pairs are skipped, as the paper notes);
///  * SMAPE — the bounded symmetric alternative the paper discusses;
///  * Cosine Distance — shape deviation over the bin vector (missing
///    bins contribute zeros);
///  * Mean (relative) Margin of Error and its standard deviation;
///  * Out of Margin — delivered values whose true value lies outside the
///    returned confidence interval;
///  * Bias — Σ estimates / Σ true values over delivered bins.

#include <cstdint>

#include "query/result.h"

namespace idebench::metrics {

/// Per-query evaluation results (one row of the detailed report).
struct QueryMetrics {
  bool tr_violated = false;

  int64_t bins_delivered = 0;
  int64_t bins_in_gt = 0;
  double missing_bins = 0.0;  // ratio in [0, 1]

  double mean_rel_error = 0.0;
  double rel_error_stdev = 0.0;
  double smape = 0.0;

  double cosine_distance = 0.0;

  double mean_margin_rel = 0.0;
  double margin_stdev = 0.0;
  int64_t bins_out_of_margin = 0;

  double bias = 1.0;
};

/// Telemetry of a cross-interaction result-reuse cache
/// (exec/reuse_cache.h): how often interactions hit snapshots of earlier
/// ones, and how much physical work the hits displaced.  Surfaced per
/// engine and aggregated into the CLI report.
struct ReuseCacheStats {
  int64_t equal_hits = 0;       // submissions matching a cached signature
  int64_t refinement_hits = 0;  // submissions refining a cached predicate set
  int64_t misses = 0;           // submissions with no usable entry
  int64_t stores = 0;           // snapshots stored or extended
  int64_t evictions = 0;        // entries dropped by the per-viz LRU
  int64_t poisoned = 0;         // entries dropped as corrupt (fault injection)
  int64_t rows_served = 0;      // feed positions served from snapshots
  int64_t entries = 0;          // live entries at sampling time

  ReuseCacheStats& operator+=(const ReuseCacheStats& o) {
    equal_hits += o.equal_hits;
    refinement_hits += o.refinement_hits;
    misses += o.misses;
    stores += o.stores;
    evictions += o.evictions;
    poisoned += o.poisoned;
    rows_served += o.rows_served;
    // `entries` is a gauge, not a counter: across engines/configurations
    // report the peak, not a meaningless sum.
    entries = entries > o.entries ? entries : o.entries;
    return *this;
  }
};

/// Evaluates `result` against `ground_truth`.
///
/// When `tr_violated` is set (or the result is unavailable), the quality
/// fields are computed anyway when possible, but the summary report
/// excludes them, matching the paper ("the distribution of mean relative
/// errors for all queries which did not violate the time requirement").
QueryMetrics Evaluate(const query::QueryResult& result,
                      const query::QueryResult& ground_truth,
                      bool tr_violated);

}  // namespace idebench::metrics

#endif  // IDEBENCH_METRICS_METRICS_H_
