#ifndef IDEBENCH_DRIVER_GROUND_TRUTH_H_
#define IDEBENCH_DRIVER_GROUND_TRUTH_H_

/// \file ground_truth.h
/// The exact-answer oracle all quality metrics compare against.  It runs
/// the shared operators directly over the materialized data (no clock, no
/// cost model) and caches answers by canonical query signature.

#include <memory>
#include <string>
#include <unordered_map>
#include <vector>

#include "common/result.h"
#include "exec/aggregator.h"
#include "query/result.h"
#include "query/spec.h"
#include "storage/catalog.h"

namespace idebench::driver {

/// Exact-answer oracle with a signature-keyed cache.
class GroundTruthOracle {
 public:
  /// `threads` is the physical parallelism of the full-table scan each
  /// uncached query runs (the slowest cold-start step of the benchmark
  /// driver): 0 (default) = hardware concurrency.  The scan always uses
  /// the morsel-parallel path, whose results are independent of the
  /// thread count — oracle answers are reproducible across machines.
  explicit GroundTruthOracle(std::shared_ptr<const storage::Catalog> catalog,
                             int threads = 0);

  /// Exact answer for `spec` (bins must be resolved).  The returned
  /// pointer stays valid for the oracle's lifetime.
  Result<const query::QueryResult*> Get(const query::QuerySpec& spec);

  /// Pre-computes the answers for every uncached spec in `specs`,
  /// parallelizing *across queries* on the shared worker pool (each
  /// query's own scan additionally uses the morsel path) — the warm-up
  /// bottleneck of a cold benchmark run is many independent full scans.
  /// Answers are identical to sequential `Get` calls: each query runs
  /// the same thread-count-independent morsel scan, and the cache is
  /// filled in deterministic (input) order.
  Status Warm(const std::vector<query::QuerySpec>& specs);

  /// Number of oracle executions that hit the cache.
  int64_t cache_hits() const { return cache_hits_; }

  /// Number of cached answers.
  int64_t cache_size() const { return static_cast<int64_t>(cache_.size()); }

 private:
  /// Computes the exact answer (no cache interaction).
  Result<query::QueryResult> Compute(
      const query::QuerySpec& spec,
      const std::vector<const exec::JoinIndex*>& joins) const;
  std::shared_ptr<const storage::Catalog> catalog_;
  int threads_ = 0;
  exec::JoinIndexCache joins_;
  std::unordered_map<std::string, std::unique_ptr<query::QueryResult>> cache_;
  int64_t cache_hits_ = 0;
};

}  // namespace idebench::driver

#endif  // IDEBENCH_DRIVER_GROUND_TRUTH_H_
