#ifndef IDEBENCH_EXEC_JOIN_INDEX_H_
#define IDEBENCH_EXEC_JOIN_INDEX_H_

/// \file join_index.h
/// Foreign-key join support for star schemas.
///
/// A `JoinIndex` maps fact row numbers to dimension row numbers for one
/// fact→dimension foreign key, as one flat `int32_t` array built at
/// construction: a probe is a single array read, which is what the
/// vectorized kernels gather from.  The dimension's primary key is hashed
/// on its *integer* view (`ValueAsInt`) rather than on raw doubles,
/// avoiding FP-equality hazards and double-hashing cost.  Double-typed
/// key columns must hold integral values (keys in this benchmark are
/// int64 or dictionary codes); fractional keys are rejected with an error
/// at build time rather than silently truncated.
///
/// The engines join differently in the paper — a column store pays a
/// hash-join build, XDB wander-joins per sampled tuple — but that
/// difference lives in their cost models (engines/engine_base.h charges
/// the build), not here: every engine and the ground-truth oracle gather
/// through the same index, one per dimension, held by a `JoinIndexCache`.
///
/// Thread safety: the mapping is complete when `Build` returns and never
/// mutated afterwards, so a `JoinIndex` is safe to probe from any number
/// of morsel workers concurrently.  A `JoinIndexCache` is not
/// synchronized: build every index a parallel section needs before it
/// starts.

#include <cstdint>
#include <string>
#include <unordered_map>
#include <vector>

#include "common/result.h"
#include "query/spec.h"
#include "storage/catalog.h"

namespace idebench::exec {

/// Fact-row -> dimension-row mapping for one foreign key.
class JoinIndex {
 public:
  /// Builds the index.  Fact rows with no dimension match map to -1
  /// (inner-join semantics drop them).
  static Result<JoinIndex> Build(const storage::Catalog& catalog,
                                 const storage::ForeignKey& fk);

  /// Dimension row for `fact_row`, or -1.
  int64_t DimRow(int64_t fact_row) const {
    return mapping_[static_cast<size_t>(fact_row)];
  }

  /// Flat fact→dim mapping (length = fact row count, -1 = miss); the
  /// gather source for vectorized kernels.
  const int32_t* mapping_data() const { return mapping_.data(); }
  int64_t mapping_size() const { return static_cast<int64_t>(mapping_.size()); }

  const std::string& dimension_table() const { return dimension_table_; }

  /// Number of fact rows with no dimension match.
  int64_t miss_count() const { return miss_count_; }

 private:
  std::string dimension_table_;
  std::vector<int32_t> mapping_;
  int64_t miss_count_ = 0;
};

/// One `JoinIndex` per dimension of a catalog, built on first request and
/// kept for the cache's lifetime.
class JoinIndexCache {
 public:
  /// `catalog` must outlive the cache.
  explicit JoinIndexCache(const storage::Catalog* catalog = nullptr)
      : catalog_(catalog) {}

  /// The indexes `spec` reads through, in `BoundQuery::RequiredJoins`
  /// order, building those not cached yet.
  Result<std::vector<const JoinIndex*>> For(const query::QuerySpec& spec);

 private:
  const storage::Catalog* catalog_;
  // Node-based: element addresses survive rehashing.
  std::unordered_map<std::string, JoinIndex> indexes_;
};

}  // namespace idebench::exec

#endif  // IDEBENCH_EXEC_JOIN_INDEX_H_
