#ifndef IDEBENCH_AQP_SAMPLER_H_
#define IDEBENCH_AQP_SAMPLER_H_

/// \file sampler.h
/// Sampling primitives used by the approximate engines.
///
///  * `ShuffledIndex` — a random permutation of row ids.  A progressive
///    engine that walks the permutation front-to-back sees a uniform
///    sample that grows without replacement (online sampling, IDEA-style).
///  * `BuildStratifiedSample` — offline stratified sample table with
///    per-row Horvitz–Thompson weights (System X-style).

#include <cstdint>
#include <string>
#include <vector>

#include "common/random.h"
#include "common/result.h"
#include "storage/table.h"

namespace idebench::aqp {

/// A random permutation of [0, n), optionally extended with further
/// *epoch segments* under streaming ingest.
///
/// The index is a concatenation of independently shuffled segments: the
/// constructor builds one segment over [0, n); each `ExtendTo(m, rng)`
/// appends a shuffled permutation of the new rows [n, m) as its own
/// segment.  Because earlier segments are never reshuffled, the mapping
/// of every position below a watermark W is invariant under later
/// extensions — the *prefix property* that keeps in-flight walks and
/// cached replay positions valid while new epochs arrive.
class ShuffledIndex {
 public:
  /// Builds a permutation of `n` row ids with `rng`.
  ShuffledIndex(int64_t n, Rng* rng);

  /// Segment-aware keyed walk: copies `count` row ids starting at walk
  /// position `start_pos` into `out`.  Position `pos` inside the segment
  /// spanning rows [s0, s1) of length L maps to `permutation[s0 + (key %
  /// L + (pos - s0)) % L]` — each segment is walked as its own ring,
  /// rotated by the per-query `key`.  Positions must stay below the
  /// current total size.
  void GatherWalk(int64_t key, int64_t start_pos, int64_t count,
                  int64_t* out) const;

  /// Appends rows [size(), new_n) as one new shuffled segment.  No-op
  /// when `new_n <= size()`.
  void ExtendTo(int64_t new_n, Rng* rng);

  int64_t size() const { return static_cast<int64_t>(permutation_.size()); }

  const std::vector<int64_t>& permutation() const { return permutation_; }

  /// Cumulative segment end positions: {n} after construction, one more
  /// entry per `ExtendTo`.
  const std::vector<int64_t>& segment_bounds() const { return bounds_; }

 private:
  std::vector<int64_t> permutation_;
  std::vector<int64_t> bounds_;  // cumulative segment ends
};

/// An offline stratified sample: base-table row ids plus per-row weights
/// (weight = stratum size / stratum sample size).
struct StratifiedSample {
  std::vector<int64_t> rows;
  std::vector<double> weights;
  int64_t base_rows = 0;
  int64_t num_strata = 0;

  int64_t size() const { return static_cast<int64_t>(rows.size()); }
};

/// Builds a stratified sample of rows [row_begin, row_end) of `table`
/// (`row_end < 0` means all rows).
///
/// Strata are the distinct numeric-view values of `strat_column` (pass an
/// empty string for a single stratum, i.e. plain uniform sampling).  Each
/// stratum contributes `max(min_per_stratum, round(rate * stratum_size))`
/// rows, capped at the stratum size, drawn without replacement.  Under
/// streaming ingest the row range restricts the sample to published rows
/// (and lets per-epoch delta samples cover just [W_{e-1}, W_e)); strata
/// sizes and weights are range-local.
Result<StratifiedSample> BuildStratifiedSample(const storage::Table& table,
                                               const std::string& strat_column,
                                               double rate,
                                               int64_t min_per_stratum,
                                               Rng* rng,
                                               int64_t row_begin = 0,
                                               int64_t row_end = -1);

}  // namespace idebench::aqp

#endif  // IDEBENCH_AQP_SAMPLER_H_
