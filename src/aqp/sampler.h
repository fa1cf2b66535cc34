#ifndef IDEBENCH_AQP_SAMPLER_H_
#define IDEBENCH_AQP_SAMPLER_H_

/// \file sampler.h
/// Sampling primitives used by the approximate engines.
///
///  * `ShuffledIndex` — the walk order of a fact table: its base rows in
///    the table's own order, then one shuffled segment per ingest epoch.
///    A progressive engine that walks it front to back sees a uniform
///    sample that grows without replacement (online sampling,
///    IDEA-style), because the base rows were drawn independently of
///    one another: a window of them is a simple random sample, as a
///    window of a shuffled index would be (VerdictDB's scramble, Park et
///    al., SIGMOD'18).  `exec::FeedOrder::Walk` states the precondition.
///  * `BuildStratifiedSample` — offline stratified sample table with
///    per-row Horvitz–Thompson weights (System X-style).

#include <cstdint>
#include <string>
#include <vector>

#include "common/random.h"
#include "common/result.h"
#include "storage/table.h"

namespace idebench::aqp {

/// The walk order of rows [0, size()), in segments: the base segment
/// [0, base_rows) in the table's own order, then one independently
/// shuffled segment per `ExtendTo` (an ingest epoch).
///
/// Each segment is walked as its own ring, rotated by the per-query key:
/// position `pos` inside the segment spanning rows [s0, s1) of length L
/// is step (key % L + (pos - s0)) % L of that segment.  In the base
/// segment step i is row s0 + i, so a walk reads the base as one or two
/// contiguous row ranges; in an epoch segment it is the i-th entry of
/// the epoch's shuffle.  Earlier segments are never touched, so the
/// mapping of every position below a watermark W is invariant under
/// later extensions — the *prefix property* that keeps in-flight walks
/// and cached replay positions valid while new epochs arrive.
class ShuffledIndex {
 public:
  /// A walk over base rows [0, base_rows) with no epoch segment yet.
  explicit ShuffledIndex(int64_t base_rows);

  /// Copies the `count` row ids of the walk keyed `key` from walk
  /// position `start_pos` on into `out` (the ring mapping above).
  /// Positions must stay below the current total size.
  void GatherWalk(int64_t key, int64_t start_pos, int64_t count,
                  int64_t* out) const;

  /// When walk positions [start_pos, start_pos + count) of the walk keyed
  /// `key` are consecutive base rows, returns the first of them, so the
  /// caller can read the run without gathering it; -1 when they wrap the
  /// base ring or reach an epoch segment (`GatherWalk` copies those).
  int64_t BaseRun(int64_t key, int64_t start_pos, int64_t count) const;

  /// Appends rows [size(), new_n) as one new segment, shuffled with
  /// `rng`.  No-op when `new_n <= size()`.
  void ExtendTo(int64_t new_n, Rng* rng);

  int64_t size() const { return bounds_.back(); }

  /// Cumulative segment end positions: {base_rows} after construction,
  /// one more entry per `ExtendTo`.
  const std::vector<int64_t>& segment_bounds() const { return bounds_; }

 private:
  std::vector<int64_t> epoch_rows_;  // shuffled rows [bounds_[0], size())
  std::vector<int64_t> bounds_;      // cumulative segment ends
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
