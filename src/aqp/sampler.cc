#include "aqp/sampler.h"

#include <algorithm>
#include <cmath>
#include <numeric>
#include <unordered_map>

#include "common/logging.h"

namespace idebench::aqp {

ShuffledIndex::ShuffledIndex(int64_t base_rows)
    : bounds_{std::max<int64_t>(base_rows, 0)} {}

void ShuffledIndex::GatherWalk(int64_t key, int64_t start_pos, int64_t count,
                               int64_t* out) const {
  if (size() <= 0 || count <= 0) return;
  IDB_CHECK(key >= 0 && start_pos >= 0);
  // Locate the segment containing start_pos, then stream runs segment by
  // segment; within a segment the walk is a ring rotated by key % len,
  // so each segment yields at most two runs.
  size_t seg = static_cast<size_t>(
      std::upper_bound(bounds_.begin(), bounds_.end(), start_pos) -
      bounds_.begin());
  int64_t pos = start_pos;
  int64_t remaining = count;
  while (remaining > 0) {
    IDB_CHECK(seg < bounds_.size());  // positions must stay below size()
    const int64_t s0 = seg == 0 ? 0 : bounds_[seg - 1];
    const int64_t s1 = bounds_[seg];
    const int64_t len = s1 - s0;
    const int64_t take = std::min(remaining, s1 - pos);
    int64_t local = (key % len + (pos - s0)) % len;
    int64_t left = take;
    while (left > 0) {
      const int64_t run = std::min(left, len - local);
      if (seg == 0) {
        std::iota(out, out + run, local);  // the base: the table's order
      } else {
        std::copy_n(epoch_rows_.begin() +
                        static_cast<ptrdiff_t>(s0 - bounds_[0] + local),
                    static_cast<size_t>(run), out);
      }
      out += run;
      left -= run;
      local = 0;
    }
    remaining -= take;
    pos += take;
    ++seg;
  }
}

int64_t ShuffledIndex::BaseRun(int64_t key, int64_t start_pos,
                               int64_t count) const {
  IDB_CHECK(key >= 0 && start_pos >= 0);
  const int64_t base = bounds_[0];
  if (base <= 0 || start_pos + count > base) return -1;  // reaches an epoch
  const int64_t first = (key % base + start_pos) % base;
  return first + count <= base ? first : -1;
}

void ShuffledIndex::ExtendTo(int64_t new_n, Rng* rng) {
  const int64_t old_n = size();
  if (new_n <= old_n) return;
  std::vector<int64_t> tail(static_cast<size_t>(new_n - old_n));
  std::iota(tail.begin(), tail.end(), old_n);
  rng->Shuffle(&tail);
  epoch_rows_.insert(epoch_rows_.end(), tail.begin(), tail.end());
  bounds_.push_back(new_n);
}

Result<StratifiedSample> BuildStratifiedSample(const storage::Table& table,
                                               const std::string& strat_column,
                                               double rate,
                                               int64_t min_per_stratum,
                                               Rng* rng,
                                               int64_t row_begin,
                                               int64_t row_end) {
  if (rate <= 0.0 || rate > 1.0) {
    return Status::Invalid("sampling rate must be in (0, 1]");
  }
  if (row_end < 0) row_end = table.num_rows();
  if (row_begin < 0 || row_end > table.num_rows() || row_begin > row_end) {
    return Status::OutOfBounds("stratified sample row range out of bounds");
  }
  const int64_t n = row_end - row_begin;

  // Partition row ids into strata.
  std::unordered_map<double, std::vector<int64_t>> strata;
  if (strat_column.empty()) {
    strata[0.0].reserve(static_cast<size_t>(n));
    for (int64_t r = row_begin; r < row_end; ++r) strata[0.0].push_back(r);
  } else {
    const storage::Column* col = table.ColumnByName(strat_column);
    if (col == nullptr) {
      return Status::KeyError("stratification column '" + strat_column +
                              "' not found");
    }
    for (int64_t r = row_begin; r < row_end; ++r) {
      strata[col->ValueAsDouble(r)].push_back(r);
    }
  }

  StratifiedSample out;
  out.base_rows = n;
  out.num_strata = static_cast<int64_t>(strata.size());

  // Deterministic iteration order: sort strata by key.
  std::vector<double> keys;
  keys.reserve(strata.size());
  for (const auto& [key, rows] : strata) keys.push_back(key);
  std::sort(keys.begin(), keys.end());

  for (double key : keys) {
    std::vector<int64_t>& rows = strata[key];
    const int64_t stratum_size = static_cast<int64_t>(rows.size());
    int64_t take = static_cast<int64_t>(
        std::llround(rate * static_cast<double>(stratum_size)));
    take = std::max(take, min_per_stratum);
    take = std::min(take, stratum_size);
    if (take <= 0) continue;
    rng->Shuffle(&rows);
    const double weight =
        static_cast<double>(stratum_size) / static_cast<double>(take);
    for (int64_t i = 0; i < take; ++i) {
      out.rows.push_back(rows[static_cast<size_t>(i)]);
      out.weights.push_back(weight);
    }
  }
  return out;
}

}  // namespace idebench::aqp
