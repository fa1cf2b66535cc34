#ifndef IDEBENCH_STORAGE_TABLE_H_
#define IDEBENCH_STORAGE_TABLE_H_

/// \file table.h
/// An immutable-schema, append-only in-memory columnar table.

#include <memory>
#include <string>
#include <vector>

#include "common/result.h"
#include "storage/column.h"
#include "storage/schema.h"

namespace idebench::storage {

/// A named columnar table.  Rows are appended through typed column access;
/// all columns always have equal length.
class Table {
 public:
  /// Creates an empty table with the given schema.
  Table(std::string name, Schema schema);

  const std::string& name() const { return name_; }
  const Schema& schema() const { return schema_; }

  /// Number of rows (all columns agree).
  int64_t num_rows() const;

  /// Number of columns.
  int num_columns() const { return static_cast<int>(columns_.size()); }

  /// Column at position `i`.
  const Column& column(int i) const { return *columns_[static_cast<size_t>(i)]; }
  Column& mutable_column(int i) { return *columns_[static_cast<size_t>(i)]; }

  /// Column by name; nullptr when absent.
  const Column* ColumnByName(const std::string& name) const;
  Column* MutableColumnByName(const std::string& name);

  /// Index of the column named `name`, or -1.
  int ColumnIndex(const std::string& name) const {
    return schema_.FieldIndex(name);
  }

  /// Reserves capacity in every column.
  void Reserve(int64_t n);

  /// A new table with this one's name and schema holding a copy of rows
  /// [0, rows).  Each column copies on its own, in row order, so its
  /// values, dictionary and stats equal those of a row-by-row copy.
  std::shared_ptr<Table> Prefix(int64_t rows) const;

  /// Verifies that all columns have equal length.
  Status Validate() const;

  /// Renders row `i` as comma-separated text (debugging aid).
  std::string RowToString(int64_t i) const;

  // --- Epoch visibility (streaming ingest) ---------------------------
  //
  // `BeginIngest` seals the current contents as epoch 0 and switches the
  // table to epoch-visibility mode: subsequent appends land in an *open*
  // epoch that readers cannot see until `PublishEpoch` moves the
  // watermark over them atomically (single-threaded protocol: all
  // appends and publishes happen on the serving scheduler thread,
  // between engine calls).  Readers pin `visible_rows()` at query
  // submission and never look past it, so progressive refinement stays
  // bit-identical to a run against a table frozen at that watermark.

  /// Enters ingest mode: the current rows become epoch 0 (all visible)
  /// and every column's stats are published at this boundary.  Idempotent.
  void BeginIngest();

  /// Publishes all staged rows as one new epoch, advancing the visible
  /// watermark and republishing column stats.  No-op when nothing is
  /// staged (no empty epochs).  Returns the new watermark.
  int64_t PublishEpoch();

  /// Rows visible to readers: the published watermark under ingest mode,
  /// `num_rows()` otherwise.
  int64_t visible_rows() const {
    return ingest_enabled_ ? epoch_rows_.back() : num_rows();
  }

  /// Rows staged in the open epoch (appended but not yet published).
  int64_t staged_rows() const {
    return ingest_enabled_ ? num_rows() - epoch_rows_.back() : 0;
  }

  /// Cumulative row watermarks, one per published epoch: {N0, W1, ...}.
  /// Empty until `BeginIngest`.
  const std::vector<int64_t>& epoch_boundaries() const { return epoch_rows_; }

  bool ingest_enabled() const { return ingest_enabled_; }

 private:
  std::string name_;
  Schema schema_;
  std::vector<std::unique_ptr<Column>> columns_;
  bool ingest_enabled_ = false;
  std::vector<int64_t> epoch_rows_;  // watermark after each published epoch
};

}  // namespace idebench::storage

#endif  // IDEBENCH_STORAGE_TABLE_H_
