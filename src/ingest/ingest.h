#ifndef IDEBENCH_INGEST_INGEST_H_
#define IDEBENCH_INGEST_INGEST_H_

/// \file ingest.h
/// Streaming ingest: rows arrive while sessions serve progressive queries.
///
/// The `Ingestor` is the single writer of a catalog's fact table under the
/// epoch-visibility protocol (`storage::Table::BeginIngest`):
///
///  * `Append` stages whole row batches into the *open* epoch.  Staged
///    rows are invisible to every reader — engines pin
///    `Table::visible_rows()` at query submission and never look past it.
///  * `Publish` moves the visible watermark over all staged rows in one
///    atomic step (and republishes per-column min/max/dictionary stats at
///    the boundary), creating a new epoch.  A query submitted afterwards
///    sees the new rows; queries already in flight keep refining against
///    their pinned watermark, bit-identical to a run against a table
///    frozen there.
///
/// Threading contract: appends and publishes happen on the serving
/// scheduler thread, interleaved *between* scheduler calls — the caller
/// guarantees this, as `net::Server` does on each loop pass and the
/// chaos `ingest_storm` scenario does mid-tick.  Nothing here is
/// thread-safe on its own — the protocol is what makes concurrent-looking
/// ingest safe, not locks.
///
/// Capacity contract: compiled scan kernels hold raw `Int64Data()` /
/// `DoubleData()` pointers into the fact columns, so the columns must
/// never reallocate once queries run.  `Create` reserves `capacity` rows
/// in every column up front and `Append` refuses to grow past it
/// (`ResourceExhausted`), keeping every kernel pointer valid for the
/// ingestor's lifetime.
///
/// Durability (opt-in via `CreateDurable`/`Recover`): a write-ahead log
/// (`ingest/wal.h`) records every accepted batch before it stages and
/// every publish before the watermark moves, fsynced per `WalOptions`.
/// After a crash, `Recover` replays the committed prefix over the same
/// baseline and reconstructs the identical epoch history — post-recovery
/// queries (stats, shuffled walks, reuse-cache watermarks) are
/// bit-identical to a process that never crashed.
///
/// Scope: streaming ingest requires a *denormalized* catalog (single
/// fact table).  Appending to a normalized star schema would need
/// foreign-key maintenance on the join indexes, which are built once per
/// dimension and treated as immutable; `Create`
/// rejects such catalogs.

#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "common/result.h"
#include "common/status.h"
#include "ingest/wal.h"
#include "storage/catalog.h"
#include "storage/table.h"

namespace idebench::ingest {

/// One append batch: rows of text fields in fact-schema column order.
/// Fields parse through the same strict path as CSV load
/// (`Column::AppendParsed`), so an ingested row is bit-identical to the
/// same row loaded at startup.
struct RowBatch {
  std::vector<std::vector<std::string>> rows;

  int64_t size() const { return static_cast<int64_t>(rows.size()); }
  bool empty() const { return rows.empty(); }
};

/// Builds a batch from rows [begin, end) of `source` (rendered as text in
/// schema order).  This is how a CSV tail held in a staging table replays
/// through the ingest path.  Out-of-range bounds are clamped.
RowBatch BatchFromTable(const storage::Table& source, int64_t begin,
                        int64_t end);

/// Parses comma-separated lines (no quoting — matches the repo's CSV
/// dialect) into a batch.  Fails on a line whose field count differs from
/// `num_fields`.
Result<RowBatch> BatchFromCsvLines(const std::vector<std::string>& lines,
                                   int num_fields);

/// Cumulative ingest telemetry.
struct IngestStats {
  int64_t rows_staged = 0;       // rows accepted into the open epoch
  int64_t batches = 0;           // successful Append calls
  int64_t epochs_published = 0;  // Publish calls that moved the watermark
  int64_t append_faults = 0;     // injected ingest.append failures
  int64_t publish_faults = 0;    // injected ingest.publish failures
  int64_t rejected_rows = 0;     // rows refused (capacity / parse errors)
};

/// What a WAL replay reconstructed (all counts post-baseline).
struct RecoverInfo {
  int64_t epochs_replayed = 0;
  int64_t rows_replayed = 0;
  int64_t watermark = 0;                // recovered visible watermark
  int64_t uncommitted_rows_dropped = 0; // logged but never committed
  int64_t torn_bytes_dropped = 0;       // crash debris truncated off
};

/// The single-writer ingest front door for one catalog's fact table.
class Ingestor {
 public:
  /// Binds an ingestor to `catalog`'s fact table: reserves `capacity`
  /// total rows (must be >= the current row count) in every column and
  /// enters epoch-visibility mode (`BeginIngest`).  Fails on empty or
  /// normalized catalogs — see the header comment for why.
  static Result<std::unique_ptr<Ingestor>> Create(
      const std::shared_ptr<storage::Catalog>& catalog, int64_t capacity);

  /// Like `Create`, plus durability: starts a fresh WAL in `wal_dir`
  /// (created if missing) whose header pins the fact table's name, column
  /// count, and current row count as the replay baseline.  Every accepted
  /// batch is logged before it stages and every publish is logged (and
  /// fsynced per `options`) before the watermark moves.
  static Result<std::unique_ptr<Ingestor>> CreateDurable(
      const std::shared_ptr<storage::Catalog>& catalog, int64_t capacity,
      const std::string& wal_dir, WalOptions options = WalOptions());

  /// Rebuilds a crashed ingestor: replays the WAL in `wal_dir` over
  /// `catalog` (which must hold the same baseline the WAL was created
  /// against — same fact table name, columns, and row count).  Only
  /// fully committed epochs are replayed, in original batch/publish
  /// order, so the recovered watermark equals the last durable publish
  /// and the epoch history — hence every epoch-seeded shuffled walk —
  /// is bit-identical to the uncrashed process's.  The log itself is
  /// truncated to the committed prefix and appending resumes.  On
  /// failure the catalog may be partially mutated: discard it.
  static Result<std::unique_ptr<Ingestor>> Recover(
      const std::shared_ptr<storage::Catalog>& catalog, int64_t capacity,
      const std::string& wal_dir, WalOptions options = WalOptions(),
      RecoverInfo* info = nullptr);

  /// The WAL file inside `wal_dir` ("<dir>/ingest.wal").
  static std::string WalPath(const std::string& wal_dir);

  ~Ingestor();

  /// Stages `batch` into the open epoch.  All-or-nothing: the whole batch
  /// is validated (field counts and strict scalar parses) before any row
  /// lands, so a failed append leaves the open epoch exactly as it was.
  /// Chaos site `ingest.append` fails here, before staging.  Fails with
  /// `ResourceExhausted` when the batch would exceed the reserved
  /// capacity (kernel pointers must never dangle — see header).
  Status Append(const RowBatch& batch);

  /// Publishes all staged rows as one epoch; returns the new watermark.
  /// Chaos site `ingest.publish` fails *before* the watermark moves:
  /// staged rows stay invisible and a later publish picks them up
  /// (visibility is atomic or not at all).  Publishing with nothing
  /// staged is a no-op returning the current watermark.
  Result<int64_t> Publish();

  /// Rows visible to readers (the published watermark).
  int64_t visible_rows() const { return table_->visible_rows(); }

  /// Rows staged in the open epoch.
  int64_t staged_rows() const { return table_->staged_rows(); }

  /// Total row capacity reserved at creation.
  int64_t capacity() const { return capacity_; }

  /// True when a WAL is attached and every logged byte is on disk: the
  /// serving layer reports this per append/publish so clients know
  /// whether their rows would survive a crash right now.
  bool durable() const { return wal_ != nullptr && wal_->durable(); }

  /// The attached WAL, or nullptr for a volatile (Create'd) ingestor.
  const WalWriter* wal() const { return wal_.get(); }

  /// Flushes the WAL tail to disk (group-commit drain / SIGTERM path).
  /// No-op without a WAL.
  Status SyncWal();

  const IngestStats& stats() const { return stats_; }

  const storage::Table& table() const { return *table_; }

 private:
  Ingestor(std::shared_ptr<storage::Table> table, int64_t capacity)
      : table_(std::move(table)), capacity_(capacity) {}

  std::shared_ptr<storage::Table> table_;
  int64_t capacity_ = 0;
  std::unique_ptr<WalWriter> wal_;
  IngestStats stats_;
};

}  // namespace idebench::ingest

#endif  // IDEBENCH_INGEST_INGEST_H_
