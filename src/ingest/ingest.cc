#include "ingest/ingest.h"

#include <filesystem>
#include <string>
#include <utility>

#include "chaos/fault_injector.h"
#include "common/logging.h"
#include "common/string_util.h"

namespace idebench::ingest {

RowBatch BatchFromTable(const storage::Table& source, int64_t begin,
                        int64_t end) {
  RowBatch batch;
  if (begin < 0) begin = 0;
  if (end > source.num_rows()) end = source.num_rows();
  if (begin >= end) return batch;
  batch.rows.reserve(static_cast<size_t>(end - begin));
  for (int64_t r = begin; r < end; ++r) {
    std::vector<std::string> fields;
    fields.reserve(static_cast<size_t>(source.num_columns()));
    for (int c = 0; c < source.num_columns(); ++c) {
      fields.push_back(source.column(c).ValueAsString(r));
    }
    batch.rows.push_back(std::move(fields));
  }
  return batch;
}

namespace {

/// Validates one field against its column type without appending: the
/// same strict parses `Column::AppendParsed` performs, run up front so a
/// bad row anywhere in a batch rejects the whole batch before any column
/// is touched (all-or-nothing; columns have no truncate to roll back
/// with).  Strings always parse.
Status ValidateField(const storage::Column& col, const std::string& text) {
  switch (col.type()) {
    case storage::DataType::kInt64: {
      int64_t v = 0;
      if (ParseInt64Strict(Trim(text), &v) != StrictParseResult::kOk) {
        return Status::Invalid("column '" + col.name() +
                               "': cannot parse int64 from '" + text + "'");
      }
      return Status::OK();
    }
    case storage::DataType::kDouble: {
      double v = 0.0;
      if (ParseDoubleStrict(Trim(text), &v) != StrictParseResult::kOk) {
        return Status::Invalid("column '" + col.name() +
                               "': cannot parse double from '" + text + "'");
      }
      return Status::OK();
    }
    case storage::DataType::kString:
      return Status::OK();
  }
  return Status::Invalid("column '" + col.name() + "': unknown type");
}

/// Shared Create/CreateDurable/Recover validation: resolves the fact
/// table and checks the catalog shape and capacity.  Does NOT touch the
/// table yet.
Result<std::shared_ptr<storage::Table>> ResolveFactTable(
    const std::shared_ptr<storage::Catalog>& catalog, int64_t capacity) {
  if (catalog == nullptr || catalog->fact_table() == nullptr) {
    return Status::Invalid("ingest: empty catalog");
  }
  if (catalog->is_normalized()) {
    // Join indexes are built per-dimension and treated as immutable by
    // every engine; growing the fact side would silently desynchronize
    // them.  Denormalize first (storage::Denormalize) to ingest.
    return Status::Invalid(
        "streaming ingest requires a denormalized catalog");
  }
  std::shared_ptr<storage::Table> fact =
      catalog->GetTableShared(catalog->fact_table()->name());
  if (fact == nullptr) {
    return Status::Invalid("ingest: fact table not shared through catalog");
  }
  if (capacity < fact->num_rows()) {
    return Status::Invalid("ingest capacity " + std::to_string(capacity) +
                           " below current row count " +
                           std::to_string(fact->num_rows()));
  }
  return fact;
}

}  // namespace

Ingestor::~Ingestor() = default;

std::string Ingestor::WalPath(const std::string& wal_dir) {
  return wal_dir + "/ingest.wal";
}

Result<std::unique_ptr<Ingestor>> Ingestor::Create(
    const std::shared_ptr<storage::Catalog>& catalog, int64_t capacity) {
  IDB_ASSIGN_OR_RETURN(std::shared_ptr<storage::Table> fact,
                       ResolveFactTable(catalog, capacity));
  // One up-front reservation keeps every column's storage at a stable
  // address for the ingestor's lifetime: compiled kernels cache raw data
  // pointers, and an append-triggered reallocation would dangle them.
  fact->Reserve(capacity);
  fact->BeginIngest();
  return std::unique_ptr<Ingestor>(new Ingestor(std::move(fact), capacity));
}

Result<std::unique_ptr<Ingestor>> Ingestor::CreateDurable(
    const std::shared_ptr<storage::Catalog>& catalog, int64_t capacity,
    const std::string& wal_dir, WalOptions options) {
  IDB_ASSIGN_OR_RETURN(std::shared_ptr<storage::Table> fact,
                       ResolveFactTable(catalog, capacity));
  std::error_code ec;
  std::filesystem::create_directories(wal_dir, ec);
  if (ec) {
    return Status::IOError("cannot create wal dir '" + wal_dir +
                           "': " + ec.message());
  }
  WalHeader header;
  header.table_name = fact->name();
  header.baseline_rows = fact->num_rows();
  header.num_columns = fact->num_columns();
  IDB_ASSIGN_OR_RETURN(std::unique_ptr<WalWriter> wal,
                       WalWriter::Create(WalPath(wal_dir), header, options));
  fact->Reserve(capacity);
  fact->BeginIngest();
  std::unique_ptr<Ingestor> ingestor(
      new Ingestor(std::move(fact), capacity));
  ingestor->wal_ = std::move(wal);
  return ingestor;
}

Result<std::unique_ptr<Ingestor>> Ingestor::Recover(
    const std::shared_ptr<storage::Catalog>& catalog, int64_t capacity,
    const std::string& wal_dir, WalOptions options, RecoverInfo* info) {
  IDB_ASSIGN_OR_RETURN(std::shared_ptr<storage::Table> fact,
                       ResolveFactTable(catalog, capacity));
  const std::string path = WalPath(wal_dir);
  IDB_ASSIGN_OR_RETURN(WalScan scan, ReadWal(path));
  if (scan.records.empty() ||
      scan.records.front().type != WalRecordType::kHeader) {
    return Status::Invalid("wal '" + path + "' has no header record");
  }
  // The baseline must be the exact state the log was written against —
  // replaying over anything else would fabricate rows that never passed
  // through Append.
  const WalHeader& header = scan.header;
  if (header.table_name != fact->name()) {
    return Status::Invalid("wal '" + path + "' is for table '" +
                           header.table_name + "', catalog has '" +
                           fact->name() + "'");
  }
  if (header.num_columns != fact->num_columns()) {
    return Status::Invalid(
        "wal '" + path + "' has " + std::to_string(header.num_columns) +
        " columns, catalog has " + std::to_string(fact->num_columns()));
  }
  if (header.baseline_rows != fact->num_rows()) {
    return Status::Invalid(
        "wal '" + path + "' baseline is " +
        std::to_string(header.baseline_rows) + " rows, catalog has " +
        std::to_string(fact->num_rows()) +
        " — not the baseline this log was created against");
  }

  fact->Reserve(capacity);
  fact->BeginIngest();

  RecoverInfo local;
  int64_t batches_replayed = 0;
  const int ncols = fact->num_columns();
  for (const WalRecord& rec : scan.records) {
    const bool committed = rec.offset + rec.bytes <= scan.committed_bytes;
    switch (rec.type) {
      case WalRecordType::kHeader:
        break;
      case WalRecordType::kBatch: {
        if (!committed) {
          // Logged but never followed by a durable commit: the epoch was
          // never visible, so it must not become visible now.
          local.uncommitted_rows_dropped +=
              static_cast<int64_t>(rec.rows.size());
          break;
        }
        if (fact->num_rows() + static_cast<int64_t>(rec.rows.size()) >
            capacity) {
          return Status::ResourceExhausted(
              "wal replay exceeds ingest capacity " +
              std::to_string(capacity));
        }
        for (const std::vector<std::string>& row : rec.rows) {
          if (static_cast<int>(row.size()) != ncols) {
            return Status::Invalid("wal '" + path + "': batch row has " +
                                   std::to_string(row.size()) +
                                   " fields, table has " +
                                   std::to_string(ncols) + " columns");
          }
          for (int c = 0; c < ncols; ++c) {
            // Batches were validated before being logged, so a replay
            // parse failure means the log and catalog disagree.
            IDB_RETURN_NOT_OK(fact->mutable_column(c).AppendParsed(
                row[static_cast<size_t>(c)]));
          }
          ++local.rows_replayed;
        }
        ++batches_replayed;
        break;
      }
      case WalRecordType::kCommit: {
        if (!committed) break;  // unreachable: a commit commits itself
        if (rec.watermark != fact->num_rows()) {
          return Status::Invalid(
              "wal '" + path + "': commit watermark " +
              std::to_string(rec.watermark) + " != replayed row count " +
              std::to_string(fact->num_rows()));
        }
        fact->PublishEpoch();
        ++local.epochs_replayed;
        break;
      }
    }
  }
  IDB_CHECK(fact->staged_rows() == 0);  // committed prefix ends at a commit
  local.watermark = fact->visible_rows();
  local.torn_bytes_dropped = static_cast<int64_t>(scan.torn_bytes);

  IDB_ASSIGN_OR_RETURN(std::unique_ptr<WalWriter> wal,
                       WalWriter::Resume(path, scan, options));
  std::unique_ptr<Ingestor> ingestor(
      new Ingestor(std::move(fact), capacity));
  ingestor->wal_ = std::move(wal);
  // Seed the telemetry so serving counters reflect the whole log's
  // history, not just the post-recovery tail.
  ingestor->stats_.rows_staged = local.rows_replayed;
  ingestor->stats_.batches = batches_replayed;
  ingestor->stats_.epochs_published = local.epochs_replayed;
  if (info != nullptr) *info = local;
  return ingestor;
}

Status Ingestor::Append(const RowBatch& batch) {
  if (batch.empty()) return Status::OK();
  // Chaos site: the append fails I/O-style before staging any row.  The
  // open epoch is untouched, so a retry (or a later batch) starts clean.
  if (chaos::FaultInjector::Fire(chaos::FaultSite::kIngestAppend)) {
    ++stats_.append_faults;
    return Status::IOError("injected ingest append fault");
  }
  if (table_->num_rows() + batch.size() > capacity_) {
    stats_.rejected_rows += batch.size();
    return Status::ResourceExhausted(
        "ingest capacity exhausted: " + std::to_string(table_->num_rows()) +
        " rows + batch of " + std::to_string(batch.size()) + " > " +
        std::to_string(capacity_));
  }
  const int ncols = table_->num_columns();
  for (const std::vector<std::string>& row : batch.rows) {
    if (static_cast<int>(row.size()) != ncols) {
      stats_.rejected_rows += batch.size();
      return Status::Invalid("ingest row has " + std::to_string(row.size()) +
                             " fields, want " + std::to_string(ncols));
    }
    for (int c = 0; c < ncols; ++c) {
      const Status st =
          ValidateField(table_->column(c), row[static_cast<size_t>(c)]);
      if (!st.ok()) {
        stats_.rejected_rows += batch.size();
        return st;
      }
    }
  }
  // Log-then-stage: the batch reaches the WAL before any column sees it,
  // so replay can never contain fewer rows than the table (the converse —
  // logged but not staged, because we crashed right here — is exactly
  // what commit records exist to exclude from recovery).
  if (wal_ != nullptr) {
    const Status st = wal_->AppendBatch(batch.rows);
    if (!st.ok()) {
      stats_.rejected_rows += batch.size();
      return st;
    }
  }
  // Every row validated: the appends below cannot fail.
  for (const std::vector<std::string>& row : batch.rows) {
    for (int c = 0; c < ncols; ++c) {
      const Status st =
          table_->mutable_column(c).AppendParsed(row[static_cast<size_t>(c)]);
      IDB_CHECK(st.ok());  // pre-validated above: cannot fail
    }
  }
  stats_.rows_staged += batch.size();
  ++stats_.batches;
  return Status::OK();
}

Result<int64_t> Ingestor::Publish() {
  // Chaos site: the publish fails before the watermark moves.  Staged
  // rows stay invisible; the next successful publish folds them in.
  if (chaos::FaultInjector::Fire(chaos::FaultSite::kIngestPublish)) {
    ++stats_.publish_faults;
    return Status::IOError("injected ingest publish fault");
  }
  const int64_t staged = table_->staged_rows();
  // Commit-then-publish: the epoch is durable (per the sync policy)
  // before it becomes visible, so recovery can never show a watermark
  // the log cannot justify.  On failure the WAL has already rolled the
  // commit record back — staged rows stay invisible, the watermark does
  // not move, and the next successful publish folds them in.
  if (wal_ != nullptr && staged > 0) {
    IDB_RETURN_NOT_OK(wal_->AppendCommit(table_->num_rows(),
                                         stats_.epochs_published + 1));
  }
  const int64_t watermark = table_->PublishEpoch();
  if (staged > 0) ++stats_.epochs_published;
  return watermark;
}

Status Ingestor::SyncWal() {
  if (wal_ == nullptr) return Status::OK();
  return wal_->Sync();
}

}  // namespace idebench::ingest
