#ifndef IDEBENCH_INGEST_WAL_H_
#define IDEBENCH_INGEST_WAL_H_

/// \file wal.h
/// Write-ahead log for streaming ingest: the durability half of the
/// epoch-visibility protocol.
///
/// The single-writer `Ingestor` logs every accepted batch and every
/// publish before it takes effect in memory, so a crashed process can be
/// rebuilt by replaying the log over the segment-cache baseline.  The
/// recovery contract (enforced by `Ingestor::Recover` and swept by
/// `tools/crash_runner`):
///
///  * only fully committed epochs become visible — a batch without a
///    following commit record is dropped wholesale;
///  * the recovered watermark equals the last durable publish;
///  * because a sampling walk is a pure function of (seed, epoch
///    history), post-recovery queries are bit-identical to a process
///    that never crashed.
///
/// Record framing (native-endian, like `storage/segment.cc` — the magic
/// doubles as an endianness check), written and parsed through the codec
/// the two formats share (`storage/durable_io.h`: FNV-1a, put helpers,
/// `ByteReader`, and the `WriteHalves` loop that draws the chaos sites):
///
///     [u32 magic 'IWAL'] [u8 type] [u64 sequence] [u32 payload_bytes]
///     [payload ...] [u64 fnv1a over all preceding record bytes]
///
/// Types: header (0) — table name, baseline row count, column count,
/// written once at creation; batch (1) — row count, column count, then
/// length-prefixed text fields row-major (the exact strings that feed
/// `Column::AppendParsed`, so a replayed row is bit-identical to the
/// original append); commit (2) — the new watermark and epoch ordinal.
/// Sequences are dense from 0: a gap with valid checksums means records
/// from two different logs were spliced, which is rejected.
///
/// Torn tail vs. corruption: when a record fails validation, the reader
/// scans forward for any later fully valid record.  None found → the
/// damage reaches EOF, i.e. a torn tail from a crash mid-append: it is
/// truncated away (only ever uncommitted data, because commits are
/// fsynced before being acknowledged).  Found → damage *inside* the log
/// with intact history after it: that is bit rot, and the whole log is
/// rejected rather than silently dropping a committed epoch.
///
/// Failed-write discipline: on any mid-record write fault or a failed
/// commit fsync the writer ftruncates back to the pre-record offset, so
/// the on-disk log always equals the committed history plus whole batch
/// records.  This is what keeps replayed epoch boundaries identical to
/// the live process's: a commit record must never survive a publish that
/// reported failure.
///
/// Fsync policy: `kEveryCommit` syncs inside every `AppendCommit` (a
/// publish that returns OK is durable); `kGrouped` syncs every
/// `group_commit_interval` commits (bounded-loss group commit — `Sync`
/// drains the remainder, e.g. on SIGTERM); `kNone` never syncs except on
/// explicit `Sync` (benchmark baseline).
///
/// Chaos sites `wal.append`, `wal.commit`, `wal.fsync` fire mid-write /
/// at the sync exactly as documented in `chaos/fault_injector.h`.  The
/// header record draws none, so draw indices count from the first batch
/// and commit; wal.fsync draws once per sync the policy performs.

#include <cstdint>
#include <memory>
#include <optional>
#include <string>
#include <vector>

#include "chaos/fault_injector.h"
#include "common/result.h"
#include "common/status.h"

namespace idebench::ingest {

enum class WalRecordType : uint8_t {
  kHeader = 0,
  kBatch = 1,
  kCommit = 2,
};

/// When the log reaches disk relative to commits.
enum class WalSync {
  kEveryCommit = 0,  // fsync inside every AppendCommit
  kGrouped = 1,      // fsync every group_commit_interval commits
  kNone = 2,         // only on explicit Sync()
};

struct WalOptions {
  WalSync sync = WalSync::kEveryCommit;
  /// Commits between fsyncs under kGrouped (>= 1).
  int64_t group_commit_interval = 8;
};

/// "every_commit", "grouped" or "none".
const char* WalSyncName(WalSync sync);

/// The inverse of `WalSyncName`: sets `*sync` and returns true when
/// `name` names a policy, false otherwise.
bool ParseWalSync(const std::string& name, WalSync* sync);

/// The creation-time identity record: recovery refuses to replay a log
/// over a baseline it was not written against.
struct WalHeader {
  std::string table_name;
  int64_t baseline_rows = 0;
  int num_columns = 0;
};

/// One decoded record (fields populated per `type`).
struct WalRecord {
  WalRecordType type = WalRecordType::kHeader;
  uint64_t sequence = 0;
  uint64_t offset = 0;  // byte offset of the record's frame start
  uint64_t bytes = 0;   // total framed size

  WalHeader header;                            // kHeader
  std::vector<std::vector<std::string>> rows;  // kBatch
  int64_t watermark = 0;                       // kCommit
  int64_t epoch = 0;                           // kCommit
};

/// Everything a scan of the log yields.
struct WalScan {
  WalHeader header;
  std::vector<WalRecord> records;  // every valid record, header included
  uint64_t valid_bytes = 0;        // end of the last valid record
  uint64_t committed_bytes = 0;    // end of the last commit record
  uint64_t torn_bytes = 0;         // truncated torn tail (crash debris)
  int64_t last_commit_watermark = -1;  // -1: no commit in the log
  int64_t commits = 0;
  uint64_t next_sequence = 0;  // one past the last valid record
};

/// Scans `path` front to back.  Fails IOError when the file cannot be
/// read and Invalid on mid-log corruption (see torn-tail vs. corruption
/// above); a torn tail is not an error, it is reported via `torn_bytes`.
Result<WalScan> ReadWal(const std::string& path);

/// Cumulative writer telemetry (surfaced through server stats).
struct WalStats {
  int64_t batches_logged = 0;
  int64_t commits_logged = 0;
  int64_t syncs = 0;            // completed fsyncs
  int64_t bytes_logged = 0;     // bytes surviving on disk
  int64_t append_faults = 0;    // injected wal.append fires
  int64_t commit_faults = 0;    // injected wal.commit fires
  int64_t fsync_faults = 0;     // injected wal.fsync fires
  int64_t rollback_bytes = 0;   // bytes truncated back after faults
};

/// The append-only writer.  Single-threaded like its owner (`Ingestor`).
class WalWriter {
 public:
  /// Creates a fresh log at `path` (truncating any previous file) and
  /// durably writes the header record.
  static Result<std::unique_ptr<WalWriter>> Create(const std::string& path,
                                                   const WalHeader& header,
                                                   WalOptions options);

  /// Resumes appending to an existing log that a scan validated:
  /// truncates the file to `committed_bytes` (dropping the uncommitted
  /// tail the replay also dropped — the log and the table must tell the
  /// same story) and continues the sequence at `next_sequence`.
  static Result<std::unique_ptr<WalWriter>> Resume(const std::string& path,
                                                   const WalScan& scan,
                                                   WalOptions options);

  ~WalWriter();
  WalWriter(const WalWriter&) = delete;
  WalWriter& operator=(const WalWriter&) = delete;

  /// Logs one append batch.  On any failure the log is truncated back to
  /// the previous record boundary and nothing is considered logged.
  Status AppendBatch(const std::vector<std::vector<std::string>>& rows);

  /// Logs one epoch commit and makes it durable per the sync policy.  On
  /// failure (write fault or commit-time fsync fault) the commit record
  /// is rolled back off the log entirely: a publish that reports failure
  /// leaves no trace for replay to disagree with.
  Status AppendCommit(int64_t watermark, int64_t epoch);

  /// Flushes everything logged so far to disk (group-commit drain; also
  /// the SIGTERM path).  No-op when already durable.
  Status Sync();

  /// True when every logged byte has been fsynced.
  bool durable() const { return synced_bytes_ == offset_; }

  const WalStats& stats() const { return stats_; }
  const WalOptions& options() const { return options_; }
  const std::string& path() const { return path_; }

 private:
  WalWriter(std::string path, int fd, WalOptions options);

  /// Writes one framed record, drawing `site` mid-write and counting its
  /// fires in `*fault_counter`; truncates back to the pre-record offset
  /// on any failure.
  Status WriteRecord(const std::string& frame,
                     std::optional<chaos::FaultSite> site,
                     int64_t* fault_counter);
  Status SyncInternal(uint64_t rollback_to, int64_t* fault_counter);

  std::string path_;
  int fd_ = -1;
  WalOptions options_;
  uint64_t offset_ = 0;        // bytes in the log (all records whole)
  uint64_t synced_bytes_ = 0;  // bytes known durable
  uint64_t next_sequence_ = 0;
  int64_t commits_since_sync_ = 0;
  WalStats stats_;
};

}  // namespace idebench::ingest

#endif  // IDEBENCH_INGEST_WAL_H_
