#include "ingest/wal.h"

#include <fcntl.h>
#include <sys/stat.h>
#include <unistd.h>

#include <filesystem>
#include <fstream>
#include <utility>

#include "chaos/fault_injector.h"
#include "common/logging.h"
#include "storage/durable_io.h"

namespace idebench::ingest {

namespace {

// 'I''W''A''L' read back as a native-endian u32 on a little-endian host.
// Same trick as the segment magic: a log from a different-endian machine
// fails this compare before any multi-byte field is trusted.
constexpr uint32_t kWalMagic = 0x4C415749u;
constexpr uint64_t kFrameHeaderBytes = 4 + 1 + 8 + 4;  // magic,type,seq,len
constexpr uint64_t kFrameTrailerBytes = 8;             // fnv1a
constexpr uint64_t kMinFrameBytes = kFrameHeaderBytes + kFrameTrailerBytes;

using storage::ByteReader;
using storage::ErrnoStatus;
using storage::Fnv1a;
using storage::PutString;
using storage::PutU32;
using storage::PutU64;
using storage::PutU8;

/// Frames one record: header, payload, fnv1a over everything preceding.
std::string FrameRecord(WalRecordType type, uint64_t sequence,
                        const std::string& payload) {
  std::string frame;
  frame.reserve(kMinFrameBytes + payload.size());
  PutU32(&frame, kWalMagic);
  PutU8(&frame, static_cast<uint8_t>(type));
  PutU64(&frame, sequence);
  PutU32(&frame, static_cast<uint32_t>(payload.size()));
  frame += payload;
  PutU64(&frame,
         Fnv1a(reinterpret_cast<const uint8_t*>(frame.data()), frame.size()));
  return frame;
}

/// Structural validation + decode of the frame at `off`.  Checks framing,
/// bounds, checksum, and that the payload decodes cleanly and completely;
/// does NOT check sequence continuity or record ordering (the scan loop
/// owns those).  Returns false without touching `rec` on any defect.
bool ParseFrameAt(const uint8_t* data, uint64_t size, uint64_t off,
                  WalRecord* rec) {
  if (size - off < kMinFrameBytes) return false;
  ByteReader cur(data + off, size - off);
  if (cur.U32() != kWalMagic) return false;
  const uint8_t type = cur.U8();
  if (type > static_cast<uint8_t>(WalRecordType::kCommit)) return false;
  const uint64_t sequence = cur.U64();
  const uint64_t payload = cur.U32();
  if (payload > size - off - kMinFrameBytes) return false;
  const uint64_t body = kFrameHeaderBytes + payload;
  if (Fnv1a(data + off, body) != ByteReader(data + off + body, 8).U64()) {
    return false;
  }

  WalRecord out;
  out.type = static_cast<WalRecordType>(type);
  out.sequence = sequence;
  out.offset = off;
  out.bytes = body + kFrameTrailerBytes;
  ByteReader pay(data + off + kFrameHeaderBytes, payload);
  switch (out.type) {
    case WalRecordType::kHeader:
      out.header.table_name = pay.Str();
      out.header.baseline_rows = static_cast<int64_t>(pay.U64());
      out.header.num_columns = static_cast<int>(pay.U32());
      break;
    case WalRecordType::kBatch: {
      const uint32_t rows = pay.U32();
      const uint32_t cols = pay.U32();
      // A batch has columns, and each field costs at least its 4-byte
      // length: bound both counts by the payload before reserving.
      if (cols == 0 || !pay.Fits(rows, uint64_t{4} * cols)) return false;
      out.rows.reserve(rows);
      for (uint32_t r = 0; r < rows && pay.ok(); ++r) {
        std::vector<std::string> fields;
        fields.reserve(cols);
        for (uint32_t c = 0; c < cols; ++c) fields.push_back(pay.Str());
        out.rows.push_back(std::move(fields));
      }
      break;
    }
    case WalRecordType::kCommit:
      out.watermark = static_cast<int64_t>(pay.U64());
      out.epoch = static_cast<int64_t>(pay.U64());
      break;
  }
  // A checksum-valid record whose payload over- or under-runs its length
  // field is malformed framing, not bit rot — reject it the same way.
  if (!pay.ok() || !pay.AtEnd()) return false;
  *rec = std::move(out);
  return true;
}

/// True when any fully valid record frame starts in [from, size): the
/// discriminator between a torn tail (crash debris, truncatable) and
/// mid-log corruption (bit rot, must hard-error).
bool AnyValidFrameAfter(const uint8_t* data, uint64_t size, uint64_t from) {
  if (size < kMinFrameBytes) return false;
  WalRecord scratch;
  for (uint64_t o = from; o + kMinFrameBytes <= size; ++o) {
    if (ByteReader(data + o, 4).U32() != kWalMagic) continue;
    if (ParseFrameAt(data, size, o, &scratch)) return true;
  }
  return false;
}

}  // namespace

const char* WalSyncName(WalSync sync) {
  switch (sync) {
    case WalSync::kEveryCommit:
      return "every_commit";
    case WalSync::kGrouped:
      return "grouped";
    case WalSync::kNone:
      return "none";
  }
  return "unknown";
}

bool ParseWalSync(const std::string& name, WalSync* sync) {
  for (const WalSync s :
       {WalSync::kEveryCommit, WalSync::kGrouped, WalSync::kNone}) {
    if (name == WalSyncName(s)) {
      *sync = s;
      return true;
    }
  }
  return false;
}

Result<WalScan> ReadWal(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  if (!in) return Status::IOError("cannot open wal '" + path + "'");
  std::string bytes((std::istreambuf_iterator<char>(in)),
                    std::istreambuf_iterator<char>());
  const uint8_t* data = reinterpret_cast<const uint8_t*>(bytes.data());
  const uint64_t size = bytes.size();

  WalScan scan;
  uint64_t off = 0;
  uint64_t expected_seq = 0;
  while (off < size) {
    WalRecord rec;
    if (!ParseFrameAt(data, size, off, &rec)) {
      if (AnyValidFrameAfter(data, size, off + 1)) {
        return Status::Invalid(
            "wal '" + path + "' corrupt at offset " + std::to_string(off) +
            " with valid records after it (bit rot, not a torn tail); "
            "refusing to silently drop committed history");
      }
      scan.torn_bytes = size - off;
      break;
    }
    // Structure is sound; now the log-level invariants.  These can only
    // fail on checksum-valid records, i.e. a spliced or logic-corrupt
    // log — never crash debris — so they always hard-error.
    if (rec.sequence != expected_seq) {
      return Status::Invalid("wal '" + path + "': sequence " +
                             std::to_string(rec.sequence) + " at offset " +
                             std::to_string(off) + ", want " +
                             std::to_string(expected_seq));
    }
    const bool is_header = rec.type == WalRecordType::kHeader;
    if (is_header != (off == 0)) {
      return Status::Invalid(
          "wal '" + path + "': header record " +
          (is_header ? "repeated mid-log" : "missing at offset 0"));
    }
    if (is_header) scan.header = rec.header;
    off += rec.bytes;
    ++expected_seq;
    if (rec.type == WalRecordType::kCommit) {
      scan.committed_bytes = off;
      scan.last_commit_watermark = rec.watermark;
      ++scan.commits;
    }
    scan.records.push_back(std::move(rec));
  }
  scan.valid_bytes = off;
  scan.next_sequence = expected_seq;
  return scan;
}

// --- Writer ------------------------------------------------------------

WalWriter::WalWriter(std::string path, int fd, WalOptions options)
    : path_(std::move(path)), fd_(fd), options_(options) {}

WalWriter::~WalWriter() {
  if (fd_ >= 0) ::close(fd_);
}

Result<std::unique_ptr<WalWriter>> WalWriter::Create(const std::string& path,
                                                     const WalHeader& header,
                                                     WalOptions options) {
  if (options.group_commit_interval < 1) {
    return Status::Invalid("wal group_commit_interval must be >= 1");
  }
  const int fd =
      ::open(path.c_str(), O_WRONLY | O_CREAT | O_TRUNC | O_CLOEXEC, 0644);
  if (fd < 0) return ErrnoStatus("open wal", path);
  std::unique_ptr<WalWriter> wal(new WalWriter(path, fd, options));

  std::string payload;
  PutString(&payload, header.table_name);
  PutU64(&payload, static_cast<uint64_t>(header.baseline_rows));
  PutU32(&payload, static_cast<uint32_t>(header.num_columns));
  // Creation is not a swept crash point: no chaos on the header write or
  // its sync, so wal.append/wal.fsync draw indices count from the first
  // logged batch/commit (deterministic crash-point addressing).
  IDB_RETURN_NOT_OK(
      wal->WriteRecord(FrameRecord(WalRecordType::kHeader, 0, payload),
                       std::nullopt, nullptr));
  if (::fsync(fd) != 0) return ErrnoStatus("fsync wal", path);
  wal->synced_bytes_ = wal->offset_;
  // The log's existence must survive a crash too.
  IDB_RETURN_NOT_OK(storage::FsyncDirectory(
      std::filesystem::path(path).parent_path().string()));
  return wal;
}

Result<std::unique_ptr<WalWriter>> WalWriter::Resume(const std::string& path,
                                                     const WalScan& scan,
                                                     WalOptions options) {
  if (options.group_commit_interval < 1) {
    return Status::Invalid("wal group_commit_interval must be >= 1");
  }
  if (scan.records.empty() ||
      scan.records.front().type != WalRecordType::kHeader) {
    return Status::Invalid("cannot resume wal '" + path + "': no header");
  }
  const int fd = ::open(path.c_str(), O_WRONLY | O_CLOEXEC);
  if (fd < 0) return ErrnoStatus("open wal", path);
  std::unique_ptr<WalWriter> wal(new WalWriter(path, fd, options));
  // Drop the uncommitted tail the replay also dropped: from here on the
  // log and the recovered table tell the same story, and new appends
  // land right after the last committed record.  The header always
  // survives (a commitless log truncates back to just the header).
  const uint64_t keep = scan.commits > 0
                            ? scan.committed_bytes
                            : scan.records.front().bytes;
  if (::ftruncate(fd, static_cast<off_t>(keep)) != 0) {
    return ErrnoStatus("truncate wal", path);
  }
  if (::fsync(fd) != 0) return ErrnoStatus("fsync wal", path);
  wal->offset_ = keep;
  wal->synced_bytes_ = keep;
  // Continue the sequence after the last *surviving* record (the scan's
  // next_sequence counts truncated tail records too).
  uint64_t next = 0;
  for (const WalRecord& rec : scan.records) {
    if (rec.offset + rec.bytes <= keep) next = rec.sequence + 1;
  }
  wal->next_sequence_ = next;
  return wal;
}

Status WalWriter::WriteRecord(const std::string& frame,
                              std::optional<chaos::FaultSite> site,
                              int64_t* fault_counter) {
  // A kill at the chaos draw leaves a real torn half-record on disk for
  // recovery to truncate.
  size_t written = 0;
  const Status st = storage::WriteHalves(
      fd_, offset_, frame, path_, {"write wal", "short write to wal"}, site,
      [&] {
        ++*fault_counter;
        return Status::IOError("injected wal fault mid-record (" +
                               std::string(chaos::FaultSiteName(*site)) +
                               ")");
      },
      &written);
  if (!st.ok()) {
    // Truncate-on-failure: the log must never hold a partial record
    // while the process lives — replay would otherwise disagree with
    // the in-memory epoch history after a failed-then-retried publish.
    if (::ftruncate(fd_, static_cast<off_t>(offset_)) != 0) {
      return Status::IOError(
          st.message() + "; and " +
          ErrnoStatus("rollback truncate failed on", path_).message());
    }
    stats_.rollback_bytes += static_cast<int64_t>(written);
    return st;
  }
  offset_ += frame.size();
  ++next_sequence_;
  stats_.bytes_logged = static_cast<int64_t>(offset_);
  return Status::OK();
}

Status WalWriter::AppendBatch(
    const std::vector<std::vector<std::string>>& rows) {
  if (rows.empty()) return Status::OK();
  const uint32_t cols = static_cast<uint32_t>(rows.front().size());
  std::string payload;
  PutU32(&payload, static_cast<uint32_t>(rows.size()));
  PutU32(&payload, cols);
  for (const std::vector<std::string>& row : rows) {
    IDB_CHECK(row.size() == cols);  // Ingestor validated the batch shape
    for (const std::string& field : row) PutString(&payload, field);
  }
  IDB_RETURN_NOT_OK(WriteRecord(
      FrameRecord(WalRecordType::kBatch, next_sequence_, payload),
      chaos::FaultSite::kWalAppend, &stats_.append_faults));
  ++stats_.batches_logged;
  return Status::OK();
}

Status WalWriter::AppendCommit(int64_t watermark, int64_t epoch) {
  const uint64_t start = offset_;
  std::string payload;
  PutU64(&payload, static_cast<uint64_t>(watermark));
  PutU64(&payload, static_cast<uint64_t>(epoch));
  IDB_RETURN_NOT_OK(WriteRecord(
      FrameRecord(WalRecordType::kCommit, next_sequence_, payload),
      chaos::FaultSite::kWalCommit, &stats_.commit_faults));
  const bool sync_now =
      options_.sync == WalSync::kEveryCommit ||
      (options_.sync == WalSync::kGrouped &&
       commits_since_sync_ + 1 >= options_.group_commit_interval);
  if (sync_now) {
    const Status st = SyncInternal(start, &stats_.fsync_faults);
    if (!st.ok()) return st;
    commits_since_sync_ = 0;
  } else {
    ++commits_since_sync_;
  }
  ++stats_.commits_logged;
  return Status::OK();
}

Status WalWriter::SyncInternal(uint64_t rollback_to, int64_t* fault_counter) {
  // The wal.fsync site models the sync that makes a commit durable
  // failing (with kill-on-fire: the process dying right before it).
  Status st = Status::OK();
  if (chaos::FaultInjector::Fire(chaos::FaultSite::kWalFsync)) {
    if (fault_counter != nullptr) ++*fault_counter;
    st = Status::IOError("injected wal fsync fault");
  } else if (::fsync(fd_) != 0) {
    st = ErrnoStatus("fsync wal", path_);
  }
  if (!st.ok()) {
    if (rollback_to < offset_) {
      // Roll the just-written commit record off the log: the publish is
      // about to report failure with the watermark unmoved, so replay
      // must never see this commit either.
      if (::ftruncate(fd_, static_cast<off_t>(rollback_to)) != 0) {
        return Status::IOError(
            st.message() + "; and " +
            ErrnoStatus("rollback truncate failed on", path_).message());
      }
      stats_.rollback_bytes += static_cast<int64_t>(offset_ - rollback_to);
      offset_ = rollback_to;
      --next_sequence_;
      stats_.bytes_logged = static_cast<int64_t>(offset_);
      if (synced_bytes_ > offset_) synced_bytes_ = offset_;
    }
    return st;
  }
  synced_bytes_ = offset_;
  ++stats_.syncs;
  return Status::OK();
}

Status WalWriter::Sync() {
  if (durable()) return Status::OK();
  // A standalone sync (group-commit drain, SIGTERM) has no record to
  // roll back: failure just leaves the tail non-durable for a retry.
  const Status st = SyncInternal(offset_, &stats_.fsync_faults);
  if (st.ok()) commits_since_sync_ = 0;
  return st;
}

}  // namespace idebench::ingest
