#ifndef IDEBENCH_STORAGE_SEGMENT_H_
#define IDEBENCH_STORAGE_SEGMENT_H_

/// \file segment.h
/// Tiered columnar storage: compressed on-disk segments.
///
/// A segment file freezes one in-memory `Table` into fixed-size row
/// segments of `kSegmentRows` rows (the last segment may be short).  The
/// segment size deliberately equals `kZoneMapBlockRows` and `kMorselRows`:
/// one segment == one zone-map block == one morsel, so the zone map the
/// column already maintains can be persisted per segment verbatim, and
/// each morsel of the decoded table covers exactly one segment.
///
/// Per-segment encoding is chosen from the segment's own statistics,
/// independently per segment (a sorted prefix can be RLE while a noisy
/// tail bit-packs):
///
///  * `kRawInt64` / `kRawDouble` — verbatim little-endian values.  Doubles
///    are *always* raw: a byte-exact memcpy round-trips every NaN payload
///    and signed zero, which the bit-identity contract requires.
///  * `kRle` — run-length encoding: `int64 values[num_runs]` followed by
///    `int32 lengths[num_runs]`.  Wins on sorted or low-cardinality
///    int64/code data.
///  * `kBitPacked` — frame-of-reference bit-packing: `value - base` packed
///    LSB-first into little-endian uint64 words at a fixed width of 1..32
///    bits.  Wins on narrow-range data (dates, small codes).
///
/// The smallest encoding wins; ties break RLE < bit-packed < raw.
///
/// String columns persist their dictionary (in code order) in the footer
/// and encode the code stream like any int64 column.  The writer also
/// stores, per string-column segment, a *presence bitset* over dictionary
/// codes.  No query reads the bitsets: `Open` checks each one's word count
/// and bounds, then skips it.
///
/// File layout (native-endian; a same-host cache format, not a portable
/// interchange format — the header magic doubles as an endianness check):
///
///     [u64 head magic]
///     [payload blobs, each 8-byte aligned, zero-padded between]
///     [footer: table/column/segment metadata, dictionaries, bitsets]
///     [u64 footer_size][u64 fnv1a checksum][u64 tail magic]
///
/// The checksum covers every byte from offset 0 through the footer_size
/// field inclusive (i.e. [0, file_size - 16)), so a flipped bit anywhere
/// in payload, footer, or trailer-length field is caught.  `Open` memory-
/// maps the file read-only, verifies the checksum, and bounds-checks every
/// footer field before any typed pointer is formed; a corrupt or truncated
/// file is rejected wholesale with a `Status`, never half-loaded.
///
/// The checksum, the field writes, the bounds-checked footer reads and
/// the file write are the codec shared with the WAL (`storage/durable_io.h`).

#include <cstdint>
#include <string>
#include <vector>

#include "common/result.h"
#include "common/status.h"
#include "storage/catalog.h"
#include "storage/column.h"
#include "storage/table.h"

namespace idebench::storage {

/// Rows per segment.  Equal to the zone-map block and morsel size by
/// design; see the file comment.
inline constexpr int64_t kSegmentRows = kZoneMapBlockRows;

/// Physical encoding of one segment's payload blob.
enum class SegmentEncoding : uint8_t {
  kRawInt64 = 0,
  kRawDouble = 1,
  kRle = 2,
  kBitPacked = 3,
};

/// Returns "raw_int64", "raw_double", "rle" or "bit_packed".
const char* SegmentEncodingName(SegmentEncoding encoding);

/// Metadata for one segment of one column, parsed out of the footer.  The
/// payload pointer aliases the file mapping and stays valid for the
/// lifetime of the owning `SegmentFile`.
struct SegmentView {
  SegmentEncoding encoding = SegmentEncoding::kRawInt64;
  const uint8_t* data = nullptr;  // 8-byte-aligned payload blob
  uint64_t bytes = 0;             // payload blob size
  int64_t rows = 0;               // rows in this segment (1..kSegmentRows)
  ZoneEntry zone;                 // persisted zone-map entry

  // kBitPacked only: packed value = (raw - base) in `bits` bits.
  int64_t base = 0;
  uint8_t bits = 0;

  // kRle only.
  int32_t num_runs = 0;

  // --- Typed payload accessors (encoding must match) ------------------

  const int64_t* raw_int64() const {
    return reinterpret_cast<const int64_t*>(data);
  }
  const double* raw_double() const {
    return reinterpret_cast<const double*>(data);
  }
  const int64_t* rle_values() const {
    return reinterpret_cast<const int64_t*>(data);
  }
  const int32_t* rle_lengths() const {
    return reinterpret_cast<const int32_t*>(
        data + static_cast<uint64_t>(num_runs) * 8);
  }
  const uint64_t* packed_words() const {
    return reinterpret_cast<const uint64_t*>(data);
  }
};

/// Per-column metadata parsed out of the footer.
struct SegmentColumnMeta {
  Field field;
  std::vector<std::string> dict_values;  // string columns, in code order
  std::vector<SegmentView> segments;
};

/// A memory-mapped, checksum-verified segment file.  Move-only; the
/// mapping lives until destruction, and every `SegmentView::data` pointer
/// handed out aliases it.  Const access is safe to share across threads.
class SegmentFile {
 public:
  /// Maps and validates `path`.  Chaos sites `segment.open`,
  /// `segment.mmap` and `segment.checksum` inject the corresponding
  /// failures (chaos/fault_injector.h).
  static Result<SegmentFile> Open(const std::string& path);

  SegmentFile(SegmentFile&& other) noexcept;
  SegmentFile& operator=(SegmentFile&& other) noexcept;
  SegmentFile(const SegmentFile&) = delete;
  SegmentFile& operator=(const SegmentFile&) = delete;
  ~SegmentFile();

  const std::string& table_name() const { return table_name_; }
  int64_t num_rows() const { return num_rows_; }
  int num_columns() const { return static_cast<int>(columns_.size()); }
  int64_t num_segments() const { return num_segments_; }

  const SegmentColumnMeta& column_meta(int i) const {
    return columns_[static_cast<size_t>(i)];
  }

  /// Index of the column named `name`, or -1.
  int ColumnIndex(const std::string& name) const;

  /// Segment `seg` of column `col`.
  const SegmentView& view(int col, int64_t seg) const {
    return columns_[static_cast<size_t>(col)]
        .segments[static_cast<size_t>(seg)];
  }

  /// Rows in segment `seg` (same for every column).
  int64_t segment_rows(int64_t seg) const;

  /// Total mapped bytes (telemetry).
  uint64_t file_bytes() const { return size_; }

  /// Decompresses the whole file back into an in-memory `Table`.  Values
  /// are replayed through the normal append paths in row order, so the
  /// rebuilt table's stats, zone maps and dictionary are bit-identical to
  /// the table that was packed — engines running on a decoded catalog
  /// produce byte-for-byte the results of the original in-memory path.
  Result<Table> Decode() const;

 private:
  SegmentFile() = default;

  Status Parse();

  std::string path_;
  const uint8_t* map_ = nullptr;  // mmap base (nullptr when moved-from)
  uint64_t size_ = 0;

  std::string table_name_;
  int64_t num_rows_ = 0;
  int64_t num_segments_ = 0;
  std::vector<SegmentColumnMeta> columns_;
};

/// Packs `table` into a segment file at `path` (overwrites).  Encoding is
/// chosen per segment per column as described in the file comment.
Status WriteSegmentFile(const Table& table, const std::string& path);

/// Packs every table of `catalog` into `dir` (one `<table>.seg` per
/// table) plus a `manifest.json` recording registration order, foreign
/// keys and nominal rows.  Creates `dir` if needed.
Status WriteCatalogSegments(const Catalog& catalog, const std::string& dir);

/// Rebuilds a catalog from `dir` (written by `WriteCatalogSegments`) by
/// decoding every segment file.  The result is bit-identical to the
/// catalog that was packed: same table order, same dictionaries, same
/// stats and zone maps, same foreign keys and nominal row count.
Result<Catalog> LoadCatalogSegments(const std::string& dir);

}  // namespace idebench::storage

#endif  // IDEBENCH_STORAGE_SEGMENT_H_
