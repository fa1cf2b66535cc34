#include "storage/segment.h"

#include <fcntl.h>
#include <sys/mman.h>
#include <sys/stat.h>
#include <unistd.h>

#include <filesystem>
#include <fstream>
#include <utility>

#include "chaos/fault_injector.h"
#include "common/json.h"
#include "storage/durable_io.h"
#include "storage/schema.h"

namespace idebench::storage {

namespace {

// "IDBSEG01" / "IDBSEGT1" as native-endian u64s.  The head magic doubles
// as both a format-version stamp (bump the trailing digits on layout
// changes) and an endianness check: a file from a different-endian host
// fails the magic comparison before anything else is trusted.
constexpr uint64_t kHeadMagic = 0x3130474553424449ULL;
constexpr uint64_t kTailMagic = 0x3154474553424449ULL;
constexpr uint64_t kTrailerBytes = 24;  // footer_size + checksum + tail magic

/// Bits needed to represent `range` (1 for a constant segment, so a
/// packed blob never has zero-width values).
uint8_t BitWidthFor(uint64_t range) {
  if (range == 0) return 1;
  return static_cast<uint8_t>(64 - __builtin_clzll(range));
}

uint64_t PackedWords(int64_t rows, uint8_t bits) {
  return (static_cast<uint64_t>(rows) * bits + 63) / 64;
}

struct EncodedBlob {
  SegmentEncoding encoding = SegmentEncoding::kRawInt64;
  std::string bytes;
  int64_t base = 0;
  uint8_t bits = 0;
  int32_t num_runs = 0;
};

/// Encodes `rows` int64 values (raw values or dictionary codes) with the
/// cheapest of raw / RLE / frame-of-reference bit-packing.
EncodedBlob EncodeInt64Segment(const int64_t* values, int64_t rows) {
  int64_t min = values[0];
  int64_t max = values[0];
  int64_t num_runs = 1;
  for (int64_t i = 1; i < rows; ++i) {
    min = std::min(min, values[i]);
    max = std::max(max, values[i]);
    if (values[i] != values[i - 1]) ++num_runs;
  }

  const uint64_t raw_bytes = static_cast<uint64_t>(rows) * 8;
  const uint64_t rle_bytes = static_cast<uint64_t>(num_runs) * 12;
  const uint64_t range =
      static_cast<uint64_t>(max) - static_cast<uint64_t>(min);
  const uint8_t bits = BitWidthFor(range);
  const uint64_t packed_bytes =
      bits <= 32 ? PackedWords(rows, bits) * 8 : UINT64_MAX;

  EncodedBlob blob;
  if (rle_bytes <= packed_bytes && rle_bytes <= raw_bytes) {
    blob.encoding = SegmentEncoding::kRle;
    blob.num_runs = static_cast<int32_t>(num_runs);
    blob.bytes.reserve(rle_bytes);
    std::string lengths;
    int64_t run_start = 0;
    for (int64_t i = 1; i <= rows; ++i) {
      if (i == rows || values[i] != values[i - 1]) {
        PutI64(&blob.bytes, values[run_start]);
        PutU32(&lengths, static_cast<uint32_t>(i - run_start));
        run_start = i;
      }
    }
    blob.bytes += lengths;
  } else if (packed_bytes <= raw_bytes) {
    blob.encoding = SegmentEncoding::kBitPacked;
    blob.base = min;
    blob.bits = bits;
    std::vector<uint64_t> words(PackedWords(rows, bits), 0);
    for (int64_t i = 0; i < rows; ++i) {
      const uint64_t u =
          static_cast<uint64_t>(values[i]) - static_cast<uint64_t>(min);
      const uint64_t bitpos = static_cast<uint64_t>(i) * bits;
      const uint64_t word = bitpos >> 6;
      const uint64_t shift = bitpos & 63;
      words[word] |= u << shift;
      if (shift + bits > 64) words[word + 1] |= u >> (64 - shift);
    }
    PutBytes(&blob.bytes, words.data(), words.size() * 8);
  } else {
    blob.encoding = SegmentEncoding::kRawInt64;
    PutBytes(&blob.bytes, values, static_cast<size_t>(rows) * 8);
  }
  return blob;
}

// Longest footer string (table, column or dictionary value) a reader
// accepts, and the most columns.
constexpr uint32_t kMaxName = 1 << 20;

// The fewest footer bytes that encode one column (name length, type,
// kind, dictionary size) and one segment of a column (encoding, offset,
// bytes, rows, min, max, NaN count, base, bits, runs, bitset words):
// what a count read from the footer is checked against before anything
// is reserved for it.
constexpr uint64_t kMinColumnBytes = 4 + 1 + 1 + 4;
constexpr uint64_t kSegmentMetaBytes =
    1 + 8 + 8 + 4 + 8 + 8 + 8 + 8 + 1 + 4 + 4;

Status FooterTruncated() {
  return Status::Invalid("segment footer: truncated");
}

/// Reads one footer string, refusing a length over `kMaxName` before any
/// of its bytes.
Status ReadFooterString(ByteReader* cur, std::string* out) {
  const uint32_t len = cur->U32();
  if (cur->ok() && len > kMaxName) {
    return Status::Invalid("segment footer: string too long");
  }
  const uint8_t* p = cur->Skip(len);
  if (!cur->ok()) return FooterTruncated();
  out->assign(reinterpret_cast<const char*>(p), len);
  return Status::OK();
}

Status SegmentError(const std::string& path, const std::string& what) {
  return Status::Invalid("segment file '" + path + "': " + what);
}

}  // namespace

const char* SegmentEncodingName(SegmentEncoding encoding) {
  switch (encoding) {
    case SegmentEncoding::kRawInt64:
      return "raw_int64";
    case SegmentEncoding::kRawDouble:
      return "raw_double";
    case SegmentEncoding::kRle:
      return "rle";
    case SegmentEncoding::kBitPacked:
      return "bit_packed";
  }
  return "unknown";
}

// --- Writer ------------------------------------------------------------

Status WriteSegmentFile(const Table& table, const std::string& path) {
  IDB_RETURN_NOT_OK(table.Validate());
  const int64_t num_rows = table.num_rows();
  const int64_t num_segments = (num_rows + kSegmentRows - 1) / kSegmentRows;

  // One pass, column by column: each segment's payload blob goes to the
  // file (8-byte aligned) as its record goes to the footer.
  std::string file;
  PutU64(&file, kHeadMagic);
  std::string footer;
  PutString(&footer, table.name());
  PutU64(&footer, static_cast<uint64_t>(num_rows));
  PutU64(&footer, static_cast<uint64_t>(num_segments));
  PutU32(&footer, static_cast<uint32_t>(table.num_columns()));
  for (int c = 0; c < table.num_columns(); ++c) {
    const Column& col = table.column(c);
    const bool is_string = col.type() == DataType::kString;
    PutString(&footer, col.name());
    PutU8(&footer, static_cast<uint8_t>(col.type()));
    PutU8(&footer, static_cast<uint8_t>(col.field().kind));
    PutU32(&footer,
           is_string ? static_cast<uint32_t>(col.dictionary().size()) : 0);
    if (is_string) {
      for (const std::string& v : col.dictionary().values()) {
        PutString(&footer, v);
      }
    }
    for (int64_t seg = 0; seg < num_segments; ++seg) {
      const int64_t first = seg * kSegmentRows;
      const int64_t rows = std::min(kSegmentRows, num_rows - first);
      EncodedBlob blob;
      std::vector<uint64_t> dict_bits;
      if (col.type() == DataType::kDouble) {
        blob.encoding = SegmentEncoding::kRawDouble;
        PutBytes(&blob.bytes, col.DoubleData() + first,
                 static_cast<size_t>(rows) * 8);
      } else {
        const int64_t* values = col.Int64Data() + first;
        blob = EncodeInt64Segment(values, rows);
        if (is_string) {
          dict_bits.assign(
              static_cast<size_t>((col.dictionary().size() + 63) / 64), 0);
          for (int64_t i = 0; i < rows; ++i) {
            dict_bits[static_cast<size_t>(values[i] >> 6)] |=
                1ULL << (values[i] & 63);
          }
        }
      }
      file.resize((file.size() + 7) & ~size_t{7});  // 8-align the blob
      // One segment == one zone block (kSegmentRows == kZoneMapBlockRows),
      // so the persisted zone is the column's live entry, verbatim.
      const ZoneEntry& zone = col.zone_map()[static_cast<size_t>(seg)];
      PutU8(&footer, static_cast<uint8_t>(blob.encoding));
      PutU64(&footer, file.size());
      PutU64(&footer, blob.bytes.size());
      PutU32(&footer, static_cast<uint32_t>(rows));
      PutF64(&footer, zone.min);
      PutF64(&footer, zone.max);
      PutU64(&footer, static_cast<uint64_t>(zone.nan_count));
      PutI64(&footer, blob.base);
      PutU8(&footer, blob.bits);
      PutU32(&footer, static_cast<uint32_t>(blob.num_runs));
      PutU32(&footer, static_cast<uint32_t>(dict_bits.size()));
      for (uint64_t word : dict_bits) PutU64(&footer, word);
      file += blob.bytes;
    }
  }

  file += footer;
  PutU64(&file, footer.size());
  // The checksum covers [0, file_size - 16): everything written so far,
  // footer_size field included.
  const uint64_t checksum =
      Fnv1a(reinterpret_cast<const uint8_t*>(file.data()), file.size());
  PutU64(&file, checksum);
  PutU64(&file, kTailMagic);

  // Atomic + durable: a crash or ENOSPC mid-write must never leave a torn
  // segment at `path` — readers reject corrupt files wholesale, but a torn
  // file silently masquerading as "written OK" would lose the old copy too.
  return WriteFileAtomic(path, file);
}

// --- Reader ------------------------------------------------------------

SegmentFile::SegmentFile(SegmentFile&& other) noexcept {
  *this = std::move(other);
}

SegmentFile& SegmentFile::operator=(SegmentFile&& other) noexcept {
  if (this == &other) return *this;
  if (map_ != nullptr) {
    ::munmap(const_cast<uint8_t*>(map_), static_cast<size_t>(size_));
  }
  path_ = std::move(other.path_);
  map_ = std::exchange(other.map_, nullptr);
  size_ = std::exchange(other.size_, 0);
  table_name_ = std::move(other.table_name_);
  num_rows_ = other.num_rows_;
  num_segments_ = other.num_segments_;
  columns_ = std::move(other.columns_);
  return *this;
}

SegmentFile::~SegmentFile() {
  if (map_ != nullptr) {
    ::munmap(const_cast<uint8_t*>(map_), static_cast<size_t>(size_));
  }
}

Result<SegmentFile> SegmentFile::Open(const std::string& path) {
  // Chaos site: the open fails before a descriptor exists (transient
  // filesystem error); callers fall back to rebuilding from source.
  if (chaos::FaultInjector::Fire(chaos::FaultSite::kSegmentOpen)) {
    return Status::IOError("injected open fault for '" + path + "'");
  }
  const int fd = ::open(path.c_str(), O_RDONLY | O_CLOEXEC);
  if (fd < 0) return Status::IOError("cannot open '" + path + "' for reading");
  struct stat st;
  if (::fstat(fd, &st) != 0) {
    ::close(fd);
    return Status::IOError("cannot stat '" + path + "'");
  }
  const uint64_t size = static_cast<uint64_t>(st.st_size);
  if (size < 8 + kTrailerBytes) {
    ::close(fd);
    return SegmentError(path, "too small to hold header and trailer");
  }
  // Chaos site: the mapping itself fails (address-space style error); the
  // descriptor must still be released.
  void* map = chaos::FaultInjector::Fire(chaos::FaultSite::kSegmentMmap)
                  ? MAP_FAILED
                  : ::mmap(nullptr, static_cast<size_t>(size), PROT_READ,
                           MAP_PRIVATE, fd, 0);
  ::close(fd);  // the mapping keeps its own reference
  if (map == MAP_FAILED) {
    return Status::IOError("cannot mmap '" + path + "'");
  }

  SegmentFile file;
  file.path_ = path;
  file.map_ = static_cast<const uint8_t*>(map);
  file.size_ = size;
  IDB_RETURN_NOT_OK(file.Parse());
  return file;
}

Status SegmentFile::Parse() {
  const uint8_t* base = map_;
  ByteReader trailer(base + size_ - kTrailerBytes, kTrailerBytes);
  const uint64_t footer_size = trailer.U64();
  const uint64_t stored_checksum = trailer.U64();
  const uint64_t tail = trailer.U64();
  if (ByteReader(base, 8).U64() != kHeadMagic) {
    return SegmentError(path_, "bad magic (not a segment file, a different "
                               "format version, or foreign endianness)");
  }
  if (tail != kTailMagic) {
    return SegmentError(path_, "bad tail magic (truncated or overwritten)");
  }
  const uint64_t actual_checksum = Fnv1a(base, size_ - 16);
  // Chaos site: the verification itself reports rot on intact bytes; the
  // file must be rejected exactly like a genuinely corrupt one.
  const bool forced =
      chaos::FaultInjector::Fire(chaos::FaultSite::kSegmentChecksum);
  if (forced || actual_checksum != stored_checksum) {
    return SegmentError(path_, "checksum mismatch (corrupt file)");
  }
  if (footer_size == 0 || footer_size > size_ - 8 - kTrailerBytes) {
    return SegmentError(path_, "footer size out of bounds");
  }
  const uint64_t footer_start = size_ - kTrailerBytes - footer_size;
  const uint64_t payload_end = footer_start;

  ByteReader cur(base + footer_start, footer_size);
  IDB_RETURN_NOT_OK(ReadFooterString(&cur, &table_name_));
  num_rows_ = static_cast<int64_t>(cur.U64());
  num_segments_ = static_cast<int64_t>(cur.U64());
  const uint32_t num_columns = cur.U32();
  if (!cur.ok()) return FooterTruncated();
  if (num_rows_ < 0 ||
      num_segments_ != num_rows_ / kSegmentRows +
                           (num_rows_ % kSegmentRows != 0 ? 1 : 0)) {
    return SegmentError(path_, "segment count does not match row count");
  }
  if (num_columns == 0 || num_columns > kMaxName ||
      !cur.Fits(num_columns, kMinColumnBytes)) {
    return SegmentError(path_, "implausible column count");
  }

  columns_.reserve(num_columns);
  for (uint32_t c = 0; c < num_columns; ++c) {
    SegmentColumnMeta meta;
    IDB_RETURN_NOT_OK(ReadFooterString(&cur, &meta.field.name));
    const uint8_t type = cur.U8();
    const uint8_t kind = cur.U8();
    if (!cur.ok()) return FooterTruncated();
    if (type > static_cast<uint8_t>(DataType::kString) || kind > 1) {
      return SegmentError(path_, "invalid column type or kind");
    }
    meta.field.type = static_cast<DataType>(type);
    meta.field.kind = static_cast<AttributeKind>(kind);
    const bool is_string = meta.field.type == DataType::kString;
    const uint32_t dict_size = cur.U32();
    if (!cur.ok()) return FooterTruncated();
    if (!is_string && dict_size != 0) {
      return SegmentError(path_, "dictionary on a non-string column");
    }
    if (!cur.Fits(dict_size, 4)) {
      return SegmentError(path_, "dictionary size larger than the footer");
    }
    meta.dict_values.reserve(dict_size);
    for (uint32_t i = 0; i < dict_size; ++i) {
      std::string v;
      IDB_RETURN_NOT_OK(ReadFooterString(&cur, &v));
      meta.dict_values.push_back(std::move(v));
    }
    const int64_t dict_words =
        is_string ? (static_cast<int64_t>(dict_size) + 63) / 64 : 0;

    if (!cur.Fits(static_cast<uint64_t>(num_segments_), kSegmentMetaBytes)) {
      return SegmentError(path_, "segment count larger than the footer");
    }
    meta.segments.reserve(static_cast<size_t>(num_segments_));
    for (int64_t seg = 0; seg < num_segments_; ++seg) {
      SegmentView view;
      const uint8_t encoding = cur.U8();
      const uint64_t offset = cur.U64();
      const uint64_t bytes = cur.U64();
      view.rows = cur.U32();
      view.zone.min = cur.F64();
      view.zone.max = cur.F64();
      view.zone.nan_count = static_cast<int64_t>(cur.U64());
      view.base = cur.I64();
      view.bits = cur.U8();
      view.num_runs = static_cast<int32_t>(cur.U32());
      const uint32_t bit_words = cur.U32();
      if (!cur.ok()) return FooterTruncated();
      if (encoding > static_cast<uint8_t>(SegmentEncoding::kBitPacked)) {
        return SegmentError(path_, "invalid segment encoding");
      }
      view.encoding = static_cast<SegmentEncoding>(encoding);
      view.bytes = bytes;

      const int64_t expect_rows =
          std::min(kSegmentRows, num_rows_ - seg * kSegmentRows);
      if (view.rows != expect_rows) {
        return SegmentError(path_, "segment row count out of place");
      }
      if (offset < 8 || offset % 8 != 0 || bytes > payload_end ||
          offset > payload_end - bytes) {
        return SegmentError(path_, "segment payload out of bounds");
      }
      view.data = base + offset;

      const bool double_col = meta.field.type == DataType::kDouble;
      switch (view.encoding) {
        case SegmentEncoding::kRawInt64:
        case SegmentEncoding::kRawDouble: {
          const bool want_double =
              view.encoding == SegmentEncoding::kRawDouble;
          if (want_double != double_col) {
            return SegmentError(path_, "encoding does not match column type");
          }
          if (bytes != static_cast<uint64_t>(view.rows) * 8) {
            return SegmentError(path_, "raw segment size mismatch");
          }
          break;
        }
        case SegmentEncoding::kRle: {
          if (double_col) {
            return SegmentError(path_, "rle on a double column");
          }
          if (view.num_runs <= 0 || view.num_runs > view.rows ||
              bytes != static_cast<uint64_t>(view.num_runs) * 12) {
            return SegmentError(path_, "rle segment size mismatch");
          }
          // Lengths must tile the segment exactly; a bad length would
          // otherwise overrun buffers when runs are expanded.
          int64_t total = 0;
          const int32_t* lengths = view.rle_lengths();
          for (int32_t r = 0; r < view.num_runs; ++r) {
            if (lengths[r] <= 0) {
              return SegmentError(path_, "non-positive rle run length");
            }
            total += lengths[r];
          }
          if (total != view.rows) {
            return SegmentError(path_, "rle run lengths do not sum to rows");
          }
          if (is_string) {
            const int64_t* values = view.rle_values();
            for (int32_t r = 0; r < view.num_runs; ++r) {
              if (values[r] < 0 ||
                  values[r] >= static_cast<int64_t>(dict_size)) {
                return SegmentError(path_, "rle code outside dictionary");
              }
            }
          }
          break;
        }
        case SegmentEncoding::kBitPacked: {
          if (double_col) {
            return SegmentError(path_, "bit packing on a double column");
          }
          if (view.bits < 1 || view.bits > 32 ||
              bytes != PackedWords(view.rows, view.bits) * 8) {
            return SegmentError(path_, "bit-packed segment size mismatch");
          }
          break;
        }
      }

      if (bit_words != static_cast<uint32_t>(dict_words)) {
        return SegmentError(path_, "dictionary bitset size mismatch");
      }
      // No reader uses the presence bitset: its words are bounds-checked,
      // then skipped.
      cur.Skip(static_cast<uint64_t>(bit_words) * 8);
      if (!cur.ok()) return FooterTruncated();
      meta.segments.push_back(view);
    }
    columns_.push_back(std::move(meta));
  }
  if (!cur.AtEnd()) {
    return SegmentError(path_, "trailing bytes after footer");
  }
  return Status::OK();
}

int SegmentFile::ColumnIndex(const std::string& name) const {
  for (size_t i = 0; i < columns_.size(); ++i) {
    if (columns_[i].field.name == name) return static_cast<int>(i);
  }
  return -1;
}

int64_t SegmentFile::segment_rows(int64_t seg) const {
  return std::min(kSegmentRows, num_rows_ - seg * kSegmentRows);
}

Result<Table> SegmentFile::Decode() const {
  std::vector<Field> fields;
  fields.reserve(columns_.size());
  for (const SegmentColumnMeta& meta : columns_) fields.push_back(meta.field);
  Table table(table_name_, Schema(std::move(fields)));
  table.Reserve(num_rows_);

  std::vector<int64_t> buf(static_cast<size_t>(kSegmentRows));
  for (int c = 0; c < num_columns(); ++c) {
    const SegmentColumnMeta& meta = columns_[static_cast<size_t>(c)];
    Column& col = table.mutable_column(c);
    if (meta.field.type == DataType::kString) {
      // Restore the dictionary in code order first, so replayed codes map
      // to exactly the original strings with exactly the original codes.
      for (const std::string& v : meta.dict_values) {
        col.mutable_dictionary().GetOrInsert(v);
      }
    }
    // Values replay through the normal append funnel in row order, so
    // min/max caches and zone maps are rebuilt bit-identically — including
    // the NaN-handling corner cases the live paths have.
    for (const SegmentView& view : meta.segments) {
      switch (view.encoding) {
        case SegmentEncoding::kRawDouble: {
          const double* values = view.raw_double();
          for (int64_t i = 0; i < view.rows; ++i) col.AppendDouble(values[i]);
          break;
        }
        case SegmentEncoding::kRawInt64: {
          const int64_t* values = view.raw_int64();
          if (meta.field.type == DataType::kString) {
            for (int64_t i = 0; i < view.rows; ++i) {
              const int64_t code = values[i];
              if (code < 0 || code >= col.dictionary().size()) {
                return SegmentError(path_, "code outside dictionary");
              }
              col.AppendCode(code);
            }
          } else {
            for (int64_t i = 0; i < view.rows; ++i) col.AppendInt(values[i]);
          }
          break;
        }
        case SegmentEncoding::kRle: {
          const int64_t* values = view.rle_values();
          const int32_t* lengths = view.rle_lengths();
          const bool is_string = meta.field.type == DataType::kString;
          for (int32_t r = 0; r < view.num_runs; ++r) {
            for (int32_t i = 0; i < lengths[r]; ++i) {
              if (is_string) {
                col.AppendCode(values[r]);
              } else {
                col.AppendInt(values[r]);
              }
            }
          }
          break;
        }
        case SegmentEncoding::kBitPacked: {
          const uint64_t* words = view.packed_words();
          const uint8_t bits = view.bits;
          const uint64_t mask =
              bits == 64 ? ~uint64_t{0} : (uint64_t{1} << bits) - 1;
          for (int64_t i = 0; i < view.rows; ++i) {
            const uint64_t bitpos = static_cast<uint64_t>(i) * bits;
            const uint64_t word = bitpos >> 6;
            const uint64_t shift = bitpos & 63;
            uint64_t u = words[word] >> shift;
            if (shift + bits > 64) u |= words[word + 1] << (64 - shift);
            buf[static_cast<size_t>(i)] = static_cast<int64_t>(
                static_cast<uint64_t>(view.base) + (u & mask));
          }
          if (meta.field.type == DataType::kString) {
            for (int64_t i = 0; i < view.rows; ++i) {
              const int64_t code = buf[static_cast<size_t>(i)];
              if (code < 0 || code >= col.dictionary().size()) {
                return SegmentError(path_, "code outside dictionary");
              }
              col.AppendCode(code);
            }
          } else {
            for (int64_t i = 0; i < view.rows; ++i) {
              col.AppendInt(buf[static_cast<size_t>(i)]);
            }
          }
          break;
        }
      }
    }
  }
  IDB_RETURN_NOT_OK(table.Validate());
  return table;
}

// --- Catalog-level packing ---------------------------------------------

namespace {

constexpr int kManifestVersion = 1;

std::string SegmentPath(const std::string& dir, const std::string& table) {
  return dir + "/" + table + ".seg";
}

std::string ManifestPath(const std::string& dir) {
  return dir + "/manifest.json";
}

}  // namespace

Status WriteCatalogSegments(const Catalog& catalog, const std::string& dir) {
  std::error_code ec;
  std::filesystem::create_directories(dir, ec);
  if (ec) {
    return Status::IOError("cannot create directory '" + dir +
                           "': " + ec.message());
  }
  JsonValue manifest = JsonValue::Object();
  manifest.Set("version", kManifestVersion);
  manifest.Set("nominal_rows", catalog.nominal_rows());
  JsonValue tables = JsonValue::Array();
  for (const auto& table : catalog.tables()) {
    IDB_RETURN_NOT_OK(
        WriteSegmentFile(*table, SegmentPath(dir, table->name())));
    tables.Append(table->name());
  }
  manifest.Set("tables", std::move(tables));
  JsonValue fks = JsonValue::Array();
  for (const ForeignKey& fk : catalog.foreign_keys()) {
    JsonValue edge = JsonValue::Object();
    edge.Set("fact_column", fk.fact_column);
    edge.Set("dimension_table", fk.dimension_table);
    edge.Set("dimension_key", fk.dimension_key);
    fks.Append(std::move(edge));
  }
  manifest.Set("foreign_keys", std::move(fks));

  // Temp-then-rename: the manifest is the commit point for the whole
  // directory, so rewriting it in place would let a crash mid-write tear
  // the previous (valid) catalog.  After the rename either the old or the
  // new manifest is durably present, never a mix.
  return WriteFileAtomic(ManifestPath(dir), manifest.DumpPretty() + "\n");
}

Result<Catalog> LoadCatalogSegments(const std::string& dir) {
  std::ifstream in(ManifestPath(dir));
  if (!in) {
    return Status::IOError("cannot open '" + ManifestPath(dir) +
                           "' for reading");
  }
  std::string text((std::istreambuf_iterator<char>(in)),
                   std::istreambuf_iterator<char>());
  IDB_ASSIGN_OR_RETURN(JsonValue manifest, JsonValue::Parse(text));
  const int64_t version = manifest.GetInt("version", -1);
  if (version != kManifestVersion) {
    return Status::Invalid("segment manifest '" + ManifestPath(dir) +
                           "': unsupported version " +
                           std::to_string(version));
  }
  const JsonValue& tables = manifest.Get("tables");
  if (!tables.is_array() || tables.size() == 0) {
    return Status::Invalid("segment manifest '" + ManifestPath(dir) +
                           "': missing tables");
  }
  Catalog catalog;
  for (size_t i = 0; i < tables.size(); ++i) {
    const std::string& name = tables.at(i).AsString();
    IDB_ASSIGN_OR_RETURN(SegmentFile file,
                         SegmentFile::Open(SegmentPath(dir, name)));
    if (file.table_name() != name) {
      return Status::Invalid("segment file '" + SegmentPath(dir, name) +
                             "' holds table '" + file.table_name() + "'");
    }
    IDB_ASSIGN_OR_RETURN(Table table, file.Decode());
    IDB_RETURN_NOT_OK(
        catalog.AddTable(std::make_shared<Table>(std::move(table))));
  }
  const JsonValue& fks = manifest.Get("foreign_keys");
  if (fks.is_array()) {
    for (size_t i = 0; i < fks.size(); ++i) {
      const JsonValue& edge = fks.at(i);
      ForeignKey fk;
      fk.fact_column = edge.GetString("fact_column", "");
      fk.dimension_table = edge.GetString("dimension_table", "");
      fk.dimension_key = edge.GetString("dimension_key", "");
      IDB_RETURN_NOT_OK(catalog.AddForeignKey(std::move(fk)));
    }
  }
  catalog.set_nominal_rows(manifest.GetInt("nominal_rows", -1));
  return catalog;
}

}  // namespace idebench::storage
