/// \file format_pin_test.cc
/// Pins the bytes of both on-disk formats.  Round-trip tests pass whatever
/// the layout, so they cannot see a format change; these tests can.  Each
/// writes a fixed input and compares the file's size and FNV-1a (computed
/// here, independently of the library's checksum code) to constants
/// recorded when the formats were last changed on purpose.  A failure
/// here means segment caches or WALs written by an older build no longer
/// read back: bump the format's magic and record the new constants.
///
/// The same two files seed a re-sealing mutator (`FormatMutatorTest`):
/// each case changes one decoded field — a count, length, offset,
/// encoding, bit width or value — at a seeded position and recomputes the
/// FNV-1a, so the damage gets past the checksum to the field decoders.
/// `SegmentFile::Open` (then `Decode`) and `ReadWal` must answer every
/// case with a `Status`, never an abort, an exception or a sanitizer
/// report (CI's asan-ubsan job runs this file with the full suite).

#include <gtest/gtest.h>

#include <cstdint>
#include <cstdio>
#include <cstring>
#include <exception>
#include <fstream>
#include <iterator>
#include <limits>
#include <string>
#include <utility>
#include <vector>

#include "common/random.h"
#include "ingest/wal.h"
#include "storage/segment.h"

namespace idebench {
namespace {

std::vector<uint8_t> ReadAll(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  return std::vector<uint8_t>(std::istreambuf_iterator<char>(in),
                              std::istreambuf_iterator<char>());
}

constexpr uint64_t kFnvOffsetBasis = 14695981039346656037ULL;

/// Continues an FNV-1a hash `h` over [data, data + n).
uint64_t Fnv1aFrom(uint64_t h, const uint8_t* data, uint64_t n) {
  for (uint64_t i = 0; i < n; ++i) {
    h ^= data[i];
    h *= 1099511628211ULL;
  }
  return h;
}

uint64_t Fnv1aOf(const std::vector<uint8_t>& bytes) {
  return Fnv1aFrom(kFnvOffsetBasis, bytes.data(), bytes.size());
}

/// Two segments (the second short) whose columns take every encoding:
/// sorted int64 (RLE), narrow int64 and the string codes (bit-packed),
/// wide int64 (raw), and doubles with NaNs and a signed zero (raw).  The
/// string column also gives each segment a dictionary bitset.  Values come
/// from arithmetic only, so the bytes depend on nothing but the format.
storage::Table MakePinTable() {
  using storage::AttributeKind;
  using storage::DataType;
  storage::Schema schema({
      {"sorted", DataType::kInt64, AttributeKind::kNominal},
      {"narrow", DataType::kInt64, AttributeKind::kNominal},
      {"wide", DataType::kInt64, AttributeKind::kQuantitative},
      {"value", DataType::kDouble, AttributeKind::kQuantitative},
      {"tag", DataType::kString, AttributeKind::kNominal},
  });
  storage::Table t("pin", schema);
  const char* tags[] = {"alpha", "beta", "gamma", "delta",
                        "epsilon", "zeta", "eta", "theta"};
  const int64_t rows = storage::kSegmentRows + 4096;
  for (int64_t i = 0; i < rows; ++i) {
    t.mutable_column(0).AppendInt(i / 1000);
    t.mutable_column(1).AppendInt(1000 + (i * 7919) % 201);
    t.mutable_column(2).AppendInt(static_cast<int64_t>(
        static_cast<uint64_t>(i) * 0x9E3779B97F4A7C15ULL));
    double v = static_cast<double>(i) * 0.25 - 1000.0;
    if (i % 97 == 0) v = std::numeric_limits<double>::quiet_NaN();
    if (i == 89) v = -0.0;
    t.mutable_column(3).AppendDouble(v);
    const int64_t first_tag = i < storage::kSegmentRows ? 0 : 4;
    t.mutable_column(4).AppendString(tags[first_tag + (i * 13) % 4]);
  }
  return t;
}

TEST(FormatPinTest, SegmentFileBytes) {
  const std::string path = ::testing::TempDir() + "/format_pin.seg";
  ASSERT_TRUE(storage::WriteSegmentFile(MakePinTable(), path).ok());
  {
    // The pin covers every encoding and the bitsets.
    auto file = storage::SegmentFile::Open(path);
    ASSERT_TRUE(file.ok()) << file.status();
    ASSERT_EQ(file->num_segments(), 2);
    const std::pair<const char*, storage::SegmentEncoding> want[] = {
        {"sorted", storage::SegmentEncoding::kRle},
        {"narrow", storage::SegmentEncoding::kBitPacked},
        {"wide", storage::SegmentEncoding::kRawInt64},
        {"value", storage::SegmentEncoding::kRawDouble},
        {"tag", storage::SegmentEncoding::kBitPacked},
    };
    for (const auto& [name, encoding] : want) {
      for (int64_t seg = 0; seg < 2; ++seg) {
        EXPECT_EQ(file->view(file->ColumnIndex(name), seg).encoding, encoding)
            << name << " segment " << seg;
      }
    }
  }
  const std::vector<uint8_t> bytes = ReadAll(path);
  std::remove(path.c_str());
  EXPECT_EQ(bytes.size(), 1202847u);
  EXPECT_EQ(Fnv1aOf(bytes), 0x2a62d5a2a127ef92ULL);
}

/// A header, one batch of two rows (an empty field among them) and a
/// commit.
void WritePinWal(const std::string& path) {
  ingest::WalHeader header;
  header.table_name = "pin";
  header.baseline_rows = 4;
  header.num_columns = 3;
  auto wal = ingest::WalWriter::Create(path, header, ingest::WalOptions());
  ASSERT_TRUE(wal.ok()) << wal.status();
  ASSERT_TRUE((*wal)->AppendBatch({{"1", "a", "0.5"}, {"-2", "b c", ""}})
                  .ok());
  ASSERT_TRUE((*wal)->AppendCommit(6, 1).ok());
}

TEST(FormatPinTest, WalBytes) {
  const std::string path = ::testing::TempDir() + "/format_pin.wal";
  ASSERT_NO_FATAL_FAILURE(WritePinWal(path));
  const std::vector<uint8_t> bytes = ReadAll(path);
  std::remove(path.c_str());
  EXPECT_EQ(bytes.size(), 152u);
  EXPECT_EQ(Fnv1aOf(bytes), 0x896e07d9dff29050ULL);
}


// --- The re-sealing mutator ------------------------------------------------

/// One decoded field of a file: where it sits, its width in bytes (1, 4
/// or 8), and what it holds.
struct FieldAt {
  uint64_t offset;
  int width;
  const char* what;
};

/// The native-endian field of `width` bytes at `offset`.
uint64_t GetField(const std::vector<uint8_t>& bytes, uint64_t offset,
                  int width) {
  uint64_t v = 0;
  std::memcpy(&v, bytes.data() + offset, static_cast<size_t>(width));
  return v;
}

void PutField(std::vector<uint8_t>* bytes, uint64_t offset, int width,
              uint64_t v) {
  std::memcpy(bytes->data() + offset, &v, static_cast<size_t>(width));
}

void WriteAll(const std::string& path, const std::vector<uint8_t>& bytes) {
  std::ofstream out(path, std::ios::binary | std::ios::trunc);
  out.write(reinterpret_cast<const char*>(bytes.data()),
            static_cast<std::streamsize>(bytes.size()));
  ASSERT_TRUE(out.good()) << path;
}

/// Walks a segment file's footer as the writer lays it out
/// (storage/segment.h) and lists its decoded fields, then the trailer's
/// footer size.  `*footer_end` receives where the walk stopped, which is
/// the trailer's start for a well-formed file.
std::vector<FieldAt> SegmentFields(const std::vector<uint8_t>& f,
                                   uint64_t* footer_end) {
  std::vector<FieldAt> fields;
  const uint64_t trailer = f.size() - 24;
  uint64_t at = trailer - GetField(f, trailer, 8);
  const auto take = [&](int width, const char* what) {
    fields.push_back({at, width, what});
    const uint64_t v = GetField(f, at, width);
    at += static_cast<uint64_t>(width);
    return v;
  };
  at += take(4, "table name length");
  take(8, "row count");
  const uint64_t segments = take(8, "segment count");
  const uint64_t columns = take(4, "column count");
  for (uint64_t c = 0; c < columns; ++c) {
    at += take(4, "column name length");
    take(1, "column type");
    take(1, "column kind");
    const uint64_t dict = take(4, "dictionary size");
    for (uint64_t i = 0; i < dict; ++i) {
      at += take(4, "dictionary value length");
    }
    for (uint64_t seg = 0; seg < segments; ++seg) {
      take(1, "encoding");
      take(8, "payload offset");
      take(8, "payload length");
      take(4, "segment rows");
      take(8, "zone min");
      take(8, "zone max");
      take(8, "zone NaN count");
      take(8, "bit-packing base");
      take(1, "bit width");
      take(4, "rle run count");
      at += 8 * take(4, "bitset word count");
    }
  }
  *footer_end = at;
  fields.push_back({trailer, 8, "footer size"});
  return fields;
}

/// Walks a WAL's records (ingest/wal.h) and lists their decoded fields;
/// `*records` receives each record's start offset.
std::vector<FieldAt> WalFields(const std::vector<uint8_t>& f,
                               std::vector<uint64_t>* records) {
  std::vector<FieldAt> fields;
  uint64_t at = 0;
  const auto take = [&](int width, const char* what) {
    fields.push_back({at, width, what});
    const uint64_t v = GetField(f, at, width);
    at += static_cast<uint64_t>(width);
    return v;
  };
  while (at < f.size()) {
    records->push_back(at);
    at += 4;  // magic
    const uint64_t type = take(1, "record type");
    take(8, "sequence");
    const uint64_t payload_end = take(4, "payload length") + at;
    switch (static_cast<ingest::WalRecordType>(type)) {
      case ingest::WalRecordType::kHeader:
        at += take(4, "table name length");
        take(8, "baseline rows");
        take(4, "column count");
        break;
      case ingest::WalRecordType::kBatch: {
        const uint64_t fields_in_batch =
            take(4, "batch row count") * take(4, "batch column count");
        for (uint64_t i = 0; i < fields_in_batch; ++i) {
          at += take(4, "field length");
        }
        break;
      }
      case ingest::WalRecordType::kCommit:
        take(8, "watermark");
        take(8, "epoch");
        break;
    }
    EXPECT_EQ(at, payload_end);
    at = payload_end + 8;  // checksum
  }
  EXPECT_EQ(at, f.size());
  return fields;
}

/// Runs the mutator's cases: every field of `fields` in turn, set to all
/// ones, to its top bit alone, and to `seeded` values drawn (by a
/// generator seeded with `seed`) among the edges of its range, its
/// neighbours, its double and half, and noise.  `run` gets a copy of
/// `pristine` holding the one change, to re-seal and parse; an exception
/// out of it fails the case.
template <typename Fn>
void ForEachMutation(const std::vector<uint8_t>& pristine,
                     const std::vector<FieldAt>& fields, int seeded,
                     uint64_t seed, Fn&& run) {
  Rng rng(seed);
  for (const FieldAt& field : fields) {
    const uint64_t v = GetField(pristine, field.offset, field.width);
    const uint64_t max = field.width == 8
                             ? ~uint64_t{0}
                             : (uint64_t{1} << (8 * field.width)) - 1;
    const uint64_t candidates[] = {
        0,     1,     2,     3,       4,       31,      32,     33, 64,
        v - 1, v + 1, v - 8, v + 8,   v * 2,   v / 2,   max / 2,
        max - 7, rng.Next()};
    const int64_t last =
        static_cast<int64_t>(sizeof(candidates) / sizeof(candidates[0])) - 1;
    std::vector<uint64_t> values = {max, max / 2 + 1};
    for (int i = 0; i < seeded; ++i) {
      values.push_back(candidates[rng.UniformInt(0, last)] & max);
    }
    for (const uint64_t value : values) {
      std::vector<uint8_t> bytes = pristine;
      PutField(&bytes, field.offset, field.width, value);
      SCOPED_TRACE(::testing::Message() << field.what << " at byte "
                                        << field.offset << " set to " << value);
      try {
        run(&bytes, field);
      } catch (const std::exception& e) {
        ADD_FAILURE() << "threw " << e.what();
      }
    }
  }
}

TEST(FormatMutatorTest, ResealedSegmentFieldsReturnAStatus) {
  const std::string path = ::testing::TempDir() + "/format_mutator.seg";
  ASSERT_TRUE(storage::WriteSegmentFile(MakePinTable(), path).ok());
  const std::vector<uint8_t> pristine = ReadAll(path);
  uint64_t footer_end = 0;
  const std::vector<FieldAt> fields = SegmentFields(pristine, &footer_end);
  ASSERT_EQ(footer_end, pristine.size() - 24);
  // The checksum covers [0, size - 16) and every field lies past the
  // footer's start, so the hash of the bytes before it is computed once.
  const uint64_t sealed = pristine.size() - 16;
  const uint64_t footer = fields.front().offset;
  const uint64_t prefix = Fnv1aFrom(kFnvOffsetBasis, pristine.data(), footer);
  ASSERT_EQ(Fnv1aFrom(prefix, pristine.data() + footer, sealed - footer),
            GetField(pristine, sealed, 8));

  int refused = 0;
  int opened = 0;
  ForEachMutation(
      pristine, fields, /*seeded=*/2, /*seed=*/20,
      [&](std::vector<uint8_t>* bytes, const FieldAt&) {
        PutField(bytes, sealed, 8,
                 Fnv1aFrom(prefix, bytes->data() + footer, sealed - footer));
        WriteAll(path, *bytes);
        auto file = storage::SegmentFile::Open(path);
        if (!file.ok()) {
          ++refused;
          return;
        }
        ++opened;
        // An accepted file must decode, or refuse to, just as safely.
        auto table = file->Decode();
        if (table.ok()) {
          EXPECT_EQ(table->num_rows(), file->num_rows());
        }
      });
  std::remove(path.c_str());
  EXPECT_GT(refused, 0);
  EXPECT_GT(opened, 0);  // zone bounds, column kinds, no-op changes
}

TEST(FormatMutatorTest, ResealedWalFieldsReturnAStatus) {
  const std::string path = ::testing::TempDir() + "/format_mutator.wal";
  ASSERT_NO_FATAL_FAILURE(WritePinWal(path));
  const std::vector<uint8_t> pristine = ReadAll(path);
  std::vector<uint64_t> records;
  const std::vector<FieldAt> fields = WalFields(pristine, &records);
  ASSERT_EQ(records.size(), 3u);

  int refused = 0;
  int torn = 0;
  int intact = 0;
  ForEachMutation(
      pristine, fields, /*seeded=*/48, /*seed=*/21,
      [&](std::vector<uint8_t>* bytes, const FieldAt& field) {
        // Re-seal the record holding the field: its checksum follows the
        // payload its (possibly changed) length names.  A length that
        // runs past the end grows the file to fit when that takes at most
        // 4 KB; past that the record stays unsealed, which is crash
        // debris.
        uint64_t record = 0;
        for (const uint64_t r : records) {
          if (r <= field.offset) record = r;
        }
        const uint64_t checksum_at =
            record + 17 + GetField(*bytes, record + 13, 4);
        if (checksum_at + 8 <= bytes->size() + 4096) {
          if (checksum_at + 8 > bytes->size()) bytes->resize(checksum_at + 8);
          PutField(bytes, checksum_at, 8,
                   Fnv1aFrom(kFnvOffsetBasis, bytes->data() + record,
                             checksum_at - record));
        }
        WriteAll(path, *bytes);
        auto scan = ingest::ReadWal(path);
        if (!scan.ok()) {
          ++refused;
          return;
        }
        EXPECT_EQ(scan->valid_bytes + scan->torn_bytes, bytes->size());
        ++(scan->torn_bytes > 0 ? torn : intact);
      });
  std::remove(path.c_str());
  EXPECT_GT(refused, 0);  // spliced sequences, bad framing mid-log
  EXPECT_GT(torn, 0);     // damage that reaches the end: a torn tail
  EXPECT_GT(intact, 0);   // values no parser checks, such as the epoch
}

}  // namespace
}  // namespace idebench
