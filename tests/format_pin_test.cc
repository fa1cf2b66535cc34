/// \file format_pin_test.cc
/// Pins the bytes of both on-disk formats.  Round-trip tests pass whatever
/// the layout, so they cannot see a format change; these tests can.  Each
/// writes a fixed input and compares the file's size and FNV-1a (computed
/// here, independently of the library's checksum code) to constants
/// recorded when the formats were last changed on purpose.  A failure
/// here means segment caches or WALs written by an older build no longer
/// read back: bump the format's magic and record the new constants.

#include <gtest/gtest.h>

#include <cstdint>
#include <cstdio>
#include <fstream>
#include <iterator>
#include <limits>
#include <string>
#include <utility>
#include <vector>

#include "ingest/wal.h"
#include "storage/segment.h"

namespace idebench {
namespace {

std::vector<uint8_t> ReadAll(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  return std::vector<uint8_t>(std::istreambuf_iterator<char>(in),
                              std::istreambuf_iterator<char>());
}

uint64_t Fnv1aOf(const std::vector<uint8_t>& bytes) {
  uint64_t h = 14695981039346656037ULL;
  for (const uint8_t b : bytes) {
    h ^= b;
    h *= 1099511628211ULL;
  }
  return h;
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

TEST(FormatPinTest, WalBytes) {
  const std::string path = ::testing::TempDir() + "/format_pin.wal";
  {
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
  const std::vector<uint8_t> bytes = ReadAll(path);
  std::remove(path.c_str());
  EXPECT_EQ(bytes.size(), 152u);
  EXPECT_EQ(Fnv1aOf(bytes), 0x896e07d9dff29050ULL);
}

}  // namespace
}  // namespace idebench
