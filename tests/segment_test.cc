/// \file segment_test.cc
/// Tiered columnar storage (storage/segment.h): round-trip bit-identity,
/// per-segment encoding choice, persisted zone maps and dictionary
/// bitsets, edge-size tables, catalog manifests, and — the reason the
/// reader bounds-checks everything — a byte-flip / truncation corruption
/// sweep where every mutated file must be rejected with a clean `Status`.

#include <cmath>
#include <cstdint>
#include <cstdio>
#include <cstring>
#include <fstream>
#include <limits>
#include <memory>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "chaos/fault_injector.h"
#include "common/logging.h"
#include "common/random.h"
#include "storage/durable_io.h"
#include "storage/segment.h"

namespace idebench::storage {
namespace {

/// Temp path helper; the file/dir contents are removed in the destructor.
class TempPath {
 public:
  explicit TempPath(const std::string& name)
      : path_(std::string(::testing::TempDir()) + "/" + name) {}
  ~TempPath() { std::remove(path_.c_str()); }
  const std::string& path() const { return path_; }

 private:
  std::string path_;
};

std::vector<uint8_t> ReadAll(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  return std::vector<uint8_t>(std::istreambuf_iterator<char>(in),
                              std::istreambuf_iterator<char>());
}

void WriteAll(const std::string& path, const std::vector<uint8_t>& bytes) {
  std::ofstream out(path, std::ios::binary | std::ios::trunc);
  out.write(reinterpret_cast<const char*>(bytes.data()),
            static_cast<std::streamsize>(bytes.size()));
}

/// A table whose columns exercise every encoding: sorted low-cardinality
/// int64 (RLE), narrow-range noisy int64 (bit-packed), wide random int64
/// (raw), doubles with NaN payloads and signed zeros (raw), and a string
/// column whose values cluster by region so per-segment bitsets differ.
Table MakeMixedTable(int64_t rows, uint64_t seed = 7) {
  Schema schema({
      {"sorted", DataType::kInt64, AttributeKind::kNominal},
      {"narrow", DataType::kInt64, AttributeKind::kNominal},
      {"wide", DataType::kInt64, AttributeKind::kQuantitative},
      {"value", DataType::kDouble, AttributeKind::kQuantitative},
      {"tag", DataType::kString, AttributeKind::kNominal},
  });
  Table t("mixed", schema);
  Rng rng(seed);
  const char* tags[] = {"alpha", "beta", "gamma", "delta",
                        "epsilon", "zeta", "eta", "theta"};
  for (int64_t i = 0; i < rows; ++i) {
    t.mutable_column(0).AppendInt(i / 977);  // long runs, sorted
    t.mutable_column(1).AppendInt(1000 + rng.UniformInt(0, 200));
    t.mutable_column(2).AppendInt(rng.UniformInt(
        std::numeric_limits<int32_t>::min(),
        std::numeric_limits<int32_t>::max()));
    double v;
    if (rng.Bernoulli(0.03)) {
      v = std::numeric_limits<double>::quiet_NaN();
    } else if (rng.Bernoulli(0.02)) {
      v = -0.0;
    } else {
      v = rng.Uniform(-1e6, 1e6);
    }
    t.mutable_column(3).AppendDouble(v);
    // Early rows only use the first half of the tag alphabet, late rows
    // the second half — so segment bitsets genuinely differ.
    const int lo = i < rows / 2 ? 0 : 4;
    t.mutable_column(4).AppendString(tags[lo + rng.UniformInt(0, 3)]);
  }
  return t;
}

/// Bitwise column equality: typed storage, dictionary, stats, zone maps.
void ExpectColumnsIdentical(const Column& a, const Column& b) {
  ASSERT_EQ(a.type(), b.type()) << a.name();
  ASSERT_EQ(a.size(), b.size()) << a.name();
  if (a.type() == DataType::kDouble) {
    for (int64_t i = 0; i < a.size(); ++i) {
      uint64_t ba, bb;
      std::memcpy(&ba, &a.doubles()[static_cast<size_t>(i)], 8);
      std::memcpy(&bb, &b.doubles()[static_cast<size_t>(i)], 8);
      ASSERT_EQ(ba, bb) << a.name() << " row " << i
                        << ": double bits differ";
    }
  } else {
    ASSERT_EQ(a.ints(), b.ints()) << a.name();
  }
  ASSERT_EQ(a.dictionary().values(), b.dictionary().values()) << a.name();
  // Stats and zone maps must rebuild identically (Decode replays every
  // value through the append funnel).
  uint64_t mina, minb, maxa, maxb;
  const double am = a.Min(), bm = b.Min(), ax = a.Max(), bx = b.Max();
  std::memcpy(&mina, &am, 8);
  std::memcpy(&minb, &bm, 8);
  std::memcpy(&maxa, &ax, 8);
  std::memcpy(&maxb, &bx, 8);
  EXPECT_EQ(mina, minb) << a.name() << ": Min differs";
  EXPECT_EQ(maxa, maxb) << a.name() << ": Max differs";
  ASSERT_EQ(a.zone_map().size(), b.zone_map().size()) << a.name();
  for (size_t z = 0; z < a.zone_map().size(); ++z) {
    EXPECT_EQ(a.zone_map()[z].min, b.zone_map()[z].min) << a.name();
    EXPECT_EQ(a.zone_map()[z].max, b.zone_map()[z].max) << a.name();
    EXPECT_EQ(a.zone_map()[z].nan_count, b.zone_map()[z].nan_count)
        << a.name();
  }
}

void ExpectTablesIdentical(const Table& a, const Table& b) {
  ASSERT_EQ(a.name(), b.name());
  ASSERT_EQ(a.num_columns(), b.num_columns());
  ASSERT_EQ(a.num_rows(), b.num_rows());
  for (int c = 0; c < a.num_columns(); ++c) {
    ExpectColumnsIdentical(a.column(c), b.column(c));
  }
}

// --- Round trip -------------------------------------------------------------

TEST(SegmentFileTest, MixedTableRoundTripsBitIdentical) {
  const Table original = MakeMixedTable(3 * kSegmentRows + 1234);
  TempPath file("mixed_roundtrip.seg");
  ASSERT_TRUE(WriteSegmentFile(original, file.path()).ok());

  auto opened = SegmentFile::Open(file.path());
  ASSERT_TRUE(opened.ok()) << opened.status();
  EXPECT_EQ(opened->table_name(), "mixed");
  EXPECT_EQ(opened->num_rows(), original.num_rows());
  EXPECT_EQ(opened->num_segments(), 4);
  EXPECT_EQ(opened->segment_rows(3), 1234);

  auto decoded = opened->Decode();
  ASSERT_TRUE(decoded.ok()) << decoded.status();
  ExpectTablesIdentical(original, *decoded);
}

TEST(SegmentFileTest, EdgeSizesRoundTrip) {
  for (const int64_t rows :
       {int64_t{0}, int64_t{1}, kSegmentRows, kSegmentRows + 1}) {
    const Table original = MakeMixedTable(rows, /*seed=*/rows + 3);
    TempPath file("edge_" + std::to_string(rows) + ".seg");
    ASSERT_TRUE(WriteSegmentFile(original, file.path()).ok()) << rows;
    auto opened = SegmentFile::Open(file.path());
    ASSERT_TRUE(opened.ok()) << rows << ": " << opened.status();
    EXPECT_EQ(opened->num_segments(),
              (rows + kSegmentRows - 1) / kSegmentRows)
        << rows;
    auto decoded = opened->Decode();
    ASSERT_TRUE(decoded.ok()) << rows << ": " << decoded.status();
    ExpectTablesIdentical(original, *decoded);
  }
}

TEST(SegmentFileTest, AllNaNSegmentRoundTrips) {
  // A double column whose middle segment holds nothing but NaN: its
  // footer zone must count every row as NaN, and the decode must rebuild
  // the empty (+inf, -inf) zone bounds exactly.
  Schema schema({{"v", DataType::kDouble, AttributeKind::kQuantitative}});
  Table original("nanmid", schema);
  Rng rng(11);
  const int64_t rows = 2 * kSegmentRows + 4321;
  for (int64_t i = 0; i < rows; ++i) {
    const bool mid = i >= kSegmentRows && i < 2 * kSegmentRows;
    original.mutable_column(0).AppendDouble(
        mid ? std::numeric_limits<double>::quiet_NaN()
            : rng.Uniform(0.0, 10.0));
  }
  TempPath file("nan_segment.seg");
  ASSERT_TRUE(WriteSegmentFile(original, file.path()).ok());
  auto opened = SegmentFile::Open(file.path());
  ASSERT_TRUE(opened.ok()) << opened.status();
  ASSERT_EQ(opened->num_segments(), 3);
  EXPECT_EQ(opened->view(0, 0).zone.nan_count, 0);
  EXPECT_EQ(opened->view(0, 1).zone.nan_count, kSegmentRows);
  EXPECT_EQ(opened->view(0, 2).zone.nan_count, 0);

  auto decoded = opened->Decode();
  ASSERT_TRUE(decoded.ok()) << decoded.status();
  ExpectTablesIdentical(original, *decoded);
}

// --- Encoding choice --------------------------------------------------------

TEST(SegmentFileTest, EncodingChosenPerColumnShape) {
  const Table original = MakeMixedTable(kSegmentRows);
  TempPath file("encodings.seg");
  ASSERT_TRUE(WriteSegmentFile(original, file.path()).ok());
  auto opened = SegmentFile::Open(file.path());
  ASSERT_TRUE(opened.ok()) << opened.status();

  // Sorted, ~67 runs of ~977: RLE by a mile.
  EXPECT_EQ(opened->view(opened->ColumnIndex("sorted"), 0).encoding,
            SegmentEncoding::kRle);
  // 201 distinct noisy values: 8-bit FOR packing.
  const SegmentView& narrow =
      opened->view(opened->ColumnIndex("narrow"), 0);
  EXPECT_EQ(narrow.encoding, SegmentEncoding::kBitPacked);
  EXPECT_EQ(narrow.base, 1000);
  EXPECT_EQ(narrow.bits, 8);
  // Full 32-bit range noise: packing needs 32 bits (4 B/row) and still
  // beats raw; what matters is the values survive exactly (round-trip
  // test above), so only assert it is not RLE.
  EXPECT_NE(opened->view(opened->ColumnIndex("wide"), 0).encoding,
            SegmentEncoding::kRle);
  // Doubles are always raw — NaN payloads must survive byte-exact.
  EXPECT_EQ(opened->view(opened->ColumnIndex("value"), 0).encoding,
            SegmentEncoding::kRawDouble);
}

TEST(SegmentFileTest, ConstantColumnPacksToRleSingleRun) {
  Schema schema({{"k", DataType::kInt64, AttributeKind::kNominal}});
  Table t("konst", schema);
  for (int64_t i = 0; i < kSegmentRows; ++i) {
    t.mutable_column(0).AppendInt(42);
  }
  TempPath file("konst.seg");
  ASSERT_TRUE(WriteSegmentFile(t, file.path()).ok());
  auto opened = SegmentFile::Open(file.path());
  ASSERT_TRUE(opened.ok()) << opened.status();
  const SegmentView& v = opened->view(0, 0);
  EXPECT_EQ(v.encoding, SegmentEncoding::kRle);
  EXPECT_EQ(v.num_runs, 1);
  EXPECT_EQ(v.rle_values()[0], 42);
  EXPECT_EQ(v.rle_lengths()[0], kSegmentRows);
  // 64K rows of one value: 12 payload bytes.
  EXPECT_EQ(v.bytes, 12u);
}

TEST(SegmentFileTest, BitPackedWidthSweepRoundTrips) {
  // Frame-of-reference widths across the supported 1..32 bit range, with
  // a negative base and a short tail segment: every segment must pack at
  // exactly the width its value range needs, and decode bit-identically.
  for (const int bits : {1, 3, 8, 13, 24, 31, 32}) {
    Schema schema({{"v", DataType::kInt64, AttributeKind::kNominal}});
    Table original("width", schema);
    Rng rng(static_cast<uint64_t>(bits) * 7 + 1);
    const int64_t range = (int64_t{1} << bits) - 1;
    const int64_t base = -(range / 3);
    const int64_t rows = kSegmentRows + 777;
    for (int64_t i = 0; i < rows; ++i) {
      original.mutable_column(0).AppendInt(base + rng.UniformInt(0, range));
    }
    TempPath file("width_" + std::to_string(bits) + ".seg");
    ASSERT_TRUE(WriteSegmentFile(original, file.path()).ok()) << bits;
    auto opened = SegmentFile::Open(file.path());
    ASSERT_TRUE(opened.ok()) << bits << ": " << opened.status();
    ASSERT_EQ(opened->num_segments(), 2) << bits;
    for (int64_t s = 0; s < opened->num_segments(); ++s) {
      const SegmentView& v = opened->view(0, s);
      EXPECT_EQ(v.encoding, SegmentEncoding::kBitPacked)
          << bits << " segment " << s;
      EXPECT_EQ(static_cast<int>(v.bits), bits) << bits << " segment " << s;
    }
    auto decoded = opened->Decode();
    ASSERT_TRUE(decoded.ok()) << bits << ": " << decoded.status();
    ExpectTablesIdentical(original, *decoded);
    if (::testing::Test::HasFatalFailure()) return;
  }
}

// --- Persisted zones and dictionary bitsets ---------------------------------

TEST(SegmentFileTest, FooterZonesMatchColumnZoneMap) {
  const Table original = MakeMixedTable(2 * kSegmentRows + 99);
  TempPath file("zones.seg");
  ASSERT_TRUE(WriteSegmentFile(original, file.path()).ok());
  auto opened = SegmentFile::Open(file.path());
  ASSERT_TRUE(opened.ok()) << opened.status();
  for (int c = 0; c < original.num_columns(); ++c) {
    const auto& zones = original.column(c).zone_map();
    ASSERT_EQ(static_cast<int64_t>(zones.size()), opened->num_segments());
    for (int64_t s = 0; s < opened->num_segments(); ++s) {
      const ZoneEntry& z = opened->view(c, s).zone;
      EXPECT_EQ(z.min, zones[static_cast<size_t>(s)].min);
      EXPECT_EQ(z.max, zones[static_cast<size_t>(s)].max);
      EXPECT_EQ(z.nan_count, zones[static_cast<size_t>(s)].nan_count);
    }
  }
}

// --- Corruption -------------------------------------------------------------

TEST(SegmentFileTest, EveryByteFlipIsRejected) {
  const Table original = MakeMixedTable(kSegmentRows / 16);
  TempPath file("flip.seg");
  ASSERT_TRUE(WriteSegmentFile(original, file.path()).ok());
  const std::vector<uint8_t> pristine = ReadAll(file.path());
  ASSERT_GT(pristine.size(), 0u);

  // Flip one bit at a sweep of positions covering head magic, payload,
  // footer and trailer.  The checksum covers [0, size-16) and the tail
  // magic/size field are validated directly, so every flip must surface
  // as a clean error from Open (never a crash, never silent acceptance).
  Rng rng(23);
  std::vector<size_t> positions = {0, 1, 7, 8, 9,
                                   pristine.size() - 1, pristine.size() - 8,
                                   pristine.size() - 16, pristine.size() - 17,
                                   pristine.size() - 24};
  for (int i = 0; i < 64; ++i) {
    positions.push_back(static_cast<size_t>(
        rng.UniformInt(0, static_cast<int64_t>(pristine.size()) - 1)));
  }
  for (const size_t pos : positions) {
    std::vector<uint8_t> mutated = pristine;
    mutated[pos] ^= static_cast<uint8_t>(1u << rng.UniformInt(0, 7));
    WriteAll(file.path(), mutated);
    auto opened = SegmentFile::Open(file.path());
    EXPECT_FALSE(opened.ok()) << "flip at byte " << pos << " was accepted";
  }
}

TEST(SegmentFileTest, EveryTruncationIsRejected) {
  const Table original = MakeMixedTable(kSegmentRows / 16);
  TempPath file("trunc.seg");
  ASSERT_TRUE(WriteSegmentFile(original, file.path()).ok());
  const std::vector<uint8_t> pristine = ReadAll(file.path());

  std::vector<size_t> lengths = {0, 1, 8, 16, 23, 24,
                                 pristine.size() / 2, pristine.size() - 1};
  Rng rng(29);
  for (int i = 0; i < 16; ++i) {
    lengths.push_back(static_cast<size_t>(
        rng.UniformInt(0, static_cast<int64_t>(pristine.size()) - 1)));
  }
  for (const size_t len : lengths) {
    WriteAll(file.path(),
             std::vector<uint8_t>(pristine.begin(),
                                  pristine.begin() +
                                      static_cast<std::ptrdiff_t>(len)));
    auto opened = SegmentFile::Open(file.path());
    EXPECT_FALSE(opened.ok()) << "truncation to " << len << " was accepted";
  }
}

/// A checksum-valid file with no rows and one column, whose footer
/// claims `dict_size` dictionary entries and `num_rows` rows; the magics
/// come from a real file, the checksum is recomputed.
std::vector<uint8_t> CraftedSegmentFile(DataType type, uint32_t dict_size,
                                        int64_t num_rows) {
  const Table real = MakeMixedTable(16);
  TempPath file("crafted_source.seg");
  IDB_CHECK(WriteSegmentFile(real, file.path()).ok());
  const std::vector<uint8_t> bytes = ReadAll(file.path());
  const std::string head(bytes.begin(), bytes.begin() + 8);
  const std::string tail(bytes.end() - 8, bytes.end());

  std::string footer;
  PutString(&footer, "t");
  PutU64(&footer, static_cast<uint64_t>(num_rows));
  PutU64(&footer, static_cast<uint64_t>(num_rows / kSegmentRows +
                                        (num_rows % kSegmentRows != 0)));
  PutU32(&footer, 1);  // columns
  PutString(&footer, "c");
  PutU8(&footer, static_cast<uint8_t>(type));
  PutU8(&footer, 0);  // kind
  PutU32(&footer, dict_size);
  std::string file_bytes = head + footer;
  PutU64(&file_bytes, footer.size());
  PutU64(&file_bytes,
         Fnv1a(reinterpret_cast<const uint8_t*>(file_bytes.data()),
               file_bytes.size()));
  file_bytes += tail;
  return std::vector<uint8_t>(file_bytes.begin(), file_bytes.end());
}

TEST(SegmentFileTest, HostileFooterCountsAreRejectedBeforeAllocating) {
  // The counts pass the checksum, so only the footer parser can refuse
  // them: 2^32 - 1 dictionary entries in a 68-byte file, and 2^46 or
  // 2^48 segments per column (the latter from the largest row count,
  // which must not overflow the segment-count check).  Each must fail
  // on its field, not reserve.
  TempPath file("hostile.seg");
  const std::vector<uint8_t> dict =
      CraftedSegmentFile(DataType::kString, 0xFFFFFFFFu, 0);
  ASSERT_EQ(dict.size(), 68u);
  WriteAll(file.path(), dict);
  auto opened = SegmentFile::Open(file.path());
  ASSERT_FALSE(opened.ok());
  EXPECT_NE(opened.status().message().find("dictionary size"),
            std::string::npos)
      << opened.status().ToString();

  for (const int64_t rows :
       {int64_t{1} << 62, std::numeric_limits<int64_t>::max()}) {
    WriteAll(file.path(), CraftedSegmentFile(DataType::kInt64, 0, rows));
    opened = SegmentFile::Open(file.path());
    ASSERT_FALSE(opened.ok());
    EXPECT_NE(opened.status().message().find("segment count larger"),
              std::string::npos)
        << opened.status().ToString();
  }
}

TEST(SegmentFileTest, MissingFileIsRejected) {
  auto opened = SegmentFile::Open(std::string(::testing::TempDir()) +
                                  "/does_not_exist.seg");
  EXPECT_FALSE(opened.ok());
}

// --- Chaos sites ------------------------------------------------------------

TEST(SegmentFileTest, ChaosSitesInjectOpenMmapAndChecksumFailures) {
  const Table original = MakeMixedTable(1000);
  TempPath file("chaos.seg");
  ASSERT_TRUE(WriteSegmentFile(original, file.path()).ok());

  for (const chaos::FaultSite site :
       {chaos::FaultSite::kSegmentOpen, chaos::FaultSite::kSegmentMmap,
        chaos::FaultSite::kSegmentChecksum}) {
    chaos::FaultInjector injector(31);
    injector.Arm(site, {/*probability=*/1.0, /*budget=*/-1});
    chaos::ScopedFaultInjector scoped(&injector);
    auto opened = SegmentFile::Open(file.path());
    EXPECT_FALSE(opened.ok()) << chaos::FaultSiteName(site);
    EXPECT_EQ(injector.site_stats(site).fires, 1)
        << chaos::FaultSiteName(site);
  }
  // Disarmed: the same file opens fine.
  auto opened = SegmentFile::Open(file.path());
  EXPECT_TRUE(opened.ok()) << opened.status();
}

// --- Catalog round trip -----------------------------------------------------

TEST(SegmentCatalogTest, CatalogRoundTripsWithManifest) {
  auto fact = std::make_shared<Table>(MakeMixedTable(5000));
  Schema dim_schema({
      {"k", DataType::kInt64, AttributeKind::kNominal},
      {"label", DataType::kString, AttributeKind::kNominal},
  });
  auto dim = std::make_shared<Table>("dims", dim_schema);
  for (int64_t i = 0; i < 16; ++i) {
    dim->mutable_column(0).AppendInt(i);
    dim->mutable_column(1).AppendString("d" + std::to_string(i % 5));
  }
  Catalog catalog;
  ASSERT_TRUE(catalog.AddTable(fact).ok());
  ASSERT_TRUE(catalog.AddTable(dim).ok());
  ASSERT_TRUE(catalog.AddForeignKey({"narrow", "dims", "k"}).ok());
  catalog.set_nominal_rows(123'456'789);

  const std::string dir =
      std::string(::testing::TempDir()) + "/segcat_roundtrip";
  ASSERT_TRUE(WriteCatalogSegments(catalog, dir).ok());

  auto loaded = LoadCatalogSegments(dir);
  ASSERT_TRUE(loaded.ok()) << loaded.status();
  ASSERT_EQ(loaded->tables().size(), 2u);
  ExpectTablesIdentical(*catalog.tables()[0], *loaded->tables()[0]);
  ExpectTablesIdentical(*catalog.tables()[1], *loaded->tables()[1]);
  ASSERT_EQ(loaded->foreign_keys().size(), 1u);
  EXPECT_EQ(loaded->foreign_keys()[0].fact_column, "narrow");
  EXPECT_EQ(loaded->foreign_keys()[0].dimension_table, "dims");
  EXPECT_EQ(loaded->foreign_keys()[0].dimension_key, "k");
  EXPECT_EQ(loaded->nominal_rows(), 123'456'789);

  std::remove((dir + "/mixed.seg").c_str());
  std::remove((dir + "/dims.seg").c_str());
  std::remove((dir + "/manifest.json").c_str());
}

TEST(SegmentCatalogTest, MissingManifestIsRejected) {
  auto loaded = LoadCatalogSegments(std::string(::testing::TempDir()) +
                                    "/no_such_cat_dir");
  EXPECT_FALSE(loaded.ok());
}

}  // namespace
}  // namespace idebench::storage
