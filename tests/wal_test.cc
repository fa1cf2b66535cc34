/// \file wal_test.cc
/// Durable-ingest WAL tests: record framing round-trips, the torn-tail
/// vs. mid-log-corruption distinction under exhaustive truncation and
/// byte-flip fuzz (mirroring segment_test.cc), crash recovery rebuilding
/// the exact epoch history, the truncate-on-failure discipline at every
/// injected fault site, group-commit durability reporting, and baseline
/// validation.  The headline contract: recovery never surfaces a
/// partially committed epoch, never silently drops a committed one, and
/// reproduces post-recovery query transcripts bit-identically.

#include "ingest/wal.h"

#include <cstdio>
#include <filesystem>
#include <fstream>
#include <memory>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "chaos/fault_injector.h"
#include "common/logging.h"
#include "datagen/flights_seed.h"
#include "engines/registry.h"
#include "ingest/ingest.h"
#include "net/protocol.h"
#include "storage/catalog.h"
#include "storage/durable_io.h"
#include "storage/segment.h"
#include "storage/table.h"

namespace idebench::ingest {
namespace {

using chaos::FaultInjector;
using chaos::FaultSite;
using chaos::FaultSiteConfig;
using chaos::ScopedFaultInjector;

/// Temp directory helper; recursively removed in the destructor.
class TempDir {
 public:
  explicit TempDir(const std::string& name)
      : path_(std::string(::testing::TempDir()) + "/" + name) {
    std::error_code ec;
    std::filesystem::remove_all(path_, ec);
    std::filesystem::create_directories(path_, ec);
  }
  ~TempDir() {
    std::error_code ec;
    std::filesystem::remove_all(path_, ec);
  }
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

std::vector<std::vector<std::string>> MakeRows(int64_t n, int64_t base) {
  std::vector<std::vector<std::string>> rows;
  for (int64_t i = 0; i < n; ++i) {
    rows.push_back({std::to_string(base + i), "tag" + std::to_string(i % 3),
                    std::to_string(0.5 * static_cast<double>(i))});
  }
  return rows;
}

/// A small but structurally complete log: header, two committed epochs
/// (the second spanning two batch records), and an uncommitted trailing
/// batch.  Returns the scan of the pristine log for offset bookkeeping.
WalScan BuildFixtureLog(const std::string& path) {
  WalHeader header;
  header.table_name = "t";
  header.baseline_rows = 100;
  header.num_columns = 3;
  auto wal = WalWriter::Create(path, header, WalOptions());
  IDB_CHECK(wal.ok());
  IDB_CHECK((*wal)->AppendBatch(MakeRows(4, 100)).ok());
  IDB_CHECK((*wal)->AppendCommit(104, 1).ok());
  IDB_CHECK((*wal)->AppendBatch(MakeRows(3, 104)).ok());
  IDB_CHECK((*wal)->AppendBatch(MakeRows(2, 107)).ok());
  IDB_CHECK((*wal)->AppendCommit(109, 2).ok());
  IDB_CHECK((*wal)->AppendBatch(MakeRows(5, 109)).ok());  // never committed
  auto scan = ReadWal(path);
  IDB_CHECK(scan.ok());
  return *scan;
}

// ---------------------------------------------------------------------
// Framing round-trip

TEST(WalFormatTest, RoundTripsRecordsAndCommitState) {
  TempDir dir("wal_roundtrip");
  const std::string path = dir.path() + "/ingest.wal";
  const WalScan scan = BuildFixtureLog(path);

  ASSERT_EQ(scan.records.size(), 7u);
  EXPECT_EQ(scan.records[0].type, WalRecordType::kHeader);
  EXPECT_EQ(scan.header.table_name, "t");
  EXPECT_EQ(scan.header.baseline_rows, 100);
  EXPECT_EQ(scan.header.num_columns, 3);
  for (size_t i = 0; i < scan.records.size(); ++i) {
    EXPECT_EQ(scan.records[i].sequence, i);
  }
  EXPECT_EQ(scan.records[1].type, WalRecordType::kBatch);
  ASSERT_EQ(scan.records[1].rows.size(), 4u);
  EXPECT_EQ(scan.records[1].rows[0],
            (std::vector<std::string>{"100", "tag0", "0.000000"}));
  EXPECT_EQ(scan.records[2].type, WalRecordType::kCommit);
  EXPECT_EQ(scan.records[2].watermark, 104);
  EXPECT_EQ(scan.records[2].epoch, 1);
  EXPECT_EQ(scan.commits, 2);
  EXPECT_EQ(scan.last_commit_watermark, 109);
  EXPECT_EQ(scan.torn_bytes, 0u);
  // The uncommitted trailing batch is valid but past the commit point.
  EXPECT_GT(scan.valid_bytes, scan.committed_bytes);
  EXPECT_EQ(scan.next_sequence, 7u);
}

TEST(WalFormatTest, EmptyAndMissingFiles) {
  TempDir dir("wal_empty");
  const std::string missing = dir.path() + "/nope.wal";
  EXPECT_FALSE(ReadWal(missing).ok());

  const std::string empty = dir.path() + "/empty.wal";
  { std::ofstream out(empty, std::ios::binary); }
  auto scan = ReadWal(empty);
  ASSERT_TRUE(scan.ok());
  EXPECT_TRUE(scan->records.empty());
  EXPECT_EQ(scan->valid_bytes, 0u);
}

// ---------------------------------------------------------------------
// Corruption fuzz (mirrors segment_test.cc)

TEST(WalCorruptionTest, EveryTruncationKeepsExactlyTheIntactPrefix) {
  TempDir dir("wal_trunc");
  const std::string path = dir.path() + "/ingest.wal";
  const WalScan clean = BuildFixtureLog(path);
  const std::vector<uint8_t> bytes = ReadAll(path);
  ASSERT_EQ(bytes.size(), clean.valid_bytes);

  const std::string cut = dir.path() + "/cut.wal";
  for (size_t len = 0; len < bytes.size(); ++len) {
    WriteAll(cut, std::vector<uint8_t>(bytes.begin(),
                                       bytes.begin() + static_cast<long>(len)));
    auto scan = ReadWal(cut);
    // Truncation only ever damages the tail: never a hard error.
    ASSERT_TRUE(scan.ok()) << "truncation at " << len << ": "
                           << scan.status().ToString();
    // Exactly the records that fully fit survive; the rest is torn tail.
    uint64_t want_valid = 0;
    int64_t want_commit = -1;
    for (const WalRecord& rec : clean.records) {
      if (rec.offset + rec.bytes <= len) {
        want_valid = rec.offset + rec.bytes;
        if (rec.type == WalRecordType::kCommit) want_commit = rec.watermark;
      }
    }
    EXPECT_EQ(scan->valid_bytes, want_valid) << "truncation at " << len;
    EXPECT_EQ(scan->last_commit_watermark, want_commit)
        << "truncation at " << len;
    EXPECT_EQ(scan->torn_bytes, len - want_valid) << "truncation at " << len;
  }
}

TEST(WalCorruptionTest, EveryByteFlipNeverSilentlyDropsACommittedEpoch) {
  TempDir dir("wal_flip");
  const std::string path = dir.path() + "/ingest.wal";
  const WalScan clean = BuildFixtureLog(path);
  const std::vector<uint8_t> bytes = ReadAll(path);
  const uint64_t last_start = clean.records.back().offset;
  ASSERT_EQ(clean.records.back().type, WalRecordType::kBatch);

  const std::string flip = dir.path() + "/flip.wal";
  for (size_t pos = 0; pos < bytes.size(); ++pos) {
    std::vector<uint8_t> mutated = bytes;
    mutated[pos] ^= 0x5A;
    WriteAll(flip, mutated);
    auto scan = ReadWal(flip);
    if (pos >= last_start) {
      // Damage confined to the uncommitted trailing record: recovery
      // truncates it as a torn tail and loses nothing committed.
      ASSERT_TRUE(scan.ok()) << "flip at " << pos << ": "
                             << scan.status().ToString();
      EXPECT_EQ(scan->last_commit_watermark, clean.last_commit_watermark)
          << "flip at " << pos;
      EXPECT_EQ(scan->valid_bytes, last_start) << "flip at " << pos;
    } else {
      // Damage with intact records after it is bit rot, not a crash:
      // it must hard-error, never silently truncate committed history.
      EXPECT_FALSE(scan.ok()) << "flip at " << pos << " was accepted";
    }
  }
}

TEST(WalCorruptionTest, HostileBatchCountsAreRefusedBeforeAllocating) {
  // A checksum-valid batch record claiming 2^32 - 1 rows of no columns
  // (75 bytes with the header): only the payload parser can refuse it,
  // and it must do so before reserving room for the rows.
  TempDir dir("wal_hostile");
  const std::string path = dir.path() + "/hostile.wal";
  WalHeader header;
  header.table_name = "t";
  header.baseline_rows = 100;
  header.num_columns = 3;
  ASSERT_TRUE(WalWriter::Create(path, header, WalOptions()).ok());
  std::vector<uint8_t> bytes = ReadAll(path);
  ASSERT_EQ(bytes.size(), 42u);

  // Frames a record as the writer does, checksum included.
  const std::string magic(bytes.begin(), bytes.begin() + 4);
  const auto frame = [&](WalRecordType type, const std::string& payload) {
    std::string f = magic;
    storage::PutU8(&f, static_cast<uint8_t>(type));
    storage::PutU64(&f, 1);  // sequence
    storage::PutU32(&f, static_cast<uint32_t>(payload.size()));
    f += payload;
    storage::PutU64(
        &f, storage::Fnv1a(reinterpret_cast<const uint8_t*>(f.data()),
                           f.size()));
    return f;
  };
  std::string batch;
  storage::PutU32(&batch, 0xFFFFFFFFu);  // rows
  storage::PutU32(&batch, 0);            // cols
  const std::string hostile = frame(WalRecordType::kBatch, batch);
  bytes.insert(bytes.end(), hostile.begin(), hostile.end());
  ASSERT_EQ(bytes.size(), 75u);
  WriteAll(path, bytes);

  // Last in the log, it is a torn tail.
  auto scan = ReadWal(path);
  ASSERT_TRUE(scan.ok()) << scan.status().ToString();
  EXPECT_EQ(scan->records.size(), 1u);
  EXPECT_EQ(scan->valid_bytes, 42u);
  EXPECT_EQ(scan->torn_bytes, 33u);

  // Followed by a valid record, it is mid-log corruption.
  std::string commit;
  storage::PutU64(&commit, 100);  // watermark
  storage::PutU64(&commit, 0);    // epoch
  const std::string valid = frame(WalRecordType::kCommit, commit);
  bytes.insert(bytes.end(), valid.begin(), valid.end());
  WriteAll(path, bytes);
  scan = ReadWal(path);
  ASSERT_FALSE(scan.ok());
  EXPECT_EQ(scan.status().code(), StatusCode::kInvalidArgument);
}

TEST(WalCorruptionTest, FlipInFinalCommitRecordFallsBackToPreviousCommit) {
  // A log ending exactly at a commit record: damage there is
  // indistinguishable from a crash before that commit's fsync returned,
  // so it truncates back to the previous commit (which is the durable
  // state the acked history could ever have claimed).
  TempDir dir("wal_flip_commit");
  const std::string path = dir.path() + "/ingest.wal";
  WalHeader header;
  header.table_name = "t";
  header.baseline_rows = 100;
  header.num_columns = 3;
  {
    auto wal = WalWriter::Create(path, header, WalOptions());
    ASSERT_TRUE(wal.ok());
    ASSERT_TRUE((*wal)->AppendBatch(MakeRows(4, 100)).ok());
    ASSERT_TRUE((*wal)->AppendCommit(104, 1).ok());
    ASSERT_TRUE((*wal)->AppendBatch(MakeRows(2, 104)).ok());
    ASSERT_TRUE((*wal)->AppendCommit(106, 2).ok());
  }
  auto clean = ReadWal(path);
  ASSERT_TRUE(clean.ok());
  const WalRecord& final_commit = clean->records.back();
  ASSERT_EQ(final_commit.type, WalRecordType::kCommit);
  const std::vector<uint8_t> bytes = ReadAll(path);

  const std::string flip = dir.path() + "/flip.wal";
  for (uint64_t pos = final_commit.offset; pos < bytes.size(); ++pos) {
    std::vector<uint8_t> mutated = bytes;
    mutated[static_cast<size_t>(pos)] ^= 0x5A;
    WriteAll(flip, mutated);
    auto scan = ReadWal(flip);
    ASSERT_TRUE(scan.ok()) << "flip at " << pos;
    EXPECT_EQ(scan->last_commit_watermark, 104) << "flip at " << pos;
  }
}

// ---------------------------------------------------------------------
// Durable ingest + recovery over a real catalog

struct DurableFixture {
  std::shared_ptr<storage::Table> source;
  std::shared_ptr<storage::Catalog> catalog;
  std::unique_ptr<Ingestor> ingestor;
};

std::shared_ptr<storage::Catalog> FlightsBaseline(
    const std::shared_ptr<storage::Table>& source, int64_t base) {
  auto catalog = std::make_shared<storage::Catalog>();
  IDB_CHECK(catalog->AddTable(source->Prefix(base)).ok());
  catalog->set_nominal_rows(1'000'000);
  return catalog;
}

DurableFixture MakeDurableFlights(const std::string& wal_dir, int64_t base,
                                  int64_t total,
                                  WalOptions options = WalOptions(),
                                  uint64_t seed = 17) {
  datagen::FlightsSeedConfig config;
  config.rows = total;
  config.seed = seed;
  auto full = datagen::GenerateFlightsSeed(config);
  IDB_CHECK(full.ok());
  DurableFixture f;
  f.source =
      std::make_shared<storage::Table>(std::move(full).MoveValueUnsafe());
  f.catalog = FlightsBaseline(f.source, base);
  auto created =
      Ingestor::CreateDurable(f.catalog, total, wal_dir, options);
  IDB_CHECK(created.ok());
  f.ingestor = std::move(created).MoveValueUnsafe();
  return f;
}

query::QuerySpec CountByCarrier(const storage::Catalog& catalog) {
  query::QuerySpec spec;
  spec.viz_name = "carrier_hist";
  query::BinDimension d;
  d.column = "carrier";
  d.mode = query::BinningMode::kNominal;
  spec.bins.push_back(d);
  query::AggregateSpec a;
  a.type = query::AggregateType::kCount;
  spec.aggregates.push_back(a);
  IDB_CHECK(spec.ResolveBins(catalog).ok());
  return spec;
}

/// Full progressive transcript (every available poll + final) of the
/// fixture query — the bit-identity yardstick.
std::vector<std::string> Transcript(
    const std::shared_ptr<storage::Catalog>& catalog, int threads) {
  auto engine =
      engines::CreateEngine("progressive", 7, threads, /*reuse_cache=*/true);
  IDB_CHECK(engine.ok());
  IDB_CHECK((*engine)->Prepare(catalog).ok());
  auto handle = (*engine)->Submit(CountByCarrier(*catalog));
  IDB_CHECK(handle.ok());
  std::vector<std::string> out;
  for (int s = 0; s < 4096 && !(*engine)->IsDone(*handle); ++s) {
    (*engine)->RunFor(*handle, 1'000'000);
    auto result = (*engine)->PollResult(*handle);
    if (result.ok() && result->available) {
      out.push_back(net::QueryResultToJson(*result).Dump());
    }
  }
  IDB_CHECK((*engine)->IsDone(*handle));
  return out;
}

TEST(WalRecoveryTest, ReplaysCommittedEpochsDropsUncommittedTail) {
  TempDir dir("wal_recover");
  DurableFixture f = MakeDurableFlights(dir.path(), 1000, 1800);
  int64_t cursor = 1000;
  for (int epoch = 0; epoch < 3; ++epoch) {
    ASSERT_TRUE(
        f.ingestor->Append(BatchFromTable(*f.source, cursor, cursor + 200))
            .ok());
    cursor += 200;
    ASSERT_TRUE(f.ingestor->Publish().ok());
  }
  // Staged but never published: must not survive recovery.
  ASSERT_TRUE(
      f.ingestor->Append(BatchFromTable(*f.source, cursor, cursor + 150))
          .ok());
  ASSERT_EQ(f.ingestor->visible_rows(), 1600);
  ASSERT_EQ(f.ingestor->staged_rows(), 150);
  const std::vector<int64_t> live_boundaries =
      f.ingestor->table().epoch_boundaries();

  // "Crash": drop the ingestor (no drain of staged rows) and recover
  // over a fresh identical baseline.
  f.ingestor.reset();
  auto catalog = FlightsBaseline(f.source, 1000);
  RecoverInfo info;
  auto recovered =
      Ingestor::Recover(catalog, 1800, dir.path(), WalOptions(), &info);
  ASSERT_TRUE(recovered.ok()) << recovered.status().ToString();
  EXPECT_EQ(info.epochs_replayed, 3);
  EXPECT_EQ(info.rows_replayed, 600);
  EXPECT_EQ(info.watermark, 1600);
  EXPECT_EQ(info.uncommitted_rows_dropped, 150);
  EXPECT_EQ((*recovered)->visible_rows(), 1600);
  EXPECT_EQ((*recovered)->staged_rows(), 0);
  // The epoch history — what seeds every shuffled walk — is identical.
  EXPECT_EQ((*recovered)->table().epoch_boundaries(), live_boundaries);
  // And the visible rows themselves are bit-identical to the source.
  for (int64_t r = 0; r < 1600; ++r) {
    ASSERT_EQ((*recovered)->table().RowToString(r), f.source->RowToString(r))
        << "row " << r;
  }
}

TEST(WalRecoveryTest, PostRecoveryTranscriptsBitIdentical) {
  TempDir dir("wal_transcript");
  DurableFixture f = MakeDurableFlights(dir.path(), 1000, 1600);
  int64_t cursor = 1000;
  for (int epoch = 0; epoch < 3; ++epoch) {
    ASSERT_TRUE(
        f.ingestor->Append(BatchFromTable(*f.source, cursor, cursor + 150))
            .ok());
    cursor += 150;
    ASSERT_TRUE(f.ingestor->Publish().ok());
  }
  const auto live_catalog = f.catalog;
  f.ingestor.reset();

  auto catalog = FlightsBaseline(f.source, 1000);
  auto recovered = Ingestor::Recover(catalog, 1600, dir.path());
  ASSERT_TRUE(recovered.ok());
  for (const int threads : {1, 4}) {
    EXPECT_EQ(Transcript(catalog, threads), Transcript(live_catalog, threads))
        << "threads=" << threads;
  }
}

TEST(WalRecoveryTest, RecoveryIsIdempotent) {
  TempDir dir("wal_idem");
  DurableFixture f = MakeDurableFlights(dir.path(), 500, 900);
  ASSERT_TRUE(
      f.ingestor->Append(BatchFromTable(*f.source, 500, 700)).ok());
  ASSERT_TRUE(f.ingestor->Publish().ok());
  ASSERT_TRUE(
      f.ingestor->Append(BatchFromTable(*f.source, 700, 800)).ok());  // staged
  f.ingestor.reset();

  auto first_catalog = FlightsBaseline(f.source, 500);
  RecoverInfo first;
  ASSERT_TRUE(Ingestor::Recover(first_catalog, 900, dir.path(), WalOptions(),
                                &first)
                  .ok());
  EXPECT_EQ(first.watermark, 700);
  EXPECT_EQ(first.uncommitted_rows_dropped, 100);

  // The first recovery truncated the log to its committed prefix, so a
  // second recovery (recover-from-recovery) sees a clean log.
  auto second_catalog = FlightsBaseline(f.source, 500);
  RecoverInfo second;
  ASSERT_TRUE(Ingestor::Recover(second_catalog, 900, dir.path(),
                                WalOptions(), &second)
                  .ok());
  EXPECT_EQ(second.watermark, 700);
  EXPECT_EQ(second.uncommitted_rows_dropped, 0);
  EXPECT_EQ(second.torn_bytes_dropped, 0);
  EXPECT_EQ(second.epochs_replayed, first.epochs_replayed);
}

TEST(WalRecoveryTest, ResumedLogContinuesAfterRecovery) {
  TempDir dir("wal_resume");
  DurableFixture f = MakeDurableFlights(dir.path(), 500, 900);
  ASSERT_TRUE(
      f.ingestor->Append(BatchFromTable(*f.source, 500, 600)).ok());
  ASSERT_TRUE(f.ingestor->Publish().ok());
  f.ingestor.reset();

  auto catalog = FlightsBaseline(f.source, 500);
  auto recovered = Ingestor::Recover(catalog, 900, dir.path());
  ASSERT_TRUE(recovered.ok());
  ASSERT_TRUE(
      (*recovered)->Append(BatchFromTable(*f.source, 600, 700)).ok());
  ASSERT_TRUE((*recovered)->Publish().ok());
  EXPECT_EQ((*recovered)->visible_rows(), 700);
  recovered->reset();

  // The appended-after-recovery epoch replays too, with dense sequences.
  auto scan = ReadWal(Ingestor::WalPath(dir.path()));
  ASSERT_TRUE(scan.ok());
  EXPECT_EQ(scan->commits, 2);
  EXPECT_EQ(scan->last_commit_watermark, 700);
  for (size_t i = 0; i < scan->records.size(); ++i) {
    EXPECT_EQ(scan->records[i].sequence, i);
  }
  auto catalog2 = FlightsBaseline(f.source, 500);
  RecoverInfo info;
  ASSERT_TRUE(
      Ingestor::Recover(catalog2, 900, dir.path(), WalOptions(), &info).ok());
  EXPECT_EQ(info.watermark, 700);
  EXPECT_EQ(info.epochs_replayed, 2);
}

TEST(WalRecoveryTest, RejectsMismatchedBaseline) {
  TempDir dir("wal_mismatch");
  DurableFixture f = MakeDurableFlights(dir.path(), 500, 900);
  ASSERT_TRUE(
      f.ingestor->Append(BatchFromTable(*f.source, 500, 600)).ok());
  ASSERT_TRUE(f.ingestor->Publish().ok());
  f.ingestor.reset();

  // Wrong row count: the log was created against a 500-row baseline.
  auto short_catalog = FlightsBaseline(f.source, 400);
  EXPECT_FALSE(Ingestor::Recover(short_catalog, 900, dir.path()).ok());

  // Missing log directory entirely.
  auto ok_catalog = FlightsBaseline(f.source, 500);
  EXPECT_FALSE(
      Ingestor::Recover(ok_catalog, 900, dir.path() + "/nope").ok());
}

// ---------------------------------------------------------------------
// Fault injection: the truncate-on-failure discipline

TEST(WalFaultTest, FailedAppendLeavesLogAndEpochUntouched) {
  TempDir dir("wal_fault_append");
  DurableFixture f = MakeDurableFlights(dir.path(), 500, 900);
  ASSERT_TRUE(
      f.ingestor->Append(BatchFromTable(*f.source, 500, 600)).ok());
  ASSERT_TRUE(f.ingestor->Publish().ok());
  const auto before = ReadAll(Ingestor::WalPath(dir.path()));

  FaultInjector injector(11);
  FaultSiteConfig config;
  config.probability = 1.0;
  config.budget = 1;
  injector.Arm(FaultSite::kWalAppend, config);
  {
    ScopedFaultInjector scoped(&injector);
    const Status st =
        f.ingestor->Append(BatchFromTable(*f.source, 600, 700));
    EXPECT_FALSE(st.ok());
    EXPECT_EQ(st.code(), StatusCode::kIoError);
  }
  // Nothing staged, and the log is byte-identical: the half-written
  // record was truncated back off.
  EXPECT_EQ(f.ingestor->staged_rows(), 0);
  EXPECT_EQ(ReadAll(Ingestor::WalPath(dir.path())), before);
  EXPECT_GT(f.ingestor->wal()->stats().rollback_bytes, 0);

  // The retry (budget exhausted) succeeds and the log stays replayable.
  ASSERT_TRUE(
      f.ingestor->Append(BatchFromTable(*f.source, 600, 700)).ok());
  ASSERT_TRUE(f.ingestor->Publish().ok());
  auto scan = ReadWal(Ingestor::WalPath(dir.path()));
  ASSERT_TRUE(scan.ok());
  EXPECT_EQ(scan->commits, 2);
  EXPECT_EQ(scan->last_commit_watermark, 700);
}

/// The replay-divergence regression: a publish whose commit write or
/// fsync fails, followed by more appends and a successful publish, must
/// leave a log whose replay produces the *live* epoch history — i.e. the
/// failed publish's would-be boundary must not exist anywhere.
void FailedPublishThenRetryStaysReplayable(FaultSite site) {
  TempDir dir(std::string("wal_fault_") + chaos::FaultSiteName(site));
  DurableFixture f = MakeDurableFlights(dir.path(), 500, 900);
  ASSERT_TRUE(
      f.ingestor->Append(BatchFromTable(*f.source, 500, 600)).ok());

  FaultInjector injector(13);
  FaultSiteConfig config;
  config.probability = 1.0;
  config.budget = 1;
  injector.Arm(site, config);
  {
    ScopedFaultInjector scoped(&injector);
    auto watermark = f.ingestor->Publish();
    EXPECT_FALSE(watermark.ok());
  }
  // The watermark did not move and the rows stay staged.
  EXPECT_EQ(f.ingestor->visible_rows(), 500);
  EXPECT_EQ(f.ingestor->staged_rows(), 100);
  EXPECT_FALSE(f.ingestor->durable());  // batch logged, commit rolled off

  // More work lands, then a publish succeeds: ONE epoch with both
  // batches, exactly what the live table shows.
  ASSERT_TRUE(
      f.ingestor->Append(BatchFromTable(*f.source, 600, 650)).ok());
  ASSERT_TRUE(f.ingestor->Publish().ok());
  EXPECT_TRUE(f.ingestor->durable());
  const std::vector<int64_t> live_boundaries =
      f.ingestor->table().epoch_boundaries();
  ASSERT_EQ(live_boundaries, (std::vector<int64_t>{500, 650}));
  f.ingestor.reset();

  auto catalog = FlightsBaseline(f.source, 500);
  RecoverInfo info;
  auto recovered =
      Ingestor::Recover(catalog, 900, dir.path(), WalOptions(), &info);
  ASSERT_TRUE(recovered.ok()) << recovered.status().ToString();
  EXPECT_EQ((*recovered)->table().epoch_boundaries(), live_boundaries);
  EXPECT_EQ(info.epochs_replayed, 1);
  EXPECT_EQ(info.watermark, 650);
}

TEST(WalFaultTest, FailedCommitWriteThenRetryStaysReplayable) {
  FailedPublishThenRetryStaysReplayable(FaultSite::kWalCommit);
}

TEST(WalFaultTest, FailedCommitFsyncThenRetryStaysReplayable) {
  FailedPublishThenRetryStaysReplayable(FaultSite::kWalFsync);
}

TEST(WalFaultTest, SegmentWriteFaultLeavesNoTornDestination) {
  TempDir dir("wal_fault_segment");
  datagen::FlightsSeedConfig config;
  config.rows = 300;
  config.seed = 23;
  auto full = datagen::GenerateFlightsSeed(config);
  ASSERT_TRUE(full.ok());
  auto source =
      std::make_shared<storage::Table>(std::move(full).MoveValueUnsafe());
  auto catalog = FlightsBaseline(source, 300);

  // First write succeeds: a valid catalog is on disk.
  ASSERT_TRUE(
      storage::WriteCatalogSegments(*catalog, dir.path() + "/seg").ok());
  auto before = storage::LoadCatalogSegments(dir.path() + "/seg");
  ASSERT_TRUE(before.ok());

  // Every later write attempt fails mid-stream — the destination files
  // must remain the previous, fully valid versions.
  FaultInjector injector(29);
  FaultSiteConfig fault;
  fault.probability = 1.0;
  injector.Arm(FaultSite::kSegmentWrite, fault);
  {
    ScopedFaultInjector scoped(&injector);
    const Status st =
        storage::WriteCatalogSegments(*catalog, dir.path() + "/seg");
    EXPECT_FALSE(st.ok());
    EXPECT_EQ(st.code(), StatusCode::kIoError);
  }
  auto after = storage::LoadCatalogSegments(dir.path() + "/seg");
  ASSERT_TRUE(after.ok()) << after.status().ToString();
  EXPECT_EQ(after->fact_table()->num_rows(), 300);
  // No temp debris left behind.
  for (const auto& entry :
       std::filesystem::directory_iterator(dir.path() + "/seg")) {
    EXPECT_EQ(entry.path().extension(), entry.path().filename() == "manifest.json"
                                            ? ".json"
                                            : ".seg")
        << "stray file: " << entry.path();
  }
}

// ---------------------------------------------------------------------
// Group commit

TEST(WalGroupCommitTest, DurabilityLagsUntilTheGroupBoundaryOrDrain) {
  TempDir dir("wal_group");
  WalOptions options;
  options.sync = WalSync::kGrouped;
  options.group_commit_interval = 3;
  DurableFixture f = MakeDurableFlights(dir.path(), 500, 900, options);

  int64_t cursor = 500;
  for (int epoch = 0; epoch < 2; ++epoch) {
    ASSERT_TRUE(
        f.ingestor->Append(BatchFromTable(*f.source, cursor, cursor + 50))
            .ok());
    cursor += 50;
    ASSERT_TRUE(f.ingestor->Publish().ok());
    EXPECT_FALSE(f.ingestor->durable()) << "epoch " << epoch;
  }
  EXPECT_EQ(f.ingestor->wal()->stats().syncs, 0);

  // Third commit crosses the interval: everything becomes durable.
  ASSERT_TRUE(
      f.ingestor->Append(BatchFromTable(*f.source, cursor, cursor + 50))
          .ok());
  cursor += 50;
  ASSERT_TRUE(f.ingestor->Publish().ok());
  EXPECT_TRUE(f.ingestor->durable());
  EXPECT_EQ(f.ingestor->wal()->stats().syncs, 1);

  // A fourth commit is again non-durable until the explicit drain.
  ASSERT_TRUE(
      f.ingestor->Append(BatchFromTable(*f.source, cursor, cursor + 50))
          .ok());
  ASSERT_TRUE(f.ingestor->Publish().ok());
  EXPECT_FALSE(f.ingestor->durable());
  ASSERT_TRUE(f.ingestor->SyncWal().ok());
  EXPECT_TRUE(f.ingestor->durable());
}

// ---------------------------------------------------------------------
// Chaos plumbing used by crash_runner

TEST(WalChaosTest, FireOnDrawFiresExactlyOnceConsumingNoRandomness) {
  FaultInjector injector(99);
  FaultSiteConfig config;
  config.fire_on_draw = 2;
  injector.Arm(FaultSite::kWalAppend, config);
  EXPECT_FALSE(injector.ShouldFire(FaultSite::kWalAppend));  // draw 0
  EXPECT_FALSE(injector.ShouldFire(FaultSite::kWalAppend));  // draw 1
  EXPECT_TRUE(injector.ShouldFire(FaultSite::kWalAppend));   // draw 2
  EXPECT_FALSE(injector.ShouldFire(FaultSite::kWalAppend));  // draw 3
  const auto stats = injector.site_stats(FaultSite::kWalAppend);
  EXPECT_EQ(stats.draws, 4);
  EXPECT_EQ(stats.fires, 1);
}

}  // namespace
}  // namespace idebench::ingest
