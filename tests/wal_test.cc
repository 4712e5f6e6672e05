// Tests for the write-ahead log: segment framing and replay, torn-tail vs
// mid-log-corruption classification, the recovery policy (truncate / delete /
// quarantine), Dataset replay on reopen, and the sync-mode durability
// contracts under simulated power loss.

#include <chrono>
#include <cstdlib>
#include <filesystem>
#include <string>
#include <thread>
#include <vector>

#include <gtest/gtest.h>

#include "common/coding.h"
#include "common/crc32c.h"
#include "common/env.h"
#include "db/dataset.h"
#include "lsm/lsm_tree.h"
#include "lsm/scheduler.h"
#include "lsm/wal.h"
#include "lsm/write_batch.h"
#include "workload/tweets.h"

namespace lsmstats {
namespace {

struct ReplayedRecord {
  WalOp op;
  LsmKey key;
  std::string value;
};

// Rewrites `path` with one byte XOR-flipped at `offset`.
void FlipByte(Env* env, const std::string& path, uint64_t offset) {
  auto reader = env->NewRandomAccessFile(path);
  ASSERT_TRUE(reader.ok());
  std::string data;
  ASSERT_TRUE(
      (*reader)->Read(0, static_cast<size_t>((*reader)->size()), &data).ok());
  ASSERT_LT(offset, data.size());
  data[offset] ^= 0x40;
  auto file = env->NewWritableFile(path);
  ASSERT_TRUE(file.ok());
  ASSERT_TRUE((*file)->Append(data).ok());
  ASSERT_TRUE((*file)->Close().ok());
}

// The WAL record fields, composed independently of wal.cc.
void PutExpectedFields(Encoder* payload, WalOp op, const LsmKey& key,
                      std::string_view value) {
  payload->PutU8(static_cast<uint8_t>(op));
  payload->PutI64(key.k0);
  payload->PutI64(key.k1);
  payload->PutI64(key.k2);
  payload->PutString(value);
}

// [len varint][crc32c(payload) u32][payload].
std::string ExpectedFrame(const Encoder& payload) {
  Encoder header;
  header.PutVarint64(payload.size());
  header.PutU32(crc32c::Value(payload.buffer()));
  return header.buffer() + payload.buffer();
}

class WalTest : public ::testing::Test {
 protected:
  void SetUp() override {
    char tmpl[] = "/tmp/lsmstats_wal_XXXXXX";
    dir_ = ::mkdtemp(tmpl);
  }
  void TearDown() override { std::filesystem::remove_all(dir_); }

  // A WAL-on tweets dataset (one secondary index on the metric field).
  DatasetOptions Options() const {
    DatasetOptions options;
    options.directory = dir_;
    options.name = "tweets";
    options.schema = TweetSchema(ValueDomain(0, 14));
    options.memtable_max_entries = 100;
    options.wal = true;
    return options;
  }

  // A record with metric `metric` whose payload names its pk.
  static Record Tweet(int64_t pk, int64_t metric) {
    Record record;
    record.pk = pk;
    record.fields = {metric, 0};
    record.payload = "v" + std::to_string(pk);
    return record;
  }

  static void ExpectTweet(const Dataset& dataset, int64_t pk,
                          int64_t metric) {
    auto record = dataset.Get(pk);
    ASSERT_TRUE(record.ok()) << "pk " << pk << ": "
                             << record.status().ToString();
    EXPECT_EQ(record->fields[0], metric) << "pk " << pk;
    EXPECT_EQ(record->payload, "v" + std::to_string(pk));
  }

  // Basenames of the `.wal` segments currently in the directory.
  std::vector<std::string> WalFiles() const {
    std::vector<std::string> result;
    for (const auto& entry : std::filesystem::directory_iterator(dir_)) {
      if (entry.path().extension() == ".wal") {
        result.push_back(entry.path().filename().string());
      }
    }
    return result;
  }

  std::string dir_;
};

// --------------------------------------------------------- segment framing

TEST_F(WalTest, SegmentRoundTrip) {
  Env* env = Env::Default();
  std::string path = WalFilePath(dir_, "t", 1);
  auto writer = WalSegmentWriter::Create(env, path);
  ASSERT_TRUE(writer.ok());
  ASSERT_TRUE((*writer)->Append(WalOp::kPut, PrimaryKey(1), "one").ok());
  ASSERT_TRUE((*writer)->Append(WalOp::kDelete, PrimaryKey(2), "").ok());
  ASSERT_TRUE(
      (*writer)->Append(WalOp::kAntiMatter, SecondaryKey(3, 4), "").ok());
  EXPECT_EQ((*writer)->records_appended(), 3u);
  ASSERT_TRUE((*writer)->Close().ok());

  std::vector<ReplayedRecord> records;
  auto replay = ReplayWalSegment(
      env, path, [&](uint32_t, WalOp op, const LsmKey& key, std::string_view value) {
        records.push_back({op, key, std::string(value)});
      });
  ASSERT_TRUE(replay.ok()) << replay.status().ToString();
  EXPECT_EQ(replay->tail, WalTail::kClean);
  EXPECT_EQ(replay->records_applied, 3u);
  EXPECT_EQ(replay->valid_bytes, std::filesystem::file_size(path));
  ASSERT_EQ(records.size(), 3u);
  EXPECT_EQ(records[0].op, WalOp::kPut);
  EXPECT_EQ(records[0].key, PrimaryKey(1));
  EXPECT_EQ(records[0].value, "one");
  EXPECT_EQ(records[1].op, WalOp::kDelete);
  EXPECT_EQ(records[1].key, PrimaryKey(2));
  EXPECT_EQ(records[2].op, WalOp::kAntiMatter);
  EXPECT_EQ(records[2].key, SecondaryKey(3, 4));
}

TEST_F(WalTest, TornTailClassifiedAndTruncatedByRecovery) {
  Env* env = Env::Default();
  std::string path = WalFilePath(dir_, "t", 1);
  {
    auto writer = WalSegmentWriter::Create(env, path).value();
    for (int64_t k = 0; k < 5; ++k) {
      ASSERT_TRUE(writer->Append(WalOp::kPut, PrimaryKey(k), "vv").ok());
    }
    ASSERT_TRUE(writer->Close().ok());
  }
  // Shear a few bytes off the final frame, as an interrupted append would.
  std::filesystem::resize_file(path, std::filesystem::file_size(path) - 3);

  uint64_t applied = 0;
  auto replay = ReplayWalSegment(
      env, path, [&](uint32_t, WalOp, const LsmKey&, std::string_view) { ++applied; });
  ASSERT_TRUE(replay.ok());
  EXPECT_EQ(replay->tail, WalTail::kTorn);
  EXPECT_EQ(replay->records_applied, 4u);
  EXPECT_EQ(applied, 4u);

  // Recovery truncates back to the last whole frame; a second replay of the
  // same segment is then clean with the same record count.
  auto recovery = RecoverWalSegments(
      env, dir_, "t", [](uint32_t, WalOp, const LsmKey&, std::string_view) {});
  ASSERT_TRUE(recovery.ok()) << recovery.status().ToString();
  EXPECT_TRUE(recovery->truncated_torn_tail);
  EXPECT_EQ(recovery->records_applied, 4u);
  ASSERT_EQ(recovery->live_segments.size(), 1u);
  EXPECT_EQ(std::filesystem::file_size(path), replay->valid_bytes);
  auto second = ReplayWalSegment(env, path,
                                 [](uint32_t, WalOp, const LsmKey&, std::string_view) {});
  ASSERT_TRUE(second.ok());
  EXPECT_EQ(second->tail, WalTail::kClean);
  EXPECT_EQ(second->records_applied, 4u);
}

TEST_F(WalTest, MidLogCorruptionStopsReplayAtTheDamage) {
  Env* env = Env::Default();
  std::string path = WalFilePath(dir_, "t", 1);
  {
    auto writer = WalSegmentWriter::Create(env, path).value();
    // Identical value sizes => identical frame sizes.
    ASSERT_TRUE(writer->Append(WalOp::kPut, PrimaryKey(0), "aa").ok());
    ASSERT_TRUE(writer->Append(WalOp::kPut, PrimaryKey(1), "bb").ok());
    ASSERT_TRUE(writer->Append(WalOp::kPut, PrimaryKey(2), "cc").ok());
    ASSERT_TRUE(writer->Close().ok());
  }
  const uint64_t size = std::filesystem::file_size(path);
  ASSERT_EQ(size % 3, 0u);
  const uint64_t frame_size = size / 3;
  // Flip a bit inside the second frame's CRC field (frame layout:
  // [len varint][crc u32][payload], so offset frame_size + 1 is in the CRC).
  FlipByte(env, path, frame_size + 1);

  uint64_t applied = 0;
  auto replay = ReplayWalSegment(
      env, path, [&](uint32_t, WalOp, const LsmKey&, std::string_view) { ++applied; });
  ASSERT_TRUE(replay.ok());
  EXPECT_EQ(replay->tail, WalTail::kCorrupt);
  EXPECT_EQ(replay->records_applied, 1u);
  EXPECT_EQ(applied, 1u);
  EXPECT_EQ(replay->valid_bytes, frame_size);
}

TEST_F(WalTest, RecoveryQuarantinesCorruptSegmentAndAllNewer) {
  Env* env = Env::Default();
  std::string corrupt = WalFilePath(dir_, "t", 1);
  std::string newer = WalFilePath(dir_, "t", 2);
  for (const std::string& path : {corrupt, newer}) {
    auto writer = WalSegmentWriter::Create(env, path).value();
    ASSERT_TRUE(writer->Append(WalOp::kPut, PrimaryKey(0), "aa").ok());
    ASSERT_TRUE(writer->Append(WalOp::kPut, PrimaryKey(1), "bb").ok());
    ASSERT_TRUE(writer->Close().ok());
  }
  const uint64_t frame_size = std::filesystem::file_size(corrupt) / 2;
  FlipByte(env, corrupt, frame_size + 1);

  auto recovery = RecoverWalSegments(
      env, dir_, "t", [](uint32_t, WalOp, const LsmKey&, std::string_view) {});
  ASSERT_TRUE(recovery.ok()) << recovery.status().ToString();
  // Records behind the damage would replay above a hole; both segments go.
  EXPECT_TRUE(recovery->live_segments.empty());
  ASSERT_EQ(recovery->quarantined_files.size(), 2u);
  EXPECT_TRUE(std::filesystem::exists(corrupt + ".quarantine"));
  EXPECT_TRUE(std::filesystem::exists(newer + ".quarantine"));
  EXPECT_FALSE(std::filesystem::exists(corrupt));
  EXPECT_FALSE(std::filesystem::exists(newer));
  // Sequence numbering continues past the quarantined segments.
  EXPECT_EQ(recovery->next_sequence, 3u);

  // Recovery is idempotent: the quarantined files are invisible to a rerun.
  auto rerun = RecoverWalSegments(
      env, dir_, "t", [](uint32_t, WalOp, const LsmKey&, std::string_view) {});
  ASSERT_TRUE(rerun.ok());
  EXPECT_TRUE(rerun->live_segments.empty());
  EXPECT_TRUE(rerun->quarantined_files.empty());
}

TEST_F(WalTest, SyncModeStringsRoundTrip) {
  for (WalSyncMode mode : {WalSyncMode::kNone, WalSyncMode::kFlushOnly,
                           WalSyncMode::kEveryRecord}) {
    auto parsed = WalSyncModeFromString(WalSyncModeToString(mode));
    ASSERT_TRUE(parsed.ok());
    EXPECT_EQ(*parsed, mode);
  }
  EXPECT_EQ(WalSyncModeFromString("asap").status().code(),
            StatusCode::kInvalidArgument);
  EXPECT_EQ(WalSyncModeFromString("").status().code(),
            StatusCode::kInvalidArgument);
}

// -------------------------------------------------------- dataset replay

TEST_F(WalTest, ReopenReplaysUnflushedWrites) {
  {
    auto dataset = Dataset::Open(Options()).value();
    for (int64_t pk = 0; pk < 10; ++pk) {
      ASSERT_TRUE(dataset->Insert(Tweet(pk, pk % 5)).ok());
    }
  }  // "crash": nothing was ever flushed to a component
  auto dataset = Dataset::Open(Options()).value();
  EXPECT_EQ(dataset->primary()->ComponentCount(), 0u);  // in the memtable
  for (int64_t pk = 0; pk < 10; ++pk) ExpectTweet(*dataset, pk, pk % 5);
  EXPECT_EQ(dataset->CountRange(kTweetMetricField, 0, 14).value(), 10u);
  // Flushing persists the replayed records and retires the log.
  ASSERT_TRUE(dataset->Flush().ok());
  EXPECT_EQ(dataset->primary()->ComponentCount(), 1u);
  EXPECT_TRUE(WalFiles().empty());
}

TEST_F(WalTest, ReplayPreservesUpdatesAndDeletes) {
  {
    auto dataset = Dataset::Open(Options()).value();
    ASSERT_TRUE(dataset->Insert(Tweet(1, 1)).ok());
    ASSERT_TRUE(dataset->Insert(Tweet(2, 2)).ok());
    ASSERT_TRUE(dataset->Update(Tweet(1, 3)).ok());
    ASSERT_TRUE(dataset->Delete(2).ok());
  }
  auto dataset = Dataset::Open(Options()).value();
  ExpectTweet(*dataset, 1, 3);
  EXPECT_EQ(dataset->Get(2).status().code(), StatusCode::kNotFound);
  // The secondary index replayed the update's anti-matter and the delete.
  EXPECT_EQ(dataset->CountRange(kTweetMetricField, 1, 2).value(), 0u);
  EXPECT_EQ(dataset->CountRange(kTweetMetricField, 3, 3).value(), 1u);
}

// Replay re-applies puts as non-fresh, so deleting a replayed record writes
// anti-matter even though no component holds the record. A full merge must
// still reconcile it when that flush produced the tree's only component.
TEST_F(WalTest, FullMergeDropsAntiMatterOfReplayedDeletesInLoneComponent) {
  {
    auto dataset = Dataset::Open(Options()).value();
    ASSERT_TRUE(dataset->Insert(Tweet(1, 1)).ok());
    ASSERT_TRUE(dataset->Insert(Tweet(2, 2)).ok());
  }
  auto dataset = Dataset::Open(Options()).value();
  ASSERT_TRUE(dataset->Delete(2).ok());
  ASSERT_TRUE(dataset->Flush().ok());
  const LsmTree* primary = dataset->primary();
  ASSERT_EQ(primary->ComponentCount(), 1u);
  ASSERT_EQ(primary->ComponentsMetadata()[0].anti_matter_count, 1u);

  ASSERT_TRUE(dataset->ForceFullMerge().ok());
  ASSERT_EQ(primary->ComponentCount(), 1u);
  EXPECT_EQ(primary->ComponentsMetadata()[0].anti_matter_count, 0u);
  EXPECT_EQ(primary->ComponentsMetadata()[0].record_count, 1u);
  ExpectTweet(*dataset, 1, 1);
  EXPECT_EQ(dataset->Get(2).status().code(), StatusCode::kNotFound);
  // With nothing left to reconcile, a further full merge is a no-op.
  const uint64_t id = primary->ComponentsMetadata()[0].id;
  ASSERT_TRUE(dataset->ForceFullMerge().ok());
  EXPECT_EQ(primary->ComponentsMetadata()[0].id, id);
}

TEST_F(WalTest, UpdatesStayOrderedAcrossSegmentGenerations) {
  {
    auto dataset = Dataset::Open(Options()).value();
    ASSERT_TRUE(dataset->Insert(Tweet(1, 1)).ok());
  }
  {
    // The recovered record rides in the memtables backed by its original
    // segment; the new write opens a second segment.
    auto dataset = Dataset::Open(Options()).value();
    ASSERT_TRUE(dataset->Update(Tweet(1, 2)).ok());
    EXPECT_EQ(WalFiles().size(), 2u);
  }
  auto dataset = Dataset::Open(Options()).value();
  // The newer segment replayed after the older one.
  ExpectTweet(*dataset, 1, 2);
  // One flush retires both generations.
  ASSERT_TRUE(dataset->Flush().ok());
  EXPECT_TRUE(WalFiles().empty());
  ExpectTweet(*dataset, 1, 2);
  EXPECT_EQ(dataset->CountRange(kTweetMetricField, 1, 1).value(), 0u);
}

TEST_F(WalTest, TornSegmentTailTruncatedOnReopen) {
  {
    auto dataset = Dataset::Open(Options()).value();
    for (int64_t pk = 0; pk < 5; ++pk) {
      ASSERT_TRUE(dataset->Insert(Tweet(pk, 1)).ok());
    }
  }
  auto files = WalFiles();
  ASSERT_EQ(files.size(), 1u);
  std::string path = dir_ + "/" + files[0];
  std::filesystem::resize_file(path, std::filesystem::file_size(path) - 3);

  auto dataset = Dataset::Open(Options()).value();
  // The whole-frame prefix survives; only the sheared final insert is lost,
  // from every index at once.
  for (int64_t pk = 0; pk < 4; ++pk) ExpectTweet(*dataset, pk, 1);
  EXPECT_EQ(dataset->Get(4).status().code(), StatusCode::kNotFound);
  EXPECT_EQ(dataset->CountRange(kTweetMetricField, 1, 1).value(), 4u);
  EXPECT_FALSE(std::filesystem::exists(path + ".quarantine"));
  // The recovered dataset keeps working and retires the truncated segment.
  ASSERT_TRUE(dataset->Insert(Tweet(4, 1)).ok());
  ASSERT_TRUE(dataset->Flush().ok());
  EXPECT_TRUE(WalFiles().empty());
  EXPECT_EQ(dataset->CountAll().value(), 5u);
}

TEST_F(WalTest, CorruptSegmentQuarantinedOnReopen) {
  {
    auto dataset = Dataset::Open(Options()).value();
    // Same-width records, so the three insert frames are the same size.
    for (int64_t pk = 0; pk < 3; ++pk) {
      ASSERT_TRUE(dataset->Insert(Tweet(pk, 1)).ok());
    }
  }
  auto files = WalFiles();
  ASSERT_EQ(files.size(), 1u);
  std::string path = dir_ + "/" + files[0];
  const uint64_t size = std::filesystem::file_size(path);
  ASSERT_EQ(size % 3, 0u);
  const uint64_t frame_size = size / 3;
  FlipByte(Env::Default(), path, frame_size + frame_size / 2);  // 2nd payload

  auto dataset_or = Dataset::Open(Options());
  ASSERT_TRUE(dataset_or.ok()) << dataset_or.status().ToString();
  auto& dataset = *dataset_or;
  EXPECT_TRUE(std::filesystem::exists(path + ".quarantine"));
  EXPECT_FALSE(std::filesystem::exists(path));
  EXPECT_EQ(dataset->Health().wal_quarantined_files,
            std::vector<std::string>{path + ".quarantine"});
  // Records ahead of the damage were replayed; the rest are lost with the
  // quarantined segment, never silently half-applied.
  ExpectTweet(*dataset, 0, 1);
  EXPECT_EQ(dataset->Get(1).status().code(), StatusCode::kNotFound);
  EXPECT_EQ(dataset->Get(2).status().code(), StatusCode::kNotFound);
  EXPECT_EQ(dataset->CountRange(kTweetMetricField, 0, 14).value(), 1u);
}

TEST_F(WalTest, EmptySegmentDeletedAtRecovery) {
  // A crash between segment creation and the first durable append leaves a
  // zero-length file; recovery removes it rather than tracking a segment
  // that backs no records.
  {
    auto writer = WalSegmentWriter::Create(
        Env::Default(), WalFilePath(dir_, "tweets_wal", 9));
    ASSERT_TRUE(writer.ok());
    ASSERT_TRUE((*writer)->Close().ok());
  }
  auto dataset = Dataset::Open(Options()).value();
  EXPECT_TRUE(WalFiles().empty());
  EXPECT_TRUE(dataset->Health().wal_quarantined_files.empty());
  // Sequence numbers still advance past the deleted segment.
  ASSERT_TRUE(dataset->Insert(Tweet(1, 1)).ok());
  auto files = WalFiles();
  ASSERT_EQ(files.size(), 1u);
  EXPECT_EQ(files[0], "tweets_wal_10.wal");
}

TEST_F(WalTest, ExplicitWalOffCreatesNoSegments) {
  DatasetOptions options = Options();
  options.wal = false;
  {
    auto dataset = Dataset::Open(options).value();
    for (int64_t pk = 0; pk < 10; ++pk) {
      ASSERT_TRUE(dataset->Insert(Tweet(pk, 1)).ok());
    }
    EXPECT_TRUE(WalFiles().empty());
  }
  // Pre-WAL semantics: unflushed memtables die with the process.
  auto dataset = Dataset::Open(options).value();
  EXPECT_EQ(dataset->Get(0).status().code(), StatusCode::kNotFound);
  EXPECT_TRUE(WalFiles().empty());
}

TEST_F(WalTest, DisablingWalReplaysAndRetiresOldSegments) {
  {
    auto dataset = Dataset::Open(Options()).value();
    ASSERT_TRUE(dataset->Insert(Tweet(1, 1)).ok());
  }
  // Reopen with the WAL switched off: the old segment must still be
  // replayed (its records were acknowledged) and retired by the next flush,
  // not silently ignored.
  DatasetOptions off = Options();
  off.wal = false;
  auto dataset = Dataset::Open(off).value();
  ExpectTweet(*dataset, 1, 1);
  ASSERT_TRUE(dataset->Flush().ok());
  EXPECT_TRUE(WalFiles().empty());
}

// A per-tree log (`<tree>_<seq>.wal`) is retired: a directory holding one is
// refused by name instead of opening without the records it holds.
TEST_F(WalTest, DatasetRefusesRetiredPerTreeSegments) {
  const std::string retired = WalFilePath(dir_, "tweets_pk", 3);
  {
    auto writer = WalSegmentWriter::Create(Env::Default(), retired).value();
    ASSERT_TRUE(writer->Append(WalOp::kPut, PrimaryKey(7), "lost?").ok());
    ASSERT_TRUE(writer->Close().ok());
  }
  auto dataset = Dataset::Open(Options());
  ASSERT_FALSE(dataset.ok());
  EXPECT_EQ(dataset.status().code(), StatusCode::kUnimplemented);
  EXPECT_NE(dataset.status().message().find("retired per-tree WAL"),
            std::string::npos)
      << dataset.status().ToString();
  EXPECT_NE(dataset.status().message().find(retired), std::string::npos)
      << dataset.status().ToString();
  EXPECT_TRUE(std::filesystem::exists(retired));  // refusal mutates nothing
}

// ----------------------------------------------------- sync-mode contracts

TEST_F(WalTest, EveryRecordSyncSurvivesPowerLoss) {
  FaultInjectionEnv env;
  DatasetOptions options = Options();
  options.env = &env;
  options.wal_sync_mode = WalSyncMode::kEveryRecord;
  {
    auto dataset = Dataset::Open(options).value();
    for (int64_t pk = 0; pk < 7; ++pk) {
      ASSERT_TRUE(dataset->Insert(Tweet(pk, pk % 5)).ok());
    }
  }
  // Power loss: everything that was not fsynced vanishes. Every Insert
  // fsynced before acknowledging, so nothing may be lost.
  ASSERT_TRUE(env.DropUnsyncedData().ok());
  auto dataset = Dataset::Open(options).value();
  for (int64_t pk = 0; pk < 7; ++pk) ExpectTweet(*dataset, pk, pk % 5);
  EXPECT_EQ(dataset->CountRange(kTweetMetricField, 0, 14).value(), 7u);
}

TEST_F(WalTest, FlushOnlySyncMayLoseTheActiveMemtableOnPowerLoss) {
  FaultInjectionEnv env;
  DatasetOptions options = Options();
  options.env = &env;
  options.wal_sync_mode = WalSyncMode::kFlushOnly;
  {
    auto dataset = Dataset::Open(options).value();
    for (int64_t pk = 0; pk < 7; ++pk) {
      ASSERT_TRUE(dataset->Insert(Tweet(pk, 1)).ok());
    }
  }
  // Nothing rotated, so nothing was fsynced: the documented contract is
  // that the active memtables' records are not durable in this mode.
  ASSERT_TRUE(env.DropUnsyncedData().ok());
  auto dataset = Dataset::Open(options).value();
  EXPECT_EQ(dataset->Get(0).status().code(), StatusCode::kNotFound);
  // The zero-length segment was cleaned up; the dataset keeps working.
  EXPECT_TRUE(WalFiles().empty());
  ASSERT_TRUE(dataset->Insert(Tweet(100, 1)).ok());
  ExpectTweet(*dataset, 100, 1);
}

// A failed every-record write or fsync leaves that frame's on-disk state
// unknown, so the log refuses every later append instead of acknowledging
// one above a possible hole.
TEST_F(WalTest, EveryRecordSyncFailureIsSticky) {
  FaultInjectionEnv env;
  DatasetOptions options = Options();
  options.env = &env;
  options.wal_sync_mode = WalSyncMode::kEveryRecord;
  {
    auto dataset = Dataset::Open(options).value();
    for (int64_t pk = 0; pk < 3; ++pk) {
      ASSERT_TRUE(dataset->Insert(Tweet(pk, 1)).ok());
    }
    // Sync #1 made the segment's directory entry durable; syncs #2-#4 were
    // the three inserts' fsyncs. The fourth insert's fsync fails.
    ASSERT_EQ(dataset->WalSyncCount(), 3u);
    env.FailNthSync(5);
    Status failed = dataset->Insert(Tweet(3, 1));
    ASSERT_FALSE(failed.ok());
    EXPECT_NE(failed.message().find("injected fault"), std::string::npos)
        << failed.ToString();
    EXPECT_EQ(dataset->Get(3).status().code(), StatusCode::kNotFound);
    // The fault was one-shot, yet the next insert gets the same error.
    Status next = dataset->Insert(Tweet(4, 1));
    EXPECT_EQ(next.code(), failed.code());
    EXPECT_EQ(next.message(), failed.message());
    EXPECT_EQ(dataset->Get(4).status().code(), StatusCode::kNotFound);
    EXPECT_EQ(dataset->live_records(), 3u);
    EXPECT_EQ(dataset->WalSyncCount(), 4u);  // no fsync after the failure
  }
  // Power loss drops the unsynced frame; the reopen recovers exactly the
  // acknowledged inserts, in every index.
  env.ClearFaults();
  ASSERT_TRUE(env.DropUnsyncedData().ok());
  auto dataset = Dataset::Open(options).value();
  for (int64_t pk = 0; pk < 3; ++pk) ExpectTweet(*dataset, pk, 1);
  EXPECT_EQ(dataset->CountAll().value(), 3u);
  EXPECT_EQ(dataset->CountRange(kTweetMetricField, 1, 1).value(), 3u);
  ASSERT_TRUE(dataset->Insert(Tweet(3, 1)).ok());  // a reopen clears it
}

// ------------------------------------------------------------ batch frames

TEST_F(WalTest, BatchFrameRoundTripPreservesTreeIds) {
  Env* env = Env::Default();
  std::string path = WalFilePath(dir_, "t", 1);
  WriteBatch batch;
  batch.Put(PrimaryKey(1), "one", /*fresh_insert=*/true, /*tree_id=*/0);
  batch.Put(SecondaryKey(5, 1), "", /*fresh_insert=*/true, /*tree_id=*/1);
  batch.Delete(PrimaryKey(2), /*tree_id=*/0);
  batch.PutAntiMatter(SecondaryKey(9, 2), /*tree_id=*/2);
  std::string frame;
  EncodeWalBatchFrame(batch, &frame);
  {
    auto writer = WalSegmentWriter::Create(env, path).value();
    ASSERT_TRUE(writer->AppendFrames(frame, batch.size()).ok());
    EXPECT_EQ(writer->records_appended(), 4u);
    ASSERT_TRUE(writer->Close().ok());
  }

  struct Demuxed {
    uint32_t tree_id;
    WalOp op;
    LsmKey key;
    std::string value;
  };
  std::vector<Demuxed> records;
  auto replay = ReplayWalSegment(
      env, path,
      [&](uint32_t tree_id, WalOp op, const LsmKey& key,
          std::string_view value) {
        records.push_back({tree_id, op, key, std::string(value)});
      });
  ASSERT_TRUE(replay.ok()) << replay.status().ToString();
  EXPECT_EQ(replay->tail, WalTail::kClean);
  // Every entry of the batch counts as one logical record.
  EXPECT_EQ(replay->records_applied, 4u);
  ASSERT_EQ(records.size(), 4u);
  EXPECT_EQ(records[0].tree_id, 0u);
  EXPECT_EQ(records[0].op, WalOp::kPut);
  EXPECT_EQ(records[0].key, PrimaryKey(1));
  EXPECT_EQ(records[0].value, "one");
  EXPECT_EQ(records[1].tree_id, 1u);
  EXPECT_EQ(records[1].key, SecondaryKey(5, 1));
  EXPECT_EQ(records[2].tree_id, 0u);
  EXPECT_EQ(records[2].op, WalOp::kDelete);
  EXPECT_EQ(records[3].tree_id, 2u);
  EXPECT_EQ(records[3].op, WalOp::kAntiMatter);
}

TEST_F(WalTest, FrameLayoutPinnedAcrossVarintWidths) {
  // Value sizes at which the value's and the frame's length varints change
  // width.
  WriteBatch batch;
  for (size_t n : {0, 1, 127, 128, 16383, 16384, 65536}) {
    const std::string value(n, static_cast<char>('a' + n % 26));
    const LsmKey key = SecondaryKey(static_cast<int64_t>(n), -7);
    Encoder payload;
    PutExpectedFields(&payload, WalOp::kPut, key, value);
    std::string frame = "prior";  // frames append; earlier bytes stay
    EncodeWalRecordFrame(WalOp::kPut, key, value, &frame);
    EXPECT_EQ(frame, "prior" + ExpectedFrame(payload))
        << "value bytes " << n;
    batch.Put(key, value, /*fresh_insert=*/true,
              /*tree_id=*/static_cast<uint32_t>(n % 300));
  }
  batch.Delete(PrimaryKey(3), /*tree_id=*/1);

  Encoder payload;
  payload.PutU8(kWalBatchFrameTag);
  payload.PutVarint64(batch.size());
  for (const WriteBatchEntry& entry : batch.entries()) {
    payload.PutVarint64(entry.tree_id);
    PutExpectedFields(&payload, entry.op, entry.key, entry.value);
  }
  std::string frame;
  EncodeWalBatchFrame(batch, &frame);
  EXPECT_EQ(frame, ExpectedFrame(payload));
}

TEST_F(WalTest, OversizedBatchCountIsACorruptTail) {
  Env* env = Env::Default();
  std::string path = WalFilePath(dir_, "t", 1);
  // A CRC-valid batch frame whose entry count claims 2^62 entries.
  Encoder payload;
  payload.PutU8(kWalBatchFrameTag);
  payload.PutVarint64(uint64_t{1} << 62);
  payload.PutVarint64(/*tree_id=*/0);
  PutExpectedFields(&payload, WalOp::kPut, PrimaryKey(1), "v");
  {
    auto writer = WalSegmentWriter::Create(env, path).value();
    ASSERT_TRUE(writer->Append(WalOp::kPut, PrimaryKey(0), "whole").ok());
    ASSERT_TRUE(writer->AppendFrames(ExpectedFrame(payload), 1).ok());
    ASSERT_TRUE(writer->Close().ok());
  }
  uint64_t applied = 0;
  auto replay = ReplayWalSegment(
      env, path,
      [&](uint32_t, WalOp, const LsmKey&, std::string_view) { ++applied; });
  ASSERT_TRUE(replay.ok()) << replay.status().ToString();
  EXPECT_EQ(replay->tail, WalTail::kCorrupt);
  EXPECT_EQ(replay->records_applied, 1u);
  EXPECT_EQ(applied, 1u);
}

TEST_F(WalTest, TornBatchFrameDroppedInItsEntirety) {
  Env* env = Env::Default();
  std::string path = WalFilePath(dir_, "t", 1);
  WriteBatch batch;
  batch.Put(PrimaryKey(10), "aaaa", false, 0);
  batch.Put(PrimaryKey(11), "bbbb", false, 1);
  batch.Put(PrimaryKey(12), "cccc", false, 2);
  std::string frame;
  EncodeWalBatchFrame(batch, &frame);
  {
    auto writer = WalSegmentWriter::Create(env, path).value();
    ASSERT_TRUE(
        writer->Append(WalOp::kPut, PrimaryKey(1), "whole").ok());
    ASSERT_TRUE(writer->AppendFrames(frame, batch.size()).ok());
    ASSERT_TRUE(writer->Close().ok());
  }
  // Shear into the middle of the batch frame: two of its three entries are
  // bytewise intact, but the frame must be dropped whole — no torn batch.
  std::filesystem::resize_file(path, std::filesystem::file_size(path) - 6);

  uint64_t applied = 0;
  auto replay = ReplayWalSegment(
      env, path,
      [&](uint32_t, WalOp, const LsmKey&, std::string_view) { ++applied; });
  ASSERT_TRUE(replay.ok());
  EXPECT_EQ(replay->tail, WalTail::kTorn);
  EXPECT_EQ(replay->records_applied, 1u);  // only the single-record frame
  EXPECT_EQ(applied, 1u);
}

// ------------------------------------------------- every-record commit

TEST_F(WalTest, GroupCommitSingleWriterSurvivesPowerLoss) {
  // The dataset's single writer commits inline: one fsync per acknowledged
  // mutation or batch, and acked => durable.
  FaultInjectionEnv env;
  DatasetOptions options = Options();
  options.env = &env;
  options.wal_sync_mode = WalSyncMode::kEveryRecord;
  {
    auto dataset = Dataset::Open(options).value();
    for (int64_t pk = 0; pk < 7; ++pk) {
      ASSERT_TRUE(dataset->Insert(Tweet(pk, 1)).ok());
    }
    ASSERT_TRUE(dataset->PutBatch({Tweet(100, 2), Tweet(101, 2)}).ok());
    // One fsync per commit: 7 inserts + 1 batch. Each record logs a primary
    // and a secondary entry.
    EXPECT_EQ(dataset->WalSyncCount(), 8u);
    EXPECT_EQ(dataset->WalRecordsLogged(), 18u);
  }
  ASSERT_TRUE(env.DropUnsyncedData().ok());
  auto dataset = Dataset::Open(options).value();
  for (int64_t pk = 0; pk < 7; ++pk) ExpectTweet(*dataset, pk, 1);
  ExpectTweet(*dataset, 100, 2);
  ExpectTweet(*dataset, 101, 2);
}

TEST_F(WalTest, GroupCommitFlushRetiresSegmentsLikePlainMode) {
  DatasetOptions options = Options();
  options.wal_sync_mode = WalSyncMode::kEveryRecord;
  auto dataset = Dataset::Open(options).value();
  for (int64_t pk = 0; pk < 10; ++pk) {
    ASSERT_TRUE(dataset->Insert(Tweet(pk, 1)).ok());
  }
  ASSERT_TRUE(dataset->Flush().ok());
  EXPECT_EQ(dataset->primary()->ComponentCount(), 1u);
  EXPECT_TRUE(WalFiles().empty());
  EXPECT_EQ(dataset->CountAll().value(), 10u);
}

TEST_F(WalTest, GroupCommitOffOutsideEveryRecordMode) {
  // Only every-record sync fsyncs on the append path: flush-only acks at
  // once and syncs a segment when it is sealed.
  DatasetOptions options = Options();
  options.wal_sync_mode = WalSyncMode::kFlushOnly;
  auto dataset = Dataset::Open(options).value();
  for (int64_t pk = 0; pk < 5; ++pk) {
    ASSERT_TRUE(dataset->Insert(Tweet(pk, 1)).ok());
  }
  EXPECT_EQ(dataset->WalSyncCount(), 0u);  // no append-path fsyncs
  ASSERT_TRUE(dataset->Flush().ok());
  EXPECT_EQ(dataset->WalSyncCount(), 1u);  // the seal's
  EXPECT_TRUE(WalFiles().empty());
}

// ------------------------------------------------------------- dataset WAL

TEST_F(WalTest, SharedWalUsesOneSegmentStreamForAllIndexes) {
  auto dataset = Dataset::Open(Options()).value();
  for (int64_t pk = 0; pk < 10; ++pk) {
    Record record;
    record.pk = pk;
    record.fields = {pk % 5, 0};
    ASSERT_TRUE(dataset->Insert(record).ok());
  }
  // One stream for the whole dataset: every segment carries the dataset's
  // shared prefix, and no per-tree segment exists.
  auto files = WalFiles();
  ASSERT_FALSE(files.empty());
  for (const std::string& file : files) {
    EXPECT_EQ(file.rfind("tweets_wal_", 0), 0u) << file;
  }
  // Each Insert logged one batch (primary + secondary entries) — logical
  // records count per entry, frames per batch.
  EXPECT_EQ(dataset->WalRecordsLogged(), 20u);
}

TEST_F(WalTest, SharedWalRecoversEveryIndexFromOneLog) {
  {
    auto dataset = Dataset::Open(Options()).value();
    for (int64_t pk = 0; pk < 20; ++pk) {
      Record record;
      record.pk = pk;
      record.fields = {pk % 5, 0};
      ASSERT_TRUE(dataset->Insert(record).ok());
    }
    ASSERT_TRUE(dataset->Delete(7).ok());
  }  // crash before any flush
  // Reopen with the WAL off: recovery still replays what the earlier run
  // logged, so turning the log off never drops records.
  DatasetOptions reopen = Options();
  reopen.wal = false;
  auto dataset = Dataset::Open(reopen).value();
  ASSERT_TRUE(dataset->Get(3).ok());
  EXPECT_EQ(dataset->Get(7).status().code(), StatusCode::kNotFound);
  // The secondary index recovered in lockstep from the same log (pk 7 had
  // metric 2, so that bucket lost one row).
  EXPECT_EQ(dataset->CountRange(kTweetMetricField, 2, 2).value(), 3u);
  EXPECT_EQ(dataset->CountRange(kTweetMetricField, 0, 14).value(), 19u);
  // Flushing everything makes the components durable and reclaims every
  // shared segment (all trees backed by them have flushed).
  ASSERT_TRUE(dataset->Flush().ok());
  EXPECT_TRUE(WalFiles().empty());
  EXPECT_EQ(dataset->CountRange(kTweetMetricField, 0, 14).value(), 19u);
}

TEST_F(WalTest, SharedWalSurvivesPowerLossUnderEveryRecordSync) {
  FaultInjectionEnv env;
  auto make_options = [&] {
    DatasetOptions options = Options();
    options.env = &env;
    options.wal_sync_mode = WalSyncMode::kEveryRecord;
    return options;
  };
  {
    auto dataset = Dataset::Open(make_options()).value();
    for (int64_t pk = 0; pk < 8; ++pk) {
      Record record;
      record.pk = pk;
      record.fields = {pk % 5, 0};
      ASSERT_TRUE(dataset->Insert(record).ok());
    }
    // One fsync per logical modification, not one per index tree.
    EXPECT_EQ(dataset->WalSyncCount(), 8u);
    EXPECT_EQ(dataset->WalRecordsLogged(), 16u);
  }
  ASSERT_TRUE(env.DropUnsyncedData().ok());
  auto dataset = Dataset::Open(make_options()).value();
  for (int64_t pk = 0; pk < 8; ++pk) {
    ASSERT_TRUE(dataset->Get(pk).ok()) << "pk " << pk;
  }
  EXPECT_EQ(dataset->CountRange(kTweetMetricField, 0, 14).value(), 8u);
}

TEST_F(WalTest, SharedWalSegmentsAwaitAllTreesFlushing) {
  auto dataset = Dataset::Open(Options()).value();
  Record record;
  record.pk = 1;
  record.fields = {2, 0};
  ASSERT_TRUE(dataset->Insert(record).ok());
  ASSERT_FALSE(WalFiles().empty());  // active segment backs the memtables
  ASSERT_TRUE(dataset->Flush().ok());
  // The barrier flushed every tree, so the sealed segment was reclaimed.
  EXPECT_TRUE(WalFiles().empty());
  // Writes after the flush open a fresh segment.
  record.pk = 2;
  ASSERT_TRUE(dataset->Insert(record).ok());
  EXPECT_EQ(WalFiles().size(), 1u);
}

TEST_F(WalTest, SharedWalSegmentsStayBoundedWithoutBarriers) {
  // A dataset that only ingests never reaches Flush() or
  // WaitForBackgroundWork(); each scheduler-mode rotation seals a segment,
  // and the sealed ones must still be reclaimed once every tree's flush has
  // drained, or the log grows without bound.
  BackgroundScheduler scheduler(2);
  DatasetOptions options = Options();
  options.memtable_max_entries = 512;
  options.wal_sync_mode = WalSyncMode::kFlushOnly;
  options.scheduler = &scheduler;
  auto dataset = Dataset::Open(options).value();
  LsmTree* trees[] = {dataset->primary(),
                      dataset->secondary(kTweetMetricField)};
  constexpr int64_t kRecords = 20000;
  for (int64_t pk = 0; pk < kRecords; ++pk) {
    Record record;
    record.pk = pk;
    record.fields = {pk % 15, 0};
    ASSERT_TRUE(dataset->Insert(record).ok());
    if ((pk + 1) % 5000 != 0) continue;
    // Segments legitimately back a flush backlog, so let the workers drain
    // it (without a dataset barrier); the next write then finds every
    // sealed segment flushed past.
    const auto deadline =
        std::chrono::steady_clock::now() + std::chrono::seconds(10);
    for (LsmTree* tree : trees) {
      while (tree->ImmutableMemTableCount() != 0) {
        ASSERT_TRUE(tree->BackgroundError().ok())
            << tree->BackgroundError().ToString();
        ASSERT_LT(std::chrono::steady_clock::now(), deadline)
            << "background flushes did not drain";
        std::this_thread::sleep_for(std::chrono::milliseconds(1));
      }
    }
    record.pk = kRecords + pk;
    ASSERT_TRUE(dataset->Insert(record).ok());
    // What remains is the active segment, plus one sealed by this write if
    // it filled the memtable.
    EXPECT_LE(WalFiles().size(), 2u) << "after " << pk + 1 << " inserts";
  }
  ASSERT_TRUE(dataset->WaitForBackgroundWork().ok());
  EXPECT_EQ(dataset->CountAll().value(), static_cast<uint64_t>(kRecords + 4));
}

// --------------------------------------------------- dataset batch mutations

TEST_F(WalTest, PutBatchValidatesBeforeApplyingAnything) {
  auto dataset = Dataset::Open(Options()).value();
  Record seeded;
  seeded.pk = 5;
  seeded.fields = {1, 0};
  ASSERT_TRUE(dataset->Insert(seeded).ok());

  std::vector<Record> batch;
  for (int64_t pk = 10; pk < 13; ++pk) {
    Record record;
    record.pk = pk;
    record.fields = {pk % 5, 0};
    batch.push_back(record);
  }
  batch.push_back(seeded);  // collides with the existing pk
  EXPECT_EQ(dataset->PutBatch(batch).code(), StatusCode::kAlreadyExists);
  // Validation failed up front: none of the fresh records landed.
  EXPECT_EQ(dataset->Get(10).status().code(), StatusCode::kNotFound);
  EXPECT_EQ(dataset->live_records(), 1u);

  batch.pop_back();
  batch.push_back(batch.front());  // duplicate within the batch
  EXPECT_EQ(dataset->PutBatch(batch).code(), StatusCode::kInvalidArgument);
  EXPECT_EQ(dataset->Get(10).status().code(), StatusCode::kNotFound);

  batch.pop_back();
  ASSERT_TRUE(dataset->PutBatch(batch).ok());
  EXPECT_EQ(dataset->live_records(), 4u);
  for (int64_t pk = 10; pk < 13; ++pk) {
    EXPECT_TRUE(dataset->Get(pk).ok()) << "pk " << pk;
  }
}

TEST_F(WalTest, AckedPutBatchRecoversAtomicallyAcrossAllIndexes) {
  FaultInjectionEnv env;
  auto make_options = [&] {
    DatasetOptions options = Options();
    options.env = &env;
    options.wal_sync_mode = WalSyncMode::kEveryRecord;
    return options;
  };
  {
    auto dataset = Dataset::Open(make_options()).value();
    std::vector<Record> batch;
    for (int64_t pk = 0; pk < 6; ++pk) {
      Record record;
      record.pk = pk;
      record.fields = {pk % 5, 0};
      batch.push_back(record);
    }
    ASSERT_TRUE(dataset->PutBatch(batch).ok());
    // The whole cross-index batch was one frame and one fsync.
    EXPECT_EQ(dataset->WalSyncCount(), 1u);
    EXPECT_EQ(dataset->WalRecordsLogged(), 12u);
  }
  ASSERT_TRUE(env.DropUnsyncedData().ok());
  auto dataset = Dataset::Open(make_options()).value();
  // All or nothing, across primary AND secondary: either count would catch
  // a half-replayed batch.
  EXPECT_EQ(dataset->CountAll().value(), 6u);
  EXPECT_EQ(dataset->CountRange(kTweetMetricField, 0, 14).value(), 6u);
}

TEST_F(WalTest, DeleteBatchRemovesEveryRecordAtomically) {
  auto dataset = Dataset::Open(Options()).value();
  std::vector<Record> records;
  for (int64_t pk = 0; pk < 6; ++pk) {
    Record record;
    record.pk = pk;
    record.fields = {pk % 5, 0};
    records.push_back(record);
  }
  ASSERT_TRUE(dataset->PutBatch(records).ok());

  EXPECT_EQ(dataset->DeleteBatch({0, 0}).code(),
            StatusCode::kInvalidArgument);
  EXPECT_EQ(dataset->DeleteBatch({0, 99}).code(), StatusCode::kNotFound);
  EXPECT_EQ(dataset->live_records(), 6u);  // validation touched nothing

  ASSERT_TRUE(dataset->DeleteBatch({0, 2, 4}).ok());
  EXPECT_EQ(dataset->live_records(), 3u);
  EXPECT_EQ(dataset->CountAll().value(), 3u);
  EXPECT_EQ(dataset->Get(2).status().code(), StatusCode::kNotFound);
  ASSERT_TRUE(dataset->Get(1).ok());
  EXPECT_EQ(dataset->CountRange(kTweetMetricField, 0, 14).value(), 3u);
}

TEST_F(WalTest, DatasetBatchesWorkWithoutSharedWal) {
  // The batch API does not depend on the WAL: with the log off a batch is
  // simply a grouped apply.
  DatasetOptions options = Options();
  options.wal = false;
  auto dataset = Dataset::Open(options).value();
  std::vector<Record> records;
  for (int64_t pk = 0; pk < 5; ++pk) {
    Record record;
    record.pk = pk;
    record.fields = {pk % 5, 0};
    records.push_back(record);
  }
  ASSERT_TRUE(dataset->PutBatch(records).ok());
  EXPECT_EQ(dataset->CountAll().value(), 5u);
  ASSERT_TRUE(dataset->DeleteBatch({1, 3}).ok());
  EXPECT_EQ(dataset->CountAll().value(), 3u);
  EXPECT_EQ(dataset->CountRange(kTweetMetricField, 0, 14).value(), 3u);
  EXPECT_TRUE(WalFiles().empty());
}

}  // namespace
}  // namespace lsmstats
