// Crash-consistency tests built on FaultInjectionEnv: CRC32C vectors, the
// fault-injection machinery itself, background-flush retry, catalog
// durability, and the crash-point sweep — crash at every mutating filesystem
// operation of an ingest/flush/merge run, reopen, and assert the tree comes
// back prefix-consistent with no leaked temporaries.

#include <algorithm>
#include <cstdint>
#include <cstdlib>
#include <filesystem>
#include <functional>
#include <limits>
#include <memory>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "common/crc32c.h"
#include "common/env.h"
#include "common/random.h"
#include "db/dataset.h"
#include "lsm/format/block.h"
#include "lsm/lsm_tree.h"
#include "lsm/scheduler.h"
#include "stats/statistics_catalog.h"
#include "workload/tweets.h"

namespace lsmstats {
namespace {

// ----------------------------------------------------------------- CRC32C

TEST(Crc32c, KnownVectors) {
  // The canonical CRC32C check value (RFC 3720 appendix).
  EXPECT_EQ(crc32c::Value("123456789"), 0xE3069283u);
  EXPECT_EQ(crc32c::Value(""), 0u);
  std::string zeros(32, '\0');
  EXPECT_EQ(crc32c::Value(zeros), 0x8A9136AAu);
}

TEST(Crc32c, ExtendComposes) {
  std::string data = "the quick brown fox jumps over the lazy dog";
  for (size_t split = 0; split <= data.size(); ++split) {
    uint32_t crc = crc32c::Extend(0, data.data(), split);
    crc = crc32c::Extend(crc, data.data() + split, data.size() - split);
    EXPECT_EQ(crc, crc32c::Value(data)) << "split at " << split;
  }
}

TEST(Crc32c, HardwareMatchesPortable) {
  // Extend() runs the hardware path on CPUs that have one; the table loop is
  // the reference. Lengths 0-9000 cross every 8-byte word edge and several
  // 768-byte (three-lane) stripes, at every start alignment.
  constexpr size_t kMaxLen = 9000;
  Random rng(20261017);
  std::string data(kMaxLen + 8, '\0');
  for (char& c : data) c = static_cast<char>(rng.NextU64());
  for (uint32_t start : {0u, 0x9E3779B9u}) {
    for (size_t offset = 0; offset < 8; ++offset) {
      const char* p = data.data() + offset;
      uint32_t reference = start;  // table CRC of p[0, n), grown bytewise
      for (size_t n = 0; n <= kMaxLen; ++n) {
        ASSERT_EQ(crc32c::Extend(start, p, n), reference)
            << "start " << start << " offset " << offset << " length " << n;
        if (n < kMaxLen) {
          reference = crc32c::internal::ExtendPortable(reference, p + n, 1);
        }
      }
    }
  }
  EXPECT_EQ(crc32c::internal::ExtendPortable(0, "123456789", 9), 0xE3069283u);

  // Splitting a stream on either side of a stripe boundary still composes.
  const uint32_t whole = crc32c::internal::ExtendPortable(0, data.data(), 4096);
  for (size_t boundary = 768; boundary <= 4096; boundary += 768) {
    for (size_t split : {boundary - 1, boundary, boundary + 1}) {
      uint32_t crc = crc32c::Extend(0, data.data(), split);
      crc = crc32c::Extend(crc, data.data() + split, 4096 - split);
      EXPECT_EQ(crc, whole) << "split at " << split;
    }
  }
}

TEST(Crc32c, DetectsSingleBitFlips) {
  std::string data(100, 'x');
  uint32_t clean = crc32c::Value(data);
  for (size_t byte = 0; byte < data.size(); byte += 7) {
    std::string flipped = data;
    flipped[byte] ^= 1;
    EXPECT_NE(crc32c::Value(flipped), clean);
  }
}

// ------------------------------------------------------- FaultInjectionEnv

class FaultInjectionTest : public ::testing::Test {
 protected:
  void SetUp() override {
    char tmpl[] = "/tmp/lsmstats_fault_XXXXXX";
    dir_ = ::mkdtemp(tmpl);
  }
  void TearDown() override { std::filesystem::remove_all(dir_); }

  std::string dir_;
};

TEST_F(FaultInjectionTest, FailNthSyncIsOneShot) {
  FaultInjectionEnv env;
  env.FailNthSync(1);
  auto file = env.NewWritableFile(dir_ + "/f");
  ASSERT_TRUE(file.ok());
  ASSERT_TRUE((*file)->Append("data").ok());
  EXPECT_FALSE((*file)->Sync().ok());  // injected
  EXPECT_TRUE((*file)->Sync().ok());   // one-shot: second sync succeeds
  EXPECT_EQ(env.InjectedFailureCount(), 1u);
  ASSERT_TRUE((*file)->Close().ok());
}

TEST_F(FaultInjectionTest, CrashFailsEveryLaterMutation) {
  FaultInjectionEnv env;
  auto file = env.NewWritableFile(dir_ + "/f");  // op 1
  ASSERT_TRUE(file.ok());
  env.CrashAtMutatingOp(2);
  EXPECT_FALSE((*file)->Append("data").ok());  // op 2: crash
  EXPECT_FALSE((*file)->Sync().ok());          // sticky: still dead
  EXPECT_FALSE((*file)->Close().ok());
  EXPECT_FALSE(env.RenameFile(dir_ + "/f", dir_ + "/g").ok());
  env.ClearFaults();
  EXPECT_TRUE(env.RemoveFileIfExists(dir_ + "/f").ok());
}

TEST_F(FaultInjectionTest, DropUnsyncedDataTruncatesToLastSync) {
  FaultInjectionEnv env;
  std::string path = dir_ + "/f";
  auto file = env.NewWritableFile(path);
  ASSERT_TRUE(file.ok());
  ASSERT_TRUE((*file)->Append("durable").ok());
  ASSERT_TRUE((*file)->Sync().ok());
  ASSERT_TRUE((*file)->Append(" volatile").ok());
  ASSERT_TRUE((*file)->Close().ok());  // flushed to the OS, never fsynced
  ASSERT_TRUE(env.DropUnsyncedData().ok());
  auto reader = env.NewRandomAccessFile(path);
  ASSERT_TRUE(reader.ok());
  EXPECT_EQ((*reader)->size(), 7u);  // "durable"
}

TEST_F(FaultInjectionTest, TruncateTailBytesTearsFile) {
  FaultInjectionEnv env;
  std::string path = dir_ + "/f";
  auto file = env.NewWritableFile(path);
  ASSERT_TRUE(file.ok());
  ASSERT_TRUE((*file)->Append("0123456789").ok());
  ASSERT_TRUE((*file)->Sync().ok());
  ASSERT_TRUE((*file)->Close().ok());
  ASSERT_TRUE(env.TruncateTailBytes(path, 4).ok());
  auto reader = env.NewRandomAccessFile(path);
  ASSERT_TRUE(reader.ok());
  EXPECT_EQ((*reader)->size(), 6u);
}

TEST_F(FaultInjectionTest, FailWritesWithScriptsAnOutageWindow) {
  FaultInjectionEnv env;
  env.FailWritesWith(Status::Corruption("injected bit rot"), 2);
  // Both file creation and appends count as write ops.
  EXPECT_EQ(env.NewWritableFile(dir_ + "/a").status().code(),
            StatusCode::kCorruption);
  EXPECT_EQ(env.NewWritableFile(dir_ + "/a").status().code(),
            StatusCode::kCorruption);
  EXPECT_EQ(env.InjectedFailureCount(), 2u);
  // The window is over: the third write succeeds.
  auto file = env.NewWritableFile(dir_ + "/a");
  ASSERT_TRUE(file.ok());
  ASSERT_TRUE((*file)->Append("data").ok());
  ASSERT_TRUE((*file)->Close().ok());
}

TEST_F(FaultInjectionTest, ClearFaultsDisarmsWriteOutage) {
  FaultInjectionEnv env;
  env.FailWritesWith(Status::IOError("injected"), 100);
  EXPECT_FALSE(env.NewWritableFile(dir_ + "/a").ok());
  env.ClearFaults();
  EXPECT_TRUE(env.NewWritableFile(dir_ + "/a").ok());
}

TEST_F(FaultInjectionTest, FreeSpaceBudgetDrawsDownAndRefills) {
  FaultInjectionEnv env;
  env.SetFreeSpaceBudget(10);
  auto file = env.NewWritableFile(dir_ + "/f");
  ASSERT_TRUE(file.ok());
  ASSERT_TRUE((*file)->Append("12345").ok());
  EXPECT_EQ(env.GetFreeSpace(dir_).value(), 5u);
  // An append that doesn't fit fails as ENOSPC without consuming budget.
  Status s = (*file)->Append("123456");
  ASSERT_FALSE(s.ok());
  EXPECT_NE(s.message().find("ENOSPC"), std::string::npos) << s.ToString();
  EXPECT_EQ(env.GetFreeSpace(dir_).value(), 5u);
  // Freeing space makes the same append land.
  env.AddFreeSpace(10);
  ASSERT_TRUE((*file)->Append("123456").ok());
  EXPECT_EQ(env.GetFreeSpace(dir_).value(), 9u);
  ASSERT_TRUE((*file)->Close().ok());
  // Back to unlimited: the probe answers from the backing filesystem.
  env.ClearFreeSpaceBudget();
  EXPECT_GT(env.GetFreeSpace(dir_).value(), 9u);
}

// ------------------------------------------------- background flush retry

TEST_F(FaultInjectionTest, BackgroundFlushRetriesAfterTransientFailure) {
  FaultInjectionEnv env;
  BackgroundScheduler scheduler(2);
  LsmTreeOptions options;
  options.directory = dir_;
  options.name = "t";
  options.memtable_max_entries = 10;
  options.scheduler = &scheduler;
  options.env = &env;
  // WAL off (the default): the injected sync failure hits the component seal.
  auto tree = LsmTree::Open(options).value();

  // The first component seal's fsync fails once; the background retry must
  // rebuild the component and succeed without surfacing an error.
  env.FailNthSync(1);
  for (int64_t k = 0; k < 25; ++k) {
    ASSERT_TRUE(tree->Put(PrimaryKey(k), "v", true).ok());
  }
  ASSERT_TRUE(tree->Flush().ok());
  EXPECT_TRUE(tree->BackgroundError().ok());
  EXPECT_GE(env.InjectedFailureCount(), 1u);
  EXPECT_EQ(tree->ScanCount(PrimaryKey(0), PrimaryKey(24)).value(), 25u);
  scheduler.Shutdown();
}

// ------------------------------------------------------ catalog durability

TEST_F(FaultInjectionTest, CatalogSaveSurvivesCrashMidSave) {
  std::string path = dir_ + "/catalog.bin";
  StatisticsCatalog catalog;
  SynopsisEntry entry;
  entry.component_id = 1;
  entry.timestamp = 1;
  catalog.Register({"ds", "f", 0}, std::move(entry), {});
  ASSERT_TRUE(catalog.SaveToFile(path).ok());

  // A save that dies before its rename must leave the old catalog intact
  // and no stray temporary behind after the next successful save.
  FaultInjectionEnv env;
  StatisticsCatalog bigger;
  SynopsisEntry e2;
  e2.component_id = 2;
  e2.timestamp = 2;
  bigger.Register({"ds", "f", 0}, std::move(e2), {});
  env.FailNthRename(1);
  EXPECT_FALSE(bigger.SaveToFile(path, &env).ok());
  EXPECT_FALSE(FileExists(path + ".tmp"));  // cleaned up on failure

  StatisticsCatalog loaded;
  ASSERT_TRUE(loaded.LoadFromFile(path).ok());
  EXPECT_EQ(loaded.GetSynopses({"ds", "f", 0}).front().component_id, 1u);

  // Retry succeeds and the new catalog replaces the old atomically.
  ASSERT_TRUE(bigger.SaveToFile(path, &env).ok());
  ASSERT_TRUE(loaded.LoadFromFile(path).ok());
  EXPECT_EQ(loaded.GetSynopses({"ds", "f", 0}).front().component_id, 2u);
}

TEST_F(FaultInjectionTest, CatalogLoadRejectsTornTail) {
  std::string path = dir_ + "/catalog.bin";
  StatisticsCatalog catalog;
  SynopsisEntry entry;
  entry.component_id = 1;
  entry.timestamp = 1;
  catalog.Register({"ds", "f", 0}, std::move(entry), {});
  ASSERT_TRUE(catalog.SaveToFile(path).ok());
  FaultInjectionEnv env;
  ASSERT_TRUE(env.TruncateTailBytes(path, 2).ok());
  StatisticsCatalog loaded;
  Status s = loaded.LoadFromFile(path);
  EXPECT_EQ(s.code(), StatusCode::kCorruption) << s.ToString();
}

// ------------------------------------------------------- crash-point sweep

// Write options that make the sweep bite hardest on the v3 block layer: a
// tiny block size so every component spans several blocks, and the delta
// codec so compressed frames and their CRCs sit in the crash window too.
ComponentWriteOptions SweepWriteOptions() {
  ComponentWriteOptions write_options;
  write_options.compression = "delta";
  write_options.block_size = 128;
  return write_options;
}

// Small-knob leveled policy for the compaction sweep: every other flush
// triggers an L0 fold and the tiny level capacity forces promotions, so
// manifest writes, multi-component installs, and input unlinks all land
// inside the crash window.
std::shared_ptr<MergePolicy> SweepLeveledPolicy() {
  LeveledPolicyOptions options;
  options.level0_limit = 1;
  options.base_level_bytes = 2048;
  options.level_size_ratio = 2.0;
  return std::make_shared<LeveledMergePolicy>(options);
}

// Ingest keys 0..N-1 in order with periodic flushes, then merge everything.
// Returns the first error (expected when a crash is scheduled). `policy`
// sets the merge policy (null = NoMerge).
Status RunWorkload(Env* env, const std::string& dir,
                   std::shared_ptr<MergePolicy> policy) {
  LsmTreeOptions options;
  options.directory = dir;
  options.name = "t";
  options.memtable_max_entries = 20;
  options.env = env;
  options.write_options = SweepWriteOptions();
  options.merge_policy = std::move(policy);
  auto tree_or = LsmTree::Open(options);
  LSMSTATS_RETURN_IF_ERROR(tree_or.status());
  auto& tree = *tree_or;
  for (int64_t k = 0; k < 60; ++k) {
    LSMSTATS_RETURN_IF_ERROR(
        tree->Put(PrimaryKey(k), "v" + std::to_string(k), true));
  }
  LSMSTATS_RETURN_IF_ERROR(tree->Flush());
  return tree->ForceFullMerge();
}

// Crash RunWorkload at every mutating filesystem op, reboot with power-loss
// semantics, and check the recovery invariants each time. `make_policy` (may
// return null) builds a fresh policy per run so no state leaks across runs.
void SweepAllCrashPoints(
    const std::string& base_dir,
    const std::function<std::shared_ptr<MergePolicy>()>& make_policy) {
  // Clean run to size the sweep.
  uint64_t total_ops;
  {
    std::string clean_dir = base_dir + "/clean";
    FaultInjectionEnv env;
    ASSERT_TRUE(RunWorkload(&env, clean_dir, make_policy()).ok());
    total_ops = env.MutatingOpCount();
    ASSERT_GT(total_ops, 20u);  // the workload is non-trivial
  }

  for (uint64_t crash_at = 1; crash_at <= total_ops; ++crash_at) {
    SCOPED_TRACE("crash at mutating op " + std::to_string(crash_at));
    std::string run_dir = base_dir + "/run" + std::to_string(crash_at);
    FaultInjectionEnv env;
    env.CrashAtMutatingOp(crash_at);
    Status died = RunWorkload(&env, run_dir, make_policy());
    EXPECT_FALSE(died.ok());  // the crash point is within the workload
    // Power loss: un-synced bytes vanish, then the "machine" reboots.
    env.ClearFaults();
    ASSERT_TRUE(env.DropUnsyncedData().ok());

    // Invariant 1: reopen always succeeds.
    LsmTreeOptions options;
    options.directory = run_dir;
    options.name = "t";
    options.memtable_max_entries = 20;
    options.env = &env;
    options.write_options = SweepWriteOptions();
    options.merge_policy = make_policy();
    auto tree_or = LsmTree::Open(options);
    ASSERT_TRUE(tree_or.ok()) << tree_or.status().ToString();
    auto& tree = *tree_or;

    // Invariant 2: no temporaries survive recovery, and a tree never
    // creates a log segment (its dataset owns the only log).
    std::vector<std::string> names;
    ASSERT_TRUE(env.ListDir(run_dir, &names).ok());
    for (const std::string& name : names) {
      EXPECT_EQ(name.find(".tmp"), std::string::npos) << name;
      EXPECT_EQ(name.find(".wal"), std::string::npos) << name;
    }

    // Invariant 3: the recovered live set is a prefix {0..m-1} of the
    // insertion order — keys were ingested in order and flushed in order,
    // so durability can only cut off a suffix, never punch holes.
    std::vector<int64_t> keys;
    ASSERT_TRUE(tree->Scan(PrimaryKey(std::numeric_limits<int64_t>::min()),
                           PrimaryKey(std::numeric_limits<int64_t>::max()),
                           [&](const EntryView& e) { keys.push_back(e.key.k0); })
                    .ok());
    for (size_t i = 0; i < keys.size(); ++i) {
      ASSERT_EQ(keys[i], static_cast<int64_t>(i));
    }

    // Invariant 4: the recovered tree accepts new writes.
    ASSERT_TRUE(tree->Put(PrimaryKey(1000), "post-crash", true).ok());
    ASSERT_TRUE(tree->Flush().ok());
    std::string value;
    EXPECT_TRUE(tree->Get(PrimaryKey(1000), &value).ok());
  }
}

// A tree has no log, so memtable contents die with a crash and durability
// starts at the component seal; the recovered live set must still be an
// insertion-order prefix.
TEST_F(FaultInjectionTest, CrashPointSweepWithWalPinnedOff) {
  SweepAllCrashPoints(dir_, [] { return std::shared_ptr<MergePolicy>(); });
}

// The same sweep under leveled compaction: every recovery must cope with a
// manifest (possibly mid-rewrite), leveled multi-component installs, and
// interrupted input unlinks — the paths the merge-free sweep never reaches.
TEST_F(FaultInjectionTest, CrashPointSweepWithLeveledCompaction) {
  SweepAllCrashPoints(dir_, SweepLeveledPolicy);
}

// ------------------------------------------------- dataset WAL sweeps

constexpr int64_t kWalSweepRecords = 30;

DatasetOptions WalSweepOptions(Env* env, const std::string& dir,
                               WalSyncMode sync_mode) {
  DatasetOptions options;
  options.directory = dir;
  options.name = "ds";
  options.schema = TweetSchema(ValueDomain(0, 14));
  options.memtable_max_entries = 10;
  options.env = env;
  options.compression = "delta";
  options.wal = true;
  options.wal_sync_mode = sync_mode;
  return options;
}

// Inserts pks 0..kWalSweepRecords-1 in order through a WAL-on dataset, then
// flushes and fully merges. Appends each pk to `acked` once its Insert was
// acknowledged. The small memtable bound puts segment creation, appends,
// syncs, seals and reclamation inside the crash window alongside flushes.
Status RunWalWorkload(Env* env, const std::string& dir, WalSyncMode sync_mode,
                      std::vector<int64_t>* acked) {
  auto dataset_or = Dataset::Open(WalSweepOptions(env, dir, sync_mode));
  LSMSTATS_RETURN_IF_ERROR(dataset_or.status());
  auto& dataset = *dataset_or;
  for (int64_t pk = 0; pk < kWalSweepRecords; ++pk) {
    Record record;
    record.pk = pk;
    record.fields = {pk % 5, 0};
    record.payload = "v" + std::to_string(pk);
    LSMSTATS_RETURN_IF_ERROR(dataset->Insert(record));
    if (acked != nullptr) acked->push_back(pk);
  }
  LSMSTATS_RETURN_IF_ERROR(dataset->Flush());
  return dataset->ForceFullMerge();
}

// Crash RunWalWorkload at every mutating filesystem op, reboot with
// power-loss semantics, and check recovery. Under every-record sync every
// acknowledged insert must survive; under any sync mode the live set is an
// insertion-order prefix, the same in every index.
void SweepWalCrashPoints(const std::string& base_dir, WalSyncMode sync_mode) {
  uint64_t total_ops;
  {
    std::string clean_dir = base_dir + "/clean";
    FaultInjectionEnv env;
    std::vector<int64_t> acked;
    ASSERT_TRUE(RunWalWorkload(&env, clean_dir, sync_mode, &acked).ok());
    ASSERT_EQ(acked.size(), static_cast<size_t>(kWalSweepRecords));
    total_ops = env.MutatingOpCount();
    ASSERT_GT(total_ops, 20u);  // the workload is non-trivial
  }

  for (uint64_t crash_at = 1; crash_at <= total_ops; ++crash_at) {
    SCOPED_TRACE("crash at mutating op " + std::to_string(crash_at));
    std::string run_dir = base_dir + "/run" + std::to_string(crash_at);
    FaultInjectionEnv env;
    env.CrashAtMutatingOp(crash_at);
    std::vector<int64_t> acked;
    Status died = RunWalWorkload(&env, run_dir, sync_mode, &acked);
    EXPECT_FALSE(died.ok());  // the crash point is within the workload
    env.ClearFaults();
    ASSERT_TRUE(env.DropUnsyncedData().ok());

    // Invariant 1: reopen always succeeds.
    auto dataset_or = Dataset::Open(WalSweepOptions(&env, run_dir, sync_mode));
    ASSERT_TRUE(dataset_or.ok()) << dataset_or.status().ToString();
    auto& dataset = *dataset_or;

    // Invariant 2: the recovered live set is a prefix {0..m-1} of the
    // insertion order — durability can only cut off a suffix, never punch
    // holes — and the secondary index holds the same m records.
    int64_t live = 0;
    while (live < kWalSweepRecords && dataset->Get(live).ok()) ++live;
    for (int64_t pk = live; pk < kWalSweepRecords; ++pk) {
      ASSERT_EQ(dataset->Get(pk).status().code(), StatusCode::kNotFound)
          << "hole before pk " << pk;
    }
    EXPECT_EQ(dataset->CountAll().value(), static_cast<uint64_t>(live));
    EXPECT_EQ(dataset->CountRange(kTweetMetricField, 0, 14).value(),
              static_cast<uint64_t>(live));

    // Invariant 3 (every-record): every acknowledged insert survives, with
    // its value. A record can be durable yet unacknowledged when the crash
    // hit a later op inside the same Insert, so the prefix may be longer.
    if (sync_mode == WalSyncMode::kEveryRecord) {
      ASSERT_GE(static_cast<size_t>(live), acked.size());
      for (int64_t pk : acked) {
        auto record = dataset->Get(pk);
        ASSERT_TRUE(record.ok()) << "lost acknowledged pk " << pk;
        EXPECT_EQ(record->payload, "v" + std::to_string(pk));
      }
    }

    // Invariant 4: no temporaries survive recovery; the recovered dataset
    // accepts new writes, and a full flush retires every segment.
    std::vector<std::string> names;
    ASSERT_TRUE(env.ListDir(run_dir, &names).ok());
    for (const std::string& name : names) {
      EXPECT_EQ(name.find(".tmp"), std::string::npos) << name;
    }
    Record record;
    record.pk = 1000;
    record.fields = {1, 0};
    ASSERT_TRUE(dataset->Insert(record).ok());
    ASSERT_TRUE(dataset->Flush().ok());
    EXPECT_TRUE(dataset->Get(1000).ok());
    ASSERT_TRUE(env.ListDir(run_dir, &names).ok());
    for (const std::string& name : names) {
      EXPECT_EQ(name.find(".tmp"), std::string::npos) << name;
      EXPECT_EQ(name.find(".wal"), std::string::npos) << name;
    }
  }
}

// Flush-only sync: the active segment is unsynced, so a crash may lose the
// active memtables, never an older record above a newer one.
TEST_F(FaultInjectionTest, CrashPointSweep) {
  SweepWalCrashPoints(dir_, WalSyncMode::kFlushOnly);
}

TEST_F(FaultInjectionTest, WalEveryRecordCrashSweepLosesNoAckedWrite) {
  SweepWalCrashPoints(dir_, WalSyncMode::kEveryRecord);
}

// ---------------------------------------- shared-WAL batch crash sweep

constexpr int64_t kSweepBatches = 8;
constexpr int64_t kSweepBatchSize = 3;

// Ingest through a dataset's shared WAL under every-record sync, one atomic
// PutBatch of kSweepBatchSize records at a time (batch b covers pks
// [b*size, (b+1)*size)). Appends each batch index to `acked` once its
// PutBatch was acknowledged. The small memtable bound forces mid-run
// flushes, putting shared-segment sealing and reclamation inside the crash
// window alongside batch appends and their fsyncs.
Status RunSharedBatchWorkload(Env* env, const std::string& dir,
                              std::vector<int64_t>* acked) {
  DatasetOptions options;
  options.directory = dir;
  options.name = "ds";
  options.schema = TweetSchema(ValueDomain(0, 14));
  options.memtable_max_entries = 8;
  options.env = env;
  options.wal = true;
  options.wal_sync_mode = WalSyncMode::kEveryRecord;
  auto dataset_or = Dataset::Open(options);
  LSMSTATS_RETURN_IF_ERROR(dataset_or.status());
  auto& dataset = *dataset_or;
  for (int64_t b = 0; b < kSweepBatches; ++b) {
    std::vector<Record> records;
    for (int64_t i = 0; i < kSweepBatchSize; ++i) {
      Record record;
      record.pk = kSweepBatchSize * b + i;
      record.fields = {record.pk % 5, 0};
      records.push_back(record);
    }
    LSMSTATS_RETURN_IF_ERROR(dataset->PutBatch(records));
    if (acked != nullptr) acked->push_back(b);
  }
  return dataset->Flush();
}

TEST_F(FaultInjectionTest, SharedWalGroupCommitBatchSweepIsAtomic) {
  uint64_t total_ops;
  {
    std::string clean_dir = dir_ + "/clean";
    FaultInjectionEnv env;
    std::vector<int64_t> acked;
    ASSERT_TRUE(RunSharedBatchWorkload(&env, clean_dir, &acked).ok());
    ASSERT_EQ(acked.size(), static_cast<size_t>(kSweepBatches));
    total_ops = env.MutatingOpCount();
    ASSERT_GT(total_ops, 30u);
  }

  for (uint64_t crash_at = 1; crash_at <= total_ops; ++crash_at) {
    SCOPED_TRACE("crash at mutating op " + std::to_string(crash_at));
    std::string run_dir = dir_ + "/run" + std::to_string(crash_at);
    FaultInjectionEnv env;
    env.CrashAtMutatingOp(crash_at);
    std::vector<int64_t> acked;
    Status died = RunSharedBatchWorkload(&env, run_dir, &acked);
    EXPECT_FALSE(died.ok());
    env.ClearFaults();
    ASSERT_TRUE(env.DropUnsyncedData().ok());

    DatasetOptions options;
    options.directory = run_dir;
    options.name = "ds";
    options.schema = TweetSchema(ValueDomain(0, 14));
    options.memtable_max_entries = 8;
    options.env = &env;
    options.wal = true;
    options.wal_sync_mode = WalSyncMode::kEveryRecord;
    auto dataset_or = Dataset::Open(options);
    ASSERT_TRUE(dataset_or.ok()) << dataset_or.status().ToString();
    auto& dataset = *dataset_or;

    // Invariant 1: every batch recovered all-or-nothing (a torn batch would
    // leave a partial pk run), and every ACKED batch recovered whole.
    for (int64_t b = 0; b < kSweepBatches; ++b) {
      int64_t present = 0;
      for (int64_t i = 0; i < kSweepBatchSize; ++i) {
        if (dataset->Get(kSweepBatchSize * b + i).ok()) ++present;
      }
      ASSERT_TRUE(present == 0 || present == kSweepBatchSize)
          << "torn batch " << b << ": " << present << " of "
          << kSweepBatchSize << " records";
      if (static_cast<size_t>(b) < acked.size()) {
        ASSERT_EQ(present, kSweepBatchSize)
            << "lost acknowledged batch " << b;
      }
    }

    // Invariant 2: the secondary index recovered in lockstep with the
    // primary — the shared log's whole point.
    uint64_t live = dataset->CountAll().value();
    EXPECT_EQ(live % kSweepBatchSize, 0u);
    EXPECT_EQ(dataset->CountRange(kTweetMetricField, 0, 14).value(), live);

    // Invariant 3: the recovered dataset accepts new batches, and a full
    // flush retires every shared segment and temporary.
    Record record;
    record.pk = 1000;
    record.fields = {1, 0};
    ASSERT_TRUE(dataset->PutBatch({record}).ok());
    ASSERT_TRUE(dataset->Flush().ok());
    ASSERT_TRUE(dataset->Get(1000).ok());
    std::vector<std::string> names;
    ASSERT_TRUE(env.ListDir(run_dir, &names).ok());
    for (const std::string& name : names) {
      EXPECT_EQ(name.find(".tmp"), std::string::npos) << name;
      EXPECT_EQ(name.find(".wal"), std::string::npos) << name;
    }
  }
}

// ---------------------------------------- dataset degradation contract

// One corrupted index tree must degrade the dataset as a unit: reads and
// estimates keep serving, but a mutation is refused up front — before any
// entry applies anywhere — so the indexes never desynchronize, and the
// healthy siblings are never wedged (their own background paths stay clean).
TEST_F(FaultInjectionTest, DegradedSecondaryRejectsWritesWithoutWedgingSiblings) {
  FaultInjectionEnv env;
  DatasetOptions options;
  options.directory = dir_;
  options.name = "ds";
  options.schema = TweetSchema(ValueDomain(0, 14));
  options.memtable_max_entries = 100;
  options.env = &env;
  auto dataset = Dataset::Open(options).value();
  for (int64_t pk = 0; pk < 20; ++pk) {
    Record record;
    record.pk = pk;
    record.fields = {pk % 5, 0};
    ASSERT_TRUE(dataset->Insert(record).ok());
  }
  LsmTree* secondary = dataset->secondary(kTweetMetricField);
  ASSERT_NE(secondary, nullptr);

  // Corrupt exactly the secondary's flush (targeted directly, so the fault
  // can't land on the primary first).
  env.FailWritesWith(Status::Corruption("injected bit rot"), 1);
  ASSERT_FALSE(secondary->Flush().ok());

  // The dataset's aggregate health reports the degraded member by the worst
  // mode across trees; the siblings themselves stay healthy.
  DatasetHealth health = dataset->Health();
  EXPECT_EQ(health.mode, TreeMode::kReadOnly);
  EXPECT_EQ(health.degraded_trees, 1u);
  EXPECT_EQ(health.recovering_trees, 0u);
  EXPECT_TRUE(dataset->primary()->BackgroundError().ok());
  EXPECT_EQ(dataset->primary()->Health().mode, TreeMode::kHealthy);

  // Reads and estimates still serve across every index.
  EXPECT_TRUE(dataset->Get(5).ok());
  EXPECT_EQ(dataset->CountAll().value(), 20u);
  EXPECT_EQ(dataset->CountRange(kTweetMetricField, 0, 14).value(), 20u);

  // A single-record insert is refused up front, naming the degraded tree —
  // and nothing was applied to the primary (no half-applied mutation).
  Record blocked;
  blocked.pk = 500;
  blocked.fields = {1, 0};
  Status insert = dataset->Insert(blocked);
  ASSERT_FALSE(insert.ok());
  EXPECT_EQ(insert.code(), StatusCode::kCorruption);
  EXPECT_NE(insert.message().find(secondary->options().name),
            std::string::npos)
      << insert.ToString();
  EXPECT_FALSE(dataset->Get(500).ok());
  EXPECT_EQ(dataset->CountAll().value(), 20u);

  // Same for a cross-tree batch: all-or-nothing means nothing.
  ASSERT_FALSE(dataset->PutBatch({blocked}).ok());
  EXPECT_EQ(dataset->CountAll().value(), 20u);

  // The fault was one-shot: resuming the dataset drains the secondary's
  // pinned flush and ingestion picks back up in lockstep.
  ASSERT_TRUE(dataset->Resume().ok());
  EXPECT_EQ(dataset->Health().mode, TreeMode::kHealthy);
  ASSERT_TRUE(dataset->Insert(blocked).ok());
  ASSERT_TRUE(dataset->Flush().ok());
  EXPECT_EQ(dataset->CountAll().value(), 21u);
  EXPECT_EQ(dataset->CountRange(kTweetMetricField, 0, 14).value(), 21u);
}

}  // namespace
}  // namespace lsmstats
