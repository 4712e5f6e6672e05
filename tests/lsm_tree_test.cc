// Tests for the LSM storage engine: memtable semantics, disk components,
// merge reconciliation, merge policies, and lifecycle event hooks.

#include <cstdlib>
#include <filesystem>
#include <map>
#include <memory>
#include <set>
#include <string>

#include <gtest/gtest.h>

#include "common/random.h"
#include "lsm/lsm_tree.h"
#include "lsm/merge_cursor.h"
#include "lsm/scheduler.h"

namespace lsmstats {
namespace {

class TempDir {
 public:
  TempDir() {
    char tmpl[] = "/tmp/lsmstats_test_XXXXXX";
    path_ = ::mkdtemp(tmpl);
  }
  ~TempDir() { std::filesystem::remove_all(path_); }
  const std::string& path() const { return path_; }

 private:
  std::string path_;
};

std::unique_ptr<LsmTree> OpenTree(const std::string& dir,
                                  std::shared_ptr<MergePolicy> policy = {},
                                  uint64_t memtable_entries = 1024) {
  LsmTreeOptions options;
  options.directory = dir;
  options.memtable_max_entries = memtable_entries;
  options.merge_policy = std::move(policy);
  auto tree = LsmTree::Open(options);
  EXPECT_TRUE(tree.ok()) << tree.status().ToString();
  return std::move(tree).value();
}

// ------------------------------------------------------------- MemTable

TEST(MemTable, PutGetDelete) {
  MemTable mem;
  mem.Put(PrimaryKey(1), "a", true);
  std::string value;
  bool anti = false;
  ASSERT_TRUE(mem.Get(PrimaryKey(1), &value, &anti).ok());
  EXPECT_EQ(value, "a");
  EXPECT_FALSE(anti);
  mem.Delete(PrimaryKey(1));
  // Fresh insert + delete annihilate silently.
  EXPECT_EQ(mem.Get(PrimaryKey(1), &value, &anti).code(),
            StatusCode::kNotFound);
  EXPECT_EQ(mem.EntryCount(), 0u);
  EXPECT_EQ(mem.AntiMatterCount(), 0u);
}

TEST(MemTable, DeleteOfDiskRecordLeavesAntiMatter) {
  MemTable mem;
  mem.Put(PrimaryKey(2), "b", /*fresh_insert=*/false);  // update of disk row
  mem.Delete(PrimaryKey(2));
  std::string value;
  bool anti = false;
  ASSERT_TRUE(mem.Get(PrimaryKey(2), &value, &anti).ok());
  EXPECT_TRUE(anti);
  EXPECT_EQ(mem.AntiMatterCount(), 1u);
}

TEST(MemTable, ReinsertOverAntiMatterIsNotFresh) {
  MemTable mem;
  mem.Delete(PrimaryKey(3));  // key lives on disk; tombstone recorded
  mem.Put(PrimaryKey(3), "c", /*fresh_insert=*/true);
  mem.Delete(PrimaryKey(3));
  // The delete must keep anti-matter: the disk copy still needs cancelling.
  std::string value;
  bool anti = false;
  ASSERT_TRUE(mem.Get(PrimaryKey(3), &value, &anti).ok());
  EXPECT_TRUE(anti);
}

TEST(MemTable, UpdatePreservesFreshness) {
  MemTable mem;
  mem.Put(PrimaryKey(4), "v1", true);
  mem.Put(PrimaryKey(4), "v2", false);  // update of the fresh insert
  mem.Delete(PrimaryKey(4));
  EXPECT_EQ(mem.EntryCount(), 0u);  // still annihilates silently
}

// Regression: overwriting a key used to add the new value's bytes without
// subtracting the old value's, so a hot-key update workload inflated the
// accounting without bound (and triggered spurious rotations under a byte
// budget). The invariant probe recomputes from scratch.
TEST(MemTable, OverwriteDoesNotDoubleCountBytes) {
  MemTable mem;
  for (int round = 0; round < 100; ++round) {
    // Vary the payload size so capacity changes both ways.
    mem.Put(PrimaryKey(1), std::string(16 + (round % 7) * 400, 'x'), false);
    ASSERT_EQ(mem.ApproximateBytes(), mem.DebugComputeBytes())
        << "drift after overwrite round " << round;
  }
  EXPECT_EQ(mem.EntryCount(), 1u);
  // 100 overwrites of one key must cost one entry, not one hundred.
  EXPECT_LT(mem.ApproximateBytes(), 2 * (64 + 3000));
}

// Regression: converting a record to anti-matter cleared the value but kept
// charging (or double-charged) the released buffer; anti-matter must charge
// exactly its real footprint.
TEST(MemTable, AntiMatterChargesRealFootprint) {
  MemTable mem;
  mem.Put(PrimaryKey(1), std::string(4096, 'x'), /*fresh_insert=*/false);
  const uint64_t with_value = mem.ApproximateBytes();
  mem.Delete(PrimaryKey(1));  // disk-backed: records anti-matter
  EXPECT_EQ(mem.ApproximateBytes(), mem.DebugComputeBytes());
  // The 4 KiB payload buffer is released, not retained by the tombstone.
  EXPECT_LT(mem.ApproximateBytes(), with_value - 4000);

  mem.PutAntiMatter(PrimaryKey(2));  // unconditional anti-matter path
  EXPECT_EQ(mem.ApproximateBytes(), mem.DebugComputeBytes());
}

TEST(MemTable, AccountingExactUnderMixedWorkload) {
  MemTable mem;
  for (int i = 0; i < 500; ++i) {
    const int64_t k = i % 37;
    switch (i % 5) {
      case 0:
        mem.Put(PrimaryKey(k), std::string(i % 300, 'v'), i % 2 == 0);
        break;
      case 1:
        mem.Delete(PrimaryKey(k));
        break;
      case 2:
        mem.PutAntiMatter(PrimaryKey(k));
        break;
      case 3:
        mem.Put(PrimaryKey(k), "", false);  // empty value overwrite
        break;
      case 4:
        mem.Put(PrimaryKey(k), std::string(64, 'w'), false);
        break;
    }
    ASSERT_EQ(mem.ApproximateBytes(), mem.DebugComputeBytes())
        << "drift at step " << i;
  }
}

// Regression: after a flush drains the write buffers, the tree's accounted
// write-buffer bytes must return to zero (no leaked charges from rotated
// memtables), and the immutable-queue total must have included the pinned
// memtables while they waited.
TEST(MemTable, TreeAccountingReturnsToZeroAfterFlush) {
  TempDir dir;
  auto tree = OpenTree(dir.path());
  for (int64_t k = 0; k < 200; ++k) {
    ASSERT_TRUE(
        tree->Put(PrimaryKey(k), std::string(256, 'p'), true).ok());
    // Overwrite a hot key every step: pre-fix this inflated the accounting.
    ASSERT_TRUE(
        tree->Put(PrimaryKey(0), std::string(256, 'q'), false).ok());
  }
  EXPECT_GT(tree->TotalMemTableBytes(), 0u);
  ASSERT_TRUE(tree->Flush().ok());
  EXPECT_EQ(tree->MemTableBytes(), 0u);
  EXPECT_EQ(tree->TotalMemTableBytes(), 0u);
  EXPECT_EQ(tree->ImmutableMemTableCount(), 0u);
}

// -------------------------------------------------------- DiskComponent

TEST(DiskComponent, BuildGetScan) {
  TempDir dir;
  DiskComponentBuilder builder(Env::Default(), dir.path() + "/c1.cmp", 100);
  for (int64_t k = 0; k < 100; ++k) {
    ASSERT_TRUE(
        builder.Add({PrimaryKey(k * 3), "v" + std::to_string(k), false}).ok());
  }
  auto component_or = builder.Finish(1, 1);
  ASSERT_TRUE(component_or.ok()) << component_or.status().ToString();
  auto component = component_or.value();
  EXPECT_EQ(component->metadata().record_count, 100u);
  EXPECT_EQ(component->metadata().min_key, PrimaryKey(0));
  EXPECT_EQ(component->metadata().max_key, PrimaryKey(297));

  Entry entry;
  ASSERT_TRUE(component->Get(PrimaryKey(150), &entry).ok());
  EXPECT_EQ(entry.value, "v50");
  EXPECT_EQ(component->Get(PrimaryKey(151), &entry).code(),
            StatusCode::kNotFound);

  // Full cursor yields all entries in order.
  auto cursor = component->NewCursor();
  int64_t expected = 0;
  while (cursor->Valid()) {
    EXPECT_EQ(cursor->entry().key.k0, expected);
    expected += 3;
    cursor->Next();
  }
  EXPECT_EQ(expected, 300);
  EXPECT_TRUE(cursor->status().ok());

  // A range cursor starts at the first key >= lo and ends after hi.
  auto seek = component->NewCursor(PrimaryKey(149), PrimaryKey(156));
  std::vector<int64_t> keys;
  for (; seek->Valid(); seek->Next()) keys.push_back(seek->entry().key.k0);
  EXPECT_EQ(keys, (std::vector<int64_t>{150, 153, 156}));
  EXPECT_TRUE(seek->status().ok());
}

TEST(DiskComponent, RejectsOutOfOrderKeys) {
  TempDir dir;
  DiskComponentBuilder builder(Env::Default(), dir.path() + "/c2.cmp", 10);
  ASSERT_TRUE(builder.Add({PrimaryKey(5), "", false}).ok());
  EXPECT_EQ(builder.Add({PrimaryKey(5), "", false}).code(),
            StatusCode::kInvalidArgument);
  EXPECT_EQ(builder.Add({PrimaryKey(4), "", false}).code(),
            StatusCode::kInvalidArgument);
  builder.Abandon();
}

TEST(DiskComponent, SecondaryKeyOrdering) {
  TempDir dir;
  DiskComponentBuilder builder(Env::Default(), dir.path() + "/c3.cmp", 4);
  ASSERT_TRUE(builder.Add({SecondaryKey(1, 5), "", false}).ok());
  ASSERT_TRUE(builder.Add({SecondaryKey(1, 9), "", false}).ok());
  ASSERT_TRUE(builder.Add({SecondaryKey(2, 1), "", false}).ok());
  auto component = builder.Finish(1, 1).value();
  Entry entry;
  EXPECT_TRUE(component->Get(SecondaryKey(1, 9), &entry).ok());
  EXPECT_EQ(component->Get(SecondaryKey(1, 6), &entry).code(),
            StatusCode::kNotFound);
}

// ------------------------------------------------------------ MergeCursor

TEST(MergeCursor, NewestVersionWins) {
  std::vector<std::unique_ptr<EntryCursor>> inputs;
  inputs.push_back(std::make_unique<VectorEntryCursor>(std::vector<Entry>{
      {PrimaryKey(1), "new", false}, {PrimaryKey(3), "three", false}}));
  inputs.push_back(std::make_unique<VectorEntryCursor>(std::vector<Entry>{
      {PrimaryKey(1), "old", false}, {PrimaryKey(2), "two", false}}));
  MergeCursor merged(std::move(inputs), true);
  std::map<int64_t, std::string> seen;
  while (merged.Valid()) {
    seen[merged.entry().key.k0] = merged.entry().value;
    merged.Next();
  }
  EXPECT_EQ(seen, (std::map<int64_t, std::string>{
                      {1, "new"}, {2, "two"}, {3, "three"}}));
}

TEST(MergeCursor, AntiMatterReconciliation) {
  std::vector<Entry> newer = {{PrimaryKey(1), "", true},
                              {PrimaryKey(2), "keep", false}};
  std::vector<Entry> older = {{PrimaryKey(1), "dead", false}};
  {
    // Covering the oldest component: anti-matter reconciles away.
    std::vector<std::unique_ptr<EntryCursor>> inputs;
    inputs.push_back(std::make_unique<VectorEntryCursor>(newer));
    inputs.push_back(std::make_unique<VectorEntryCursor>(older));
    MergeCursor merged(std::move(inputs), true);
    ASSERT_TRUE(merged.Valid());
    EXPECT_EQ(merged.entry().key.k0, 2);
    merged.Next();
    EXPECT_FALSE(merged.Valid());
  }
  {
    // Partial merge: anti-matter must be carried forward.
    std::vector<std::unique_ptr<EntryCursor>> inputs;
    inputs.push_back(std::make_unique<VectorEntryCursor>(newer));
    inputs.push_back(std::make_unique<VectorEntryCursor>(older));
    MergeCursor merged(std::move(inputs), false);
    ASSERT_TRUE(merged.Valid());
    EXPECT_EQ(merged.entry().key.k0, 1);
    EXPECT_TRUE(merged.entry().anti_matter);
  }
}

// --------------------------------------------------------------- LsmTree

TEST(LsmTree, PutFlushGet) {
  TempDir dir;
  auto tree = OpenTree(dir.path());
  for (int64_t k = 0; k < 500; ++k) {
    ASSERT_TRUE(tree->Put(PrimaryKey(k), "v" + std::to_string(k), true).ok());
  }
  ASSERT_TRUE(tree->Flush().ok());
  EXPECT_EQ(tree->ComponentCount(), 1u);
  std::string value;
  ASSERT_TRUE(tree->Get(PrimaryKey(321), &value).ok());
  EXPECT_EQ(value, "v321");
  EXPECT_EQ(tree->Get(PrimaryKey(500), &value).code(), StatusCode::kNotFound);
}

TEST(LsmTree, DeleteAcrossComponents) {
  TempDir dir;
  auto tree = OpenTree(dir.path());
  ASSERT_TRUE(tree->Put(PrimaryKey(7), "seven", true).ok());
  ASSERT_TRUE(tree->Flush().ok());
  ASSERT_TRUE(tree->Delete(PrimaryKey(7)).ok());
  std::string value;
  EXPECT_EQ(tree->Get(PrimaryKey(7), &value).code(), StatusCode::kNotFound);
  ASSERT_TRUE(tree->Flush().ok());
  EXPECT_EQ(tree->ComponentCount(), 2u);
  EXPECT_EQ(tree->Get(PrimaryKey(7), &value).code(), StatusCode::kNotFound);
  // Full merge reconciles the pair away entirely.
  ASSERT_TRUE(tree->ForceFullMerge().ok());
  EXPECT_EQ(tree->ComponentCount(), 0u);
  EXPECT_EQ(tree->Get(PrimaryKey(7), &value).code(), StatusCode::kNotFound);
}

TEST(LsmTree, UpdateShadowsOlderVersion) {
  TempDir dir;
  auto tree = OpenTree(dir.path());
  ASSERT_TRUE(tree->Put(PrimaryKey(1), "v1", true).ok());
  ASSERT_TRUE(tree->Flush().ok());
  ASSERT_TRUE(tree->Put(PrimaryKey(1), "v2", false).ok());
  ASSERT_TRUE(tree->Flush().ok());
  std::string value;
  ASSERT_TRUE(tree->Get(PrimaryKey(1), &value).ok());
  EXPECT_EQ(value, "v2");
  ASSERT_TRUE(tree->ForceFullMerge().ok());
  EXPECT_EQ(tree->ComponentCount(), 1u);
  EXPECT_EQ(tree->ComponentsMetadata()[0].record_count, 1u);
  ASSERT_TRUE(tree->Get(PrimaryKey(1), &value).ok());
  EXPECT_EQ(value, "v2");
}

TEST(LsmTree, ScanReconcilesAcrossEverything) {
  TempDir dir;
  auto tree = OpenTree(dir.path());
  // Component 1: keys 0..9.
  for (int64_t k = 0; k < 10; ++k) {
    ASSERT_TRUE(tree->Put(PrimaryKey(k), "a", true).ok());
  }
  ASSERT_TRUE(tree->Flush().ok());
  // Component 2: delete evens.
  for (int64_t k = 0; k < 10; k += 2) {
    ASSERT_TRUE(tree->Delete(PrimaryKey(k)).ok());
  }
  ASSERT_TRUE(tree->Flush().ok());
  // Memtable: re-add 4, add 10.
  ASSERT_TRUE(tree->Put(PrimaryKey(4), "b", false).ok());
  ASSERT_TRUE(tree->Put(PrimaryKey(10), "c", true).ok());

  std::set<int64_t> live;
  ASSERT_TRUE(tree->Scan(PrimaryKey(INT64_MIN), PrimaryKey(INT64_MAX),
                         [&](const EntryView& e) { live.insert(e.key.k0); })
                  .ok());
  EXPECT_EQ(live, (std::set<int64_t>{1, 3, 4, 5, 7, 9, 10}));
  EXPECT_EQ(tree->ScanCount(PrimaryKey(4), PrimaryKey(9)).value(), 4u);
}

TEST(LsmTree, ConstantMergePolicyBoundsComponents) {
  TempDir dir;
  auto tree = OpenTree(dir.path(), std::make_shared<ConstantMergePolicy>(3),
                       /*memtable_entries=*/50);
  Random rng(5);
  for (int64_t k = 0; k < 2000; ++k) {
    ASSERT_TRUE(
        tree->Put(PrimaryKey(static_cast<int64_t>(rng.NextU64() >> 1)), "x",
                  true)
            .ok());
  }
  ASSERT_TRUE(tree->Flush().ok());
  EXPECT_LE(tree->ComponentCount(), 3u);
  EXPECT_GE(tree->ComponentCount(), 1u);
}

TEST(LsmTree, TieredMergePolicyKeepsComponentCountSublinear) {
  TempDir dir;
  auto tree = OpenTree(dir.path(), std::make_shared<TieredMergePolicy>(1.5, 4),
                       /*memtable_entries=*/64);
  for (int64_t k = 0; k < 5000; ++k) {
    ASSERT_TRUE(tree->Put(PrimaryKey(k), "payload", true).ok());
  }
  ASSERT_TRUE(tree->Flush().ok());
  // 5000/64 = ~78 flushes; tiering must have merged most of them.
  EXPECT_LT(tree->ComponentCount(), 20u);
  // All data still readable.
  EXPECT_EQ(tree->ScanCount(PrimaryKey(0), PrimaryKey(4999)).value(), 5000u);
}

TEST(LsmTree, BulkloadSingleComponent) {
  TempDir dir;
  auto tree = OpenTree(dir.path());
  std::vector<Entry> entries;
  for (int64_t k = 0; k < 1000; ++k) {
    entries.push_back({PrimaryKey(k), "bulk", false});
  }
  VectorEntryCursor cursor(std::move(entries));
  ASSERT_TRUE(tree->Bulkload(&cursor, 1000).ok());
  EXPECT_EQ(tree->ComponentCount(), 1u);
  std::string value;
  EXPECT_TRUE(tree->Get(PrimaryKey(999), &value).ok());
}

TEST(LsmTree, BulkloadRequiresEmptyMemtable) {
  TempDir dir;
  auto tree = OpenTree(dir.path());
  ASSERT_TRUE(tree->Put(PrimaryKey(1), "x", true).ok());
  VectorEntryCursor cursor({});
  EXPECT_EQ(tree->Bulkload(&cursor, 0).code(),
            StatusCode::kFailedPrecondition);
}

TEST(LsmTree, BulkloadRejectsOutOfOrderInputWithoutDegrading) {
  // The builder is abandoned and nothing changes, so the caller's bad input
  // is its error alone: the tree stays healthy and writable.
  TempDir dir;
  auto tree = OpenTree(dir.path());
  VectorEntryCursor cursor(
      {{PrimaryKey(2), "b", false}, {PrimaryKey(1), "a", false}});
  EXPECT_EQ(tree->Bulkload(&cursor, 2).code(), StatusCode::kInvalidArgument);
  EXPECT_EQ(tree->Health().mode, TreeMode::kHealthy);
  EXPECT_EQ(tree->ComponentCount(), 0u);
  ASSERT_TRUE(tree->Put(PrimaryKey(1), "a", true).ok());
  ASSERT_TRUE(tree->Flush().ok());
  EXPECT_EQ(tree->ComponentCount(), 1u);
}

// Listener that records every observed entry and sealed component.
class RecordingListener : public LsmEventListener {
 public:
  struct Sealed {
    LsmOperation op;
    uint64_t component_id;
    uint64_t entries_seen;
    uint64_t anti_seen;
    std::vector<uint64_t> replaced;
    OperationContext context;     // as OnOperationBegin saw it
    ComponentMetadata metadata;   // as OnComponentSealed saw it
  };

  std::unique_ptr<ComponentWriteObserver> OnOperationBegin(
      const OperationContext& context) override {
    ++begun;
    return std::make_unique<Observer>(this, context);
  }

  std::vector<Sealed> sealed;
  uint64_t begun = 0;

 private:
  class Observer : public ComponentWriteObserver {
   public:
    Observer(RecordingListener* parent, const OperationContext& context)
        : parent_(parent), context_(context) {}
    void OnEntryView(const EntryView& entry) override {
      ++entries_;
      if (entry.anti_matter) ++anti_;
    }
    void OnComponentSealed(const ComponentMetadata& metadata,
                           const std::vector<uint64_t>& replaced) override {
      parent_->sealed.push_back({context_.op, metadata.id, entries_, anti_,
                                 replaced, context_, metadata});
    }

   private:
    RecordingListener* parent_;
    OperationContext context_;
    uint64_t entries_ = 0;
    uint64_t anti_ = 0;
  };

  friend class Observer;
};

TEST(LsmTree, ListenersObserveEveryRecordOfEveryEvent) {
  TempDir dir;
  RecordingListener listener;
  auto tree = OpenTree(dir.path());
  tree->AddListener(&listener);

  for (int64_t k = 0; k < 100; ++k) {
    ASSERT_TRUE(tree->Put(PrimaryKey(k), "x", true).ok());
  }
  ASSERT_TRUE(tree->Flush().ok());
  for (int64_t k = 100; k < 150; ++k) {
    ASSERT_TRUE(tree->Put(PrimaryKey(k), "x", true).ok());
  }
  ASSERT_TRUE(tree->Delete(PrimaryKey(0)).ok());
  ASSERT_TRUE(tree->Flush().ok());
  ASSERT_TRUE(tree->ForceFullMerge().ok());

  ASSERT_EQ(listener.sealed.size(), 3u);
  EXPECT_EQ(listener.sealed[0].op, LsmOperation::kFlush);
  EXPECT_EQ(listener.sealed[0].entries_seen, 100u);
  EXPECT_EQ(listener.sealed[1].op, LsmOperation::kFlush);
  EXPECT_EQ(listener.sealed[1].entries_seen, 51u);  // 50 puts + 1 anti-matter
  EXPECT_EQ(listener.sealed[1].anti_seen, 1u);
  EXPECT_EQ(listener.sealed[2].op, LsmOperation::kMerge);
  // Merge output: 150 records - deleted key 0 and its reconciled anti-matter.
  EXPECT_EQ(listener.sealed[2].entries_seen, 149u);
  EXPECT_EQ(listener.sealed[2].anti_seen, 0u);
  EXPECT_EQ(listener.sealed[2].replaced.size(), 2u);
}

// Forwards to the default Env and counts component-manifest writes (each
// one is a rename onto `<name>.manifest`).
class ManifestCountingEnv : public Env {
 public:
  uint64_t manifest_writes() const { return manifest_writes_; }

  StatusOr<std::unique_ptr<WritableFile>> NewWritableFile(
      const std::string& path) override {
    return Env::Default()->NewWritableFile(path);
  }
  StatusOr<std::shared_ptr<RandomAccessFile>> NewRandomAccessFile(
      const std::string& path) override {
    return Env::Default()->NewRandomAccessFile(path);
  }
  Status CreateDirIfMissing(const std::string& path) override {
    return Env::Default()->CreateDirIfMissing(path);
  }
  Status RemoveFileIfExists(const std::string& path) override {
    return Env::Default()->RemoveFileIfExists(path);
  }
  bool FileExists(const std::string& path) override {
    return Env::Default()->FileExists(path);
  }
  Status RenameFile(const std::string& from, const std::string& to) override {
    if (to.size() > 9 && to.compare(to.size() - 9, 9, ".manifest") == 0) {
      ++manifest_writes_;
    }
    return Env::Default()->RenameFile(from, to);
  }
  Status SyncDir(const std::string& path) override {
    return Env::Default()->SyncDir(path);
  }
  Status TruncateFile(const std::string& path, uint64_t size) override {
    return Env::Default()->TruncateFile(path, size);
  }
  Status ListDir(const std::string& path,
                 std::vector<std::string>* names) override {
    return Env::Default()->ListDir(path, names);
  }

 private:
  uint64_t manifest_writes_ = 0;
};

TEST(LsmTree, ListenersSeeBulkloadsIncludingAnEmptyOne) {
  TempDir dir;
  RecordingListener listener;
  auto tree = OpenTree(dir.path());
  tree->AddListener(&listener);

  std::vector<Entry> entries;
  for (int64_t k = 0; k < 100; ++k) {
    entries.push_back({PrimaryKey(k), k % 10 == 0 ? "" : "bulk", k % 10 == 0});
  }
  VectorEntryCursor cursor(std::move(entries));
  ASSERT_TRUE(tree->Bulkload(&cursor, 100, 10).ok());
  // An empty stream still begins and seals an operation, with empty
  // metadata, and consumes one component id.
  VectorEntryCursor empty({});
  ASSERT_TRUE(tree->Bulkload(&empty, 0).ok());
  EXPECT_EQ(tree->ComponentCount(), 1u);
  ASSERT_TRUE(tree->Put(PrimaryKey(500), "x", true).ok());
  ASSERT_TRUE(tree->Flush().ok());

  ASSERT_EQ(listener.begun, 3u);
  ASSERT_EQ(listener.sealed.size(), 3u);
  const auto& loaded = listener.sealed[0];
  EXPECT_EQ(loaded.op, LsmOperation::kBulkload);
  EXPECT_EQ(loaded.component_id, 1u);
  EXPECT_EQ(loaded.entries_seen, 100u);
  EXPECT_EQ(loaded.anti_seen, 10u);
  EXPECT_TRUE(loaded.replaced.empty());
  EXPECT_EQ(loaded.context.expected_records, 100u);
  EXPECT_EQ(loaded.context.expected_anti_matter, 10u);
  EXPECT_EQ(loaded.context.target_level, 0u);
  EXPECT_EQ(loaded.metadata.record_count, 100u);
  EXPECT_EQ(loaded.metadata.anti_matter_count, 10u);
  EXPECT_EQ(loaded.metadata.level, 0u);
  EXPECT_EQ(loaded.metadata.timestamp, 1u);

  const auto& nothing = listener.sealed[1];
  EXPECT_EQ(nothing.op, LsmOperation::kBulkload);
  EXPECT_EQ(nothing.component_id, 2u);
  EXPECT_EQ(nothing.entries_seen, 0u);
  EXPECT_TRUE(nothing.replaced.empty());
  EXPECT_EQ(nothing.context.expected_records, 0u);
  EXPECT_EQ(nothing.metadata.record_count, 0u);
  EXPECT_EQ(nothing.metadata.level, 0u);
  EXPECT_EQ(nothing.metadata.timestamp, 2u);

  EXPECT_EQ(listener.sealed[2].op, LsmOperation::kFlush);
  EXPECT_EQ(listener.sealed[2].component_id, 3u);
  EXPECT_EQ(listener.sealed[2].metadata.timestamp, 3u);
}

TEST(LsmTree, ListenersSeeEveryOutputOfAPartitionedMerge) {
  TempDir dir;
  ManifestCountingEnv env;
  RecordingListener listener;
  LeveledPolicyOptions policy;
  policy.level0_limit = 2;
  policy.base_level_bytes = 1 << 30;  // only L0 -> L1 merges
  policy.partition_split_bytes = 4096;
  LsmTreeOptions options;
  options.directory = dir.path();
  options.env = &env;
  options.merge_policy = std::make_shared<LeveledMergePolicy>(policy);
  auto tree = LsmTree::Open(options).value();
  tree->AddListener(&listener);

  const std::string payload(100, 'p');
  for (int64_t flush = 0; flush < 3; ++flush) {
    for (int64_t k = flush * 40; k < flush * 40 + 40; ++k) {
      ASSERT_TRUE(tree->Put(PrimaryKey(k), payload, true).ok());
    }
    // The last flush carries one anti-matter entry; the merge below covers
    // the oldest component, so it reconciles away with its record.
    if (flush == 2) {
      ASSERT_TRUE(tree->Delete(PrimaryKey(5)).ok());
    } else {
      ASSERT_TRUE(tree->Flush().ok());
    }
  }
  const uint64_t writes_before_merge = env.manifest_writes();
  ASSERT_TRUE(tree->Flush().ok());  // third L0 component: merges into L1

  // Three flushes, then the merge's outputs: 119 live entries, split once
  // an output's approximate size (value + 32 per entry) reaches 4096 bytes,
  // i.e. after 32 entries.
  const std::vector<uint64_t> sizes = {32, 32, 32, 23};
  ASSERT_EQ(listener.sealed.size(), 3 + sizes.size());
  ASSERT_EQ(listener.begun, 3 + sizes.size());
  EXPECT_EQ(listener.sealed[2].entries_seen, 41u);
  EXPECT_EQ(listener.sealed[2].anti_seen, 1u);
  uint64_t consumed = 0;
  for (size_t i = 0; i < sizes.size(); ++i) {
    const auto& output = listener.sealed[3 + i];
    SCOPED_TRACE("output " + std::to_string(i));
    EXPECT_EQ(output.op, LsmOperation::kMerge);
    EXPECT_EQ(output.component_id, 4 + i);
    EXPECT_EQ(output.entries_seen, sizes[i]);
    EXPECT_EQ(output.anti_seen, 0u);
    EXPECT_EQ(output.metadata.record_count, sizes[i]);
    EXPECT_EQ(output.metadata.anti_matter_count, 0u);
    EXPECT_EQ(output.metadata.level, 1u);
    EXPECT_EQ(output.metadata.timestamp, 4 + i);
    // Each output's context bounds what is left of the inputs.
    EXPECT_EQ(output.context.expected_records, 121u - consumed);
    EXPECT_EQ(output.context.expected_anti_matter, 1u);
    EXPECT_EQ(output.context.target_level, 1u);
    EXPECT_TRUE(output.context.includes_oldest_component);
    // Only the first output carries the replaced ids, newest first.
    if (i == 0) {
      EXPECT_EQ(output.replaced, (std::vector<uint64_t>{3, 2, 1}));
    } else {
      EXPECT_TRUE(output.replaced.empty());
    }
    consumed += sizes[i];
  }
  EXPECT_EQ(tree->ComponentCount(), sizes.size());
  // One pending record before the first output, one per output id, one
  // commit.
  EXPECT_EQ(env.manifest_writes() - writes_before_merge, sizes.size() + 2);
  ASSERT_TRUE(tree->Put(PrimaryKey(1000), payload, true).ok());
  ASSERT_TRUE(tree->Flush().ok());
  EXPECT_EQ(listener.sealed.back().component_id, 4 + sizes.size());
}

TEST(LsmTree, ListenersSeeAnEmptyMergeSealAtItsTargetLevel) {
  TempDir dir;
  ManifestCountingEnv env;
  RecordingListener listener;
  LeveledPolicyOptions policy;
  policy.level0_limit = 2;
  policy.base_level_bytes = 1 << 30;
  LsmTreeOptions options;
  options.directory = dir.path();
  options.env = &env;
  options.merge_policy = std::make_shared<LeveledMergePolicy>(policy);
  auto tree = LsmTree::Open(options).value();
  tree->AddListener(&listener);

  for (int64_t k = 0; k < 10; ++k) {
    ASSERT_TRUE(tree->Put(PrimaryKey(k), "x", true).ok());
  }
  ASSERT_TRUE(tree->Flush().ok());
  for (int64_t k = 0; k < 5; ++k) ASSERT_TRUE(tree->Delete(PrimaryKey(k)).ok());
  ASSERT_TRUE(tree->Flush().ok());
  for (int64_t k = 5; k < 10; ++k) {
    ASSERT_TRUE(tree->Delete(PrimaryKey(k)).ok());
  }
  const uint64_t writes_before_merge = env.manifest_writes();
  ASSERT_TRUE(tree->Flush().ok());  // third L0 component: merges into L1

  ASSERT_EQ(listener.sealed.size(), 4u);
  ASSERT_EQ(listener.begun, 4u);
  const auto& merged = listener.sealed[3];
  EXPECT_EQ(merged.op, LsmOperation::kMerge);
  EXPECT_EQ(merged.component_id, 4u);
  EXPECT_EQ(merged.entries_seen, 0u);
  EXPECT_EQ(merged.replaced, (std::vector<uint64_t>{3, 2, 1}));
  EXPECT_EQ(merged.context.expected_records, 20u);
  EXPECT_EQ(merged.context.expected_anti_matter, 10u);
  EXPECT_EQ(merged.context.target_level, 1u);
  EXPECT_EQ(merged.metadata.id, 4u);
  EXPECT_EQ(merged.metadata.record_count, 0u);
  EXPECT_EQ(merged.metadata.level, 1u);
  EXPECT_EQ(merged.metadata.timestamp, 4u);
  EXPECT_EQ(tree->ComponentCount(), 0u);
  // The pending record and the commit; no output id is ever recorded.
  EXPECT_EQ(env.manifest_writes() - writes_before_merge, 2u);

  // The empty merge consumed exactly one id.
  ASSERT_TRUE(tree->Put(PrimaryKey(20), "x", true).ok());
  ASSERT_TRUE(tree->Flush().ok());
  EXPECT_EQ(listener.sealed.back().component_id, 5u);
}

TEST(LsmTree, EmptyFlushAndRequestFlushAreNoOps) {
  // Flushing an empty tree — explicitly or via the non-blocking trigger —
  // must not seal a component or emit a listener stream: a zero-record
  // component would pollute the statistics catalog with empty synopses.
  TempDir dir;
  BackgroundScheduler scheduler(2);
  RecordingListener listener;
  LsmTreeOptions options;
  options.directory = dir.path();
  options.scheduler = &scheduler;
  auto tree = LsmTree::Open(options).value();
  tree->AddListener(&listener);

  for (int i = 0; i < 5; ++i) {
    ASSERT_TRUE(tree->RequestFlush().ok());
  }
  ASSERT_TRUE(tree->WaitForBackgroundWork().ok());
  ASSERT_TRUE(tree->Flush().ok());
  EXPECT_EQ(tree->ComponentCount(), 0u);
  EXPECT_EQ(tree->ImmutableMemTableCount(), 0u);
  EXPECT_TRUE(listener.sealed.empty());

  // After real data lands, further empty flushes stay silent.
  ASSERT_TRUE(tree->Put(PrimaryKey(1), "x", true).ok());
  ASSERT_TRUE(tree->Flush().ok());
  ASSERT_EQ(listener.sealed.size(), 1u);
  ASSERT_TRUE(tree->RequestFlush().ok());
  ASSERT_TRUE(tree->WaitForBackgroundWork().ok());
  ASSERT_TRUE(tree->Flush().ok());
  EXPECT_EQ(tree->ComponentCount(), 1u);
  EXPECT_EQ(listener.sealed.size(), 1u);
  scheduler.Shutdown();
}

TEST(LsmTree, RandomizedEquivalenceWithStdMap) {
  TempDir dir;
  auto tree = OpenTree(dir.path(), std::make_shared<TieredMergePolicy>(),
                       /*memtable_entries=*/128);
  std::map<int64_t, std::string> model;
  Random rng(99);
  for (int i = 0; i < 5000; ++i) {
    int64_t key = static_cast<int64_t>(rng.Uniform(800));
    int op = static_cast<int>(rng.Uniform(3));
    if (op == 0 || op == 1) {
      std::string value = "v" + std::to_string(i);
      bool fresh = model.find(key) == model.end();
      ASSERT_TRUE(tree->Put(PrimaryKey(key), value, fresh).ok());
      model[key] = value;
    } else {
      auto it = model.find(key);
      if (it != model.end()) {
        ASSERT_TRUE(tree->Delete(PrimaryKey(key)).ok());
        model.erase(it);
      }
    }
  }
  // Point lookups agree.
  for (int64_t key = 0; key < 800; ++key) {
    std::string value;
    Status s = tree->Get(PrimaryKey(key), &value);
    auto it = model.find(key);
    if (it == model.end()) {
      EXPECT_EQ(s.code(), StatusCode::kNotFound) << "key " << key;
    } else {
      ASSERT_TRUE(s.ok()) << "key " << key << ": " << s.ToString();
      EXPECT_EQ(value, it->second) << "key " << key;
    }
  }
  // Scans agree.
  EXPECT_EQ(tree->ScanCount(PrimaryKey(0), PrimaryKey(799)).value(),
            model.size());
  // And still agree after a full merge.
  ASSERT_TRUE(tree->Flush().ok());
  ASSERT_TRUE(tree->ForceFullMerge().ok());
  EXPECT_EQ(tree->ScanCount(PrimaryKey(0), PrimaryKey(799)).value(),
            model.size());
}

}  // namespace
}  // namespace lsmstats
