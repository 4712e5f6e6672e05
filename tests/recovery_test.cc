// Tests for restart recovery: LSM component discovery on reopen and
// statistics-catalog persistence.

#include <cstdlib>
#include <filesystem>

#include <gtest/gtest.h>

#include "lsm/lsm_tree.h"
#include "stats/cardinality_estimator.h"
#include "stats/statistics_collector.h"

namespace lsmstats {
namespace {

class RecoveryTest : public ::testing::Test {
 protected:
  void SetUp() override {
    char tmpl[] = "/tmp/lsmstats_recover_XXXXXX";
    dir_ = ::mkdtemp(tmpl);
  }
  void TearDown() override { std::filesystem::remove_all(dir_); }

  LsmTreeOptions Options() {
    LsmTreeOptions options;
    options.directory = dir_;
    options.name = "t";
    options.memtable_max_entries = 100;
    return options;
  }

  std::string dir_;
};

TEST_F(RecoveryTest, ReopenRecoversComponentsAndData) {
  {
    auto tree = LsmTree::Open(Options()).value();
    for (int64_t k = 0; k < 250; ++k) {
      ASSERT_TRUE(tree->Put(PrimaryKey(k), "v" + std::to_string(k), true)
                      .ok());
    }
    ASSERT_TRUE(tree->Delete(PrimaryKey(7)).ok());
    ASSERT_TRUE(tree->Flush().ok());
    EXPECT_EQ(tree->ComponentCount(), 3u);
  }  // "crash": the tree object goes away, files stay

  auto tree = LsmTree::Open(Options()).value();
  EXPECT_EQ(tree->ComponentCount(), 3u);
  std::string value;
  ASSERT_TRUE(tree->Get(PrimaryKey(123), &value).ok());
  EXPECT_EQ(value, "v123");
  EXPECT_EQ(tree->Get(PrimaryKey(7), &value).code(), StatusCode::kNotFound);
  EXPECT_EQ(tree->ScanCount(PrimaryKey(0), PrimaryKey(249)).value(), 249u);
}

TEST_F(RecoveryTest, RecencyOrderSurvivesReopen) {
  {
    auto tree = LsmTree::Open(Options()).value();
    ASSERT_TRUE(tree->Put(PrimaryKey(1), "old", true).ok());
    ASSERT_TRUE(tree->Flush().ok());
    ASSERT_TRUE(tree->Put(PrimaryKey(1), "new", false).ok());
    ASSERT_TRUE(tree->Flush().ok());
  }
  auto tree = LsmTree::Open(Options()).value();
  std::string value;
  ASSERT_TRUE(tree->Get(PrimaryKey(1), &value).ok());
  EXPECT_EQ(value, "new");  // newest component must win after recovery
  // Timestamps are monotone in recency.
  auto metadata = tree->ComponentsMetadata();
  ASSERT_EQ(metadata.size(), 2u);
  EXPECT_GT(metadata[0].timestamp, metadata[1].timestamp);
}

TEST_F(RecoveryTest, ReopenedTreeKeepsWorking) {
  {
    auto tree = LsmTree::Open(Options()).value();
    for (int64_t k = 0; k < 150; ++k) {
      ASSERT_TRUE(tree->Put(PrimaryKey(k), "a", true).ok());
    }
    ASSERT_TRUE(tree->Flush().ok());
  }
  auto tree = LsmTree::Open(Options()).value();
  // Component ids must not collide with recovered ones.
  for (int64_t k = 150; k < 300; ++k) {
    ASSERT_TRUE(tree->Put(PrimaryKey(k), "b", true).ok());
  }
  ASSERT_TRUE(tree->Flush().ok());
  ASSERT_TRUE(tree->ForceFullMerge().ok());
  EXPECT_EQ(tree->ComponentCount(), 1u);
  EXPECT_EQ(tree->ScanCount(PrimaryKey(0), PrimaryKey(299)).value(), 300u);
}

TEST_F(RecoveryTest, ForeignFilesAreIgnored) {
  {
    auto tree = LsmTree::Open(Options()).value();
    ASSERT_TRUE(tree->Put(PrimaryKey(1), "x", true).ok());
    ASSERT_TRUE(tree->Flush().ok());
  }
  // Drop unrelated files into the directory.
  {
    auto junk = WritableFile::Create(dir_ + "/notes.txt");
    ASSERT_TRUE(junk.ok());
    ASSERT_TRUE((*junk)->Append("hello").ok());
    ASSERT_TRUE((*junk)->Close().ok());
    auto other = WritableFile::Create(dir_ + "/other_1.cmp");
    ASSERT_TRUE(other.ok());
    ASSERT_TRUE((*other)->Append("not a component").ok());
    ASSERT_TRUE((*other)->Close().ok());
  }
  auto tree = LsmTree::Open(Options());
  ASSERT_TRUE(tree.ok()) << tree.status().ToString();
  EXPECT_EQ((*tree)->ComponentCount(), 1u);
}

TEST_F(RecoveryTest, CorruptComponentFailsCleanly) {
  {
    auto tree = LsmTree::Open(Options()).value();
    ASSERT_TRUE(tree->Put(PrimaryKey(1), "x", true).ok());
    ASSERT_TRUE(tree->Flush().ok());
  }
  // Truncate the component file: in strict mode (no quarantine) recovery
  // must report corruption, not crash.
  std::string path;
  for (const auto& entry : std::filesystem::directory_iterator(dir_)) {
    if (entry.path().extension() == ".cmp") path = entry.path();
  }
  ASSERT_FALSE(path.empty());
  std::filesystem::resize_file(path, 10);
  LsmTreeOptions strict = Options();
  strict.quarantine_corrupt_components = false;
  auto tree = LsmTree::Open(strict);
  EXPECT_FALSE(tree.ok());
  EXPECT_EQ(tree.status().code(), StatusCode::kCorruption);
}

TEST_F(RecoveryTest, OrphanedTmpFilesAreRemovedOnReopen) {
  {
    auto tree = LsmTree::Open(Options()).value();
    ASSERT_TRUE(tree->Put(PrimaryKey(1), "x", true).ok());
    ASSERT_TRUE(tree->Flush().ok());
  }
  // Simulate a build that crashed before sealing: a half-written temporary
  // with this tree's prefix.
  std::string orphan = dir_ + "/t_99.cmp.tmp";
  {
    auto file = WritableFile::Create(orphan);
    ASSERT_TRUE(file.ok());
    ASSERT_TRUE((*file)->Append("half-written component").ok());
    ASSERT_TRUE((*file)->Close().ok());
  }
  auto tree = LsmTree::Open(Options());
  ASSERT_TRUE(tree.ok()) << tree.status().ToString();
  EXPECT_FALSE(FileExists(orphan));
  EXPECT_EQ((*tree)->ComponentCount(), 1u);
  std::string value;
  EXPECT_TRUE((*tree)->Get(PrimaryKey(1), &value).ok());
}

TEST_F(RecoveryTest, TornFinalComponentIsQuarantinedOnReopen) {
  {
    auto tree = LsmTree::Open(Options()).value();
    ASSERT_TRUE(tree->Put(PrimaryKey(1), "old", true).ok());
    ASSERT_TRUE(tree->Flush().ok());
    ASSERT_TRUE(tree->Put(PrimaryKey(2), "new", true).ok());
    ASSERT_TRUE(tree->Flush().ok());
  }
  // Tear the tail off the newest component, as an interrupted write would.
  std::string newest = dir_ + "/t_2.cmp";
  ASSERT_TRUE(std::filesystem::exists(newest));
  std::filesystem::resize_file(newest,
                               std::filesystem::file_size(newest) - 3);

  auto tree_or = LsmTree::Open(Options());
  ASSERT_TRUE(tree_or.ok()) << tree_or.status().ToString();
  auto& tree = *tree_or;
  // The torn component is gone (quarantined, not silently kept); the older
  // prefix survives and serves reads.
  EXPECT_EQ(tree->ComponentCount(), 1u);
  ASSERT_EQ(tree->QuarantinedFiles().size(), 1u);
  EXPECT_TRUE(std::filesystem::exists(newest + ".quarantine"));
  EXPECT_FALSE(std::filesystem::exists(newest));
  std::string value;
  EXPECT_TRUE(tree->Get(PrimaryKey(1), &value).ok());
  EXPECT_EQ(value, "old");
  EXPECT_EQ(tree->Get(PrimaryKey(2), &value).code(), StatusCode::kNotFound);
  // The recovered tree keeps working: new writes land under fresh ids.
  ASSERT_TRUE(tree->Put(PrimaryKey(3), "again", true).ok());
  ASSERT_TRUE(tree->Flush().ok());
  EXPECT_EQ(tree->ComponentCount(), 2u);
  EXPECT_TRUE(tree->Get(PrimaryKey(3), &value).ok());
}

// ------------------------------------------------------ catalog persistence

TEST_F(RecoveryTest, CatalogSaveLoadRoundTrip) {
  StatisticsCatalog catalog;
  LocalCatalogSink sink(&catalog);
  StatisticsCollector collector(
      {"ds", "f", 2},
      SynopsisConfig{SynopsisType::kWavelet, 64, ValueDomain(0, 12)}, &sink);

  // Drive the collector through a fake flush.
  OperationContext context;
  context.op = LsmOperation::kFlush;
  context.expected_records = 100;
  auto observer = collector.OnOperationBegin(context);
  for (int64_t v = 0; v < 100; ++v) {
    observer->OnEntryView({SecondaryKey(v * 3, v), "", false});
  }
  ComponentMetadata metadata;
  metadata.id = 9;
  metadata.timestamp = 5;
  metadata.record_count = 100;
  observer->OnComponentSealed(metadata, {});

  std::string path = dir_ + "/catalog.bin";
  ASSERT_TRUE(catalog.SaveToFile(path).ok());

  StatisticsCatalog reloaded;
  ASSERT_TRUE(reloaded.LoadFromFile(path).ok());
  EXPECT_EQ(reloaded.EntryCount({"ds", "f", 2}), 1u);
  EXPECT_EQ(reloaded.Version({"ds", "f", 2}), catalog.Version({"ds", "f", 2}));

  CardinalityEstimator original(&catalog, {});
  CardinalityEstimator recovered(&reloaded, {});
  for (int64_t hi = 0; hi < 300; hi += 37) {
    EXPECT_DOUBLE_EQ(recovered.EstimateRangePartition({"ds", "f", 2}, 0, hi),
                     original.EstimateRangePartition({"ds", "f", 2}, 0, hi));
  }
}

TEST_F(RecoveryTest, CatalogLoadRejectsCorruptBytes) {
  std::string path = dir_ + "/bad.bin";
  auto file = WritableFile::Create(path);
  ASSERT_TRUE(file.ok());
  ASSERT_TRUE((*file)->Append("\xff\xff\xff\xff garbage").ok());
  ASSERT_TRUE((*file)->Close().ok());
  StatisticsCatalog catalog;
  EXPECT_FALSE(catalog.LoadFromFile(path).ok());
}

}  // namespace
}  // namespace lsmstats
