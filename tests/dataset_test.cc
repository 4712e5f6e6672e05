// Tests for the Dataset layer: constraint enforcement, secondary index
// maintenance, and the statistics-collection integration.

#include <cstdlib>
#include <filesystem>
#include <memory>

#include <gtest/gtest.h>

#include "db/dataset.h"
#include "stats/cardinality_estimator.h"

namespace lsmstats {
namespace {

class DatasetTest : public ::testing::Test {
 protected:
  void SetUp() override {
    char tmpl[] = "/tmp/lsmstats_ds_XXXXXX";
    dir_ = ::mkdtemp(tmpl);
  }
  void TearDown() override { std::filesystem::remove_all(dir_); }

  Schema TwoFieldSchema() {
    FieldDef value;
    value.name = "value";
    value.type = FieldType::kInt32;
    value.indexed = true;
    value.domain = ValueDomain(0, 16);
    FieldDef other;
    other.name = "other";
    other.type = FieldType::kInt64;
    return Schema({value, other});
  }

  std::unique_ptr<Dataset> OpenDataset(
      SynopsisType type = SynopsisType::kNone, size_t budget = 256,
      uint64_t memtable_entries = 1000) {
    DatasetOptions options;
    options.directory = dir_;
    options.name = "test";
    options.schema = TwoFieldSchema();
    options.synopsis_type = type;
    options.synopsis_budget = budget;
    options.memtable_max_entries = memtable_entries;
    options.sink = type == SynopsisType::kNone ? nullptr : &sink_;
    auto dataset = Dataset::Open(std::move(options));
    EXPECT_TRUE(dataset.ok()) << dataset.status().ToString();
    return std::move(dataset).value();
  }

  Record MakeRecord(int64_t pk, int64_t value, int64_t other = 0) {
    Record record;
    record.pk = pk;
    record.fields = {value, other};
    record.payload = "payload";
    return record;
  }

  std::string dir_;
  StatisticsCatalog catalog_;
  LocalCatalogSink sink_{&catalog_};
};

TEST_F(DatasetTest, InsertGet) {
  auto dataset = OpenDataset();
  ASSERT_TRUE(dataset->Insert(MakeRecord(1, 100, 7)).ok());
  auto record = dataset->Get(1);
  ASSERT_TRUE(record.ok());
  EXPECT_EQ(record->fields[0], 100);
  EXPECT_EQ(record->fields[1], 7);
  EXPECT_EQ(record->payload, "payload");
}

TEST_F(DatasetTest, ConstraintsEnforced) {
  auto dataset = OpenDataset();
  ASSERT_TRUE(dataset->Insert(MakeRecord(1, 100)).ok());
  EXPECT_EQ(dataset->Insert(MakeRecord(1, 200)).code(),
            StatusCode::kAlreadyExists);
  EXPECT_EQ(dataset->Update(MakeRecord(2, 100)).code(),
            StatusCode::kNotFound);
  EXPECT_EQ(dataset->Delete(99).code(), StatusCode::kNotFound);
}

TEST_F(DatasetTest, UpdateMovesSecondaryEntry) {
  auto dataset = OpenDataset();
  ASSERT_TRUE(dataset->Insert(MakeRecord(1, 100)).ok());
  ASSERT_TRUE(dataset->Flush().ok());
  ASSERT_TRUE(dataset->Update(MakeRecord(1, 555)).ok());
  EXPECT_EQ(dataset->CountRange("value", 100, 100).value(), 0u);
  EXPECT_EQ(dataset->CountRange("value", 555, 555).value(), 1u);
  // Also after flushing the anti-matter and merging everything.
  ASSERT_TRUE(dataset->Flush().ok());
  ASSERT_TRUE(dataset->ForceFullMerge().ok());
  EXPECT_EQ(dataset->CountRange("value", 100, 100).value(), 0u);
  EXPECT_EQ(dataset->CountRange("value", 555, 555).value(), 1u);
}

TEST_F(DatasetTest, DeleteRemovesFromBothIndexes) {
  auto dataset = OpenDataset();
  ASSERT_TRUE(dataset->Insert(MakeRecord(1, 100)).ok());
  ASSERT_TRUE(dataset->Insert(MakeRecord(2, 100)).ok());
  ASSERT_TRUE(dataset->Flush().ok());
  ASSERT_TRUE(dataset->Delete(1).ok());
  EXPECT_EQ(dataset->Get(1).status().code(), StatusCode::kNotFound);
  EXPECT_EQ(dataset->CountRange("value", 100, 100).value(), 1u);
  EXPECT_EQ(dataset->CountAll().value(), 1u);
}

TEST_F(DatasetTest, CountRangeGroundTruth) {
  auto dataset = OpenDataset();
  for (int64_t pk = 0; pk < 100; ++pk) {
    ASSERT_TRUE(dataset->Insert(MakeRecord(pk, pk % 10)).ok());
  }
  EXPECT_EQ(dataset->CountRange("value", 0, 4).value(), 50u);
  EXPECT_EQ(dataset->CountRange("value", 3, 3).value(), 10u);
  EXPECT_EQ(dataset->CountRange("value", 10, 20).value(), 0u);
}

TEST_F(DatasetTest, LoadBulkloadsSingleComponentPerIndex) {
  auto dataset = OpenDataset(SynopsisType::kEquiWidthHistogram);
  std::vector<Record> records;
  for (int64_t pk = 0; pk < 1000; ++pk) {
    records.push_back(MakeRecord(pk, pk % 50));
  }
  ASSERT_TRUE(dataset->Load(std::move(records)).ok());
  EXPECT_EQ(dataset->primary()->ComponentCount(), 1u);
  EXPECT_EQ(dataset->secondary("value")->ComponentCount(), 1u);
  EXPECT_EQ(dataset->CountRange("value", 0, 24).value(), 500u);
  // One synopsis stream entry exists for the bulkloaded component.
  EXPECT_EQ(catalog_.EntryCount(dataset->StatsKey("value")), 1u);
}

TEST_F(DatasetTest, LoadRejectsADuplicatePkAndLeavesTheDatasetWritable) {
  auto dataset = OpenDataset();
  std::vector<Record> records = {MakeRecord(1, 3), MakeRecord(2, 4),
                                 MakeRecord(2, 5), MakeRecord(3, 6)};
  EXPECT_EQ(dataset->Load(records).code(), StatusCode::kInvalidArgument);
  // Nothing was applied and no index degraded.
  EXPECT_EQ(dataset->Health().mode, TreeMode::kHealthy);
  EXPECT_EQ(dataset->primary()->ComponentCount(), 0u);
  EXPECT_EQ(dataset->live_records(), 0u);
  ASSERT_TRUE(dataset->Insert(MakeRecord(7, 1)).ok());
  EXPECT_EQ(dataset->CountAll().value(), 1u);
  // A record that does not match the schema is rejected the same way.
  Record short_record = MakeRecord(8, 2);
  short_record.fields.pop_back();
  EXPECT_EQ(dataset->Load({short_record}).code(),
            StatusCode::kInvalidArgument);
  EXPECT_EQ(dataset->Health().mode, TreeMode::kHealthy);
}

TEST_F(DatasetTest, StatisticsTrackIngestionExactlyWithFullPrecision) {
  // With one bucket per domain value the equi-width histogram is exact, so
  // the estimate must match the ground truth through flushes, updates,
  // deletes, and merges.
  auto dataset = OpenDataset(SynopsisType::kEquiWidthHistogram, 1 << 16,
                             /*memtable_entries=*/64);
  CardinalityEstimator estimator(&catalog_, {});
  for (int64_t pk = 0; pk < 500; ++pk) {
    ASSERT_TRUE(dataset->Insert(MakeRecord(pk, pk % 100)).ok());
  }
  ASSERT_TRUE(dataset->Flush().ok());
  for (int64_t pk = 0; pk < 100; ++pk) {
    ASSERT_TRUE(dataset->Update(MakeRecord(pk, 60000)).ok());
  }
  for (int64_t pk = 100; pk < 150; ++pk) {
    ASSERT_TRUE(dataset->Delete(pk).ok());
  }
  ASSERT_TRUE(dataset->Flush().ok());

  for (auto [lo, hi] : std::vector<std::pair<int64_t, int64_t>>{
           {0, 99}, {0, 65535}, {50, 60}, {60000, 60000}, {200, 300}}) {
    double estimate = estimator.EstimateRange("test", "value", lo, hi);
    uint64_t exact = dataset->CountRange("value", lo, hi).value();
    EXPECT_NEAR(estimate, static_cast<double>(exact), 1e-6)
        << "[" << lo << "," << hi << "]";
  }

  // Merging rebuilds statistics from the merged component; estimates must
  // still be exact.
  ASSERT_TRUE(dataset->ForceFullMerge().ok());
  EXPECT_EQ(catalog_.EntryCount(dataset->StatsKey("value")), 1u);
  double estimate = estimator.EstimateRange("test", "value", 0, 65535);
  EXPECT_NEAR(estimate, static_cast<double>(
                            dataset->CountRange("value", 0, 65535).value()),
              1e-6);
}

TEST_F(DatasetTest, AntiMatterSynopsesPublished) {
  auto dataset = OpenDataset(SynopsisType::kEquiWidthHistogram, 1 << 16,
                             /*memtable_entries=*/1 << 20);
  for (int64_t pk = 0; pk < 100; ++pk) {
    ASSERT_TRUE(dataset->Insert(MakeRecord(pk, 5)).ok());
  }
  ASSERT_TRUE(dataset->Flush().ok());
  for (int64_t pk = 0; pk < 40; ++pk) {
    ASSERT_TRUE(dataset->Delete(pk).ok());
  }
  ASSERT_TRUE(dataset->Flush().ok());
  auto entries = catalog_.GetSynopses(dataset->StatsKey("value"));
  ASSERT_EQ(entries.size(), 2u);
  EXPECT_EQ(entries[0].anti_synopsis->TotalRecords(), 0u);
  EXPECT_EQ(entries[1].anti_synopsis->TotalRecords(), 40u);
  EXPECT_DOUBLE_EQ(entries[1].anti_synopsis->EstimatePoint(5), 40.0);

  CardinalityEstimator estimator(&catalog_, {});
  EXPECT_NEAR(estimator.EstimateRange("test", "value", 5, 5), 60.0, 1e-9);
}

TEST_F(DatasetTest, NoStatsBaselinePublishesNothing) {
  auto dataset = OpenDataset(SynopsisType::kNone);
  for (int64_t pk = 0; pk < 100; ++pk) {
    ASSERT_TRUE(dataset->Insert(MakeRecord(pk, 1)).ok());
  }
  ASSERT_TRUE(dataset->Flush().ok());
  EXPECT_EQ(catalog_.EntryCount({"test", "value", 0}), 0u);
}

TEST_F(DatasetTest, UpsertInsertsOrUpdates) {
  auto dataset = OpenDataset();
  ASSERT_TRUE(dataset->Upsert(MakeRecord(1, 10)).ok());
  ASSERT_TRUE(dataset->Upsert(MakeRecord(1, 20)).ok());
  EXPECT_EQ(dataset->Get(1)->fields[0], 20);
  EXPECT_EQ(dataset->CountRange("value", 10, 10).value(), 0u);
  EXPECT_EQ(dataset->CountRange("value", 20, 20).value(), 1u);
}

}  // namespace
}  // namespace lsmstats
