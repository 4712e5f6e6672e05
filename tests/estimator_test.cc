// Tests for the cardinality estimator (paper Algorithm 2) and the statistics
// catalog.

#include <algorithm>
#include <cstdlib>
#include <cstring>
#include <filesystem>
#include <memory>
#include <string>
#include <utility>
#include <vector>

#include <gtest/gtest.h>

#include "stats/cardinality_estimator.h"
#include "stats/statistics_collector.h"
#include "synopsis/equi_height_histogram.h"
#include "synopsis/equi_width_histogram.h"
#include "synopsis/wavelet_builder.h"

namespace lsmstats {
namespace {

const ValueDomain kDomain(0, 10);  // positions 0..1023

std::shared_ptr<const Synopsis> MakeSynopsis(
    SynopsisType type, const std::vector<int64_t>& sorted_values,
    size_t budget = 1024) {
  SynopsisConfig config{type, budget, kDomain};
  auto builder = CreateSynopsisBuilder(config, sorted_values.size());
  for (int64_t v : sorted_values) builder->Add(v);
  return std::shared_ptr<const Synopsis>(builder->Finish().release());
}

SynopsisEntry MakeEntry(uint64_t id, std::shared_ptr<const Synopsis> synopsis,
                        std::shared_ptr<const Synopsis> anti = nullptr) {
  SynopsisEntry entry;
  entry.component_id = id;
  entry.timestamp = id;
  entry.synopsis = std::move(synopsis);
  entry.anti_synopsis = std::move(anti);
  return entry;
}

TEST(Catalog, RegisterReplaceDrop) {
  StatisticsCatalog catalog;
  StatisticsKey key{"ds", "f", 0};
  catalog.Register(key, MakeEntry(1, MakeSynopsis(
                            SynopsisType::kEquiWidthHistogram, {1, 2})), {});
  catalog.Register(key, MakeEntry(2, MakeSynopsis(
                            SynopsisType::kEquiWidthHistogram, {3})), {});
  EXPECT_EQ(catalog.EntryCount(key), 2u);
  uint64_t v2 = catalog.Version(key);
  // A merge of components 1 and 2 into 3.
  catalog.Register(key, MakeEntry(3, MakeSynopsis(
                            SynopsisType::kEquiWidthHistogram, {1, 2, 3})),
                   {1, 2});
  EXPECT_EQ(catalog.EntryCount(key), 1u);
  EXPECT_GT(catalog.Version(key), v2);
  catalog.Drop(key, {3});
  EXPECT_EQ(catalog.EntryCount(key), 0u);
  EXPECT_EQ(catalog.TotalStorageBytes(), 0u);
}

TEST(Catalog, HeldSnapshotUnchangedByRegisterAndDrop) {
  StatisticsCatalog catalog;
  StatisticsKey key{"ds", "f", 0};
  EXPECT_EQ(catalog.Snapshot(key).entries, nullptr);
  catalog.Register(key, MakeEntry(1, MakeSynopsis(
                            SynopsisType::kEquiWidthHistogram, {1, 2})), {});
  catalog.Register(key, MakeEntry(2, MakeSynopsis(
                            SynopsisType::kEquiWidthHistogram, {3})), {});
  const StatisticsCatalog::StreamSnapshot held = catalog.Snapshot(key);
  ASSERT_NE(held.entries, nullptr);
  EXPECT_EQ(held.version, catalog.Version(key));
  const SynopsisEntry* first = held.entries->data();

  catalog.Register(key, MakeEntry(3, MakeSynopsis(
                            SynopsisType::kEquiWidthHistogram, {1, 2, 3})),
                   {1, 2});
  catalog.Drop(key, {3});
  catalog.Register(key, MakeEntry(4, MakeSynopsis(
                            SynopsisType::kEquiWidthHistogram, {9})), {});

  // The held entries are the same objects, in the same state.
  ASSERT_EQ(held.entries->size(), 2u);
  EXPECT_EQ(held.entries->data(), first);
  EXPECT_EQ((*held.entries)[0].component_id, 1u);
  EXPECT_EQ((*held.entries)[1].component_id, 2u);
  EXPECT_EQ((*held.entries)[0].synopsis->TotalRecords(), 2u);

  const StatisticsCatalog::StreamSnapshot now = catalog.Snapshot(key);
  EXPECT_EQ(now.version, held.version + 3);
  ASSERT_EQ(now.entries->size(), 1u);
  EXPECT_EQ(now.entries->front().component_id, 4u);
  EXPECT_EQ(catalog.GetSynopses(key).front().component_id, 4u);
}

TEST(Catalog, StorageBytesReflectEntries) {
  StatisticsCatalog catalog;
  StatisticsKey key{"ds", "f", 0};
  EXPECT_EQ(catalog.TotalStorageBytes(), 0u);
  catalog.Register(key, MakeEntry(1, MakeSynopsis(
                            SynopsisType::kEquiWidthHistogram, {1})), {});
  uint64_t one = catalog.TotalStorageBytes();
  EXPECT_GT(one, 0u);
  catalog.Register(key, MakeEntry(2, MakeSynopsis(
                            SynopsisType::kEquiWidthHistogram, {2})), {});
  EXPECT_GT(catalog.TotalStorageBytes(), one);
}

TEST(Estimator, SumsComponentsAndSubtractsAntiMatter) {
  StatisticsCatalog catalog;
  StatisticsKey key{"ds", "f", 0};
  // Component 1: values {10 x5}; component 2 deletes two of them.
  catalog.Register(
      key,
      MakeEntry(1, MakeSynopsis(SynopsisType::kEquiWidthHistogram,
                                {10, 10, 10, 10, 10})),
      {});
  catalog.Register(
      key,
      MakeEntry(2,
                MakeSynopsis(SynopsisType::kEquiWidthHistogram, {20}),
                MakeSynopsis(SynopsisType::kEquiWidthHistogram, {10, 10})),
      {});
  CardinalityEstimator estimator(&catalog, {});
  EXPECT_NEAR(estimator.EstimateRangePartition(key, 10, 10), 3.0, 1e-9);
  EXPECT_NEAR(estimator.EstimateRangePartition(key, 0, 1023), 4.0, 1e-9);
}

TEST(Estimator, NeverNegative) {
  StatisticsCatalog catalog;
  StatisticsKey key{"ds", "f", 0};
  // Pathological: anti-matter without matching records (can happen when the
  // synopsis approximations disagree).
  catalog.Register(
      key,
      MakeEntry(1, MakeSynopsis(SynopsisType::kEquiWidthHistogram, {}),
                MakeSynopsis(SynopsisType::kEquiWidthHistogram, {5, 5})),
      {});
  CardinalityEstimator estimator(&catalog, {});
  EXPECT_DOUBLE_EQ(estimator.EstimateRangePartition(key, 0, 1023), 0.0);
}

TEST(Estimator, CacheServesSecondQueryForMergeableTypes) {
  StatisticsCatalog catalog;
  StatisticsKey key{"ds", "f", 0};
  for (uint64_t c = 1; c <= 8; ++c) {
    catalog.Register(key,
                     MakeEntry(c, MakeSynopsis(
                                      SynopsisType::kEquiWidthHistogram,
                                      {static_cast<int64_t>(c * 10)})),
                     {});
  }
  CardinalityEstimator estimator(&catalog, {});
  CardinalityEstimator::QueryStats first;
  double e1 = estimator.EstimateRangePartition(key, 0, 1023, &first);
  EXPECT_FALSE(first.served_from_cache);
  EXPECT_EQ(first.synopses_probed, 8u);

  CardinalityEstimator::QueryStats second;
  double e2 = estimator.EstimateRangePartition(key, 0, 1023, &second);
  EXPECT_TRUE(second.served_from_cache);
  EXPECT_EQ(second.synopses_probed, 1u);
  EXPECT_NEAR(e1, e2, 1e-9);  // equi-width merge is lossless
}

TEST(Estimator, CacheInvalidatedByCatalogChange) {
  StatisticsCatalog catalog;
  StatisticsKey key{"ds", "f", 0};
  catalog.Register(key, MakeEntry(1, MakeSynopsis(
                            SynopsisType::kEquiWidthHistogram, {1})), {});
  CardinalityEstimator estimator(&catalog, {});
  estimator.EstimateRangePartition(key, 0, 1023);
  // New flush arrives: the cached merged synopsis is stale.
  catalog.Register(key, MakeEntry(2, MakeSynopsis(
                            SynopsisType::kEquiWidthHistogram, {2})), {});
  CardinalityEstimator::QueryStats stats;
  double estimate = estimator.EstimateRangePartition(key, 0, 1023, &stats);
  EXPECT_FALSE(stats.served_from_cache);
  EXPECT_NEAR(estimate, 2.0, 1e-9);
  // And the refreshed cache works again.
  CardinalityEstimator::QueryStats again;
  estimator.EstimateRangePartition(key, 0, 1023, &again);
  EXPECT_TRUE(again.served_from_cache);
}

TEST(Estimator, CacheAccountsBytesAndEnforcesBudget) {
  StatisticsCatalog catalog;
  // Ten partitions, each with a mergeable synopsis, so each first query
  // caches one merged slot.
  std::vector<StatisticsKey> keys;
  for (uint32_t p = 0; p < 10; ++p) {
    StatisticsKey key{"ds", "f", p};
    catalog.Register(key, MakeEntry(1, MakeSynopsis(
                              SynopsisType::kEquiWidthHistogram, {5})), {});
    keys.push_back(key);
  }
  CardinalityEstimator estimator(&catalog, {});
  EXPECT_EQ(estimator.CachedBytes(), 0u);
  for (const StatisticsKey& key : keys) {
    estimator.EstimateRangePartition(key, 0, 1023);
  }
  const uint64_t unbounded = estimator.CachedBytes();
  EXPECT_GT(unbounded, 0u);

  // Shrinking the budget evicts immediately; the accounting follows.
  estimator.SetCacheByteBudget(unbounded / 2);
  EXPECT_LE(estimator.CachedBytes(), unbounded / 2);
  EXPECT_LT(estimator.CachedBytes(), unbounded);

  // Evicted partitions rebuild on the next query and are cached again
  // (within the budget) — eviction loses no correctness, only the shortcut.
  for (const StatisticsKey& key : keys) {
    CardinalityEstimator::QueryStats stats;
    EXPECT_NEAR(estimator.EstimateRangePartition(key, 0, 1023, &stats), 1.0,
                1e-9);
  }
  EXPECT_LE(estimator.CachedBytes(), unbounded / 2);
  CardinalityEstimator::QueryStats cached;
  estimator.EstimateRangePartition(keys.back(), 0, 1023, &cached);
  EXPECT_TRUE(cached.served_from_cache);
}

TEST(Estimator, CacheEvictsLeastRecentlyUsedFirst) {
  StatisticsCatalog catalog;
  StatisticsKey cold{"ds", "f", 0};
  StatisticsKey hot{"ds", "f", 1};
  for (const auto& key : {cold, hot}) {
    catalog.Register(key, MakeEntry(1, MakeSynopsis(
                              SynopsisType::kEquiWidthHistogram, {5})), {});
  }
  CardinalityEstimator estimator(&catalog, {});
  estimator.EstimateRangePartition(cold, 0, 1023);
  estimator.EstimateRangePartition(hot, 0, 1023);
  estimator.EstimateRangePartition(hot, 0, 1023);  // refresh hot's recency
  const uint64_t both = estimator.CachedBytes();
  // Room for one slot only: the cold partition goes first.
  estimator.SetCacheByteBudget(both - 1);
  CardinalityEstimator::QueryStats hot_stats;
  estimator.EstimateRangePartition(hot, 0, 1023, &hot_stats);
  EXPECT_TRUE(hot_stats.served_from_cache);
  CardinalityEstimator::QueryStats cold_stats;
  estimator.EstimateRangePartition(cold, 0, 1023, &cold_stats);
  EXPECT_FALSE(cold_stats.served_from_cache);
}

TEST(Estimator, InvalidateCacheResetsByteAccounting) {
  StatisticsCatalog catalog;
  StatisticsKey key{"ds", "f", 0};
  catalog.Register(key, MakeEntry(1, MakeSynopsis(
                            SynopsisType::kEquiWidthHistogram, {1})), {});
  CardinalityEstimator estimator(&catalog, {});
  estimator.EstimateRangePartition(key, 0, 1023);
  EXPECT_GT(estimator.CachedBytes(), 0u);
  estimator.InvalidateCache();
  EXPECT_EQ(estimator.CachedBytes(), 0u);
}

TEST(Estimator, EquiHeightNeverCached) {
  StatisticsCatalog catalog;
  StatisticsKey key{"ds", "f", 0};
  for (uint64_t c = 1; c <= 4; ++c) {
    catalog.Register(key,
                     MakeEntry(c, MakeSynopsis(
                                      SynopsisType::kEquiHeightHistogram,
                                      {1, 2, 3})),
                     {});
  }
  CardinalityEstimator estimator(&catalog, {});
  for (int round = 0; round < 2; ++round) {
    CardinalityEstimator::QueryStats stats;
    double estimate = estimator.EstimateRangePartition(key, 0, 1023, &stats);
    EXPECT_FALSE(stats.served_from_cache);
    EXPECT_EQ(stats.synopses_probed, 4u);
    EXPECT_NEAR(estimate, 12.0, 1e-9);
  }
}

TEST(Estimator, WaveletCachePreservesTotals) {
  StatisticsCatalog catalog;
  StatisticsKey key{"ds", "f", 0};
  for (uint64_t c = 1; c <= 4; ++c) {
    std::vector<int64_t> values;
    for (int64_t v = 0; v < 100; ++v) {
      values.push_back(static_cast<int64_t>(c) * 100 + v);
    }
    catalog.Register(
        key, MakeEntry(c, MakeSynopsis(SynopsisType::kWavelet, values)), {});
  }
  CardinalityEstimator estimator(&catalog, {});
  double uncached = estimator.EstimateRangePartition(key, 0, 1023);
  CardinalityEstimator::QueryStats stats;
  double cached = estimator.EstimateRangePartition(key, 0, 1023, &stats);
  EXPECT_TRUE(stats.served_from_cache);
  // Budgets are ample, so the merge is lossless here.
  EXPECT_NEAR(uncached, cached, 1e-6);
  EXPECT_NEAR(cached, 400.0, 1e-6);
}

bool SameBits(double a, double b) {
  return std::memcmp(&a, &b, sizeof a) == 0;
}

TEST(Estimator, SavedAndLoadedCatalogEstimatesBitIdentically) {
  // Wavelets with anti-matter twins (the mergeable, cached path), an
  // equi-height stream (the per-component path) and an equi-width one.
  StatisticsCatalog catalog;
  const std::vector<std::pair<StatisticsKey, SynopsisType>> streams = {
      {{"ds", "w", 0}, SynopsisType::kWavelet},
      {{"ds", "h", 0}, SynopsisType::kEquiHeightHistogram},
      {{"ds", "e", 1}, SynopsisType::kEquiWidthHistogram}};
  for (const auto& [key, type] : streams) {
    for (uint64_t c = 1; c <= 3; ++c) {
      std::vector<int64_t> values;
      std::vector<int64_t> deleted;
      for (int64_t v = 0; v < 300; ++v) {
        const int64_t value = (v * 37 + static_cast<int64_t>(c) * 101) % 1024;
        values.push_back(value);
        if (v % 7 == 0) deleted.push_back(value);
      }
      std::sort(values.begin(), values.end());
      std::sort(deleted.begin(), deleted.end());
      catalog.Register(key,
                       MakeEntry(c, MakeSynopsis(type, values, 64),
                                 MakeSynopsis(type, deleted, 64)),
                       {});
    }
  }
  char tmpl[] = "/tmp/lsmstats_catalog_XXXXXX";
  const std::string dir = ::mkdtemp(tmpl);
  const std::string path = dir + "/catalog";
  ASSERT_TRUE(catalog.SaveToFile(path).ok());
  StatisticsCatalog loaded;
  ASSERT_TRUE(loaded.LoadFromFile(path).ok());
  std::filesystem::remove_all(dir);

  for (bool cache : {true, false}) {
    CardinalityEstimator::Options options;
    options.enable_merged_cache = cache;
    CardinalityEstimator original(&catalog, options);
    CardinalityEstimator reloaded(&loaded, options);
    for (const auto& [key, type] : streams) {
      EXPECT_EQ(loaded.Version(key), catalog.Version(key));
      for (int64_t lo = 0; lo < 1024; lo += 61) {
        for (int64_t hi = lo; hi < 1024; hi += 97) {
          const double a = original.EstimateRangePartition(key, lo, hi);
          const double b = reloaded.EstimateRangePartition(key, lo, hi);
          ASSERT_TRUE(SameBits(a, b))
              << key.field << " [" << lo << ", " << hi << "] cache=" << cache
              << ": " << a << " vs " << b;
        }
      }
    }
  }
}

TEST(Estimator, LoadedCatalogNeverReusesACachedVersion) {
  // A load installs streams saved at older versions. Were those versions
  // reused, a later Register could publish a version a live estimator has
  // already cached a merged pair under, and the stale pair would be served.
  char tmpl[] = "/tmp/lsmstats_catalog_XXXXXX";
  const std::string dir = ::mkdtemp(tmpl);
  const std::string path = dir + "/catalog";
  const StatisticsKey key{"ds", "w", 0};
  auto wavelet = [](const std::vector<int64_t>& values) {
    return MakeSynopsis(SynopsisType::kWavelet, values);
  };
  StatisticsCatalog catalog;
  CardinalityEstimator long_lived(&catalog, {});
  catalog.Register(key, MakeEntry(1, wavelet({1})), {});
  ASSERT_TRUE(catalog.SaveToFile(path).ok());
  catalog.Register(key, MakeEntry(2, wavelet({2, 3})), {});
  EXPECT_NEAR(long_lived.EstimateRangePartition(key, 0, 63), 3.0, 1e-6);
  const uint64_t cached_version = catalog.Version(key);

  ASSERT_TRUE(catalog.LoadFromFile(path).ok());
  std::filesystem::remove_all(dir);
  EXPECT_GT(catalog.Version(key), cached_version);
  catalog.Register(key, MakeEntry(2, wavelet({4, 5, 6, 7, 8})), {});
  EXPECT_GT(catalog.Version(key), cached_version);

  CardinalityEstimator fresh(&catalog, {});
  const double expected = fresh.EstimateRangePartition(key, 0, 63);
  EXPECT_NEAR(expected, 6.0, 1e-6);
  CardinalityEstimator::QueryStats stats;
  EXPECT_TRUE(SameBits(long_lived.EstimateRangePartition(key, 0, 63, &stats),
                       expected));
  EXPECT_FALSE(stats.served_from_cache);
}

TEST(Estimator, MultiplePartitionsSum) {
  StatisticsCatalog catalog;
  catalog.Register({"ds", "f", 0},
                   MakeEntry(1, MakeSynopsis(
                                    SynopsisType::kEquiWidthHistogram,
                                    {1, 1})),
                   {});
  catalog.Register({"ds", "f", 1},
                   MakeEntry(1, MakeSynopsis(
                                    SynopsisType::kEquiWidthHistogram,
                                    {1, 1, 1})),
                   {});
  CardinalityEstimator estimator(&catalog, {});
  EXPECT_NEAR(estimator.EstimateRange("ds", "f", 1, 1), 5.0, 1e-9);
}

TEST(Estimator, DisabledCacheQueriesEverySynopsis) {
  StatisticsCatalog catalog;
  StatisticsKey key{"ds", "f", 0};
  for (uint64_t c = 1; c <= 4; ++c) {
    catalog.Register(key, MakeEntry(c, MakeSynopsis(
                              SynopsisType::kEquiWidthHistogram, {7})), {});
  }
  CardinalityEstimator::Options options;
  options.enable_merged_cache = false;
  CardinalityEstimator estimator(&catalog, options);
  for (int round = 0; round < 2; ++round) {
    CardinalityEstimator::QueryStats stats;
    estimator.EstimateRangePartition(key, 0, 1023, &stats);
    EXPECT_FALSE(stats.served_from_cache);
    EXPECT_EQ(stats.synopses_probed, 4u);
  }
}

}  // namespace
}  // namespace lsmstats
