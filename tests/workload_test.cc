// Tests for the workload module: synthetic distributions, query generators,
// feeds, and the WorldCup-like generator.

#include <algorithm>
#include <cstdlib>
#include <filesystem>
#include <map>
#include <set>

#include <gtest/gtest.h>

#include "workload/distribution.h"
#include "workload/exact_counter.h"
#include "workload/feed.h"
#include "workload/query_workload.h"
#include "workload/tweets.h"
#include "workload/worldcup.h"

namespace lsmstats {
namespace {

DistributionSpec SmallSpec(SpreadDistribution spread,
                           FrequencyDistribution frequency) {
  DistributionSpec spec;
  spec.spread = spread;
  spec.frequency = frequency;
  spec.num_values = 500;
  spec.total_records = 20000;
  spec.domain = ValueDomain(0, 20);
  spec.seed = 13;
  return spec;
}

TEST(Distribution, InvariantsHoldForAllCombinations) {
  for (SpreadDistribution spread : AllSpreadDistributions()) {
    for (FrequencyDistribution frequency : AllFrequencyDistributions()) {
      auto dist = SyntheticDistribution::Generate(SmallSpec(spread, frequency));
      SCOPED_TRACE(std::string(SpreadDistributionToString(spread)) + "/" +
                   FrequencyDistributionToString(frequency));
      ASSERT_EQ(dist.values().size(), 500u);
      ASSERT_EQ(dist.frequencies().size(), 500u);
      EXPECT_EQ(dist.total_records(), 20000u);
      // Values strictly increasing and inside the domain.
      for (size_t i = 0; i < dist.values().size(); ++i) {
        if (i > 0) {
          EXPECT_LT(dist.values()[i - 1], dist.values()[i]);
        }
        EXPECT_TRUE(dist.spec().domain.Contains(dist.values()[i]));
      }
      // All frequencies positive.
      for (uint64_t f : dist.frequencies()) EXPECT_GE(f, 1u);
    }
  }
}

TEST(Distribution, SpreadShapes) {
  auto spread_of = [](SpreadDistribution spread) {
    auto dist = SyntheticDistribution::Generate(
        SmallSpec(spread, FrequencyDistribution::kUniform));
    std::vector<int64_t> gaps;
    for (size_t i = 1; i < dist.values().size(); ++i) {
      gaps.push_back(dist.values()[i] - dist.values()[i - 1]);
    }
    return gaps;
  };
  // Zipf: first gap much larger than last.
  auto zipf = spread_of(SpreadDistribution::kZipf);
  EXPECT_GT(zipf.front(), zipf.back() * 20);
  // ZipfIncreasing: the reverse.
  auto increasing = spread_of(SpreadDistribution::kZipfIncreasing);
  EXPECT_GT(increasing.back(), increasing.front() * 20);
  // CuspMin: big gaps at the ends, small in the middle.
  auto cusp_min = spread_of(SpreadDistribution::kCuspMin);
  EXPECT_GT(cusp_min.front(), cusp_min[cusp_min.size() / 2] * 5);
  EXPECT_GT(cusp_min.back(), cusp_min[cusp_min.size() / 2] * 5);
  // CuspMax: the reverse.
  auto cusp_max = spread_of(SpreadDistribution::kCuspMax);
  EXPECT_GT(cusp_max[cusp_max.size() / 2], cusp_max.front() * 5);
  EXPECT_GT(cusp_max[cusp_max.size() / 2], cusp_max.back() * 5);
  // Uniform: all gaps within 1 of each other.
  auto uniform = spread_of(SpreadDistribution::kUniform);
  auto [min_gap, max_gap] =
      std::minmax_element(uniform.begin(), uniform.end());
  EXPECT_LE(*max_gap - *min_gap, 2);
}

TEST(Distribution, ZipfFrequenciesAreSkewed) {
  auto dist = SyntheticDistribution::Generate(
      SmallSpec(SpreadDistribution::kUniform, FrequencyDistribution::kZipf));
  EXPECT_GT(dist.frequencies().front(), dist.frequencies().back() * 50);
}

TEST(Distribution, ExactRangeMatchesBruteForce) {
  auto dist = SyntheticDistribution::Generate(
      SmallSpec(SpreadDistribution::kZipfRandom,
                FrequencyDistribution::kZipfRandom));
  Random rng(4);
  for (int q = 0; q < 200; ++q) {
    int64_t lo = rng.UniformInRange(0, dist.spec().domain.max_value());
    int64_t hi = rng.UniformInRange(0, dist.spec().domain.max_value());
    if (lo > hi) std::swap(lo, hi);
    uint64_t brute = 0;
    for (size_t i = 0; i < dist.values().size(); ++i) {
      if (dist.values()[i] >= lo && dist.values()[i] <= hi) {
        brute += dist.frequencies()[i];
      }
    }
    EXPECT_EQ(dist.ExactRange(lo, hi), brute);
  }
}

TEST(Distribution, ExpandShuffledPreservesMultiset) {
  auto dist = SyntheticDistribution::Generate(
      SmallSpec(SpreadDistribution::kZipf, FrequencyDistribution::kZipf));
  auto expanded = dist.ExpandShuffled(9);
  ASSERT_EQ(expanded.size(), dist.total_records());
  std::map<int64_t, uint64_t> counts;
  for (int64_t v : expanded) ++counts[v];
  for (size_t i = 0; i < dist.values().size(); ++i) {
    EXPECT_EQ(counts[dist.values()[i]], dist.frequencies()[i]);
  }
}

TEST(Distribution, SampleValueFollowsFrequencies) {
  auto dist = SyntheticDistribution::Generate(
      SmallSpec(SpreadDistribution::kUniform, FrequencyDistribution::kZipf));
  Random rng(77);
  std::map<int64_t, uint64_t> counts;
  for (int i = 0; i < 20000; ++i) ++counts[dist.SampleValue(&rng)];
  // The heaviest value should be sampled far more often than a mid one.
  EXPECT_GT(counts[dist.values()[0]], 20u * (counts[dist.values()[200]] + 1));
}

// ------------------------------------------------------------ query types

TEST(QueryWorkload, ShapesRespectTheirContracts) {
  ValueDomain domain(0, 16);
  for (QueryType type : AllQueryTypes()) {
    QueryGenerator generator(type, domain, 128, 5);
    for (int i = 0; i < 500; ++i) {
      RangeQuery query = generator.Next();
      SCOPED_TRACE(QueryTypeToString(type));
      EXPECT_LE(query.lo, query.hi);
      EXPECT_GE(query.lo, domain.min_value());
      EXPECT_LE(query.hi, domain.max_value());
      switch (type) {
        case QueryType::kPoint:
          EXPECT_EQ(query.lo, query.hi);
          break;
        case QueryType::kFixedLength:
          EXPECT_EQ(query.hi - query.lo, 127);
          break;
        case QueryType::kHalfOpen:
          EXPECT_TRUE(query.lo == domain.min_value() ||
                      query.hi == domain.max_value());
          break;
        case QueryType::kRandom:
          break;
      }
    }
  }
}

TEST(QueryWorkload, NormalizedL1Error) {
  std::vector<RangeQuery> queries = {{0, 10}, {5, 6}};
  double error = NormalizedL1Error(
      queries, [](const RangeQuery&) { return 110.0; },
      [](const RangeQuery&) { return uint64_t{100}; }, 1000);
  EXPECT_DOUBLE_EQ(error, 0.01);  // mean(|110-100|)/1000
}

// ------------------------------------------------------------------ feeds

std::vector<Record> SmallTweetBatch(size_t n) {
  DistributionSpec spec;
  spec.num_values = 50;
  spec.total_records = n;
  spec.domain = ValueDomain(0, 10);
  auto dist = SyntheticDistribution::Generate(spec);
  TweetGenerator generator(dist, 64, 3);
  std::vector<Record> records;
  while (generator.HasNext()) records.push_back(generator.Next());
  return records;
}

TEST(Feeds, SocketFeedDeliversEverything) {
  auto records = SmallTweetBatch(2000);
  auto feed = SocketFeed::Start(records, records[0].fields.size());
  ASSERT_TRUE(feed.ok()) << feed.status().ToString();
  size_t count = 0;
  FeedOp op;
  while ((*feed)->Next(&op)) {
    EXPECT_EQ(op.kind, FeedOp::Kind::kInsert);
    EXPECT_EQ(op.record.pk, static_cast<int64_t>(count));
    EXPECT_EQ(op.record.fields, records[count].fields);
    EXPECT_EQ(op.record.payload, records[count].payload);
    ++count;
  }
  EXPECT_TRUE((*feed)->status().ok()) << (*feed)->status().ToString();
  EXPECT_EQ(count, records.size());
}

TEST(Feeds, FileFeedRoundTrips) {
  char tmpl[] = "/tmp/lsmstats_feed_XXXXXX";
  std::string dir = ::mkdtemp(tmpl);
  auto records = SmallTweetBatch(500);
  auto feed =
      FileFeed::Create(dir + "/feed.dat", records, records[0].fields.size());
  ASSERT_TRUE(feed.ok()) << feed.status().ToString();
  size_t count = 0;
  FeedOp op;
  while ((*feed)->Next(&op)) {
    EXPECT_EQ(op.record.payload, records[count].payload);
    ++count;
  }
  EXPECT_EQ(count, records.size());
  std::filesystem::remove_all(dir);
}

TEST(Feeds, ChangeableFeedRatiosAndConsistency) {
  DistributionSpec spec;
  spec.num_values = 100;
  spec.total_records = 10000;
  spec.domain = ValueDomain(0, 12);
  auto dist = SyntheticDistribution::Generate(spec);
  TweetGenerator generator(dist, 16, 3);
  std::vector<Record> base;
  while (generator.HasNext()) base.push_back(generator.Next());

  ChangeableFeedOptions options;
  options.update_ratio = 0.2;
  options.delete_ratio = 0.2;
  ChangeableFeed feed(base, &dist, /*field_index=*/0, options);

  std::map<int64_t, int64_t> model;  // pk -> live value
  uint64_t inserts = 0, updates = 0, deletes = 0;
  FeedOp op;
  while (feed.Next(&op)) {
    switch (op.kind) {
      case FeedOp::Kind::kInsert:
        ASSERT_EQ(model.count(op.record.pk), 0u);
        model[op.record.pk] = op.record.fields[0];
        ++inserts;
        break;
      case FeedOp::Kind::kUpdate:
        ASSERT_EQ(model.count(op.record.pk), 1u);
        model[op.record.pk] = op.record.fields[0];
        ++updates;
        break;
      case FeedOp::Kind::kDelete:
        ASSERT_EQ(model.count(op.record.pk), 1u);
        model.erase(op.record.pk);
        ++deletes;
        break;
    }
  }
  EXPECT_EQ(inserts, base.size());
  double total = static_cast<double>(inserts + updates + deletes);
  EXPECT_NEAR(static_cast<double>(updates) / total, 0.2, 0.02);
  EXPECT_NEAR(static_cast<double>(deletes) / total, 0.2, 0.02);

  // FinalLiveValues agrees with the replayed model.
  std::vector<int64_t> final_values = feed.FinalLiveValues();
  std::multiset<int64_t> from_feed(final_values.begin(), final_values.end());
  std::multiset<int64_t> from_model;
  for (const auto& [pk, value] : model) from_model.insert(value);
  EXPECT_EQ(from_feed, from_model);
}

// --------------------------------------------------------------- worldcup

TEST(WorldCup, FieldCharacteristics) {
  WorldCupGenerator generator(20000, 11);
  Schema schema = WorldCupSchema();
  std::map<std::string, std::vector<int64_t>> columns;
  while (generator.HasNext()) {
    Record record = generator.Next();
    for (size_t i = 0; i < schema.field_count(); ++i) {
      columns[schema.field(i).name].push_back(record.fields[i]);
    }
  }
  // Timestamps confined to the tournament window, far from int32 extremes.
  auto [ts_min, ts_max] = std::minmax_element(columns["Timestamp"].begin(),
                                              columns["Timestamp"].end());
  EXPECT_GT(*ts_min, 893000000);
  EXPECT_LT(*ts_max, 902000000);
  // Status is spiky categorical: few distinct values, 200 dominates.
  std::map<int64_t, size_t> status_counts;
  for (int64_t s : columns["Status"]) ++status_counts[s];
  EXPECT_LE(status_counts.size(), 8u);
  EXPECT_GT(static_cast<double>(status_counts[200]) / 20000.0, 0.7);
  // Size has a long tail: the max dwarfs the median.
  auto sizes = columns["Size"];
  std::sort(sizes.begin(), sizes.end());
  EXPECT_GT(sizes.back(), sizes[sizes.size() / 2] * 20);
  // Server ids are few and skewed.
  std::map<int64_t, size_t> server_counts;
  for (int64_t s : columns["Server"]) ++server_counts[s];
  EXPECT_LE(server_counts.size(), 32u);
  // All indexed fields fit their int32 schema type.
  for (const std::string& field : WorldCupIndexedFields()) {
    for (int64_t v : columns[field]) {
      EXPECT_GE(v, INT32_MIN);
      EXPECT_LE(v, INT32_MAX);
    }
  }
}

TEST(ExactCounterWorks, BasicRanges) {
  ExactCounter counter({5, 1, 3, 3, 9});
  EXPECT_EQ(counter.ExactRange(1, 3), 3u);
  EXPECT_EQ(counter.ExactRange(4, 10), 2u);
  EXPECT_EQ(counter.ExactRange(10, 1), 0u);
  EXPECT_EQ(counter.total(), 5u);
}

}  // namespace
}  // namespace lsmstats
