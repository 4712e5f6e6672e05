// Tests for composite-key indexes and 2-D grid-histogram statistics
// (paper §5 future work).

#include <algorithm>
#include <array>
#include <cstdlib>
#include <filesystem>
#include <iterator>
#include <map>
#include <utility>
#include <vector>

#include <gtest/gtest.h>

#include "common/random.h"
#include "db/dataset.h"
#include "stats/cardinality_estimator.h"
#include "synopsis/equi_width_histogram.h"
#include "synopsis/grid_histogram.h"

namespace lsmstats {
namespace {

// ------------------------------------------------------------ GridHistogram

TEST(GridHistogram, CellStructureAndExactness) {
  ValueDomain d0(0, 8), d1(0, 8);  // 256 x 256 positions
  GridHistogram grid(d0, d1, 256);  // 16 x 16 cells of 16 x 16 positions
  EXPECT_EQ(grid.cells_per_dim(), 16u);
  grid.AddValue(0, 0, 1);
  grid.AddValue(15, 15, 1);    // same cell (0,0)
  grid.AddValue(16, 0, 1);     // cell (1,0)
  grid.AddValue(255, 255, 1);  // cell (15,15)
  EXPECT_EQ(grid.TotalRecords(), 4u);
  // Full cells are exact.
  EXPECT_DOUBLE_EQ(grid.EstimateRange2D(0, 15, 0, 15), 2.0);
  EXPECT_DOUBLE_EQ(grid.EstimateRange2D(16, 31, 0, 15), 1.0);
  EXPECT_DOUBLE_EQ(grid.EstimateRange2D(0, 255, 0, 255), 4.0);
  // The marginal matches the 1-D view.
  EXPECT_DOUBLE_EQ(grid.EstimateRange(0, 15), 2.0);
}

TEST(GridHistogram, ContinuousValueAssumptionBothAxes) {
  ValueDomain d0(0, 8), d1(0, 8);
  GridHistogram grid(d0, d1, 256);
  grid.AddValue(0, 0, 64.0);  // 64 records in cell (0,0)
  // A quarter of the cell along each axis = 1/16 of its mass.
  EXPECT_DOUBLE_EQ(grid.EstimateRange2D(0, 3, 0, 3), 4.0);
}

TEST(GridHistogram, CorrelationBeatsIndependenceAssumption) {
  // Perfectly correlated attributes (y == x): the 2-D grid sees the
  // diagonal; independent 1-D estimates multiply marginals and are badly
  // wrong on off-diagonal boxes.
  ValueDomain d0(0, 8), d1(0, 8);
  GridHistogram grid(d0, d1, 256);
  EquiWidthHistogram h0(d0, 16), h1(d1, 16);
  Random rng(5);
  const int n = 10000;
  for (int i = 0; i < n; ++i) {
    int64_t v = static_cast<int64_t>(rng.Uniform(256));
    grid.AddValue(v, v, 1.0);
    h0.AddValue(v, 1.0);
    h1.AddValue(v, 1.0);
  }
  // Query an off-diagonal box: x in [0,63], y in [192,255]. Truth: 0.
  double grid_estimate = grid.EstimateRange2D(0, 63, 192, 255);
  double independence = h0.EstimateRange(0, 63) *
                        (h1.EstimateRange(192, 255) / static_cast<double>(n));
  EXPECT_DOUBLE_EQ(grid_estimate, 0.0);
  EXPECT_GT(independence, 400.0);  // ~ n/16 — wildly wrong
  // And an on-diagonal box: x,y in [0,63]. Truth ~ n/4.
  EXPECT_NEAR(grid.EstimateRange2D(0, 63, 0, 63), n / 4.0, n * 0.02);
}

TEST(GridHistogram, MergeAndSerializationRoundTrip) {
  ValueDomain d0(0, 8), d1(0, 6);
  GridHistogram a(d0, d1, 64), b(d0, d1, 64);
  a.AddValue(10, 10, 3.0);
  b.AddValue(10, 10, 2.0);
  b.AddValue(200, 50, 7.0);
  ASSERT_TRUE(a.MergeFrom(b).ok());
  EXPECT_EQ(a.TotalRecords(), 12u);

  Encoder enc;
  a.EncodeTo(&enc);
  Decoder dec(enc.buffer());
  auto decoded = DecodeSynopsis(&dec);
  ASSERT_TRUE(decoded.ok());
  EXPECT_EQ((*decoded)->type(), SynopsisType::kGrid2D);
  EXPECT_TRUE(SynopsisTypeIsMergeable(SynopsisType::kGrid2D));
  auto* grid = static_cast<const GridHistogram*>(decoded->get());
  EXPECT_DOUBLE_EQ(grid->EstimateRange2D(0, 255, 0, 63),
                   a.EstimateRange2D(0, 255, 0, 63));

  GridHistogram mismatched(d0, ValueDomain(0, 8), 64);
  EXPECT_FALSE(a.MergeFrom(mismatched).ok());
}

// ----------------------------------------------------- Dataset integration

class CompositeDatasetTest : public ::testing::Test {
 protected:
  void SetUp() override {
    char tmpl[] = "/tmp/lsmstats_composite_XXXXXX";
    dir_ = ::mkdtemp(tmpl);
  }
  void TearDown() override { std::filesystem::remove_all(dir_); }

  std::unique_ptr<Dataset> OpenDataset(size_t budget = 1 << 16) {
    FieldDef x, y;
    x.name = "x";
    x.type = FieldType::kInt32;
    x.domain = ValueDomain(0, 8);
    y.name = "y";
    y.type = FieldType::kInt32;
    y.domain = ValueDomain(0, 8);
    DatasetOptions options;
    options.directory = dir_;
    options.name = "points";
    options.schema = Schema({x, y});
    options.synopsis_type = SynopsisType::kEquiWidthHistogram;
    options.synopsis_budget = budget;
    options.memtable_max_entries = 300;
    options.composite_indexes = {{"x", "y"}};
    options.sink = &sink_;
    auto dataset = Dataset::Open(std::move(options));
    EXPECT_TRUE(dataset.ok()) << dataset.status().ToString();
    return std::move(dataset).value();
  }

  std::string dir_;
  StatisticsCatalog catalog_;
  LocalCatalogSink sink_{&catalog_};
};

TEST_F(CompositeDatasetTest, MaintainsCompositeIndexThroughOps) {
  auto dataset = OpenDataset();
  // Correlated data: y = x for pk < 500; y = 255 - x after.
  for (int64_t pk = 0; pk < 1000; ++pk) {
    Record r;
    r.pk = pk;
    int64_t x = pk % 256;
    r.fields = {x, pk < 500 ? x : 255 - x};
    ASSERT_TRUE(dataset->Insert(r).ok());
  }
  ASSERT_TRUE(dataset->Flush().ok());

  EXPECT_EQ(dataset->CountRange2D("x", "y", 0, 63, 0, 63).value(),
            128u);  // diagonal segment from the first 500
  // Update moves records in composite space.
  for (int64_t pk = 0; pk < 100; ++pk) {
    Record r;
    r.pk = pk;
    r.fields = {200, 200};
    ASSERT_TRUE(dataset->Update(r).ok());
  }
  ASSERT_TRUE(dataset->Flush().ok());
  // 100 updated records plus the diagonal originals pk=200 and pk=456
  // (456 % 256 == 200 and 456 < 500, so y == x == 200).
  EXPECT_EQ(dataset->CountRange2D("x", "y", 200, 200, 200, 200).value(),
            102u);
  // Deletes drop composite entries.
  ASSERT_TRUE(dataset->Delete(0).ok());
  ASSERT_TRUE(dataset->Flush().ok());
  ASSERT_TRUE(dataset->ForceFullMerge().ok());
  EXPECT_EQ(dataset->CountRange2D("x", "y", 200, 200, 200, 200).value(),
            101u);  // pk 0 was one of the updated-to-(200,200) records
}

TEST_F(CompositeDatasetTest, GridStatisticsFlowThroughPipeline) {
  auto dataset = OpenDataset();
  Random rng(9);
  std::vector<std::pair<int64_t, int64_t>> points;
  for (int64_t pk = 0; pk < 2000; ++pk) {
    Record r;
    r.pk = pk;
    int64_t x = static_cast<int64_t>(rng.Uniform(256));
    r.fields = {x, x};  // perfectly correlated
    points.push_back({x, x});
    ASSERT_TRUE(dataset->Insert(r).ok());
  }
  ASSERT_TRUE(dataset->Flush().ok());

  StatisticsKey key = dataset->CompositeStatsKey("x", "y");
  ASSERT_GT(catalog_.EntryCount(key), 0u);
  auto entries = catalog_.GetSynopses(key);
  EXPECT_EQ(entries[0].synopsis->type(), SynopsisType::kGrid2D);

  CardinalityEstimator estimator(&catalog_, {});
  // Off-diagonal conjunctive predicate: truth 0, grid knows it.
  EXPECT_DOUBLE_EQ(estimator.EstimateRange2D("points", "x+y", 0, 63, 192,
                                             255),
                   0.0);
  // Whole space.
  EXPECT_NEAR(estimator.EstimateRange2D("points", "x+y", 0, 255, 0, 255),
              2000.0, 1e-6);
  // Against the exact 2-D oracle on a diagonal box.
  double estimate = estimator.EstimateRange2D("points", "x+y", 0, 63, 0, 63);
  uint64_t exact = dataset->CountRange2D("x", "y", 0, 63, 0, 63).value();
  EXPECT_NEAR(estimate, static_cast<double>(exact),
              0.1 * static_cast<double>(exact) + 5);
}

TEST_F(CompositeDatasetTest, CountRange2DMatchesOracleThroughAntiMatter) {
  // Updates that move records in composite space and deletes leave
  // anti-matter both in the memtable and (after flushes) in components;
  // CountRange2D's counting loop must reconcile it exactly.
  auto dataset = OpenDataset();
  Random rng(23);
  std::map<int64_t, std::pair<int64_t, int64_t>> live;  // pk -> (x, y)
  auto point = [&] {
    return std::make_pair(static_cast<int64_t>(rng.Uniform(64)),
                          static_cast<int64_t>(rng.Uniform(64)));
  };
  auto check = [&](const char* when) {
    SCOPED_TRACE(when);
    std::vector<std::array<int64_t, 4>> boxes = {
        {0, 63, 0, 63},    // everything
        {10, 20, 30, 40},  // a box
        {7, 7, 0, 63},     // one x, all y
        {0, 63, 9, 9},     // all x, one y
        {30, 20, 0, 63},   // inverted x
        {0, 63, 40, 30},   // inverted y
        {100, 200, 0, 63},  // beyond the data
    };
    for (int i = 0; i < 20; ++i) {
      int64_t x0 = static_cast<int64_t>(rng.Uniform(64));
      int64_t x1 = static_cast<int64_t>(rng.Uniform(64));
      int64_t y0 = static_cast<int64_t>(rng.Uniform(64));
      int64_t y1 = static_cast<int64_t>(rng.Uniform(64));
      boxes.push_back({std::min(x0, x1), std::max(x0, x1), std::min(y0, y1),
                       std::max(y0, y1)});
    }
    for (const auto& [lo0, hi0, lo1, hi1] : boxes) {
      uint64_t expected = 0;
      for (const auto& [pk, xy] : live) {
        if (xy.first >= lo0 && xy.first <= hi0 && xy.second >= lo1 &&
            xy.second <= hi1) {
          ++expected;
        }
      }
      auto count = dataset->CountRange2D("x", "y", lo0, hi0, lo1, hi1);
      ASSERT_TRUE(count.ok()) << count.status().ToString();
      EXPECT_EQ(*count, expected)
          << "box [" << lo0 << "," << hi0 << "]x[" << lo1 << "," << hi1
          << "]";
    }
  };
  int64_t next_pk = 0;
  for (int round = 0; round < 4; ++round) {
    for (int op = 0; op < 400; ++op) {
      const uint64_t kind = live.empty() ? 0 : rng.Uniform(4);
      Record r;
      if (kind <= 1) {  // insert
        r.pk = next_pk++;
        auto [x, y] = point();
        r.fields = {x, y};
        ASSERT_TRUE(dataset->Insert(r).ok());
        live[r.pk] = {x, y};
        continue;
      }
      auto it = live.begin();
      std::advance(it, static_cast<long>(rng.Uniform(live.size())));
      if (kind == 2) {  // update: moves the record
        r.pk = it->first;
        auto [x, y] = point();
        r.fields = {x, y};
        ASSERT_TRUE(dataset->Update(r).ok());
        it->second = {x, y};
      } else {  // delete
        ASSERT_TRUE(dataset->Delete(it->first).ok());
        live.erase(it);
      }
    }
    check("memtable holds anti-matter");
    ASSERT_TRUE(dataset->Flush().ok());
    check("after flush");
  }
  uint64_t anti_matter = 0;
  for (const ComponentMetadata& md :
       dataset->composite("x", "y")->ComponentsMetadata()) {
    anti_matter += md.anti_matter_count;
  }
  EXPECT_GT(anti_matter, 0u) << "components carry no anti-matter";
  ASSERT_TRUE(dataset->ForceFullMerge().ok());
  check("after a full merge");
}

TEST_F(CompositeDatasetTest, UnknownCompositeIndexFailsCleanly) {
  auto dataset = OpenDataset();
  EXPECT_EQ(dataset->CountRange2D("y", "x", 0, 1, 0, 1).status().code(),
            StatusCode::kNotFound);
  EXPECT_EQ(dataset->composite("y", "x"), nullptr);
  EXPECT_NE(dataset->composite("x", "y"), nullptr);
}

}  // namespace
}  // namespace lsmstats
