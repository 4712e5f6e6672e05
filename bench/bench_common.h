// Shared harness for the per-figure experiment binaries.
//
// Every bench binary reproduces one table/figure of the paper's §4 and
// prints the same rows/series. Scales default to a single-core CI box; use
// --records= / --queries= / --values= to approach paper scale (50M records,
// 1000 queries). Output format:
//
//   column headers, then one row per (distribution, series-point) with the
//   normalized L1 error or the overhead in ms — matching the quantity on
//   the figure's y-axis.

#ifndef LSMSTATS_BENCH_BENCH_COMMON_H_
#define LSMSTATS_BENCH_BENCH_COMMON_H_

#include <chrono>
#include <cstdio>
#include <cstdlib>
#include <filesystem>
#include <map>
#include <memory>
#include <string>
#include <vector>

#include "common/check.h"
#include "lsm/format/block.h"
#include "lsm/format/block_cache.h"
#include "lsm/lsm_tree.h"
#include "stats/cardinality_estimator.h"
#include "stats/statistics_collector.h"
#include "workload/distribution.h"
#include "workload/query_workload.h"

namespace lsmstats::bench {

// ------------------------------------------------------------------ flags

// Minimal --key=value flag parser.
class Flags {
 public:
  Flags(int argc, char** argv) {
    for (int i = 1; i < argc; ++i) {
      std::string arg = argv[i];
      if (arg.rfind("--", 0) != 0) continue;
      auto eq = arg.find('=');
      if (eq == std::string::npos) {
        values_[arg.substr(2)] = "true";
      } else {
        values_[arg.substr(2, eq - 2)] = arg.substr(eq + 1);
      }
    }
  }

  uint64_t GetU64(const std::string& key, uint64_t fallback) const {
    auto it = values_.find(key);
    return it == values_.end() ? fallback : std::strtoull(
        it->second.c_str(), nullptr, 10);
  }
  double GetDouble(const std::string& key, double fallback) const {
    auto it = values_.find(key);
    return it == values_.end() ? fallback
                               : std::strtod(it->second.c_str(), nullptr);
  }
  std::string GetString(const std::string& key,
                        const std::string& fallback) const {
    auto it = values_.find(key);
    return it == values_.end() ? fallback : it->second;
  }

 private:
  std::map<std::string, std::string> values_;
};

// --------------------------------------------------------------- temp dir

class ScopedTempDir {
 public:
  ScopedTempDir() {
    char tmpl[] = "/tmp/lsmstats_bench_XXXXXX";
    path_ = ::mkdtemp(tmpl);
    LSMSTATS_CHECK(!path_.empty());
  }
  ~ScopedTempDir() { std::filesystem::remove_all(path_); }
  const std::string& path() const { return path_; }

 private:
  std::string path_;
};

// ------------------------------------------------------------------ timer

class WallTimer {
 public:
  WallTimer() : start_(std::chrono::steady_clock::now()) {}
  double ElapsedSeconds() const {
    return std::chrono::duration<double>(std::chrono::steady_clock::now() -
                                         start_)
        .count();
  }
  double ElapsedMillis() const { return ElapsedSeconds() * 1e3; }

 private:
  std::chrono::steady_clock::time_point start_;
};

// ------------------------------------------------------------------ table

inline void PrintHeader(const std::string& title,
                        const std::vector<std::string>& columns) {
  std::printf("\n== %s ==\n", title.c_str());
  for (const auto& column : columns) std::printf("%-16s", column.c_str());
  std::printf("\n");
  for (size_t i = 0; i < columns.size(); ++i) std::printf("%-16s", "----");
  std::printf("\n");
}

inline void PrintCell(const std::string& value) {
  std::printf("%-16s", value.c_str());
}
inline void PrintCell(double value) { std::printf("%-16.6g", value); }
inline void EndRow() { std::printf("\n"); }

// ------------------------------------------------------------- stats rig

// A statistics-collection rig around one secondary-index LSM tree: entries
// are <value, pk> pairs, exactly the stream the paper builds synopses on.
// Several synopsis configurations (type x budget) can be collected
// simultaneously from one ingestion pass; each publishes under its own
// label.
class StatsRig {
 public:
  struct SynopsisSlot {
    std::string label;
    SynopsisType type;
    size_t budget;
  };

  // `compression` names the component codec ("none", "delta", ...);
  // `block_cache_mb` > 0 gives the rig's tree a private block cache. The
  // defaults leave the paper-figure runs bit-identical.
  StatsRig(const std::string& directory, const ValueDomain& domain,
           const std::vector<SynopsisSlot>& slots,
           std::shared_ptr<MergePolicy> policy, uint64_t memtable_entries,
           const std::string& compression = "none",
           uint64_t block_cache_mb = 0)
      : sink_(&catalog_), estimator_(&catalog_, {}) {
    LsmTreeOptions options;
    options.directory = directory;
    options.name = "rig";
    options.memtable_max_entries = memtable_entries;
    options.merge_policy = std::move(policy);
    options.write_options.compression = compression;
    if (block_cache_mb > 0) {
      cache_ = std::make_unique<BlockCache>(block_cache_mb << 20);
      options.block_cache = cache_.get();
    }
    auto tree = LsmTree::Open(options);
    LSMSTATS_CHECK_OK(tree.status());
    tree_ = std::move(tree).value();
    for (const SynopsisSlot& slot : slots) {
      SynopsisConfig config{slot.type, slot.budget, domain};
      collectors_.push_back(std::make_unique<StatisticsCollector>(
          StatisticsKey{"rig", slot.label, 0}, config, &sink_));
      tree_->AddListener(collectors_.back().get());
    }
  }

  // Inserts one record's value; pk is assigned sequentially.
  void Ingest(int64_t value) {
    LSMSTATS_CHECK_OK(
        tree_->Put(SecondaryKey(value, next_pk_++), "", true));
  }

  void IngestAll(const std::vector<int64_t>& values) {
    for (int64_t value : values) Ingest(value);
  }

  // Deletes a previously ingested <value, pk> entry. When the original has
  // already been flushed this lands as anti-matter that only a merge can
  // reconcile — the mechanism the accuracy-vs-policy mode measures.
  void Delete(int64_t value, int64_t pk) {
    LSMSTATS_CHECK_OK(tree_->Delete(SecondaryKey(value, pk)));
  }

  void Flush() { LSMSTATS_CHECK_OK(tree_->Flush()); }
  void ForceFullMerge() { LSMSTATS_CHECK_OK(tree_->ForceFullMerge()); }

  double Estimate(const std::string& label, int64_t lo, int64_t hi,
                  CardinalityEstimator::QueryStats* stats = nullptr) {
    return estimator_.EstimateRangePartition({"rig", label, 0}, lo, hi,
                                             stats);
  }

  LsmTree* tree() { return tree_.get(); }
  StatisticsCatalog* catalog() { return &catalog_; }
  CardinalityEstimator* estimator() { return &estimator_; }
  BlockCache* block_cache() { return cache_.get(); }

 private:
  StatisticsCatalog catalog_;
  LocalCatalogSink sink_;
  CardinalityEstimator estimator_;
  // Declared before the tree so it outlives the tree's readers.
  std::unique_ptr<BlockCache> cache_;
  std::unique_ptr<LsmTree> tree_;
  std::vector<std::unique_ptr<StatisticsCollector>> collectors_;
  int64_t next_pk_ = 0;
};

// The three synopsis types of the evaluation, in paper order.
inline const std::vector<SynopsisType>& EvaluatedSynopsisTypes() {
  static const auto* kTypes = new std::vector<SynopsisType>{
      SynopsisType::kEquiHeightHistogram, SynopsisType::kEquiWidthHistogram,
      SynopsisType::kWavelet};
  return *kTypes;
}

// Accuracy measurement: normalized L1 error of `label` in `rig` against the
// exact oracle, over `queries`.
inline double MeasureError(StatsRig& rig, const std::string& label,
                           const std::vector<RangeQuery>& queries,
                           const SyntheticDistribution& oracle) {
  return NormalizedL1Error(
      queries,
      [&](const RangeQuery& q) { return rig.Estimate(label, q.lo, q.hi); },
      [&](const RangeQuery& q) { return oracle.ExactRange(q.lo, q.hi); },
      oracle.total_records());
}

}  // namespace lsmstats::bench

#endif  // LSMSTATS_BENCH_BENCH_COMMON_H_
