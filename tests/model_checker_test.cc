// Seeded model checker over the engine's configuration space.
//
// Every instance opens a Dataset (primary, two secondaries, one composite
// index, equi-width statistics) on a FaultInjectionEnv under one whole
// configuration tuple:
//
//   merge policy  {nomerge, prefix, tiered, leveled, partitioned}
//   codec         {none, delta}
//   block cache   {none, 8 MiB}
//   WAL           {off, flush-only, every-record}
//   scheduler     {inline, 2 workers}
//   arbiter       {none, 64 MiB}
//   faults        {none, transient}
//
// and drives random Insert/Update/Delete/PutBatch/DeleteBatch/Flush/
// ForceFullMerge operations against a std::map oracle. Invariants:
//
//   * Get, each index tree's scan, CountRange and CountRange2D match the
//     oracle — after a crash, the oracle at some operation prefix the sync
//     mode allows: every acknowledged write under every-record, at least the
//     last Flush() otherwise (and, with the WAL off, each index on its own,
//     since only a shared log ties the trees' recovery points together).
//   * After a transient outage clears (and Resume() where needed), Health()
//     is healthy again.
//   * A long-lived estimator, whose merged-synopsis cache lives across the
//     flushes, merges and reopens (a crash takes it down with the catalog),
//     answers a few fixed ranges bit-for-bit as a fresh one does: a stale
//     cached pair would disagree.
//   * After ForceFullMerge the anti-matter synopses hold nothing, the
//     regular synopses count exactly the live records, and the full-domain
//     estimate equals CountAll() (paper §3.3: the synopsis is an exact
//     function of the flush/merge event stream).
//
// The instance list is fixed and covers every pair of axis values
// (ConfigListCoversEveryPairOfAxisValues checks it). Each instance is named
// by its tuple and seeded from that name, so the --gtest_filter line a
// failure prints replays the same operation sequence (inline instances
// replay exactly; with 2 workers the background timing may differ).

#include <algorithm>
#include <array>
#include <cstdint>
#include <cstdlib>
#include <cstring>
#include <filesystem>
#include <map>
#include <memory>
#include <optional>
#include <ostream>
#include <set>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "common/env.h"
#include "common/random.h"
#include "db/dataset.h"
#include "lsm/merge_policy.h"
#include "lsm/scheduler.h"
#include "stats/cardinality_estimator.h"
#include "stats/statistics_catalog.h"
#include "stats/statistics_collector.h"

namespace lsmstats {
namespace {

// ------------------------------------------------------------ configuration

enum class Policy { kNoMerge, kPrefix, kTiered, kLeveled, kPartitioned };
enum class WalMode { kOff, kFlushOnly, kEveryRecord };

struct Config {
  Policy policy;
  bool delta;      // "delta" block codec instead of "none"
  bool cache;      // 8 MiB shared block cache
  WalMode wal;
  bool workers;    // 2-worker BackgroundScheduler instead of inline work
  bool arbiter;    // 64 MiB memory arbiter
  bool transient;  // transient disk-fault episodes
};

constexpr size_t kAxes = 7;
constexpr std::array<int, kAxes> kAxisSizes = {5, 2, 2, 3, 2, 2, 2};

std::array<int, kAxes> AxisValues(const Config& c) {
  return {static_cast<int>(c.policy), c.delta,   c.cache,
          static_cast<int>(c.wal),    c.workers, c.arbiter,
          c.transient};
}

std::string Name(const Config& c) {
  static const char* const kPolicy[] = {"NoMerge", "Prefix", "Tiered",
                                        "Leveled", "Partitioned"};
  static const char* const kWal[] = {"WalOff", "FlushOnly", "EveryRecord"};
  std::string name = kPolicy[static_cast<int>(c.policy)];
  name += c.delta ? "_Delta" : "_Raw";
  name += c.cache ? "_Cache8M" : "_NoCache";
  name += std::string("_") + kWal[static_cast<int>(c.wal)];
  name += c.workers ? "_Workers2" : "_Inline";
  name += c.arbiter ? "_Arbiter64M" : "_NoArbiter";
  name += c.transient ? "_Transient" : "_NoFaults";
  return name;
}

// Shown in gtest's failure lines instead of the tuple's raw bytes.
void PrintTo(const Config& c, std::ostream* os) { *os << Name(c); }

// FNV-1a of the instance name: the seed is a function of the tuple alone.
uint64_t SeedOf(const Config& c) {
  uint64_t h = 14695981039346656037ull;
  for (char ch : Name(c)) {
    h ^= static_cast<unsigned char>(ch);
    h *= 1099511628211ull;
  }
  return h;
}

using P = Policy;
using W = WalMode;

// A pairwise covering array (15 rows, the minimum for a 5 x 3 axis pair),
// plus the all-defaults paper configuration and everything switched on.
const std::vector<Config> kConfigs = {
    {P::kNoMerge, false, false, W::kOff, false, false, false},
    {P::kNoMerge, false, false, W::kOff, false, true, false},
    {P::kNoMerge, true, true, W::kFlushOnly, true, true, true},
    {P::kNoMerge, true, true, W::kEveryRecord, false, false, false},
    {P::kPrefix, false, false, W::kFlushOnly, false, false, true},
    {P::kPrefix, false, true, W::kOff, true, true, false},
    {P::kPrefix, true, false, W::kEveryRecord, false, true, true},
    {P::kTiered, false, false, W::kEveryRecord, true, true, true},
    {P::kTiered, true, false, W::kOff, true, true, false},
    {P::kTiered, true, true, W::kFlushOnly, false, false, true},
    {P::kLeveled, false, true, W::kEveryRecord, true, true, true},
    {P::kLeveled, true, false, W::kFlushOnly, true, true, true},
    {P::kLeveled, true, true, W::kOff, false, false, false},
    {P::kPartitioned, false, false, W::kOff, false, false, true},
    {P::kPartitioned, false, true, W::kFlushOnly, true, false, false},
    {P::kPartitioned, true, false, W::kEveryRecord, true, true, true},
    {P::kPartitioned, true, true, W::kEveryRecord, true, true, true},
};

// Knobs small enough that the workloads below form (and churn) several
// levels and partitions.
std::shared_ptr<MergePolicy> MakePolicy(Policy policy) {
  LeveledPolicyOptions leveled;
  leveled.level0_limit = 3;
  leveled.base_level_bytes = 8 << 10;
  leveled.level_size_ratio = 2.0;
  switch (policy) {
    case Policy::kNoMerge:
      return std::make_shared<NoMergePolicy>();
    case Policy::kPrefix:
      return std::make_shared<PrefixMergePolicy>(1ull << 20, 3);
    case Policy::kTiered:
      return std::make_shared<TieredMergePolicy>(1.5, 3);
    case Policy::kLeveled:
      return std::make_shared<LeveledMergePolicy>(leveled);
    case Policy::kPartitioned:
      leveled.partition_split_bytes = 4 << 10;
      return std::make_shared<LeveledMergePolicy>(leveled);
  }
  return nullptr;
}

TEST(ModelCheckerCoverage, ConfigListCoversEveryPairOfAxisValues) {
  std::set<std::array<int, 4>> covered;
  std::set<std::string> names;
  for (const Config& config : kConfigs) {
    EXPECT_TRUE(names.insert(Name(config)).second) << Name(config);
    const auto v = AxisValues(config);
    for (size_t i = 0; i < kAxes; ++i) {
      ASSERT_LT(v[i], kAxisSizes[i]);
      for (size_t j = i + 1; j < kAxes; ++j) {
        covered.insert({static_cast<int>(i), v[i], static_cast<int>(j), v[j]});
      }
    }
  }
  for (size_t i = 0; i < kAxes; ++i) {
    for (size_t j = i + 1; j < kAxes; ++j) {
      for (int a = 0; a < kAxisSizes[i]; ++a) {
        for (int b = 0; b < kAxisSizes[j]; ++b) {
          EXPECT_TRUE(covered.count(
              {static_cast<int>(i), a, static_cast<int>(j), b}))
              << "no instance has axis " << i << " = " << a << " with axis "
              << j << " = " << b;
        }
      }
    }
  }
}

// ------------------------------------------------------------------- oracle

constexpr int64_t kKeySpace = 256;
constexpr int64_t kValues = 64;  // both indexed fields range over [0, 63]
constexpr const char* kFields[] = {"a", "b"};
constexpr const char* kIndexes[] = {"secondary a", "secondary b",
                                    "composite a+b"};

using State = std::map<int64_t, Record>;

// One acknowledged modification: records written (inserted or updated) and
// primary keys deleted.
struct Op {
  std::vector<Record> puts;
  std::vector<int64_t> erases;
};

void ApplyOp(const Op& op, State* state) {
  for (const Record& record : op.puts) (*state)[record.pk] = record;
  for (int64_t pk : op.erases) state->erase(pk);
}

bool SameRecord(const Record& x, const Record& y) {
  return x.pk == y.pk && x.fields == y.fields && x.payload == y.payload;
}

// Everything the invariants compare: the primary's records and the live
// key set of each secondary and composite index (kIndexes order).
struct Fingerprint {
  State primary;
  std::array<std::vector<LsmKey>, 3> index_keys;
};

Fingerprint FingerprintOf(const State& state) {
  Fingerprint f;
  f.primary = state;
  for (const auto& [pk, record] : state) {
    const int64_t a = record.fields[0];
    const int64_t b = record.fields[1];
    f.index_keys[0].push_back(SecondaryKey(a, pk));
    f.index_keys[1].push_back(SecondaryKey(b, pk));
    f.index_keys[2].push_back(CompositeKey(a, b, pk));
  }
  for (auto& keys : f.index_keys) std::sort(keys.begin(), keys.end());
  return f;
}

// The first primary key whose record differs ("" when none does).
std::string PrimaryDiff(const Fingerprint& got, const Fingerprint& want) {
  for (int64_t pk = 0; pk < kKeySpace; ++pk) {
    auto g = got.primary.find(pk);
    auto w = want.primary.find(pk);
    const bool has_g = g != got.primary.end();
    const bool has_w = w != want.primary.end();
    if (has_g != has_w) {
      return "pk " + std::to_string(pk) + (has_g ? " present" : " missing");
    }
    if (has_g && !SameRecord(g->second, w->second)) {
      return "pk " + std::to_string(pk) + " holds a stale record";
    }
  }
  return "";
}

// The first index key that differs ("" when none does).
std::string KeysDiff(const std::vector<LsmKey>& got,
                     const std::vector<LsmKey>& want) {
  auto show = [](const LsmKey& k) {
    return "<" + std::to_string(k.k0) + ", " + std::to_string(k.k1) + ", " +
           std::to_string(k.k2) + ">";
  };
  for (size_t i = 0; i < std::max(got.size(), want.size()); ++i) {
    if (i >= got.size()) return "missing " + show(want[i]);
    if (i >= want.size() || !(got[i] == want[i])) {
      return "unexpected " + show(got[i]);
    }
  }
  return "";
}

// ------------------------------------------------------------------ checker

class ModelCheckerTest : public ::testing::TestWithParam<Config> {
 protected:
  void SetUp() override {
    char tmpl[] = "/tmp/lsmstats_model_XXXXXX";
    dir_ = ::mkdtemp(tmpl);
    if (config().workers) {
      scheduler_ = std::make_unique<BackgroundScheduler>(2);
    }
  }
  void TearDown() override {
    dataset_.reset();
    scheduler_.reset();
    std::filesystem::remove_all(dir_);
  }

  const Config& config() const { return GetParam(); }

  DatasetOptions Options() {
    FieldDef a, b, c;
    a.name = "a";
    a.type = FieldType::kInt32;
    a.indexed = true;
    a.domain = ValueDomain(0, 6);
    b = a;
    b.name = "b";
    c.name = "c";
    DatasetOptions options;
    options.directory = dir_;
    options.name = "ds";
    options.schema = Schema({a, b, c});
    options.composite_indexes = {{"a", "b"}};
    options.synopsis_type = SynopsisType::kEquiWidthHistogram;
    options.synopsis_budget = kValues;
    options.sink = sink_.get();
    options.memtable_max_entries = 48;
    options.merge_policy = MakePolicy(config().policy);
    options.scheduler = scheduler_.get();
    options.env = &env_;
    options.compression = config().delta ? "delta" : "none";
    options.block_cache_mb = config().cache ? 8 : 0;
    options.wal = config().wal != WalMode::kOff;
    options.wal_sync_mode = config().wal == WalMode::kEveryRecord
                                ? WalSyncMode::kEveryRecord
                                : WalSyncMode::kFlushOnly;
    // Arms the free-space watchdog, which the transient episodes trip by
    // setting the simulated budget to zero.
    options.min_free_bytes = config().transient ? 1 : 0;
    options.total_memory_mb = config().arbiter ? 64 : 0;
    return options;
  }

  // Opens the dataset over whatever is on disk. `fresh_catalog` starts the
  // statistics over, as a crash does (the catalog here is not persisted).
  void Open(bool fresh_catalog) {
    if (fresh_catalog || catalog_ == nullptr) {
      estimator_.reset();
      catalog_ = std::make_unique<StatisticsCatalog>();
      sink_ = std::make_unique<LocalCatalogSink>(catalog_.get());
      estimator_ = std::make_unique<CardinalityEstimator>(
          catalog_.get(), CardinalityEstimator::Options{});
    }
    auto opened = Dataset::Open(Options());
    ASSERT_TRUE(opened.ok()) << opened.status().ToString();
    dataset_ = std::move(opened).value();
  }

  Record RandomRecord(int64_t pk) {
    Record record;
    record.pk = pk;
    record.fields = {static_cast<int64_t>(rng_.Uniform(kValues)),
                     static_cast<int64_t>(rng_.Uniform(kValues)),
                     static_cast<int64_t>(rng_.Uniform(1000))};
    record.payload = "p" + std::to_string(rng_.NextU64() % 100000) +
                     std::string(rng_.Uniform(48), 'x');
    return record;
  }

  int64_t RandomPk() { return static_cast<int64_t>(rng_.Uniform(kKeySpace)); }

  // A live primary key (oracle non-empty), uniformly-ish at random.
  int64_t RandomLivePk() {
    auto it = oracle_.lower_bound(RandomPk());
    if (it == oracle_.end()) it = oracle_.begin();
    return it->first;
  }

  std::optional<int64_t> RandomAbsentPk() {
    for (int attempt = 0; attempt < 16; ++attempt) {
      int64_t pk = RandomPk();
      if (!oracle_.count(pk)) return pk;
    }
    return std::nullopt;
  }

  // Draws one valid modification against the oracle; nullopt when the
  // oracle state admits none of the drawn kind.
  std::optional<Op> DrawOp() {
    const uint64_t kind = rng_.Uniform(100);
    Op op;
    if (kind < 40 || oracle_.empty()) {  // Insert
      auto pk = RandomAbsentPk();
      if (!pk) return std::nullopt;
      op.puts.push_back(RandomRecord(*pk));
    } else if (kind < 65) {  // Update
      op.puts.push_back(RandomRecord(RandomLivePk()));
    } else if (kind < 82) {  // Delete
      op.erases.push_back(RandomLivePk());
    } else if (kind < 93) {  // PutBatch
      std::set<int64_t> pks;
      const uint64_t n = 2 + rng_.Uniform(4);
      for (uint64_t i = 0; i < n; ++i) {
        auto pk = RandomAbsentPk();
        if (pk && pks.insert(*pk).second) op.puts.push_back(RandomRecord(*pk));
      }
      if (op.puts.empty()) return std::nullopt;
    } else {  // DeleteBatch
      std::set<int64_t> pks;
      const uint64_t n = 2 + rng_.Uniform(3);
      for (uint64_t i = 0; i < n; ++i) pks.insert(RandomLivePk());
      op.erases.assign(pks.begin(), pks.end());
    }
    return op;
  }

  // Issues `op` through the matching Dataset call.
  Status Issue(const Op& op) {
    if (!op.erases.empty()) {
      if (op.erases.size() > 1) return dataset_->DeleteBatch(op.erases);
      return dataset_->Delete(op.erases[0]);
    }
    if (op.puts.size() > 1) return dataset_->PutBatch(op.puts);
    if (oracle_.count(op.puts[0].pk)) return dataset_->Update(op.puts[0]);
    return dataset_->Insert(op.puts[0]);
  }

  // Issues a valid modification and records it in the oracle.
  void Mutate() {
    auto op = DrawOp();
    if (!op) return;
    Status s = Issue(*op);
    ASSERT_TRUE(s.ok()) << s.ToString();
    ApplyOp(*op, &oracle_);
    since_flush_.push_back(std::move(*op));
  }

  // Constraint violations fail with the documented code and change nothing.
  void MutateInvalid() {
    if (oracle_.empty()) return;
    const int64_t live = RandomLivePk();
    EXPECT_EQ(dataset_->Insert(RandomRecord(live)).code(),
              StatusCode::kAlreadyExists);
    if (auto absent = RandomAbsentPk()) {
      EXPECT_EQ(dataset_->Update(RandomRecord(*absent)).code(),
                StatusCode::kNotFound);
      EXPECT_EQ(dataset_->Delete(*absent).code(), StatusCode::kNotFound);
      EXPECT_EQ(dataset_->DeleteBatch({live, *absent}).code(),
                StatusCode::kNotFound);
    }
  }

  void Flush() {
    Status s = dataset_->Flush();
    ASSERT_TRUE(s.ok()) << s.ToString();
    flushed_ = oracle_;
    since_flush_.clear();
  }

  // ------------------------------------------------------------ reads

  void CheckGet(int64_t pk) {
    auto got = dataset_->Get(pk);
    auto it = oracle_.find(pk);
    if (it == oracle_.end()) {
      EXPECT_EQ(got.status().code(), StatusCode::kNotFound) << "pk " << pk;
      return;
    }
    ASSERT_TRUE(got.ok()) << "pk " << pk << ": " << got.status().ToString();
    EXPECT_TRUE(SameRecord(*got, it->second)) << "pk " << pk;
  }

  void CheckCountRange() {
    const size_t field = rng_.Uniform(2);
    int64_t lo = static_cast<int64_t>(rng_.Uniform(kValues));
    int64_t hi = static_cast<int64_t>(rng_.Uniform(kValues));
    if (lo > hi) std::swap(lo, hi);
    uint64_t expected = 0;
    for (const auto& [pk, record] : oracle_) {
      expected += record.fields[field] >= lo && record.fields[field] <= hi;
    }
    auto got = dataset_->CountRange(kFields[field], lo, hi);
    ASSERT_TRUE(got.ok()) << got.status().ToString();
    EXPECT_EQ(*got, expected) << kFields[field] << " in [" << lo << ", " << hi
                              << "]";
  }

  void CheckCountRange2D() {
    int64_t lo0 = static_cast<int64_t>(rng_.Uniform(kValues));
    int64_t lo1 = static_cast<int64_t>(rng_.Uniform(kValues));
    int64_t hi0 = lo0 + static_cast<int64_t>(rng_.Uniform(32));
    int64_t hi1 = lo1 + static_cast<int64_t>(rng_.Uniform(32));
    uint64_t expected = 0;
    for (const auto& [pk, record] : oracle_) {
      expected += record.fields[0] >= lo0 && record.fields[0] <= hi0 &&
                  record.fields[1] >= lo1 && record.fields[1] <= hi1;
    }
    auto got = dataset_->CountRange2D("a", "b", lo0, hi0, lo1, hi1);
    ASSERT_TRUE(got.ok()) << got.status().ToString();
    EXPECT_EQ(*got, expected);
  }

  // The dataset's state: point reads of every primary key, one reconciled
  // scan of every index tree, and the exact counts over the whole domain.
  Fingerprint ReadFingerprint() {
    Fingerprint f;
    for (int64_t pk = 0; pk < kKeySpace; ++pk) {
      auto got = dataset_->Get(pk);
      if (got.ok()) {
        f.primary[pk] = *got;
      } else {
        EXPECT_EQ(got.status().code(), StatusCode::kNotFound)
            << got.status().ToString();
      }
    }
    const LsmTree* trees[] = {dataset_->secondary("a"),
                              dataset_->secondary("b"),
                              dataset_->composite("a", "b")};
    for (size_t i = 0; i < 3; ++i) {
      const LsmKey lo{INT64_MIN, INT64_MIN, INT64_MIN};
      const LsmKey hi{INT64_MAX, INT64_MAX, INT64_MAX};
      Status scanned = trees[i]->Scan(lo, hi, [&](const EntryView& e) {
        f.index_keys[i].push_back(e.key);
      });
      EXPECT_TRUE(scanned.ok()) << kIndexes[i] << ": " << scanned.ToString();
    }
    auto all = dataset_->CountAll();
    EXPECT_TRUE(all.ok() && *all == f.primary.size())
        << "CountAll disagrees with point reads";
    for (size_t i = 0; i < 2; ++i) {
      auto count = dataset_->CountRange(kFields[i], 0, kValues - 1);
      EXPECT_TRUE(count.ok() && *count == f.index_keys[i].size())
          << "CountRange disagrees with the scan of " << kIndexes[i];
    }
    auto count2d =
        dataset_->CountRange2D("a", "b", 0, kValues - 1, 0, kValues - 1);
    EXPECT_TRUE(count2d.ok() && *count2d == f.index_keys[2].size())
        << "CountRange2D disagrees with the scan of " << kIndexes[2];
    return f;
  }

  void CheckAll() {
    Fingerprint expected = FingerprintOf(oracle_);
    Fingerprint got = ReadFingerprint();
    EXPECT_EQ(PrimaryDiff(got, expected), "") << "primary";
    for (size_t i = 0; i < 3; ++i) {
      EXPECT_EQ(KeysDiff(got.index_keys[i], expected.index_keys[i]), "")
          << kIndexes[i];
    }
    ASSERT_NO_FATAL_FAILURE(CheckEstimatorCoherence());
  }

  // The long-lived estimator against a fresh one over the same catalog. Each
  // first answers a warm-up query (filling or revalidating its merged cache),
  // then the fixed ranges, which both serve from their merged pairs when
  // the stream is mergeable. Background flushes and merges may publish in
  // between; the comparison counts only when the stream's version held
  // still throughout, and after a few tries the check waits them out.
  void CheckEstimatorCoherence() {
    constexpr std::pair<int64_t, int64_t> kRanges[] = {
        {0, kValues - 1}, {0, 0}, {5, 20}, {kValues / 2, kValues - 1}};
    for (const char* field : kFields) {
      const StatisticsKey key = dataset_->StatsKey(field);
      for (int attempt = 0;; ++attempt) {
        if (attempt == 3) {
          Status drained = dataset_->WaitForBackgroundWork();
          (void)drained;  // a transient episode may have left an error
        }
        const uint64_t version = catalog_->Version(key);
        CardinalityEstimator fresh(catalog_.get(), {});
        estimator_->EstimateRangePartition(key, 1, 1);
        fresh.EstimateRangePartition(key, 1, 1);
        std::vector<double> cached;
        std::vector<double> expected;
        for (const auto& [lo, hi] : kRanges) {
          cached.push_back(estimator_->EstimateRangePartition(key, lo, hi));
          expected.push_back(fresh.EstimateRangePartition(key, lo, hi));
        }
        if (catalog_->Version(key) != version && attempt < 3) continue;
        for (size_t r = 0; r < cached.size(); ++r) {
          EXPECT_EQ(std::memcmp(&cached[r], &expected[r], sizeof(double)), 0)
              << field << " [" << kRanges[r].first << ", "
              << kRanges[r].second << "]: long-lived estimator says "
              << cached[r] << ", a fresh one " << expected[r];
        }
        break;
      }
    }
  }

  // -------------------------------------------------------- statistics

  // After a full merge every tree is one component with its anti-matter
  // dropped: the synopses must count exactly the live records.
  void FullMergeAndCheckStatistics() {
    ASSERT_NO_FATAL_FAILURE(Flush());
    Status merged = dataset_->ForceFullMerge();
    ASSERT_TRUE(merged.ok()) << merged.ToString();
    Status drained = dataset_->WaitForBackgroundWork();
    ASSERT_TRUE(drained.ok()) << drained.ToString();
    ASSERT_NO_FATAL_FAILURE(CheckAll());
    auto live = dataset_->CountAll();
    ASSERT_TRUE(live.ok());
    ASSERT_EQ(*live, oracle_.size());

    auto reconcile = [&](const StatisticsKey& key) {
      uint64_t regular = 0;
      uint64_t anti = 0;
      for (const SynopsisEntry& entry : catalog_->GetSynopses(key)) {
        if (entry.synopsis) regular += entry.synopsis->TotalRecords();
        if (entry.anti_synopsis) anti += entry.anti_synopsis->TotalRecords();
      }
      EXPECT_EQ(anti, 0u) << key.field << ": anti-matter survived a full merge";
      EXPECT_EQ(regular, *live) << key.field;
    };
    CardinalityEstimator estimator(catalog_.get(), {});
    for (const char* field : kFields) {
      reconcile(dataset_->StatsKey(field));
      EXPECT_NEAR(estimator.EstimateRange("ds", field, 0, kValues - 1),
                  static_cast<double>(*live), 1e-6)
          << field;
    }
    reconcile(dataset_->CompositeStatsKey("a", "b"));
    EXPECT_NEAR(estimator.EstimateRange2D("ds", "a+b", 0, kValues - 1, 0,
                                          kValues - 1),
                static_cast<double>(*live), 1e-6);
  }

  // ------------------------------------------------------ fault episodes

  // Waits out any auto-recovery, resumes a tree parked read-only, and
  // requires the dataset to be healthy again.
  void RestoreHealth() {
    Status waited = dataset_->WaitForBackgroundWork();
    (void)waited;  // reports the outage the episode just injected
    if (dataset_->Health().mode != TreeMode::kHealthy) {
      Status resumed = dataset_->Resume();
      ASSERT_TRUE(resumed.ok()) << resumed.ToString();
    }
    DatasetHealth health = dataset_->Health();
    ASSERT_EQ(health.mode, TreeMode::kHealthy)
        << health.recovering_trees << " recovering, " << health.degraded_trees
        << " read-only";
  }

  // A transient outage — a burst of failing writes, or a full disk under
  // the armed watchdog — strikes a Flush or ForceFullMerge. Either outcome
  // is legal mid-outage; once it clears the dataset must heal, lose
  // nothing, and flush cleanly.
  void TransientEpisode() {
    Status quiesced = dataset_->WaitForBackgroundWork();
    ASSERT_TRUE(quiesced.ok()) << quiesced.ToString();
    if (rng_.Bernoulli(0.5)) {
      env_.SetFreeSpaceBudget(0);
    } else {
      env_.FailWritesWith(Status::IOError("injected transient outage"),
                          1 + rng_.Uniform(8));
    }
    Status hit = rng_.Bernoulli(0.7) ? dataset_->Flush()
                                     : dataset_->ForceFullMerge();
    (void)hit;  // may or may not have met the fault
    env_.ClearFaults();
    env_.ClearFreeSpaceBudget();
    ASSERT_NO_FATAL_FAILURE(RestoreHealth());
    ASSERT_NO_FATAL_FAILURE(Flush());
    ASSERT_NO_FATAL_FAILURE(CheckAll());
  }

  // Closes and reopens without a crash. With the WAL on nothing may be
  // lost; with it off the memtables die with the process, so flush first.
  void CleanReopen() {
    if (config().wal == WalMode::kOff) {
      ASSERT_NO_FATAL_FAILURE(Flush());
    }
    Status drained = dataset_->WaitForBackgroundWork();
    ASSERT_TRUE(drained.ok()) << drained.ToString();
    dataset_.reset();
    ASSERT_NO_FATAL_FAILURE(Open(/*fresh_catalog=*/false));
    ASSERT_NO_FATAL_FAILURE(CheckAll());
  }

  // ----------------------------------------------------------- crashes

  // Schedules a crash within the next few mutating filesystem ops, keeps
  // writing until it bites, then drops unsynced bytes and reopens. Returns
  // (via *consistent) whether every index recovered to the same prefix, in
  // which case the oracle now holds that state.
  void CrashAndRecover(bool* consistent) {
    *consistent = false;
    env_.CrashAtMutatingOp(env_.MutatingOpCount() + 1 + rng_.Uniform(60));
    std::optional<Op> in_flight;
    for (int i = 0; i < 200; ++i) {
      if (i == 150) env_.CrashAtMutatingOp(env_.MutatingOpCount() + 1);
      if (rng_.Uniform(100) < 4) {
        Status s = dataset_->Flush();
        if (!s.ok()) break;
        flushed_ = oracle_;
        since_flush_.clear();
        continue;
      }
      auto op = DrawOp();
      if (!op) continue;
      Status s = Issue(*op);
      if (!s.ok()) {
        in_flight = std::move(op);
        break;
      }
      ApplyOp(*op, &oracle_);
      since_flush_.push_back(std::move(*op));
    }
    // Power loss: the process dies (its destructors may still try, and
    // fail, to write), un-synced bytes vanish, the machine reboots.
    dataset_.reset();
    env_.ClearFaults();
    ASSERT_TRUE(env_.DropUnsyncedData().ok());
    ASSERT_NO_FATAL_FAILURE(Open(/*fresh_catalog=*/true));

    // Candidate recovery points: the oracle after each prefix of the ops
    // since the last Flush(), plus the op the crash interrupted.
    std::vector<State> states = {flushed_};
    for (const Op& op : since_flush_) {
      states.push_back(states.back());
      ApplyOp(op, &states.back());
    }
    if (in_flight) {
      states.push_back(states.back());
      ApplyOp(*in_flight, &states.back());
    }
    // Every-record sync acknowledges only durable writes.
    const size_t lowest =
        config().wal == WalMode::kEveryRecord ? since_flush_.size() : 0;

    Fingerprint got = ReadFingerprint();
    std::vector<Fingerprint> candidates;
    for (const State& state : states) {
      candidates.push_back(FingerprintOf(state));
    }
    // Which prefixes each index agrees with.
    auto matching = [&](auto same) {
      std::set<size_t> ks;
      for (size_t k = lowest; k < candidates.size(); ++k) {
        if (same(candidates[k])) ks.insert(k);
      }
      return ks;
    };
    std::vector<std::pair<std::string, std::set<size_t>>> per_index = {
        {"primary", matching([&](const Fingerprint& f) {
           return PrimaryDiff(got, f).empty();
         })}};
    for (size_t i = 0; i < 3; ++i) {
      per_index.emplace_back(kIndexes[i], matching([&](const Fingerprint& f) {
                               return got.index_keys[i] == f.index_keys[i];
                             }));
    }
    for (const auto& [index, ks] : per_index) {
      EXPECT_FALSE(ks.empty())
          << index << " recovered to no allowed prefix (ops since flush: "
          << since_flush_.size() << ", lowest allowed: " << lowest
          << ", interrupted op: " << (in_flight ? "yes" : "no") << ")";
    }
    std::set<size_t> common = per_index[0].second;
    for (const auto& [index, ks] : per_index) {
      std::set<size_t> both;
      for (size_t k : common) {
        if (ks.count(k)) both.insert(k);
      }
      common = std::move(both);
    }
    if (config().wal != WalMode::kOff) {
      // One shared log: every index replays to the same point.
      EXPECT_FALSE(common.empty()) << "indexes recovered to different prefixes";
    }
    if (common.empty() || HasFailure()) return;
    oracle_ = states[*common.rbegin()];
    flushed_ = oracle_;
    since_flush_.clear();
    *consistent = true;
  }

  FaultInjectionEnv env_;
  std::string dir_;
  std::unique_ptr<BackgroundScheduler> scheduler_;
  std::unique_ptr<StatisticsCatalog> catalog_;
  std::unique_ptr<LocalCatalogSink> sink_;
  // Lives as long as catalog_, as a query engine's estimator would.
  std::unique_ptr<CardinalityEstimator> estimator_;
  std::unique_ptr<Dataset> dataset_;
  Random rng_{SeedOf(GetParam())};

  State oracle_;
  // Oracle at the last successful Flush() and the ops acknowledged since:
  // the recovery points a crash may legally land on.
  State flushed_;
  std::vector<Op> since_flush_;
};

TEST_P(ModelCheckerTest, MatchesOracle) {
  SCOPED_TRACE(
      "replay: --gtest_filter=Configs/ModelCheckerTest.MatchesOracle/" +
      Name(config()));
  ASSERT_NO_FATAL_FAILURE(Open(/*fresh_catalog=*/true));

  for (int step = 0; step < 250; ++step) {
    SCOPED_TRACE("step " + std::to_string(step));
    const uint64_t roll = rng_.Uniform(1000);
    if (roll < 700) {
      ASSERT_NO_FATAL_FAILURE(Mutate());
    } else if (roll < 720) {
      ASSERT_NO_FATAL_FAILURE(MutateInvalid());
    } else if (roll < 820) {
      ASSERT_NO_FATAL_FAILURE(CheckGet(RandomPk()));
    } else if (roll < 890) {
      ASSERT_NO_FATAL_FAILURE(CheckCountRange());
    } else if (roll < 920) {
      ASSERT_NO_FATAL_FAILURE(CheckCountRange2D());
    } else if (roll < 950) {
      ASSERT_NO_FATAL_FAILURE(Flush());
      ASSERT_NO_FATAL_FAILURE(CheckAll());
    } else if (roll < 965) {
      ASSERT_NO_FATAL_FAILURE(FullMergeAndCheckStatistics());
    } else if (roll < 985) {
      if (config().transient) {
        ASSERT_NO_FATAL_FAILURE(TransientEpisode());
      }
    } else {
      ASSERT_NO_FATAL_FAILURE(CleanReopen());
    }
    if (HasFailure()) return;
  }
  ASSERT_NO_FATAL_FAILURE(FullMergeAndCheckStatistics());

  {
    SCOPED_TRACE("crash");
    bool consistent = false;
    ASSERT_NO_FATAL_FAILURE(CrashAndRecover(&consistent));
    // With the WAL off the indexes may legitimately recover to different
    // flush points; there is no single oracle to continue from.
    if (!consistent) return;
  }
  SCOPED_TRACE("after crash");
  for (int step = 0; step < 40; ++step) ASSERT_NO_FATAL_FAILURE(Mutate());
  // Every tree gets a post-crash component, so the full merge below leaves
  // each with one component whose synopsis is in the fresh catalog.
  if (auto pk = RandomAbsentPk()) {
    Record record = RandomRecord(*pk);
    ASSERT_TRUE(dataset_->Insert(record).ok());
    oracle_[*pk] = std::move(record);
  }
  ASSERT_NO_FATAL_FAILURE(FullMergeAndCheckStatistics());
}

INSTANTIATE_TEST_SUITE_P(Configs, ModelCheckerTest,
                         ::testing::ValuesIn(kConfigs),
                         [](const ::testing::TestParamInfo<Config>& info) {
                           return Name(info.param);
                         });

}  // namespace
}  // namespace lsmstats
