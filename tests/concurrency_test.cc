// Tests for concurrent ingestion: the background scheduler, memtable
// rotation, snapshot reads under flush/merge, listener serialization, and
// backpressure. These are the tests that give the tsan CI job teeth —
// every scenario here runs real writer/reader/worker threads.

#include <atomic>
#include <cstdlib>
#include <filesystem>
#include <memory>
#include <string>
#include <thread>
#include <vector>

#include <gtest/gtest.h>

#include "cluster/cluster.h"
#include "db/dataset.h"
#include "lsm/format/block_cache.h"
#include "lsm/lsm_tree.h"
#include "lsm/scheduler.h"
#include "stats/cardinality_estimator.h"
#include "stats/statistics_collector.h"
#include "workload/distribution.h"
#include "workload/tweets.h"

namespace lsmstats {
namespace {

class TempDir {
 public:
  TempDir() {
    char tmpl[] = "/tmp/lsmstats_conc_XXXXXX";
    path_ = ::mkdtemp(tmpl);
  }
  ~TempDir() { std::filesystem::remove_all(path_); }
  const std::string& path() const { return path_; }

 private:
  std::string path_;
};

// ---------------------------------------------------- BackgroundScheduler

TEST(BackgroundScheduler, RunsScheduledTasks) {
  BackgroundScheduler scheduler(3);
  EXPECT_EQ(scheduler.thread_count(), 3u);
  std::atomic<int> counter{0};
  for (int i = 0; i < 100; ++i) {
    scheduler.Schedule([&counter] { ++counter; });
  }
  scheduler.Drain();
  EXPECT_EQ(counter.load(), 100);
  EXPECT_EQ(scheduler.tasks_scheduled(), 100u);
  EXPECT_EQ(scheduler.tasks_completed(), 100u);
}

TEST(BackgroundScheduler, DrainWaitsForInFlightTasks) {
  BackgroundScheduler scheduler(2);
  std::atomic<bool> done{false};
  scheduler.Schedule([&done] {
    std::this_thread::sleep_for(std::chrono::milliseconds(50));
    done = true;
  });
  scheduler.Drain();
  EXPECT_TRUE(done.load());
}

TEST(BackgroundScheduler, ShutdownFinishesQueuedTasks) {
  std::atomic<int> counter{0};
  {
    BackgroundScheduler scheduler(1);
    for (int i = 0; i < 20; ++i) {
      scheduler.Schedule([&counter] { ++counter; });
    }
    scheduler.Shutdown();
    EXPECT_EQ(counter.load(), 20);
    // Idempotent.
    scheduler.Shutdown();
    // Post-shutdown work runs inline on the caller, never lost.
    scheduler.Schedule([&counter] { ++counter; });
    EXPECT_EQ(counter.load(), 21);
    EXPECT_EQ(scheduler.tasks_completed(), 21u);
  }
  EXPECT_EQ(counter.load(), 21);
}

TEST(BackgroundScheduler, ZeroThreadsClampedToOne) {
  BackgroundScheduler scheduler(0);
  EXPECT_EQ(scheduler.thread_count(), 1u);
  std::atomic<bool> ran{false};
  scheduler.Schedule([&ran] { ran = true; });
  scheduler.Drain();
  EXPECT_TRUE(ran.load());
}

// Wedges a single-worker scheduler on a gate task so tasks enqueued behind
// it are picked strictly by the priority order when the gate lifts.
class SchedulerGate {
 public:
  explicit SchedulerGate(BackgroundScheduler* scheduler) {
    scheduler->Schedule(TaskPriority{TaskClass::kMerge, 0}, [this] {
      started_.store(true);
      while (!release_.load()) std::this_thread::yield();
    });
    while (!started_.load()) std::this_thread::yield();
  }
  void Release() { release_.store(true); }

 private:
  std::atomic<bool> started_{false};
  std::atomic<bool> release_{false};
};

TEST(BackgroundScheduler, FlushRunsBeforeQueuedMergeSuccessor) {
  // A flush enqueued BEHIND a waiting merge must still start before it: the
  // scheduler dispatches by class, not arrival order. The gate task plays
  // the "long merge currently running"; the queued merge is its successor.
  BackgroundScheduler scheduler(1);
  SchedulerGate gate(&scheduler);
  std::vector<std::string> order;
  Mutex order_mu(LockRank::kLeaf, "order");
  auto record = [&](const char* label) {
    MutexLock lock(&order_mu);
    order.push_back(label);
  };
  scheduler.Schedule(TaskPriority{TaskClass::kMerge, /*weight=*/1 << 20},
                     [&] { record("merge"); });
  scheduler.Schedule(TaskPriority{TaskClass::kFlush, 0},
                     [&] { record("flush"); });
  gate.Release();
  scheduler.Drain();
  ASSERT_EQ(order.size(), 2u);
  EXPECT_EQ(order[0], "flush");
  EXPECT_EQ(order[1], "merge");
}

TEST(BackgroundScheduler, SmallMergeDispatchesBeforeLargeMerge) {
  BackgroundScheduler scheduler(1);
  SchedulerGate gate(&scheduler);
  std::vector<uint64_t> order;
  Mutex order_mu(LockRank::kLeaf, "order");
  for (uint64_t weight : {900u, 100u, 500u}) {
    scheduler.Schedule(TaskPriority{TaskClass::kMerge, weight}, [&, weight] {
      MutexLock lock(&order_mu);
      order.push_back(weight);
    });
  }
  gate.Release();
  scheduler.Drain();
  EXPECT_EQ(order, (std::vector<uint64_t>{100, 500, 900}));
}

TEST(BackgroundScheduler, FairnessAgingBoundsMergeStarvation) {
  // One starving merge against a steady stream of flushes: after
  // `fairness_window` dispatches the merge jumps the priority order, so it
  // runs after a bounded number of flushes — neither immediately (priority
  // holds first) nor last (starvation is what aging prevents).
  constexpr uint64_t kWindow = 4;
  BackgroundScheduler scheduler(1, kWindow);
  SchedulerGate gate(&scheduler);
  std::atomic<int> flushes_run{0};
  std::atomic<int> flushes_before_merge{-1};
  scheduler.Schedule(TaskPriority{TaskClass::kMerge, /*weight=*/1 << 30},
                     [&] { flushes_before_merge.store(flushes_run.load()); });
  for (int i = 0; i < 10; ++i) {
    scheduler.Schedule(TaskPriority{TaskClass::kFlush, 0},
                       [&] { ++flushes_run; });
  }
  gate.Release();
  scheduler.Drain();
  EXPECT_EQ(flushes_run.load(), 10);
  // Flushes outrank the merge until aging kicks in at the window bound.
  EXPECT_GE(flushes_before_merge.load(), 1);
  EXPECT_LE(flushes_before_merge.load(), static_cast<int>(kWindow) + 1);
}

// --------------------------------------------------- Rotation visibility

// A scheduler whose single worker is wedged on a gate lets us observe the
// rotated-but-not-yet-flushed state deterministically.
TEST(LsmTreeConcurrency, RotatedMemTableStaysReadable) {
  TempDir dir;
  BackgroundScheduler scheduler(1);
  std::atomic<bool> release{false};
  scheduler.Schedule([&release] {
    while (!release.load()) {
      std::this_thread::sleep_for(std::chrono::milliseconds(1));
    }
  });

  LsmTreeOptions options;
  options.directory = dir.path();
  options.memtable_max_entries = 1024;
  options.scheduler = &scheduler;
  auto tree_or = LsmTree::Open(options);
  ASSERT_TRUE(tree_or.ok()) << tree_or.status().ToString();
  auto tree = std::move(tree_or).value();

  for (int64_t k = 0; k < 100; ++k) {
    ASSERT_TRUE(tree->Put(PrimaryKey(k), "v" + std::to_string(k), true).ok());
  }
  // Rotation returns immediately; the flush job queues behind the gate.
  ASSERT_TRUE(tree->RequestFlush().ok());
  EXPECT_EQ(tree->MemTableEntryCount(), 0u);
  EXPECT_EQ(tree->ImmutableMemTableCount(), 1u);
  EXPECT_EQ(tree->ComponentCount(), 0u);

  // Reads see the frozen memtable, and new writes land in the fresh one.
  std::string value;
  ASSERT_TRUE(tree->Get(PrimaryKey(42), &value).ok());
  EXPECT_EQ(value, "v42");
  ASSERT_TRUE(tree->Put(PrimaryKey(1000), "fresh", true).ok());
  auto count = tree->ScanCount(PrimaryKey(0), PrimaryKey(2000));
  ASSERT_TRUE(count.ok());
  EXPECT_EQ(*count, 101u);

  release = true;
  ASSERT_TRUE(tree->WaitForBackgroundWork().ok());
  EXPECT_EQ(tree->ImmutableMemTableCount(), 0u);
  EXPECT_EQ(tree->ComponentCount(), 1u);
  ASSERT_TRUE(tree->Get(PrimaryKey(42), &value).ok());
  EXPECT_EQ(value, "v42");
}

// ------------------------------------------- Concurrent writers + readers

TEST(LsmTreeConcurrency, ConcurrentWritersAndReaders) {
  TempDir dir;
  BackgroundScheduler scheduler(3);
  LsmTreeOptions options;
  options.directory = dir.path();
  options.memtable_max_entries = 256;
  options.merge_policy = std::make_shared<TieredMergePolicy>(1.5, 3, 8);
  options.scheduler = &scheduler;
  auto tree_or = LsmTree::Open(options);
  ASSERT_TRUE(tree_or.ok()) << tree_or.status().ToString();
  auto tree = std::move(tree_or).value();

  constexpr int kWriters = 4;
  constexpr int64_t kPerWriter = 3000;
  constexpr uint64_t kTotal = kWriters * kPerWriter;
  std::atomic<bool> stop_readers{false};
  std::atomic<int> write_failures{0};
  std::atomic<uint64_t> acknowledged{0};  // Puts that have returned OK

  std::vector<std::thread> writers;
  writers.reserve(kWriters);
  for (int w = 0; w < kWriters; ++w) {
    writers.emplace_back([&, w] {
      const int64_t base = static_cast<int64_t>(w) * kPerWriter;
      for (int64_t i = 0; i < kPerWriter; ++i) {
        Status s = tree->Put(PrimaryKey(base + i),
                             "v" + std::to_string(base + i), true);
        if (s.ok()) {
          ++acknowledged;
        } else {
          ++write_failures;
        }
      }
    });
  }

  // Readers race with rotation, flushes, and merges; every value they do
  // find must be the one written for that key. Keys are only inserted, so a
  // count that skipped or double-read an input while components were
  // swapped shows: each count covers every Put acknowledged before it
  // began, never exceeds the total, and never falls below the last one.
  std::vector<std::thread> readers;
  for (int r = 0; r < 2; ++r) {
    readers.emplace_back([&, r] {
      std::string value;
      int64_t probe = r;
      uint64_t last_count = 0;
      while (!stop_readers.load()) {
        Status s = tree->Get(PrimaryKey(probe), &value);
        if (s.ok()) {
          EXPECT_EQ(value, "v" + std::to_string(probe));
        } else {
          EXPECT_EQ(s.code(), StatusCode::kNotFound);
        }
        const uint64_t acknowledged_before = acknowledged.load();
        auto count = tree->ScanCount(PrimaryKey(0), PrimaryKey(kTotal));
        ASSERT_TRUE(count.ok()) << count.status().ToString();
        EXPECT_GE(*count, acknowledged_before);
        EXPECT_LE(*count, kTotal);
        EXPECT_GE(*count, last_count);
        last_count = *count;
        probe = (probe + 37) % (kWriters * kPerWriter);
      }
    });
  }

  for (auto& t : writers) t.join();
  stop_readers = true;
  for (auto& t : readers) t.join();
  EXPECT_EQ(write_failures.load(), 0);

  ASSERT_TRUE(tree->Flush().ok());
  ASSERT_TRUE(tree->BackgroundError().ok());
  EXPECT_EQ(tree->ImmutableMemTableCount(), 0u);
  auto total =
      tree->ScanCount(PrimaryKey(0), PrimaryKey(kWriters * kPerWriter));
  ASSERT_TRUE(total.ok());
  EXPECT_EQ(*total, static_cast<uint64_t>(kWriters * kPerWriter));

  std::string value;
  for (int64_t k = 0; k < kWriters * kPerWriter; k += 997) {
    ASSERT_TRUE(tree->Get(PrimaryKey(k), &value).ok()) << "key " << k;
    EXPECT_EQ(value, "v" + std::to_string(k));
  }
}

// --------------------------------------------------------- Backpressure

TEST(LsmTreeConcurrency, BackpressureBoundsImmutableQueue) {
  TempDir dir;
  BackgroundScheduler scheduler(1);
  LsmTreeOptions options;
  options.directory = dir.path();
  options.memtable_max_entries = 64;
  options.max_immutable_memtables = 2;
  options.scheduler = &scheduler;
  auto tree_or = LsmTree::Open(options);
  ASSERT_TRUE(tree_or.ok()) << tree_or.status().ToString();
  auto tree = std::move(tree_or).value();

  std::atomic<bool> done{false};
  std::thread writer([&] {
    for (int64_t k = 0; k < 4000; ++k) {
      ASSERT_TRUE(tree->Put(PrimaryKey(k), "payload", true).ok());
    }
    done = true;
  });
  // The queue may transiently hold max+1 (the writer rotates, then waits),
  // but never grows beyond that.
  while (!done.load()) {
    EXPECT_LE(tree->ImmutableMemTableCount(),
              options.max_immutable_memtables + 1);
    std::this_thread::sleep_for(std::chrono::milliseconds(1));
  }
  writer.join();
  ASSERT_TRUE(tree->Flush().ok());
  auto total = tree->ScanCount(PrimaryKey(0), PrimaryKey(4000));
  ASSERT_TRUE(total.ok());
  EXPECT_EQ(*total, 4000u);
}

// --------------------------------------------- Shutdown mid-merge safety

TEST(LsmTreeConcurrency, SchedulerShutdownMidIngestDegradesInline) {
  TempDir dir;
  BackgroundScheduler scheduler(2);
  LsmTreeOptions options;
  options.directory = dir.path();
  options.memtable_max_entries = 128;
  options.merge_policy = std::make_shared<ConstantMergePolicy>(3);
  options.scheduler = &scheduler;
  auto tree_or = LsmTree::Open(options);
  ASSERT_TRUE(tree_or.ok()) << tree_or.status().ToString();
  auto tree = std::move(tree_or).value();

  std::thread writer([&] {
    for (int64_t k = 0; k < 5000; ++k) {
      ASSERT_TRUE(tree->Put(PrimaryKey(k), "x", true).ok());
    }
  });
  // Yank the workers while flushes and merges are in flight. Queued jobs
  // still complete, and later rotations run inline on the writer.
  std::this_thread::sleep_for(std::chrono::milliseconds(5));
  scheduler.Shutdown();
  writer.join();

  ASSERT_TRUE(tree->Flush().ok());
  ASSERT_TRUE(tree->BackgroundError().ok());
  EXPECT_EQ(tree->ImmutableMemTableCount(), 0u);
  auto total = tree->ScanCount(PrimaryKey(0), PrimaryKey(5000));
  ASSERT_TRUE(total.ok());
  EXPECT_EQ(*total, 5000u);
  // The Constant policy bound still holds after the dust settles.
  EXPECT_LE(tree->ComponentCount(), 3u);

  std::string value;
  ASSERT_TRUE(tree->Get(PrimaryKey(4999), &value).ok());
  EXPECT_EQ(value, "x");
}

// ------------------------------------------------- Listener serialization

// Records the listener-contract invariants under concurrency: operations
// never overlap (per tree), and entries within one operation arrive in
// strictly increasing key order.
class ContractCheckListener : public LsmEventListener {
 public:
  class Observer : public ComponentWriteObserver {
   public:
    explicit Observer(ContractCheckListener* parent) : parent_(parent) {
      if (parent_->active_ops_.fetch_add(1) != 0) parent_->overlap_ = true;
    }

    void OnEntry(const Entry& entry) override {
      if (has_prev_ && !(prev_ < entry.key)) parent_->out_of_order_ = true;
      prev_ = entry.key;
      has_prev_ = true;
      parent_->entries_seen_.fetch_add(1);
    }

    void OnComponentSealed(const ComponentMetadata& metadata,
                           const std::vector<uint64_t>& replaced) override {
      parent_->sealed_records_.fetch_add(metadata.record_count);
      parent_->ops_sealed_.fetch_add(1);
      (void)replaced;
      parent_->active_ops_.fetch_sub(1);
    }

   private:
    ContractCheckListener* parent_;
    LsmKey prev_{};
    bool has_prev_ = false;
  };

  std::unique_ptr<ComponentWriteObserver> OnOperationBegin(
      const OperationContext& context) override {
    (void)context;
    return std::make_unique<Observer>(this);
  }

  std::atomic<int> active_ops_{0};
  std::atomic<uint64_t> entries_seen_{0};
  std::atomic<uint64_t> sealed_records_{0};
  std::atomic<uint64_t> ops_sealed_{0};
  std::atomic<bool> overlap_{false};
  std::atomic<bool> out_of_order_{false};
};

TEST(LsmTreeConcurrency, ListenerCallbacksAreSerializedAndOrdered) {
  TempDir dir;
  BackgroundScheduler scheduler(4);
  ContractCheckListener listener;
  LsmTreeOptions options;
  options.directory = dir.path();
  options.memtable_max_entries = 200;
  options.merge_policy = std::make_shared<TieredMergePolicy>(1.5, 3, 8);
  options.scheduler = &scheduler;
  auto tree_or = LsmTree::Open(options);
  ASSERT_TRUE(tree_or.ok()) << tree_or.status().ToString();
  auto tree = std::move(tree_or).value();
  tree->AddListener(&listener);

  constexpr int kWriters = 3;
  constexpr int64_t kPerWriter = 2000;
  std::vector<std::thread> writers;
  writers.reserve(kWriters);
  for (int w = 0; w < kWriters; ++w) {
    writers.emplace_back([&, w] {
      const int64_t base = static_cast<int64_t>(w) * kPerWriter;
      for (int64_t i = 0; i < kPerWriter; ++i) {
        ASSERT_TRUE(tree->Put(PrimaryKey(base + i), "v", true).ok());
      }
    });
  }
  for (auto& t : writers) t.join();
  ASSERT_TRUE(tree->Flush().ok());

  EXPECT_FALSE(listener.overlap_.load())
      << "observer callbacks for different operations overlapped";
  EXPECT_FALSE(listener.out_of_order_.load())
      << "entries within an operation were not sorted";
  EXPECT_EQ(listener.active_ops_.load(), 0);
  EXPECT_GT(listener.ops_sealed_.load(), 0u);
  // Every sealed record was first observed via OnEntry (flushes are
  // duplicate-free here, merges re-observe, so seen >= sealed of the
  // largest op; the cheap global invariant is seen == sealed sums).
  EXPECT_EQ(listener.entries_seen_.load(), listener.sealed_records_.load());
}

// ------------------------------------------------- Sync-mode determinism

TEST(LsmTreeConcurrency, SynchronousModeIsDeterministic) {
  auto run = [](const std::string& dir) {
    LsmTreeOptions options;
    options.directory = dir;
    options.memtable_max_entries = 100;
    options.merge_policy = std::make_shared<TieredMergePolicy>(1.5, 3, 8);
    auto tree = LsmTree::Open(options);
    EXPECT_TRUE(tree.ok()) << tree.status().ToString();
    for (int64_t k = 0; k < 2500; ++k) {
      EXPECT_TRUE((*tree)->Put(PrimaryKey(k), "v", true).ok());
    }
    EXPECT_TRUE((*tree)->Flush().ok());
    return (*tree)->ComponentsMetadata();
  };
  TempDir a;
  TempDir b;
  auto meta_a = run(a.path());
  auto meta_b = run(b.path());
  ASSERT_EQ(meta_a.size(), meta_b.size());
  for (size_t i = 0; i < meta_a.size(); ++i) {
    EXPECT_EQ(meta_a[i].id, meta_b[i].id);
    EXPECT_EQ(meta_a[i].timestamp, meta_b[i].timestamp);
    EXPECT_EQ(meta_a[i].record_count, meta_b[i].record_count);
  }
}

// ------------------------------------------------ Dataset under a scheduler

TEST(DatasetConcurrency, ParallelIndexMaintenanceMatchesOracle) {
  TempDir dir;
  BackgroundScheduler scheduler(4);
  StatisticsCatalog catalog;
  LocalCatalogSink sink(&catalog);
  DatasetOptions options;
  options.sink = &sink;
  options.name = "tweets";
  options.directory = dir.path();
  options.schema = TweetSchema(ValueDomain(0, 14));
  options.synopsis_type = SynopsisType::kEquiWidthHistogram;
  options.synopsis_budget = 1 << 12;
  options.memtable_max_entries = 256;
  options.scheduler = &scheduler;
  auto dataset_or = Dataset::Open(options);
  ASSERT_TRUE(dataset_or.ok()) << dataset_or.status().ToString();
  auto dataset = std::move(dataset_or).value();

  DistributionSpec spec;
  spec.num_values = 500;
  spec.total_records = 6000;
  spec.domain = ValueDomain(0, 14);
  auto dist = SyntheticDistribution::Generate(spec);
  TweetGenerator generator(dist, 32, 11);
  uint64_t inserted = 0;
  while (generator.HasNext()) {
    ASSERT_TRUE(dataset->Insert(generator.Next()).ok());
    ++inserted;
  }
  ASSERT_TRUE(dataset->Flush().ok());
  ASSERT_TRUE(dataset->WaitForBackgroundWork().ok());

  auto all = dataset->CountAll();
  ASSERT_TRUE(all.ok());
  EXPECT_EQ(*all, inserted);
  // The secondary index answers range counts consistently with the data.
  auto in_range = dataset->CountRange(kTweetMetricField, 1000, 8000);
  ASSERT_TRUE(in_range.ok());
  auto full_range = dataset->CountRange(kTweetMetricField, 0, 16383);
  ASSERT_TRUE(full_range.ok());
  EXPECT_EQ(*full_range, inserted);
  EXPECT_LE(*in_range, *full_range);
}

// Queries estimate from the catalog while a feed ingests: flushes running on
// the worker pool publish synopses (bumping catalog versions) while a reader
// thread hammers EstimateRange, periodically drops the merged-synopsis
// cache, and holds catalog snapshots across later publications. Exercises
// the estimator's cache mutex and the catalog's copy-on-write publication;
// the tsan preset is the real assertion here.
TEST(DatasetConcurrency, EstimatorServesQueriesDuringIngestion) {
  TempDir dir;
  BackgroundScheduler scheduler(4);
  StatisticsCatalog catalog;
  LocalCatalogSink sink(&catalog);
  DatasetOptions options;
  options.sink = &sink;
  options.name = "tweets";
  options.directory = dir.path();
  options.schema = TweetSchema(ValueDomain(0, 14));
  // Equi-width histograms are mergeable, so the merged-cache fill /
  // invalidate / serve paths all run concurrently with delivery.
  options.synopsis_type = SynopsisType::kEquiWidthHistogram;
  options.synopsis_budget = 1 << 10;
  options.memtable_max_entries = 128;
  options.scheduler = &scheduler;
  // Route reads through one shared block cache so concurrent lookups and
  // flush-driven component opens also contend on the cache shards.
  options.block_cache_mb = 4;
  auto dataset_or = Dataset::Open(options);
  ASSERT_TRUE(dataset_or.ok()) << dataset_or.status().ToString();
  auto dataset = std::move(dataset_or).value();

  CardinalityEstimator estimator(&catalog, CardinalityEstimator::Options{});
  const StatisticsKey key = dataset->StatsKey(kTweetMetricField);
  std::atomic<bool> done{false};
  std::atomic<uint64_t> queries{0};
  std::thread querier([&] {
    uint64_t iterations = 0;
    StatisticsCatalog::StreamSnapshot held;
    uint64_t held_records = 0;
    auto records = [](const StatisticsCatalog::StreamSnapshot& snapshot) {
      uint64_t total = 0;
      if (snapshot.entries == nullptr) return total;
      for (const SynopsisEntry& entry : *snapshot.entries) {
        total += entry.synopsis->TotalRecords();
      }
      return total;
    };
    while (!done.load(std::memory_order_acquire)) {
      CardinalityEstimator::QueryStats stats;
      double estimate =
          estimator.EstimateRange("tweets", kTweetMetricField, 0, 16383,
                                  &stats);
      EXPECT_GE(estimate, 0.0);
      // A snapshot held while flushes publish newer ones keeps its entries;
      // the version only moves forward.
      StatisticsCatalog::StreamSnapshot latest = catalog.Snapshot(key);
      EXPECT_GE(latest.version, held.version);
      EXPECT_EQ(records(held), held_records);
      if (++iterations % 64 == 0) {
        estimator.InvalidateCache();
        held = std::move(latest);
        held_records = records(held);
      }
    }
    queries.store(iterations, std::memory_order_release);
  });

  DistributionSpec spec;
  spec.num_values = 400;
  spec.total_records = 5000;
  spec.domain = ValueDomain(0, 14);
  auto dist = SyntheticDistribution::Generate(spec);
  TweetGenerator generator(dist, 32, 17);
  uint64_t inserted = 0;
  while (generator.HasNext()) {
    ASSERT_TRUE(dataset->Insert(generator.Next()).ok());
    ++inserted;
  }
  ASSERT_TRUE(dataset->Flush().ok());
  ASSERT_TRUE(dataset->WaitForBackgroundWork().ok());
  done.store(true, std::memory_order_release);
  querier.join();
  EXPECT_GT(queries.load(), 0u);

  // Once ingestion quiesced the estimate must cover every record: with no
  // anti-matter the histogram total is exact over the full domain.
  double final_estimate =
      estimator.EstimateRange("tweets", kTweetMetricField, 0, 16383);
  EXPECT_NEAR(final_estimate, static_cast<double>(inserted),
              inserted * 0.05);
  // The oracle scan reads every flushed component through the shared cache.
  auto exact = dataset->CountRange(kTweetMetricField, 0, 16383);
  ASSERT_TRUE(exact.ok()) << exact.status().ToString();
  EXPECT_EQ(*exact, inserted);
  ASSERT_NE(dataset->block_cache(), nullptr);
  BlockCache::Stats cache_stats = dataset->block_cache()->GetStats();
  EXPECT_GT(cache_stats.hits + cache_stats.misses, 0u);
}

// ------------------------------------------------ Cluster under a scheduler

TEST(ClusterConcurrency, ConcurrentNodesDropNoStatistics) {
  TempDir dir;
  BackgroundScheduler scheduler(4);
  DatasetOptions options;
  options.name = "tweets";
  options.schema = TweetSchema(ValueDomain(0, 14));
  options.synopsis_type = SynopsisType::kEquiWidthHistogram;
  options.synopsis_budget = 1 << 12;
  options.memtable_max_entries = 200;
  options.scheduler = &scheduler;  // all nodes share one worker pool
  auto cluster_or = Cluster::Start(3, dir.path(), options);
  ASSERT_TRUE(cluster_or.ok()) << cluster_or.status().ToString();
  auto& cluster = *cluster_or;

  DistributionSpec spec;
  spec.num_values = 300;
  spec.total_records = 5000;
  spec.domain = ValueDomain(0, 14);
  auto dist = SyntheticDistribution::Generate(spec);
  TweetGenerator generator(dist, 32, 23);
  uint64_t inserted = 0;
  while (generator.HasNext()) {
    ASSERT_TRUE(cluster->Insert(generator.Next()).ok());
    ++inserted;
  }
  ASSERT_TRUE(cluster->FlushAll().ok());

  uint64_t sent = 0;
  for (size_t n = 0; n < cluster->num_partitions(); ++n) {
    EXPECT_EQ(cluster->node(n)->DroppedStatistics(), 0u);
    sent += cluster->node(n)->messages_sent();
  }
  EXPECT_GT(sent, 0u);
  EXPECT_EQ(cluster->controller().messages_received(), sent);

  auto exact = cluster->CountRange(kTweetMetricField, 0, 16383);
  ASSERT_TRUE(exact.ok());
  EXPECT_EQ(*exact, inserted);
  double estimate = cluster->EstimateRange(kTweetMetricField, 0, 16383);
  EXPECT_GT(estimate, 0.0);
}

}  // namespace
}  // namespace lsmstats
