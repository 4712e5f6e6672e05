// Figure 2: ingestion overhead of statistics collection.
//
// Measures the total time to ingest a tweet-like dataset (a) via bulkload,
// which builds one component per index bottom-up, and (b) through data
// feeds — a push-based socket feed and a pull-based file feed — which drive
// the full spectrum of LSM lifecycle events (flushes + merges). Each mode
// runs with statistics collection disabled (NoStats) and with each of the
// three synopsis types.
//
// Expected shape (paper §4.2): no significant overhead from any
// statistics-gathering algorithm relative to the NoStats baseline — the
// streaming builders ride along with work the LSM events do anyway.

#include <algorithm>
#include <cinttypes>

#include "bench_common.h"
#include "db/dataset.h"
#include "lsm/merge_policy.h"
#include "lsm/scheduler.h"
#include "workload/feed.h"
#include "workload/tweets.h"

namespace lsmstats::bench {
namespace {

std::vector<SynopsisType> AllModes() {
  return {SynopsisType::kNone, SynopsisType::kEquiWidthHistogram,
          SynopsisType::kEquiHeightHistogram, SynopsisType::kWavelet};
}

// Storage knobs shared by every dataset this binary opens. The defaults
// ("none", no cache, no WAL) reproduce the paper figures bit-for-bit;
// --compression= and --block_cache_mb= measure the ingestion cost of the
// block codec and the shared read cache, and --wal=1 (with
// --wal_sync=none|flush-only|every-record) the durability cost of the
// write-ahead log, on top.
struct StorageConfig {
  std::string compression = "none";
  uint64_t block_cache_mb = 0;
  int wal = -1;  // -1 = unset (default: off), 0 = off, 1 = on
  std::string wal_sync;
  // --merge_policy=nomerge|constant|prefix|tiered|leveled|partitioned
  // swaps the compaction policy every dataset runs under; empty keeps the
  // paper-mode Tiered default.
  std::string merge_policy;
};

std::unique_ptr<Dataset> OpenDataset(const std::string& dir,
                                     const ValueDomain& domain,
                                     SynopsisType type, size_t budget,
                                     uint64_t memtable_entries,
                                     SynopsisSink* sink,
                                     const StorageConfig& storage,
                                     BackgroundScheduler* scheduler = nullptr) {
  DatasetOptions options;
  options.directory = dir;
  options.name = "tweets";
  options.schema = TweetSchema(domain);
  options.synopsis_type = type;
  options.synopsis_budget = budget;
  options.memtable_max_entries = memtable_entries;
  if (storage.merge_policy.empty()) {
    options.merge_policy = std::make_shared<TieredMergePolicy>();
  } else {
    options.merge_policy = MakeMergePolicyByName(storage.merge_policy);
    LSMSTATS_CHECK(options.merge_policy != nullptr);  // unknown policy name
  }
  options.sink = type == SynopsisType::kNone ? nullptr : sink;
  options.scheduler = scheduler;
  options.compression = storage.compression;
  options.block_cache_mb = storage.block_cache_mb;
  if (storage.wal >= 0) options.wal = storage.wal != 0;
  if (!storage.wal_sync.empty()) {
    auto sync_mode = WalSyncModeFromString(storage.wal_sync);
    LSMSTATS_CHECK_OK(sync_mode.status());
    options.wal_sync_mode = *sync_mode;
  }
  auto dataset = Dataset::Open(std::move(options));
  LSMSTATS_CHECK_OK(dataset.status());
  return std::move(dataset).value();
}

void Run(const Flags& flags) {
  const uint64_t records = flags.GetU64("records", 30000);
  const size_t payload = flags.GetU64("payload", 1000);
  const size_t budget = flags.GetU64("budget", 256);
  const uint64_t memtable_entries = flags.GetU64("memtable", 4096);
  const std::string mode = flags.GetString("mode", "all");
  StorageConfig storage;
  storage.compression = flags.GetString("compression", "none");
  storage.block_cache_mb = flags.GetU64("block_cache_mb", 0);
  storage.wal = static_cast<int>(
      flags.GetU64("wal", static_cast<uint64_t>(-1)));
  storage.wal_sync = flags.GetString("wal_sync", "");
  storage.merge_policy = flags.GetString("merge_policy", "");
  const ValueDomain domain(0, 16);

  DistributionSpec spec;
  spec.spread = SpreadDistribution::kZipfRandom;
  spec.frequency = FrequencyDistribution::kZipf;
  spec.num_values = 2000;
  spec.total_records = records;
  spec.domain = domain;
  auto dist = SyntheticDistribution::Generate(spec);

  std::printf("Figure 2: ingestion time (records=%" PRIu64
              ", ~%zu B payloads, %zu-element synopses)\n",
              records, payload, budget);
  if (storage.compression != "none" || storage.block_cache_mb > 0 ||
      storage.wal >= 0) {
    std::printf("storage: compression=%s block_cache=%" PRIu64
                "MiB wal=%s sync=%s\n",
                storage.compression.c_str(),
                storage.block_cache_mb,
                storage.wal > 0 ? "on" : "off",
                storage.wal_sync.empty() ? "flush-only"
                                         : storage.wal_sync.c_str());
  }
  if (!storage.merge_policy.empty()) {
    std::printf("merge policy: %s\n", storage.merge_policy.c_str());
  }

  auto make_records = [&]() {
    TweetGenerator generator(dist, payload, 7);
    std::vector<Record> result;
    result.reserve(records);
    while (generator.HasNext()) result.push_back(generator.Next());
    return result;
  };
  std::vector<Record> base_records = make_records();

  // Untimed warm-up so the first measured configuration does not absorb
  // cold page-cache and allocator costs.
  {
    StatisticsCatalog catalog;
    LocalCatalogSink sink(&catalog);
    ScopedTempDir dir;
    auto dataset = OpenDataset(dir.path(), domain, SynopsisType::kNone,
                               budget, memtable_entries, &sink, storage);
    std::vector<Record> warmup = base_records;
    LSMSTATS_CHECK_OK(dataset->Load(std::move(warmup)));
  }

  // On-disk component bytes — what the --compression= codec shrinks. The
  // secondary index (pure <SK, PK> keys) is reported separately because the
  // delta codec compresses keys only; the primary's ~1 KB opaque payloads
  // stay verbatim and dominate the total.
  auto tree_bytes = [](const LsmTree* tree) {
    uint64_t total = 0;
    for (const auto& meta : tree->ComponentsMetadata()) {
      total += meta.file_size;
    }
    return total;
  };

  if (mode == "all" || mode == "bulkload") {
    PrintHeader("Fig 2a: bulkload ingestion",
                {"Synopsis", "seconds", "us/record", "disk_MB", "sk_KB",
                 "cache_hit%"});
    for (SynopsisType type : AllModes()) {
      StatisticsCatalog catalog;
      LocalCatalogSink sink(&catalog);
      ScopedTempDir dir;
      auto dataset = OpenDataset(dir.path(), domain, type, budget,
                                 memtable_entries, &sink, storage);
      std::vector<Record> sorted = base_records;  // already pk-ascending
      WallTimer timer;
      LSMSTATS_CHECK_OK(dataset->Load(std::move(sorted)));
      double seconds = timer.ElapsedSeconds();
      PrintCell(SynopsisTypeToString(type));
      PrintCell(seconds);
      PrintCell(seconds * 1e6 / static_cast<double>(records));
      uint64_t sk_bytes = 0;
      if (LsmTree* index = dataset->secondary(kTweetMetricField)) {
        sk_bytes = tree_bytes(index);
      }
      PrintCell(static_cast<double>(tree_bytes(dataset->primary()) +
                                    sk_bytes) /
                (1 << 20));
      PrintCell(static_cast<double>(sk_bytes) / (1 << 10));
      if (dataset->block_cache() != nullptr) {
        // Read-back phase (point lookups over half the key space, twice) so
        // the shared cache reports a steady-state hit rate.
        for (int pass = 0; pass < 2; ++pass) {
          for (uint64_t pk = 0; pk < records; pk += 2) {
            auto record = dataset->Get(static_cast<int64_t>(pk));
            LSMSTATS_CHECK_OK(record.status());
          }
        }
        BlockCache::Stats stats = dataset->block_cache()->GetStats();
        PrintCell(100.0 * static_cast<double>(stats.hits) /
                  static_cast<double>(stats.hits + stats.misses));
      } else {
        PrintCell("-");
      }
      EndRow();
    }
  }

  if (mode == "all" || mode == "feed") {
    PrintHeader("Fig 2b: feed ingestion",
                {"Synopsis", "socket_sec", "file_sec", "us/rec_socket",
                 "us/rec_file"});
    for (SynopsisType type : AllModes()) {
      double socket_seconds = 0;
      double file_seconds = 0;
      {
        StatisticsCatalog catalog;
        LocalCatalogSink sink(&catalog);
        ScopedTempDir dir;
        auto dataset = OpenDataset(dir.path(), domain, type, budget,
                                   memtable_entries, &sink, storage);
        auto feed = SocketFeed::Start(base_records,
                                      base_records[0].fields.size());
        LSMSTATS_CHECK_OK(feed.status());
        WallTimer timer;
        FeedOp op;
        while ((*feed)->Next(&op)) {
          LSMSTATS_CHECK_OK(dataset->Insert(op.record));
        }
        LSMSTATS_CHECK_OK(dataset->Flush());
        socket_seconds = timer.ElapsedSeconds();
        LSMSTATS_CHECK_OK((*feed)->status());
      }
      {
        StatisticsCatalog catalog;
        LocalCatalogSink sink(&catalog);
        ScopedTempDir dir;
        auto dataset = OpenDataset(dir.path(), domain, type, budget,
                                   memtable_entries, &sink, storage);
        auto feed = FileFeed::Create(dir.path() + "/feed.dat", base_records,
                                     base_records[0].fields.size());
        LSMSTATS_CHECK_OK(feed.status());
        WallTimer timer;
        FeedOp op;
        while ((*feed)->Next(&op)) {
          LSMSTATS_CHECK_OK(dataset->Insert(op.record));
        }
        LSMSTATS_CHECK_OK(dataset->Flush());
        file_seconds = timer.ElapsedSeconds();
      }
      PrintCell(SynopsisTypeToString(type));
      PrintCell(socket_seconds);
      PrintCell(file_seconds);
      PrintCell(socket_seconds * 1e6 / static_cast<double>(records));
      PrintCell(file_seconds * 1e6 / static_cast<double>(records));
      EndRow();
    }
  }

  // Adaptive memory arbiter vs static splits of one fixed budget, over a
  // phased workload: phase 1 is ingest-heavy (write buffers are the scarce
  // resource), phase 2 is query-heavy point reads over a hot key subset (the
  // block cache is). A static split is tuned for one phase and pays for it
  // in the other; the arbiter re-splits live as utility signals shift.
  // `--total_mb=` sets the budget, `--passes=` the number of phase-2 sweeps.
  if (mode == "memory") {
    const uint64_t total_mb = std::max<uint64_t>(flags.GetU64("total_mb", 8),
                                                 2);
    const uint64_t total_bytes = total_mb << 20;
    const size_t passes = flags.GetU64("passes", 6);
    // Hot subset: small enough that a read-leaning split caches it, big
    // enough that a write-leaning split cannot.
    const uint64_t hot_keys = std::max<uint64_t>(records / 8, 1);

    PrintHeader("adaptive memory arbiter vs static splits (" +
                    std::to_string(total_mb) + " MiB total, " +
                    std::to_string(passes) + " query passes over " +
                    std::to_string(hot_keys) + " hot keys)",
                {"config", "ingest_sec", "query_sec", "total_sec",
                 "cache_hit%"});

    // memtable_frac picks the static split; < 0 runs the arbiter instead.
    auto run_config = [&](const char* label, double memtable_frac) {
      StatisticsCatalog catalog;
      LocalCatalogSink sink(&catalog);
      ScopedTempDir dir;
      DatasetOptions options;
      options.directory = dir.path();
      options.name = "tweets";
      options.schema = TweetSchema(domain);
      options.synopsis_type = SynopsisType::kEquiWidthHistogram;
      options.synopsis_budget = budget;
      options.sink = &sink;
      options.merge_policy = std::make_shared<TieredMergePolicy>();
      if (memtable_frac < 0) {
        options.total_memory_mb = total_mb;
        // Seed cache size is irrelevant — the first rebalance overrides it.
        options.block_cache_mb = std::max<uint64_t>(total_mb / 4, 1);
        // The byte grant governs rotation; disable the entry bound.
        options.memtable_max_entries = records + 1;
      } else {
        const auto memtable_bytes =
            static_cast<uint64_t>(static_cast<double>(total_bytes) *
                                  memtable_frac);
        options.block_cache_mb =
            std::max<uint64_t>((total_bytes - memtable_bytes) >> 20, 1);
        // Static byte split expressed through the entry bound (records are
        // payload + ~64 B of keys/overhead each).
        options.memtable_max_entries =
            std::max<uint64_t>(memtable_bytes / (payload + 64), 64);
      }
      auto dataset = Dataset::Open(std::move(options));
      LSMSTATS_CHECK_OK(dataset.status());

      WallTimer ingest_timer;
      for (const Record& record : base_records) {
        LSMSTATS_CHECK_OK((*dataset)->Insert(record));
      }
      LSMSTATS_CHECK_OK((*dataset)->Flush());
      const double ingest_sec = ingest_timer.ElapsedSeconds();
      if (const MemoryArbiter* arbiter = (*dataset)->memory_arbiter()) {
        std::printf("    # grants after ingest:");
        for (const MemoryArbiter::GrantInfo& info : arbiter->Snapshot()) {
          std::printf(" %s=%.2fMiB", info.name.c_str(),
                      static_cast<double>(info.granted) / (1 << 20));
        }
        std::printf("\n");
      }

      WallTimer query_timer;
      for (size_t pass = 0; pass < passes; ++pass) {
        for (uint64_t pk = 0; pk < hot_keys; ++pk) {
          LSMSTATS_CHECK_OK(
              (*dataset)->Get(static_cast<int64_t>(pk)).status());
        }
      }
      const double query_sec = query_timer.ElapsedSeconds();

      PrintCell(label);
      PrintCell(ingest_sec);
      PrintCell(query_sec);
      PrintCell(ingest_sec + query_sec);
      BlockCache::Stats stats = (*dataset)->block_cache()->GetStats();
      PrintCell(100.0 * static_cast<double>(stats.hits) /
                static_cast<double>(std::max<uint64_t>(
                    stats.hits + stats.misses, 1)));
      EndRow();
      if (const MemoryArbiter* arbiter = (*dataset)->memory_arbiter()) {
        std::printf("    # grants after run (%llu rebalances):",
                    static_cast<unsigned long long>(arbiter->rebalances()));
        for (const MemoryArbiter::GrantInfo& info : arbiter->Snapshot()) {
          std::printf(" %s=%.2fMiB/use %.2fMiB", info.name.c_str(),
                      static_cast<double>(info.granted) / (1 << 20),
                      static_cast<double>(info.usage) / (1 << 20));
        }
        std::printf("\n");
      }
    };
    run_config("arbiter", -1.0);
    run_config("static 75/25 (write)", 0.75);
    run_config("static 50/50 (even)", 0.50);
    run_config("static 25/75 (read)", 0.25);
  }

  // Concurrent ingestion: the same insert stream with LSM maintenance
  // (flush + merge) moved onto a background worker pool, against the
  // synchronous baseline where every full memtable stalls the writer.
  // `accept_sec` is the writer-visible time — when the last Insert returned
  // and the feed could disconnect; flushes still draining are finished in
  // `drain_sec`. The accept speedup is the throughput gain a producer sees.
  // Not part of "all" so the paper-figure modes stay single-threaded.
  if (mode == "concurrent") {
    const size_t threads = flags.GetU64("threads", 4);
    PrintHeader("Fig 2c: concurrent ingestion (background flush/merge, " +
                    std::to_string(threads) + " workers)",
                {"Synopsis", "sync_sec", "accept_sec", "drain_sec",
                 "accept_speedup"});
    struct IngestTimes {
      double accept = 0;
      double total = 0;
    };
    auto ingest = [&](SynopsisType type, BackgroundScheduler* scheduler) {
      StatisticsCatalog catalog;
      LocalCatalogSink sink(&catalog);
      ScopedTempDir dir;
      auto dataset = OpenDataset(dir.path(), domain, type, budget,
                                 memtable_entries, &sink, storage, scheduler);
      IngestTimes times;
      WallTimer timer;
      for (const Record& record : base_records) {
        LSMSTATS_CHECK_OK(dataset->Insert(record));
      }
      times.accept = timer.ElapsedSeconds();
      LSMSTATS_CHECK_OK(dataset->Flush());
      LSMSTATS_CHECK_OK(dataset->WaitForBackgroundWork());
      times.total = timer.ElapsedSeconds();
      return times;
    };
    for (SynopsisType type : AllModes()) {
      IngestTimes sync_times = ingest(type, nullptr);
      BackgroundScheduler scheduler(threads);
      IngestTimes conc_times = ingest(type, &scheduler);
      PrintCell(SynopsisTypeToString(type));
      PrintCell(sync_times.total);
      PrintCell(conc_times.accept);
      PrintCell(conc_times.total - conc_times.accept);
      PrintCell(sync_times.total / conc_times.accept);
      EndRow();
    }
  }
}

}  // namespace
}  // namespace lsmstats::bench

int main(int argc, char** argv) {
  lsmstats::bench::Run(lsmstats::bench::Flags(argc, argv));
  return 0;
}
