// Microbenchmarks (google-benchmark): per-operation costs of the building
// blocks on the ingestion critical path and the query optimization path.
//
// The paper's central overhead claim (§4.2) is that synopsis construction is
// cheap enough to ride on LSM events; these benchmarks show the per-record
// builder cost next to the per-record LSM write cost, and the per-query
// estimation cost next to it all.

#include <benchmark/benchmark.h>

#include <cstdlib>
#include <filesystem>

#include "common/coding.h"
#include "common/env.h"
#include "common/error_taxonomy.h"
#include "common/mutex.h"
#include "common/random.h"
#include "db/dataset.h"
#include "lsm/disk_component.h"
#include "lsm/format/block.h"
#include "lsm/format/block_cache.h"
#include "lsm/format/compression.h"
#include "lsm/lsm_tree.h"
#include "lsm/memtable.h"
#include "lsm/merge_cursor.h"
#include "lsm/wal.h"
#include "lsm/write_batch.h"
#include "stats/cardinality_estimator.h"
#include "stats/statistics_collector.h"
#include "synopsis/builder.h"
#include "synopsis/wavelet.h"
#include "workload/distribution.h"

namespace lsmstats {
namespace {

const ValueDomain kDomain(0, 20);

std::vector<int64_t> SortedValues(size_t n,
                                  const ValueDomain& domain = kDomain) {
  DistributionSpec spec;
  spec.spread = SpreadDistribution::kZipfRandom;
  spec.frequency = FrequencyDistribution::kZipf;
  spec.num_values = n / 20 + 1;
  spec.total_records = n;
  spec.domain = domain;
  auto dist = SyntheticDistribution::Generate(spec);
  std::vector<int64_t> values = dist.ExpandShuffled(3);
  std::sort(values.begin(), values.end());
  return values;
}

// ----------------------------------------------------- synopsis builders

void BM_SynopsisBuild(benchmark::State& state, SynopsisType type) {
  const size_t n = 100000;
  std::vector<int64_t> values = SortedValues(n);
  for (auto _ : state) {
    SynopsisConfig config{type, 256, kDomain};
    auto builder = CreateSynopsisBuilder(config, n);
    for (int64_t v : values) builder->Add(v);
    benchmark::DoNotOptimize(builder->Finish());
  }
  state.SetItemsProcessed(static_cast<int64_t>(state.iterations() * n));
}

BENCHMARK_CAPTURE(BM_SynopsisBuild, EquiWidth,
                  SynopsisType::kEquiWidthHistogram);
BENCHMARK_CAPTURE(BM_SynopsisBuild, EquiHeight,
                  SynopsisType::kEquiHeightHistogram);
BENCHMARK_CAPTURE(BM_SynopsisBuild, Wavelet, SynopsisType::kWavelet);
BENCHMARK_CAPTURE(BM_SynopsisBuild, GKQuantile, SynopsisType::kGKQuantile);

// ---------------------------------------------------------------- mutex

// The annotated Mutex wraps std::mutex and, in release builds (this bench
// runs under the default RelWithDebInfo preset, where the lock-rank checker
// is compiled out), must cost exactly an uncontended std::mutex lock/unlock.
// A regression here means the checker leaked into the shipped Lock/Unlock —
// the CI `nm` guard catches the symbols, this catches the cycles.
void BM_MutexLockUnlock(benchmark::State& state) {
  Mutex mu(LockRank::kLeaf, "bench_micro");
  for (auto _ : state) {
    MutexLock lock(&mu);
    benchmark::ClobberMemory();
  }
  state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_MutexLockUnlock);

// ------------------------------------------------------------- memtable

void BM_MemTablePut(benchmark::State& state) {
  Random rng(5);
  auto memtable = std::make_unique<MemTable>();
  int64_t pk = 0;
  for (auto _ : state) {
    memtable->Put(SecondaryKey(static_cast<int64_t>(rng.Uniform(1 << 20)),
                               pk++),
                  "", true);
    if (memtable->EntryCount() >= 1 << 16) {
      state.PauseTiming();
      memtable = std::make_unique<MemTable>();
      state.ResumeTiming();
    }
  }
  state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_MemTablePut);

// A CountRange's copy of the mutable memtable: 8192 random secondary keys,
// each insert followed by a live 1 KB allocation (the way a primary tree's
// values land between a memtable's nodes), then a key snapshot of about 850
// of them. `time_per_entry` is the cost per copied entry.
void BM_MemTableRangeSnapshot(benchmark::State& state) {
  constexpr int64_t kSkDomain = 1 << 20;
  constexpr int kKeys = 8192;
  Random rng(5);
  MemTable memtable;
  std::vector<std::string> interleaved;
  interleaved.reserve(kKeys);
  for (int64_t pk = 0; pk < kKeys; ++pk) {
    memtable.Put(SecondaryKey(static_cast<int64_t>(rng.Uniform(kSkDomain)),
                              pk),
                 "", true);
    interleaved.emplace_back(1024, 'v');
  }
  const LsmKey lo = SecondaryKey(0, 0);
  const LsmKey hi = SecondaryKey(kSkDomain * 850 / kKeys, kKeys);
  const size_t copied = memtable.NewSnapshotKeyCursor(lo, hi)->NextRun().size();
  for (auto _ : state) {
    benchmark::DoNotOptimize(memtable.NewSnapshotKeyCursor(lo, hi));
  }
  state.counters["entries"] = static_cast<double>(copied);
  state.counters["time_per_entry"] = benchmark::Counter(
      static_cast<double>(copied),
      benchmark::Counter::kIsIterationInvariantRate |
          benchmark::Counter::kInvert);
}
BENCHMARK(BM_MemTableRangeSnapshot);

// ------------------------------------------------------------- lsm write

void BM_LsmPutWithStats(benchmark::State& state, SynopsisType type) {
  char tmpl[] = "/tmp/lsmstats_micro_XXXXXX";
  std::string dir = ::mkdtemp(tmpl);
  StatisticsCatalog catalog;
  LocalCatalogSink sink(&catalog);
  LsmTreeOptions options;
  options.directory = dir;
  options.memtable_max_entries = 1 << 14;
  auto tree_or = LsmTree::Open(options);
  auto tree = std::move(tree_or).value();
  StatisticsCollector collector({"micro", "f", 0},
                                SynopsisConfig{type, 256, kDomain}, &sink);
  tree->AddListener(&collector);
  Random rng(5);
  int64_t pk = 0;
  for (auto _ : state) {
    benchmark::DoNotOptimize(
        tree->Put(SecondaryKey(static_cast<int64_t>(rng.Uniform(1 << 20)),
                               pk++),
                  "", true));
  }
  state.SetItemsProcessed(state.iterations());
  std::filesystem::remove_all(dir);
}
BENCHMARK_CAPTURE(BM_LsmPutWithStats, NoStats, SynopsisType::kNone);
BENCHMARK_CAPTURE(BM_LsmPutWithStats, Wavelet, SynopsisType::kWavelet);

// -------------------------------------------------------------- estimate

// `components` synopses of `type` over `domain`; with `anti_matter` each
// component also carries an anti-matter twin summarizing every 8th of its
// values, as a component holding deletes does.
void BM_Estimate(benchmark::State& state, SynopsisType type, bool enable_cache,
                 const ValueDomain& domain = kDomain, size_t components = 16,
                 bool anti_matter = false) {
  const size_t n = 100000;
  std::vector<int64_t> values = SortedValues(n, domain);
  StatisticsCatalog catalog;
  StatisticsKey key{"micro", "f", 0};
  size_t chunk = values.size() / components;
  auto build = [&](const std::vector<int64_t>& sorted) {
    SynopsisConfig config{type, 256, domain};
    auto builder = CreateSynopsisBuilder(config, sorted.size());
    for (int64_t v : sorted) builder->Add(v);
    return std::shared_ptr<const Synopsis>(builder->Finish().release());
  };
  for (size_t c = 0; c < components; ++c) {
    std::vector<int64_t> slice(values.begin() + c * chunk,
                               values.begin() + (c + 1) * chunk);
    std::sort(slice.begin(), slice.end());
    SynopsisEntry entry;
    entry.component_id = c + 1;
    entry.timestamp = c + 1;
    entry.synopsis = build(slice);
    if (anti_matter) {
      std::vector<int64_t> deleted;
      for (size_t i = 0; i < slice.size(); i += 8) deleted.push_back(slice[i]);
      entry.anti_synopsis = build(deleted);
    }
    catalog.Register(key, std::move(entry), {});
  }
  CardinalityEstimator::Options options;
  options.enable_merged_cache = enable_cache;
  CardinalityEstimator estimator(&catalog, options);
  estimator.EstimateRangePartition(key, 0, 1);  // warm the cache
  Random rng(9);
  const uint64_t span = domain.MaxPosition() + 1 - 128;
  for (auto _ : state) {
    int64_t lo = domain.ValueAt(rng.Uniform(span));
    benchmark::DoNotOptimize(
        estimator.EstimateRangePartition(key, lo, lo + 127));
  }
  state.SetItemsProcessed(state.iterations());
}
BENCHMARK_CAPTURE(BM_Estimate, EquiWidth_separate,
                  SynopsisType::kEquiWidthHistogram, false);
BENCHMARK_CAPTURE(BM_Estimate, EquiWidth_cached,
                  SynopsisType::kEquiWidthHistogram, true);
BENCHMARK_CAPTURE(BM_Estimate, EquiHeight_separate,
                  SynopsisType::kEquiHeightHistogram, false);
BENCHMARK_CAPTURE(BM_Estimate, Wavelet_separate, SynopsisType::kWavelet,
                  false);
BENCHMARK_CAPTURE(BM_Estimate, Wavelet_cached, SynopsisType::kWavelet, true);
// perfbench's shape: a 2^16 domain, three components with anti-matter.
BENCHMARK_CAPTURE(BM_Estimate, Wavelet_d16_anti_separate,
                  SynopsisType::kWavelet, false, ValueDomain(0, 16), 3, true);
BENCHMARK_CAPTURE(BM_Estimate, Wavelet_d16_anti_cached, SynopsisType::kWavelet,
                  true, ValueDomain(0, 16), 3, true);

// ----------------------------------------------------------- block layer

// One block's worth of sorted secondary-index entry bytes.
std::string BlockPayload(size_t target_bytes) {
  Encoder enc;
  int64_t pk = 0;
  while (enc.size() < target_bytes) {
    Entry entry;
    entry.key = SecondaryKey(pk / 3, pk);
    ++pk;
    EncodeEntry(entry, &enc);
  }
  return std::string(enc.buffer());
}

void BM_BlockEncode(benchmark::State& state, const char* codec_name) {
  const CompressionCodec* codec = CodecByName(codec_name);
  std::string payload = BlockPayload(4096);
  for (auto _ : state) {
    BlockBuilder builder(codec, 4096);
    builder.Add(payload);
    benchmark::DoNotOptimize(builder.Seal());
  }
  state.SetBytesProcessed(
      static_cast<int64_t>(state.iterations() * payload.size()));
}
BENCHMARK_CAPTURE(BM_BlockEncode, None, "none");
BENCHMARK_CAPTURE(BM_BlockEncode, Delta, "delta");

void BM_BlockDecode(benchmark::State& state, const char* codec_name) {
  std::string payload = BlockPayload(4096);
  BlockBuilder builder(CodecByName(codec_name), 4096);
  builder.Add(payload);
  std::string stored = builder.Seal();
  std::string raw;
  for (auto _ : state) {
    raw.clear();
    auto status = DecodeBlock(stored, "bench", &raw);
    benchmark::DoNotOptimize(status.ok());
  }
  state.SetBytesProcessed(
      static_cast<int64_t>(state.iterations() * payload.size()));
}
BENCHMARK_CAPTURE(BM_BlockDecode, None, "none");
BENCHMARK_CAPTURE(BM_BlockDecode, Delta, "delta");

// Point lookups against one on-disk component: cold (no cache — every Get
// reads and decodes its block from disk) vs. cached (the working set stays
// in a shared BlockCache).
void BM_ComponentGet(benchmark::State& state, bool cached) {
  char tmpl[] = "/tmp/lsmstats_micro_XXXXXX";
  std::string dir = ::mkdtemp(tmpl);
  const int64_t kEntries = 64 * 1024;
  BlockCache cache(64 << 20);
  DiskComponentReadOptions read_options;
  if (cached) read_options.block_cache = &cache;
  DiskComponentBuilder builder(nullptr, dir + "/c.cmp", kEntries,
                               ComponentWriteOptions{}, read_options);
  for (int64_t k = 0; k < kEntries; ++k) {
    benchmark::DoNotOptimize(
        builder.Add(Entry{SecondaryKey(k, k), "", false}));
  }
  auto component_or = builder.Finish(1, 1);
  auto component = std::move(component_or).value();
  Random rng(13);
  Entry found;
  for (auto _ : state) {
    int64_t k = static_cast<int64_t>(rng.Uniform(kEntries));
    benchmark::DoNotOptimize(component->Get(SecondaryKey(k, k), &found));
  }
  state.SetItemsProcessed(state.iterations());
  component.reset();
  std::filesystem::remove_all(dir);
}
BENCHMARK_CAPTURE(BM_ComponentGet, Cold, false);
BENCHMARK_CAPTURE(BM_ComponentGet, Cached, true);

// `fan_in` components whose blocks all sit in the block cache: 64K
// secondary entries in total. Dealt round-robin, the winning input changes
// at every step, but in a cycle a branch predictor learns; dealt at random
// (seeded), the winner is a coin flip, as on `churn`.
class CachedComponents {
 public:
  static constexpr int64_t kEntries = 64 * 1024;

  CachedComponents(int64_t fan_in, bool random_deal) {
    char tmpl[] = "/tmp/lsmstats_micro_XXXXXX";
    dir_ = ::mkdtemp(tmpl);
    std::vector<int64_t> owner(kEntries);
    Random rng(23);
    for (int64_t k = 0; k < kEntries; ++k) {
      owner[static_cast<size_t>(k)] =
          random_deal ? static_cast<int64_t>(
                            rng.Uniform(static_cast<uint64_t>(fan_in)))
                      : k % fan_in;
    }
    for (int64_t c = 0; c < fan_in; ++c) {
      DiskComponentBuilder builder(nullptr,
                                   dir_ + "/c" + std::to_string(c) + ".cmp",
                                   kEntries / fan_in, ComponentWriteOptions{},
                                   DiskComponentReadOptions{&cache_});
      for (int64_t k = 0; k < kEntries; ++k) {
        if (owner[static_cast<size_t>(k)] != c) continue;
        benchmark::DoNotOptimize(builder.Add(Entry{Key(k), "", false}));
      }
      components_.push_back(std::move(builder.Finish(c + 1, c + 1)).value());
      // Warm the cache: the timed loop never reads the file.
      for (size_t b = 0; b < components_.back()->block_count(); ++b) {
        benchmark::DoNotOptimize(components_.back()->ReadBlock(b).ok());
      }
    }
  }
  ~CachedComponents() {
    components_.clear();
    std::filesystem::remove_all(dir_);
  }

  static LsmKey Key(int64_t k) { return SecondaryKey(k / 8, k); }
  const std::vector<std::shared_ptr<DiskComponent>>& components() const {
    return components_;
  }

 private:
  std::string dir_;
  BlockCache cache_{64 << 20};
  std::vector<std::shared_ptr<DiskComponent>> components_;
};

// A reconciled count over CachedComponents through MergeCursor, one virtual
// Next() per entry per input. Items are entries counted, so the per-item
// cost is comparable across fan-ins; it settles whether a heap would pay.
// Arguments: fan-in, and 1 to deal the keys at random.
void BM_MergeCursorCount(benchmark::State& state) {
  const CachedComponents layout(state.range(0), state.range(1) != 0);
  uint64_t counted = 0;
  for (auto _ : state) {
    std::vector<std::unique_ptr<EntryCursor>> inputs;
    for (const auto& component : layout.components()) {
      inputs.push_back(component->NewCursor());
    }
    MergeCursor merged(std::move(inputs), /*drop_anti_matter=*/true);
    uint64_t count = 0;
    for (; merged.Valid(); merged.Next()) ++count;
    counted += count;
  }
  benchmark::DoNotOptimize(counted);
  state.SetItemsProcessed(static_cast<int64_t>(counted));
}
BENCHMARK(BM_MergeCursorCount)->ArgsProduct({{1, 4, 8, 16}, {0, 1}});

// The same count the way ScanCount runs it: key runs folded through
// two-input merges by CountLiveKeys.
void BM_KeyRunCount(benchmark::State& state) {
  const CachedComponents layout(state.range(0), state.range(1) != 0);
  const LsmKey lo = CachedComponents::Key(0);
  const LsmKey hi = CachedComponents::Key(CachedComponents::kEntries);
  uint64_t counted = 0;
  for (auto _ : state) {
    std::vector<std::unique_ptr<KeyRunCursor>> inputs;
    for (const auto& component : layout.components()) {
      inputs.push_back(component->NewKeyCursor(lo, hi));
    }
    counted += CountLiveKeys(std::move(inputs)).value();
  }
  benchmark::DoNotOptimize(counted);
  state.SetItemsProcessed(static_cast<int64_t>(counted));
}
BENCHMARK(BM_KeyRunCount)->ArgsProduct({{1, 4, 8, 16}, {0, 1}});

// A short count, the shape of `read`'s short CountRanges: 4 keys out of one
// cached component, plus a mutable memtable of 8192 keys above the
// component's, so the range walk finds none of them. It prices the fixed
// cost of a call, through MergeCursor (`key_runs` false) or CountLiveKeys.
void BM_ShortRangeCount(benchmark::State& state, bool key_runs) {
  const CachedComponents layout(1, /*random_deal=*/false);
  const DiskComponent& component = *layout.components()[0];
  MemTable memtable;
  for (int64_t k = 0; k < 8192; ++k) {
    memtable.Put(CachedComponents::Key(CachedComponents::kEntries + k), "v",
                 true);
  }
  Random rng(17);
  uint64_t counted = 0;
  for (auto _ : state) {
    const auto k = static_cast<int64_t>(
        rng.Uniform(CachedComponents::kEntries - 4));
    const LsmKey lo = CachedComponents::Key(k);
    const LsmKey hi = CachedComponents::Key(k + 3);
    if (key_runs) {
      // As in ScanCount, the memtable's empty slice gets no input.
      std::vector<std::unique_ptr<KeyRunCursor>> inputs;
      if (auto keys = memtable.NewSnapshotKeyCursor(lo, hi)) {
        inputs.push_back(std::move(keys));
      }
      inputs.push_back(component.NewKeyCursor(lo, hi));
      counted += CountLiveKeys(std::move(inputs)).value();
    } else {
      std::vector<std::unique_ptr<EntryCursor>> inputs;
      inputs.push_back(memtable.NewSnapshotCursor(lo, hi));
      inputs.push_back(component.NewCursor(lo, hi));
      MergeCursor merged(std::move(inputs), /*drop_anti_matter=*/true);
      for (; merged.Valid(); merged.Next()) ++counted;
    }
  }
  if (counted != static_cast<uint64_t>(4 * state.iterations())) {
    state.SkipWithError("wrong count");
  }
}
BENCHMARK_CAPTURE(BM_ShortRangeCount, MergeCursor, false);
BENCHMARK_CAPTURE(BM_ShortRangeCount, KeyRuns, true);

// ------------------------------------------------------------------- wal

void BM_WalFrameEncodeSingle(benchmark::State& state) {
  std::string value(100, 'x');
  std::string out;
  int64_t pk = 0;
  for (auto _ : state) {
    out.clear();
    EncodeWalRecordFrame(WalOp::kPut, PrimaryKey(pk++), value, &out);
    benchmark::DoNotOptimize(out.data());
  }
  state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_WalFrameEncodeSingle);

// One batch frame covering `range(0)` records: a single length/CRC header
// and one CRC pass over the whole payload, vs. one per record above.
void BM_WalFrameEncodeBatch(benchmark::State& state) {
  const size_t n = static_cast<size_t>(state.range(0));
  std::string value(100, 'x');
  WriteBatch batch;
  for (size_t i = 0; i < n; ++i) {
    batch.Put(PrimaryKey(static_cast<int64_t>(i)), value, true);
  }
  std::string out;
  for (auto _ : state) {
    out.clear();
    EncodeWalBatchFrame(batch, &out);
    benchmark::DoNotOptimize(out.data());
  }
  state.SetItemsProcessed(static_cast<int64_t>(state.iterations() * n));
}
BENCHMARK(BM_WalFrameEncodeBatch)->Arg(16)->Arg(256);

// Acked-durable Dataset::Insert at the dataset's one writer under
// every-record sync: each insert writes its frame and fsyncs inline before
// it returns. Prefers tmpfs (/dev/shm) so the fsync is nearly free and the
// commit path's own cost isn't buried under device latency; the fixed
// iteration count keeps the memtable from rotating mid-run.
void BM_WalUncontendedPut(benchmark::State& state) {
  std::string tmpl_str =
      (std::filesystem::is_directory("/dev/shm") ? "/dev/shm" : "/tmp") +
      std::string("/lsmstats_micro_XXXXXX");
  std::vector<char> tmpl(tmpl_str.begin(), tmpl_str.end());
  tmpl.push_back('\0');
  std::string dir = ::mkdtemp(tmpl.data());
  FieldDef field;  // not indexed: the insert lands in the primary only
  field.name = "value";
  DatasetOptions options;
  options.directory = dir;
  options.schema = Schema({field});
  options.memtable_max_entries = 1 << 20;
  options.wal = true;
  options.wal_sync_mode = WalSyncMode::kEveryRecord;
  auto dataset = std::move(Dataset::Open(std::move(options))).value();
  Record record;
  record.fields = {0};
  record.payload = std::string(100, 'x');
  for (auto _ : state) {
    benchmark::DoNotOptimize(dataset->Insert(record));
    ++record.pk;
  }
  state.SetItemsProcessed(state.iterations());
  dataset.reset();
  std::filesystem::remove_all(dir);
}
BENCHMARK(BM_WalUncontendedPut)->Iterations(1 << 15);

// --------------------------------------------------- wavelet reconstruct

void BM_WaveletPointReconstruction(benchmark::State& state) {
  std::vector<int64_t> values = SortedValues(100000);
  SynopsisConfig config{SynopsisType::kWavelet, 256, kDomain};
  auto builder = CreateSynopsisBuilder(config, values.size());
  for (int64_t v : values) builder->Add(v);
  auto synopsis = builder->Finish();
  auto* wavelet = static_cast<WaveletSynopsis*>(synopsis.get());
  Random rng(9);
  for (auto _ : state) {
    benchmark::DoNotOptimize(
        wavelet->ReconstructPoint(rng.Uniform(1ULL << 20)));
  }
  state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_WaveletPointReconstruction);

// ------------------------------------------------------ error handling

// The free-space watchdog runs one probe per flush/merge/WAL-segment
// creation; this prices that statvfs call so the "degrade before writing"
// check is visibly cheap next to the component build it guards.
void BM_FreeSpaceProbe(benchmark::State& state) {
  Env* env = Env::Default();
  for (auto _ : state) {
    benchmark::DoNotOptimize(env->GetFreeSpace("/tmp"));
  }
  state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_FreeSpaceProbe);

// Severity classification sits on every background-error path (and on each
// inline retry decision); it should cost a branch, not a lookup.
void BM_ClassifySeverity(benchmark::State& state) {
  const Status statuses[4] = {
      Status::OK(), Status::IOError("enospc"), Status::Corruption("crc"),
      Status::Internal("bug")};
  size_t i = 0;
  for (auto _ : state) {
    benchmark::DoNotOptimize(ClassifySeverity(statuses[i++ & 3]));
  }
  state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_ClassifySeverity);

}  // namespace
}  // namespace lsmstats

BENCHMARK_MAIN();
