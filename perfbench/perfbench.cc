// perfbench: the repository benchmark of the lsmstats engine.
//
// Runs one named workload against the public Dataset / CardinalityEstimator
// API from a single process and prints, as the last line of standard output,
// one JSON object {"correct", "attempted", "failed", "metrics"}. With
// --trace 0 the metrics are the end-to-end ones; with --trace 1 they are the
// per-layer ones, taken from spans recorded around every public call and from
// an LsmEventListener on the dataset's trees (see trace.h). README.md in this
// directory documents the workloads, the metrics and their steadiness.
//
// A run repeats a round: generate the round's inputs from (seed, round) and
// build the starting state, run the round's operations in a closed loop with
// one client (timed, ending with Flush and WaitForBackgroundWork), measure
// accuracy and space, then close and reopen. Rounds repeat until --seconds of
// timed work is done; round 0 is an unrecorded warm-up. Every answer is
// checked against an oracle kept by the benchmark, outside the timed call.
//
//   perfbench --workload ingest|ingest_bg|read|churn --seed N --seconds S
//             --trace 0|1 [--data-dir DIR] [--trace-out FILE] [--scale X]
//             [--git-sha SHA]

#include <sys/statfs.h>
#include <unistd.h>

#include <algorithm>
#include <cinttypes>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <deque>
#include <filesystem>
#include <fstream>
#include <map>
#include <memory>
#include <string>
#include <vector>

#include "common/crc32c.h"
#include "db/dataset.h"
#include "lsm/bloom_filter.h"
#include "lsm/disk_component.h"
#include "lsm/format/block.h"
#include "lsm/format/block_cache.h"
#include "lsm/format/compression.h"
#include "lsm/memtable.h"
#include "lsm/merge_policy.h"
#include "lsm/scheduler.h"
#include "lsm/wal.h"
#include "stats/cardinality_estimator.h"
#include "stats/statistics_catalog.h"
#include "stats/statistics_collector.h"
#include "synopsis/builder.h"
#include "trace.h"
#include "workload/distribution.h"
#include "workload/query_workload.h"
#include "workload/tweets.h"

#ifndef PERFBENCH_BUILD_TYPE
#define PERFBENCH_BUILD_TYPE "unknown"
#endif

namespace perfbench {
namespace {

namespace fs = std::filesystem;
using lsmstats::Dataset;
using lsmstats::Record;
using lsmstats::Status;

constexpr size_t kPayloadBytes = 1000;
constexpr size_t kEstimateBatch = 256;
constexpr size_t kSynopsisBudget = 256;
constexpr int kDomainLog = 16;  // metric values lie in [0, 65536)
const char* const kField = "metric";  // lsmstats::kTweetMetricField

// ------------------------------------------------------------------ args

struct Args {
  std::string workload;
  uint64_t seed = 1;
  double seconds = 10;
  bool trace = false;
  double scale = 1.0;
  std::string data_dir = ".bench_build/perfbench-data";
  std::string trace_out;
  std::string git_sha = "unknown";
};

bool ParseArgs(int argc, char** argv, Args* args) {
  for (int i = 1; i + 1 < argc; i += 2) {
    const std::string key = argv[i];
    const std::string value = argv[i + 1];
    if (key == "--workload") {
      args->workload = value;
    } else if (key == "--seed") {
      args->seed = std::strtoull(value.c_str(), nullptr, 10);
    } else if (key == "--seconds") {
      args->seconds = std::strtod(value.c_str(), nullptr);
    } else if (key == "--trace") {
      args->trace = value == "1";
    } else if (key == "--scale") {
      args->scale = std::strtod(value.c_str(), nullptr);
    } else if (key == "--data-dir") {
      args->data_dir = value;
    } else if (key == "--trace-out") {
      args->trace_out = value;
    } else if (key == "--git-sha") {
      args->git_sha = value;
    } else {
      std::fprintf(stderr, "perfbench: unknown flag %s\n", key.c_str());
      return false;
    }
  }
  return (argc % 2) == 1 && !args->workload.empty() && args->seconds > 0 &&
         args->scale > 0;
}

// ------------------------------------------------------------ workloads

enum class Kind { kIngest, kRead, kChurn };

struct WorkloadSpec {
  Kind kind = Kind::kIngest;
  uint64_t base_records = 0;  // bulkloaded (read, churn) or inserted (ingest)
  uint64_t timed_ops = 0;     // read, churn: operations in the timed loop
  uint64_t memtable_entries = 0;
  uint64_t block_cache_mb = 0;
  lsmstats::SynopsisType synopsis = lsmstats::SynopsisType::kNone;
  std::shared_ptr<lsmstats::MergePolicy> merge_policy;
  bool wal = false;
  size_t workers = 0;  // 0 = flush and merge inline on the writer
};

size_t BackgroundWorkers() {
  const long cpus = ::sysconf(_SC_NPROCESSORS_ONLN);
  return static_cast<size_t>(std::clamp<long>(cpus - 1, 1, 3));
}

bool MakeSpec(const std::string& name, double scale, WorkloadSpec* spec) {
  auto scaled = [scale](uint64_t n) {
    return std::max<uint64_t>(64, static_cast<uint64_t>(n * scale));
  };
  if (name == "ingest" || name == "ingest_bg") {
    spec->kind = Kind::kIngest;
    spec->base_records = scaled(40000);
    spec->memtable_entries = 4096;
    spec->block_cache_mb = 8;
    spec->synopsis = lsmstats::SynopsisType::kEquiHeightHistogram;
    spec->merge_policy = std::make_shared<lsmstats::TieredMergePolicy>();
    spec->wal = true;
    spec->workers = name == "ingest_bg" ? BackgroundWorkers() : 0;
  } else if (name == "read") {
    spec->kind = Kind::kRead;
    spec->base_records = scaled(40000);
    spec->timed_ops = scaled(40000);
    spec->memtable_entries = 64 * 1024;
    spec->block_cache_mb = 4;
    spec->synopsis = lsmstats::SynopsisType::kWavelet;
    spec->merge_policy = std::make_shared<lsmstats::TieredMergePolicy>();
    spec->wal = false;
  } else if (name == "churn") {
    spec->kind = Kind::kChurn;
    spec->base_records = scaled(20000);
    spec->timed_ops = scaled(30000);
    spec->memtable_entries = 8192;
    spec->block_cache_mb = 64;
    spec->synopsis = lsmstats::SynopsisType::kWavelet;
    // Level 0 merges into level 1 once it holds more than two components
    // (the bulkloaded one and two flushes), so every round merges.
    lsmstats::LeveledPolicyOptions leveled;
    leveled.level0_limit = 2;
    spec->merge_policy =
        std::make_shared<lsmstats::LeveledMergePolicy>(leveled);
    spec->wal = true;
  } else {
    return false;
  }
  return true;
}

// ---------------------------------------------------------------- oracle

// Exact model of the dataset: live pk -> record, plus a Fenwick tree of
// metric-value counts for exact CountRange answers.
class Oracle {
 public:
  Oracle(size_t pk_capacity, size_t domain_size)
      : by_pk_(pk_capacity, nullptr), tree_(domain_size + 1, 0) {}

  void Reset() {
    std::fill(by_pk_.begin(), by_pk_.end(), nullptr);
    std::fill(tree_.begin(), tree_.end(), 0);
    live_ = 0;
  }

  void Put(const Record* record) {
    const Record*& slot = by_pk_[static_cast<size_t>(record->pk)];
    if (slot != nullptr) {
      Add(slot->fields[0], -1);
    } else {
      ++live_;
    }
    slot = record;
    Add(record->fields[0], +1);
  }

  void Erase(int64_t pk) {
    const Record*& slot = by_pk_[static_cast<size_t>(pk)];
    if (slot == nullptr) return;
    Add(slot->fields[0], -1);
    slot = nullptr;
    --live_;
  }

  const Record* Find(int64_t pk) const {
    return by_pk_[static_cast<size_t>(pk)];
  }

  uint64_t Count(int64_t lo, int64_t hi) const {
    if (hi < lo) return 0;
    return static_cast<uint64_t>(Prefix(hi) - Prefix(lo - 1));
  }

  uint64_t live() const { return live_; }

  // User bytes of the live records: pk, fields and payload.
  uint64_t LogicalBytes() const {
    uint64_t bytes = 0;
    for (const Record* r : by_pk_) {
      if (r != nullptr) bytes += 8 + 8 * r->fields.size() + r->payload.size();
    }
    return bytes;
  }

 private:
  void Add(int64_t value, int64_t delta) {
    for (size_t i = static_cast<size_t>(value) + 1; i < tree_.size();
         i += i & (~i + 1)) {
      tree_[i] += delta;
    }
  }
  int64_t Prefix(int64_t value) const {
    if (value < 0) return 0;
    int64_t sum = 0;
    size_t i = std::min(static_cast<size_t>(value) + 1, tree_.size() - 1);
    for (; i > 0; i -= i & (~i + 1)) sum += tree_[i];
    return sum;
  }

  std::vector<const Record*> by_pk_;
  std::vector<int64_t> tree_;
  uint64_t live_ = 0;
};

// ------------------------------------------------------------ operations

enum class OpType : uint8_t {
  kInsert,
  kUpdate,
  kDelete,
  kGet,
  kCountRange,
  kEstimateBatch,
};

struct Op {
  OpType type = OpType::kGet;
  int64_t pk = 0;
  int64_t lo = 0;  // CountRange bounds; EstimateBatch: first query index
  int64_t hi = 0;
  const Record* record = nullptr;  // Insert / Update
};

// Everything a round needs, generated from the seed and the round number
// before anything of the round is timed. Rounds do the same amount and mix of
// work on fresh draws, so a run's medians average over many inputs.
struct Inputs {
  std::vector<Record> base;      // pk == index
  std::deque<Record> versions;   // records written by Insert/Update ops
  std::vector<Op> warm;          // untimed, before the timed loop
  std::vector<Op> timed;
  std::vector<Op> probe;         // read: the write probe after the loop
  std::vector<lsmstats::RangeQuery> estimate_queries;
  std::vector<lsmstats::RangeQuery> accuracy_queries;
  size_t pk_capacity = 0;
  std::vector<std::string> payload_pool;
};

// A mix of the four query shapes of the paper (§4.1.2).
std::vector<lsmstats::RangeQuery> MixedQueries(
    const lsmstats::ValueDomain& domain, uint64_t seed, size_t per_type) {
  std::vector<std::vector<lsmstats::RangeQuery>> parts;
  for (lsmstats::QueryType type : lsmstats::AllQueryTypes()) {
    parts.push_back(lsmstats::QueryGenerator::Make(type, domain, 128,
                                                   seed + parts.size(),
                                                   per_type));
  }
  std::vector<lsmstats::RangeQuery> out;
  for (size_t i = 0; i < per_type; ++i) {
    for (const auto& part : parts) out.push_back(part[i]);
  }
  return out;
}

// Draws CountRange bounds from the starting data. A short range spans four
// neighbouring distinct values, drawn uniformly among them, so it rarely
// holds one of the few heavy Zipf values; a long range covers 2048 records by
// rank. Either way the range sizes do not swing with the seed.
class RangePicker {
 public:
  RangePicker(const std::vector<Record>& records, uint64_t seed) : rng_(seed) {
    sorted_.reserve(records.size());
    for (const Record& r : records) sorted_.push_back(r.fields[0]);
    std::sort(sorted_.begin(), sorted_.end());
    distinct_ = sorted_;
    distinct_.erase(std::unique(distinct_.begin(), distinct_.end()),
                    distinct_.end());
  }
  Op Short() { return Pick(distinct_, 4); }
  Op Long() { return Pick(sorted_, 2048); }

 private:
  Op Pick(const std::vector<int64_t>& sorted, size_t width) {
    width = std::clamp<size_t>(width, 1,
                               std::max<size_t>(1, sorted.size() / 2));
    const size_t start = rng_.Uniform(sorted.size() - width + 1);
    Op op;
    op.type = OpType::kCountRange;
    op.lo = sorted[start];
    op.hi = sorted[start + width - 1];
    return op;
  }

  std::vector<int64_t> sorted_;    // metric of every starting record
  std::vector<int64_t> distinct_;  // distinct metric values
  lsmstats::Random rng_;
};

void GenerateInputs(const WorkloadSpec& spec, uint64_t seed, Inputs* in) {
  const lsmstats::ValueDomain domain(0, kDomainLog);
  lsmstats::Random rng(seed * 7919 + 17);
  const uint64_t extra_inserts =
      spec.kind == Kind::kChurn ? spec.timed_ops / 10 + 64 : 0;

  lsmstats::DistributionSpec dist_spec;
  dist_spec.spread = lsmstats::SpreadDistribution::kZipfRandom;
  dist_spec.frequency = lsmstats::FrequencyDistribution::kZipf;
  dist_spec.total_records = spec.base_records + extra_inserts;
  dist_spec.num_values =
      std::min<size_t>(2000, dist_spec.total_records / 4);  // small --scale
  dist_spec.domain = domain;
  // The value set (where the distinct values sit) is fixed, so accuracy and
  // range sizes do not swing with it from seed to seed; the seed drives the
  // arrival order, the payloads, and the keys and ranges operations touch.
  dist_spec.seed = 42;
  const auto dist = lsmstats::SyntheticDistribution::Generate(dist_spec);

  lsmstats::TweetGenerator generator(dist, kPayloadBytes, seed * 131 + 7);
  in->base.reserve(spec.base_records);
  while (in->base.size() < spec.base_records) {
    in->base.push_back(generator.Next());
  }
  std::vector<Record> fresh;  // churn inserts, pks after the base records
  while (generator.HasNext()) fresh.push_back(generator.Next());
  in->pk_capacity = dist.total_records();

  for (int i = 0; i < 64; ++i) {
    in->payload_pool.push_back(
        lsmstats::SynthesizeTweetPayload(kPayloadBytes, &rng));
  }
  // New metric values of updates come from a fixed sequence, so the values
  // written are the same for every seed; the seed picks which records move.
  lsmstats::Random value_rng(4242);
  auto new_version = [&](const Record& old) -> const Record* {
    Record r;
    r.pk = old.pk;
    r.fields = {dist.SampleValue(&value_rng), old.fields[1] + 1};
    r.payload = in->payload_pool[rng.Uniform(in->payload_pool.size())];
    in->versions.push_back(std::move(r));
    return &in->versions.back();
  };
  auto get_op = [](int64_t pk) {
    Op op;
    op.type = OpType::kGet;
    op.pk = pk;
    return op;
  };
  auto estimate_op = [&](size_t* cursor) {
    Op op;
    op.type = OpType::kEstimateBatch;
    op.lo = static_cast<int64_t>(*cursor % in->estimate_queries.size());
    *cursor += kEstimateBatch;
    return op;
  };
  // Fixed query sets: estimate cost and accuracy are compared across seeds
  // on the same queries.
  in->estimate_queries = MixedQueries(domain, 997, 1024);
  in->accuracy_queries = MixedQueries(domain, 613, 500);
  RangePicker ranges(in->base, seed * 389 + 11);
  size_t estimate_cursor = 0;
  const auto base_count = static_cast<int64_t>(in->base.size());

  switch (spec.kind) {
    case Kind::kIngest: {
      // Inserts in pk (arrival) order with a sparse read probe. Probe Gets
      // target records older than six memtables, which are on disk whether
      // flushes run inline or on workers (at most four immutable memtables
      // wait), so their latency does not depend on flush timing. Probe
      // CountRanges are long: with short ones the memtable walk was most of
      // the call, and its run-to-run spread (up to 0.29) was the host's.
      const int64_t on_disk_lag = std::min<int64_t>(
          6 * static_cast<int64_t>(spec.memtable_entries), base_count / 2);
      const int64_t estimate_every = std::min<int64_t>(2048, base_count / 4);
      for (int64_t i = 0; i < base_count; ++i) {
        Op insert;
        insert.type = OpType::kInsert;
        insert.pk = i;
        insert.record = &in->base[static_cast<size_t>(i)];
        in->timed.push_back(insert);
        if ((i + 1) % 32 == 0 && i >= on_disk_lag) {
          in->timed.push_back(get_op(rng.UniformInRange(0, i - on_disk_lag)));
        }
        if ((i + 1) % 256 == 0) in->timed.push_back(ranges.Long());
        if ((i + 1) % estimate_every == 0) {
          in->timed.push_back(estimate_op(&estimate_cursor));
        }
      }
      break;
    }
    case Kind::kRead: {
      for (int i = 0; i < 2000; ++i) {
        in->warm.push_back(get_op(rng.UniformInRange(0, base_count - 1)));
      }
      // Cycles of 28 uniform Gets, 2 short and 1 long CountRange, and one
      // estimate batch.
      while (in->timed.size() < spec.timed_ops) {
        for (int slot = 0; slot < 32; ++slot) {
          if (slot < 28) {
            in->timed.push_back(get_op(rng.UniformInRange(0, base_count - 1)));
          } else if (slot < 30) {
            in->timed.push_back(ranges.Short());
          } else if (slot == 30) {
            in->timed.push_back(ranges.Long());
          } else {
            in->timed.push_back(estimate_op(&estimate_cursor));
          }
        }
      }
      // Write probe: updates that move `metric`, after the read loop so the
      // loop itself stays write-free.
      for (int i = 0; i < 1000; ++i) {
        Op update;
        update.type = OpType::kUpdate;
        update.pk = rng.UniformInRange(0, base_count - 1);
        update.record = new_version(in->base[static_cast<size_t>(update.pk)]);
        in->probe.push_back(update);
      }
      break;
    }
    case Kind::kChurn: {
      // Model of the live set, so every generated update/delete hits a live
      // key. Zipf-skewed Gets rank keys by a fixed random permutation.
      std::vector<int64_t> live(in->base.size());
      std::vector<int64_t> position(in->pk_capacity, -1);
      std::vector<const Record*> current(in->pk_capacity, nullptr);
      for (int64_t pk = 0; pk < base_count; ++pk) {
        live[static_cast<size_t>(pk)] = pk;
        position[static_cast<size_t>(pk)] = pk;
        current[static_cast<size_t>(pk)] = &in->base[static_cast<size_t>(pk)];
      }
      std::vector<int64_t> hot(in->pk_capacity);
      for (size_t i = 0; i < hot.size(); ++i) hot[i] = static_cast<int64_t>(i);
      rng.Shuffle(&hot);
      lsmstats::ZipfSampler zipf(hot.size(), 0.99, seed * 1009 + 13);
      auto zipf_live_pk = [&]() {
        size_t rank = zipf.Next();
        while (position[static_cast<size_t>(hot[rank])] < 0) {
          rank = (rank + 1) % hot.size();
        }
        return hot[rank];
      };
      auto erase_live = [&](int64_t pk) {
        const int64_t at = position[static_cast<size_t>(pk)];
        const int64_t moved = live.back();
        live[static_cast<size_t>(at)] = moved;
        position[static_cast<size_t>(moved)] = at;
        live.pop_back();
        position[static_cast<size_t>(pk)] = -1;
        current[static_cast<size_t>(pk)] = nullptr;
      };
      for (int i = 0; i < 2000; ++i) in->warm.push_back(get_op(zipf_live_pk()));
      // Cycles of 20 slots in shuffled order: 8 updates, 2 deletes, 2 inserts,
      // 6 Gets, 1 long CountRange and 1 estimate batch. Short ranges would
      // make the call almost all memtable walk, whose latency swings with
      // the host's memory traffic (count_range_p50_us spread 0.25).
      std::vector<OpType> cycle(20, OpType::kGet);
      std::fill_n(cycle.begin(), 8, OpType::kUpdate);
      std::fill_n(cycle.begin() + 8, 2, OpType::kDelete);
      std::fill_n(cycle.begin() + 10, 2, OpType::kInsert);
      cycle[18] = OpType::kCountRange;
      cycle[19] = OpType::kEstimateBatch;
      size_t next_fresh = 0;
      size_t slot = cycle.size();
      while (in->timed.size() < spec.timed_ops) {
        if (slot == cycle.size()) {
          rng.Shuffle(&cycle);
          slot = 0;
        }
        OpType type = cycle[slot++];
        if (type == OpType::kInsert && next_fresh == fresh.size()) {
          type = OpType::kGet;
        }
        Op op;
        if (type == OpType::kUpdate) {
          op.type = OpType::kUpdate;
          op.pk = live[rng.Uniform(live.size())];
          op.record = new_version(*current[static_cast<size_t>(op.pk)]);
          current[static_cast<size_t>(op.pk)] = op.record;
        } else if (type == OpType::kDelete) {
          op.type = OpType::kDelete;
          op.pk = live[rng.Uniform(live.size())];
          erase_live(op.pk);
        } else if (type == OpType::kInsert) {
          in->versions.push_back(fresh[next_fresh++]);
          op.type = OpType::kInsert;
          op.record = &in->versions.back();
          op.pk = op.record->pk;
          position[static_cast<size_t>(op.pk)] =
              static_cast<int64_t>(live.size());
          live.push_back(op.pk);
          current[static_cast<size_t>(op.pk)] = op.record;
        } else if (type == OpType::kGet) {
          op = get_op(zipf_live_pk());
        } else if (type == OpType::kCountRange) {
          op = ranges.Long();
        } else {
          op = estimate_op(&estimate_cursor);
        }
        in->timed.push_back(op);
      }
      break;
    }
  }
}

// ----------------------------------------------------------- measurements

double Percentile(std::vector<double> v, double p) {
  if (v.empty()) return 0;
  std::sort(v.begin(), v.end());
  const double rank = p * static_cast<double>(v.size() - 1);
  const auto lo = static_cast<size_t>(std::floor(rank));
  const size_t hi = std::min(lo + 1, v.size() - 1);
  return v[lo] + (v[hi] - v[lo]) * (rank - static_cast<double>(lo));
}

double Median(const std::vector<double>& v) { return Percentile(v, 0.5); }

double Mean(const std::vector<double>& v) {
  if (v.empty()) return 0;
  double sum = 0;
  for (double x : v) sum += x;
  return sum / static_cast<double>(v.size());
}

uint64_t ProcStatusKb(const char* field) {
  std::ifstream in("/proc/self/status");
  std::string line;
  const size_t len = std::strlen(field);
  while (std::getline(in, line)) {
    if (line.compare(0, len, field) == 0 && line.size() > len &&
        line[len] == ':') {
      return std::strtoull(line.c_str() + len + 1, nullptr, 10);
    }
  }
  return 0;
}

// Resets the VmHWM high-water mark to the current RSS; false if the kernel
// refuses, in which case growth is measured over the earlier peak.
bool ResetPeakRss() {
  std::ofstream out("/proc/self/clear_refs");
  out << "5";
  out.flush();
  return static_cast<bool>(out);
}

std::string FilesystemType(const std::string& path) {
  struct statfs info {};
  if (::statfs(path.c_str(), &info) != 0) return "unknown";
  switch (static_cast<unsigned long>(info.f_type)) {
    case 0xEF53: return "ext4";
    case 0x01021994: return "tmpfs";
    case 0x58465342: return "xfs";
    case 0x9123683E: return "btrfs";
    case 0x794C7630: return "overlayfs";
    default: {
      char buf[32];
      std::snprintf(buf, sizeof(buf), "0x%lx",
                    static_cast<unsigned long>(info.f_type));
      return buf;
    }
  }
}

uint64_t DirectoryBytes(const std::string& dir) {
  uint64_t bytes = 0;
  for (const auto& entry : fs::recursive_directory_iterator(dir)) {
    if (entry.is_regular_file()) bytes += entry.file_size();
  }
  return bytes;
}

// Latency samples (µs) of one round; estimates are per-call means of
// fixed-size batches.
struct Samples {
  std::vector<double> write_us, get_us, count_range_us, estimate_us;
};

// Per-round figures of the recorded rounds, by metric name. Untraced rounds
// fill `round` (end-to-end metrics, reported as medians over rounds); traced
// rounds fill `layer` (reported as means over rounds).
struct Results {
  std::map<std::string, std::vector<double>> round;
  std::map<std::string, std::vector<double>> layer;
  std::map<std::string, size_t> sample_counts;
};

// Per-round counters sampled at the call sites of a traced round.
struct RoundCounters {
  uint64_t count_range_calls = 0;
  uint64_t count_range_results = 0;
  std::vector<double> memtable_entries_at_read;
  std::vector<double> components_at_query;
  uint64_t estimate_calls = 0;
  uint64_t estimates_from_cache = 0;
  uint64_t synopses_probed = 0;
  uint64_t user_bytes_written = 0;
};

// ------------------------------------------------------------------ runner

class Runner {
 public:
  Runner(const Args& args, const WorkloadSpec& spec, const Inputs& inputs)
      : args_(args),
        spec_(spec),
        in_(inputs),
        oracle_(inputs.pk_capacity, size_t{1} << kDomainLog),
        listener_(&tracer_) {
    if (spec.workers > 0) {
      scheduler_ = std::make_unique<lsmstats::BackgroundScheduler>(
          spec.workers);
    }
  }

  // Runs one round on the current inputs, which took `generate_s` to make.
  // `recorded` rounds feed the results; `traced` rounds record spans. Returns false on a fatal error (setup, flush or reopen
  // failed), after counting it as a failed operation; the run then reports
  // what it has with "correct": false.
  bool RunRound(uint32_t round, bool recorded, bool traced, double generate_s,
                Results* out);

  Tracer* tracer() { return &tracer_; }
  double last_timed_s() const { return last_timed_s_; }
  uint64_t attempted() const { return attempted_; }
  uint64_t failed() const { return failed_; }

 private:
  lsmstats::DatasetOptions Options(const std::string& dir,
                                   lsmstats::SynopsisSink* sink) const;
  void RunOps(const std::vector<Op>& ops, Dataset* ds,
              lsmstats::CardinalityEstimator* estimator,
              const lsmstats::StatisticsKey& key, Samples* samples,
              RoundCounters* counters);
  bool Fail(const char* what, const Status& status) {
    ++failed_;
    std::fprintf(stderr, "perfbench: %s: %s\n", what,
                 status.ToString().c_str());
    return false;
  }
  void Mismatch(const char* what, int64_t a, int64_t b) {
    ++failed_;
    if (mismatches_logged_++ < 10) {
      std::fprintf(stderr, "perfbench: %s mismatch (%" PRId64 " vs %" PRId64
                   ")\n", what, a, b);
    }
  }

  const Args& args_;
  const WorkloadSpec& spec_;
  const Inputs& in_;
  Oracle oracle_;
  Tracer tracer_;
  SpanListener listener_;
  std::unique_ptr<lsmstats::BackgroundScheduler> scheduler_;
  uint64_t attempted_ = 0;
  uint64_t failed_ = 0;
  uint64_t mismatches_logged_ = 0;
  double last_timed_s_ = 0;
};

lsmstats::DatasetOptions Runner::Options(const std::string& dir,
                                         lsmstats::SynopsisSink* sink) const {
  lsmstats::DatasetOptions options;
  options.directory = dir;
  options.name = "tweets";
  options.schema = lsmstats::TweetSchema(lsmstats::ValueDomain(0, kDomainLog));
  options.synopsis_type = spec_.synopsis;
  options.synopsis_budget = kSynopsisBudget;
  options.memtable_max_entries = spec_.memtable_entries;
  options.merge_policy = spec_.merge_policy;
  options.scheduler = scheduler_.get();
  options.sink = sink;
  options.compression = "none";
  options.block_cache_mb = spec_.block_cache_mb;
  options.wal = spec_.wal;
  options.wal_sync_mode = lsmstats::WalSyncMode::kFlushOnly;
  return options;
}

bool SameRecord(const Record& a, const Record& b) {
  return a.pk == b.pk && a.fields == b.fields && a.payload == b.payload;
}

void Runner::RunOps(const std::vector<Op>& ops, Dataset* ds,
                    lsmstats::CardinalityEstimator* estimator,
                    const lsmstats::StatisticsKey& key, Samples* samples,
                    RoundCounters* counters) {
  const bool traced = tracer_.enabled();
  lsmstats::LsmTree* index = ds->secondary(kField);
  for (const Op& op : ops) {
    switch (op.type) {
      case OpType::kInsert:
      case OpType::kUpdate:
      case OpType::kDelete: {
        ++attempted_;
        const uint32_t span = tracer_.Begin(SpanKind::kWrite);
        const uint64_t t0 = NowNs();
        Status s = op.type == OpType::kInsert   ? ds->Insert(*op.record)
                   : op.type == OpType::kUpdate ? ds->Update(*op.record)
                                                : ds->Delete(op.pk);
        const uint64_t t1 = NowNs();
        tracer_.End(span);
        if (samples != nullptr) samples->write_us.push_back((t1 - t0) / 1e3);
        if (!s.ok()) {
          Fail("write", s);
          break;
        }
        if (op.type == OpType::kDelete) {
          oracle_.Erase(op.pk);
          counters->user_bytes_written += 8;
        } else {
          oracle_.Put(op.record);
          counters->user_bytes_written += 8 + 8 * op.record->fields.size() +
                                          op.record->payload.size();
        }
        break;
      }
      case OpType::kGet: {
        ++attempted_;
        const uint32_t span = tracer_.Begin(SpanKind::kGet);
        const uint64_t t0 = NowNs();
        auto got = ds->Get(op.pk);
        const uint64_t t1 = NowNs();
        tracer_.End(span);
        if (samples != nullptr) samples->get_us.push_back((t1 - t0) / 1e3);
        const Record* expected = oracle_.Find(op.pk);
        if (expected == nullptr) {
          if (got.ok() ||
              got.status().code() != lsmstats::StatusCode::kNotFound) {
            Mismatch("get of absent pk", op.pk, got.ok() ? 1 : 0);
          }
        } else if (!got.ok()) {
          Fail("get", got.status());
        } else if (!SameRecord(got.value(), *expected)) {
          Mismatch("get record", op.pk, got.value().pk);
        }
        break;
      }
      case OpType::kCountRange: {
        ++attempted_;
        if (traced) {
          counters->memtable_entries_at_read.push_back(
              static_cast<double>(index->MemTableEntryCount()));
        }
        const uint32_t span = tracer_.Begin(SpanKind::kCountRange);
        const uint64_t t0 = NowNs();
        auto count = ds->CountRange(kField, op.lo, op.hi);
        const uint64_t t1 = NowNs();
        tracer_.End(span);
        if (samples != nullptr) {
          samples->count_range_us.push_back((t1 - t0) / 1e3);
        }
        if (!count.ok()) {
          Fail("count_range", count.status());
          break;
        }
        const uint64_t expected = oracle_.Count(op.lo, op.hi);
        if (count.value() != expected) {
          Mismatch("count_range", static_cast<int64_t>(count.value()),
                   static_cast<int64_t>(expected));
        }
        ++counters->count_range_calls;
        counters->count_range_results += count.value();
        break;
      }
      case OpType::kEstimateBatch: {
        attempted_ += kEstimateBatch;
        if (traced) {
          counters->components_at_query.push_back(static_cast<double>(
              ds->primary()->ComponentCount() + index->ComponentCount()));
        }
        lsmstats::CardinalityEstimator::QueryStats stats;
        double sum = 0;
        const auto first = static_cast<size_t>(op.lo);
        const size_t n = in_.estimate_queries.size();
        const uint32_t span = tracer_.Begin(SpanKind::kEstimate);
        const uint64_t t0 = NowNs();
        for (size_t i = 0; i < kEstimateBatch; ++i) {
          const lsmstats::RangeQuery& q = in_.estimate_queries[(first + i) % n];
          if (traced) {
            stats = {};
            sum += estimator->EstimateRangePartition(key, q.lo, q.hi, &stats);
            counters->synopses_probed += stats.synopses_probed;
            counters->estimates_from_cache += stats.served_from_cache ? 1 : 0;
          } else {
            sum += estimator->EstimateRangePartition(key, q.lo, q.hi);
          }
        }
        const uint64_t t1 = NowNs();
        tracer_.End(span);
        counters->estimate_calls += kEstimateBatch;
        if (samples != nullptr) {
          samples->estimate_us.push_back((t1 - t0) / 1e3 / kEstimateBatch);
        }
        if (!std::isfinite(sum) || sum < 0) Mismatch("estimate", 0, 0);
        break;
      }
    }
  }
}

bool Runner::RunRound(uint32_t round, bool recorded, bool traced,
                      double generate_s, Results* out) {
  tracer_.set_enabled(traced);
  tracer_.set_round(round);
  const std::string dir = args_.data_dir + "/" + args_.workload + "-round";
  std::error_code ec;
  fs::remove_all(dir, ec);
  oracle_.Reset();
  RoundCounters counters;
  Samples round_samples;
  Samples* samples = recorded ? &round_samples : nullptr;

  // Declared before the dataset so they outlive it.
  lsmstats::StatisticsCatalog catalog;
  lsmstats::LocalCatalogSink sink(&catalog);
  lsmstats::CardinalityEstimator estimator(&catalog, {});
  const lsmstats::DatasetOptions options = Options(dir, &sink);
  std::vector<Record> bulk;
  if (spec_.kind != Kind::kIngest) bulk = in_.base;

  // --- set-up: generating the inputs (timed by the caller), then opening
  // (and bulkloading) the starting state.
  const uint64_t setup_start = NowNs();
  auto opened = Dataset::Open(options);
  if (!opened.ok()) return Fail("open", opened.status());
  std::unique_ptr<Dataset> ds = std::move(opened).value();
  if (traced) {
    ds->primary()->AddListener(&listener_);
    ds->secondary(kField)->AddListener(&listener_);
  }
  if (!bulk.empty()) {
    Status s = ds->Load(std::move(bulk));
    if (!s.ok()) return Fail("bulkload", s);
  }
  const double setup_s = generate_s + (NowNs() - setup_start) / 1e9;
  if (spec_.kind != Kind::kIngest) {
    for (const Record& r : in_.base) oracle_.Put(&r);
  }
  const lsmstats::StatisticsKey key = ds->StatsKey(kField);

  // --- warm-up, then the timed closed loop including the deferred work.
  RunOps(in_.warm, ds.get(), &estimator, key, nullptr, &counters);
  const uint64_t timed_start = NowNs();
  RunOps(in_.timed, ds.get(), &estimator, key, samples, &counters);
  uint32_t span = tracer_.Begin(SpanKind::kFlushCall);
  Status s = ds->Flush();
  tracer_.End(span);
  if (!s.ok()) return Fail("flush", s);
  span = tracer_.Begin(SpanKind::kDrain);
  s = ds->WaitForBackgroundWork();
  tracer_.End(span);
  if (!s.ok()) return Fail("drain", s);
  const uint64_t timed_end = NowNs();
  uint64_t timed_ops = 0;
  for (const Op& op : in_.timed) {
    timed_ops += op.type == OpType::kEstimateBatch ? kEstimateBatch : 1;
  }
  const double timed_s = (timed_end - timed_start) / 1e9;
  last_timed_s_ = timed_s;
  const double ops_per_s = static_cast<double>(timed_ops) / timed_s;

  // --- write probe (read only), then accuracy and space on a flushed state.
  if (!in_.probe.empty()) {
    RunOps(in_.probe, ds.get(), &estimator, key, samples, &counters);
    s = ds->Flush();
    if (!s.ok()) return Fail("flush", s);
  }
  const double l1_error = lsmstats::NormalizedL1Error(
      in_.accuracy_queries,
      [&](const lsmstats::RangeQuery& q) {
        return estimator.EstimateRangePartition(key, q.lo, q.hi);
      },
      [&](const lsmstats::RangeQuery& q) { return oracle_.Count(q.lo, q.hi); },
      std::max<uint64_t>(1, oracle_.live()));
  const double space_amp = static_cast<double>(DirectoryBytes(dir)) /
                           static_cast<double>(oracle_.LogicalBytes());

  // Layer counters read before the dataset closes.
  const lsmstats::DatasetHealth health = ds->Health();
  const uint64_t wal_records = ds->WalRecordsLogged();
  const uint64_t wal_syncs = ds->WalSyncCount();
  const uint64_t bloom_bytes = ds->primary()->TotalBloomBytes() +
                               ds->secondary(kField)->TotalBloomBytes();
  const lsmstats::BlockCache::Stats cache =
      ds->block_cache() != nullptr ? ds->block_cache()->GetStats()
                                   : lsmstats::BlockCache::Stats{};

  // --- reopen: close, Open, first Get.
  ds.reset();
  int64_t probe_pk = 0;
  while (oracle_.Find(probe_pk) == nullptr) ++probe_pk;
  span = tracer_.Begin(SpanKind::kReopen);
  const uint64_t reopen_start = NowNs();
  auto reopened = Dataset::Open(options);
  if (!reopened.ok()) return Fail("reopen", reopened.status());
  ds = std::move(reopened).value();
  auto first = ds->Get(probe_pk);
  const double reopen_s = (NowNs() - reopen_start) / 1e9;
  tracer_.End(span);
  ++attempted_;
  if (!first.ok()) return Fail("get after reopen", first.status());
  if (!SameRecord(first.value(), *oracle_.Find(probe_pk))) {
    Mismatch("get after reopen", probe_pk, first.value().pk);
  }
  ++attempted_;
  auto count_all = ds->CountAll();
  if (!count_all.ok()) return Fail("count after reopen", count_all.status());
  if (count_all.value() != oracle_.live()) {
    Mismatch("count after reopen", static_cast<int64_t>(count_all.value()),
             static_cast<int64_t>(oracle_.live()));
  }
  ds.reset();
  fs::remove_all(dir, ec);

  std::fprintf(stderr,
               "round %u%s%s: setup %.3fs timed %.3fs ops/s %.0f reopen %.3fs"
               " l1 %.3g space %.3f\n",
               round, recorded ? "" : " (warm-up)", traced ? " traced" : "",
               setup_s, timed_s, ops_per_s, reopen_s, l1_error, space_amp);
  if (!recorded) return true;
  if (!traced) {
    // Percentiles are taken per round and reported as the median over
    // rounds, so a stretch of host noise moves one round, not the result.
    auto& R = out->round;
    R["setup_s"].push_back(setup_s);
    R["ops_per_s"].push_back(ops_per_s);
    R["write_p50_us"].push_back(Percentile(round_samples.write_us, 0.50));
    R["write_p95_us"].push_back(Percentile(round_samples.write_us, 0.95));
    R["get_p50_us"].push_back(Percentile(round_samples.get_us, 0.50));
    R["get_p95_us"].push_back(Percentile(round_samples.get_us, 0.95));
    R["count_range_p50_us"].push_back(
        Percentile(round_samples.count_range_us, 0.50));
    R["count_range_p95_us"].push_back(
        Percentile(round_samples.count_range_us, 0.95));
    R["estimate_us"].push_back(Median(round_samples.estimate_us));
    R["estimate_l1_error"].push_back(l1_error);
    R["reopen_s"].push_back(reopen_s);
    R["space_amp"].push_back(space_amp);
    out->sample_counts["write"] += round_samples.write_us.size();
    out->sample_counts["get"] += round_samples.get_us.size();
    out->sample_counts["count_range"] += round_samples.count_range_us.size();
    out->sample_counts["estimate_batch"] += round_samples.estimate_us.size();
    out->sample_counts["round"] += 1;
    return true;
  }

  // --- per-layer figures of this traced round, from its spans.
  const std::vector<Span> spans = tracer_.Spans();
  std::vector<uint64_t> child_ns(spans.size() + 1, 0);
  for (const Span& sp : spans) {
    if (sp.round == round && sp.parent != 0 && sp.end_ns != 0) {
      child_ns[sp.parent] += sp.end_ns - sp.start_ns;
    }
  }
  std::map<SpanKind, double> total_s, self_s, count;
  uint64_t flush_entries = 0, component_bytes = 0;
  double background_s = 0;
  uint64_t span_count = 0;
  for (size_t i = 0; i < spans.size(); ++i) {
    const Span& sp = spans[i];
    if (sp.round != round || sp.end_ns == 0) continue;
    ++span_count;
    const uint64_t dur = sp.end_ns - sp.start_ns;
    total_s[sp.kind] += dur / 1e9;
    self_s[sp.kind] += (dur - std::min(dur, child_ns[i + 1])) / 1e9;
    count[sp.kind] += 1;
    if (sp.kind == SpanKind::kLsmFlush) flush_entries += sp.entries;
    if (sp.kind == SpanKind::kLsmFlush || sp.kind == SpanKind::kLsmMerge) {
      component_bytes += sp.bytes;
      if (sp.start_ns >= timed_start && sp.start_ns <= timed_end) {
        background_s += dur / 1e9;
      }
    }
  }
  uint64_t merges = 0, merge_read = 0, merge_written = 0;
  for (const auto& [name, tree] : health.trees) {
    merges += tree.merges_completed;
    merge_read += tree.merge_bytes_read;
    merge_written += tree.merge_bytes_written;
  }
  auto& L = out->layer;
  auto ratio = [](double num, double den) { return den > 0 ? num / den : 0.0; };
  L["db.write.self_s"].push_back(self_s[SpanKind::kWrite]);
  L["db.write.stall_s"].push_back(total_s[SpanKind::kWrite] -
                                  self_s[SpanKind::kWrite]);
  L["db.get.s"].push_back(total_s[SpanKind::kGet]);
  L["db.count_range.s"].push_back(total_s[SpanKind::kCountRange]);
  L["db.count_range.results_per_call"].push_back(
      ratio(counters.count_range_results, counters.count_range_calls));
  L["lsm.tree.flush.s"].push_back(total_s[SpanKind::kLsmFlush]);
  L["lsm.tree.flush.count"].push_back(count[SpanKind::kLsmFlush]);
  L["lsm.tree.flush.entries"].push_back(flush_entries);
  L["lsm.tree.merge.s"].push_back(total_s[SpanKind::kLsmMerge]);
  L["lsm.tree.merge.count"].push_back(merges);
  L["lsm.tree.merge.bytes_read"].push_back(merge_read);
  L["lsm.tree.merge.bytes_written"].push_back(merge_written);
  L["lsm.tree.write_amp"].push_back(
      ratio(component_bytes, counters.user_bytes_written));
  L["lsm.tree.bulkload.s"].push_back(total_s[SpanKind::kLsmBulkload]);
  L["lsm.tree.components"].push_back(Mean(counters.components_at_query));
  L["lsm.scheduler.drain_s"].push_back(total_s[SpanKind::kDrain]);
  L["lsm.scheduler.overlap"].push_back(background_s / timed_s);
  L["lsm.wal.records"].push_back(wal_records);
  L["lsm.wal.syncs_per_record"].push_back(ratio(wal_syncs, wal_records));
  L["lsm.memtable.entries_at_read"].push_back(
      Mean(counters.memtable_entries_at_read));
  L["lsm.format.block_cache.hit_ratio"].push_back(
      ratio(cache.hits, cache.hits + cache.misses));
  L["lsm.format.block_cache.hits"].push_back(cache.hits);
  L["lsm.format.block_cache.misses"].push_back(cache.misses);
  L["lsm.format.block_cache.evictions"].push_back(cache.evictions);
  L["lsm.bloom.bytes"].push_back(bloom_bytes);
  L["stats.estimator.self_s"].push_back(self_s[SpanKind::kEstimate]);
  L["stats.estimator.cache_hit_ratio"].push_back(
      ratio(counters.estimates_from_cache, counters.estimate_calls));
  L["stats.estimator.synopses_probed_per_call"].push_back(
      ratio(counters.synopses_probed, counters.estimate_calls));
  L["trace.spans"].push_back(span_count);
  L["traced_ops_per_s"].push_back(ops_per_s);
  return true;
}

// ---------------------------------------------------------------- replays

// Replays single layers on the workload's own records, outside any tree, and
// returns the median of `reps` timings of `fn` in nanoseconds.
template <typename Fn>
double MedianNs(int reps, Fn&& fn) {
  std::vector<double> ns;
  for (int i = 0; i < reps; ++i) {
    const uint64_t t0 = NowNs();
    fn();
    ns.push_back(static_cast<double>(NowNs() - t0));
  }
  return Median(ns);
}

void RunLayerReplays(const WorkloadSpec& spec, const Inputs& in,
                     std::map<std::string, double>* out) {
  constexpr int kReps = 5;
  const size_t n = std::min<size_t>(in.base.size(), 4096);
  std::vector<lsmstats::LsmKey> keys;
  std::vector<std::string> values;
  std::vector<std::string> entry_bytes;
  std::vector<int64_t> metrics;
  uint64_t raw_bytes = 0;
  for (size_t i = 0; i < n; ++i) {
    const Record& r = in.base[i];
    lsmstats::Encoder enc;
    lsmstats::EncodeRecordValue(r, &enc);
    keys.push_back(lsmstats::PrimaryKey(r.pk));
    values.push_back(enc.Release());
    lsmstats::Entry entry;
    entry.key = keys.back();
    entry.value = values.back();
    lsmstats::Encoder entry_enc;
    lsmstats::EncodeEntry(entry, &entry_enc);
    entry_bytes.push_back(entry_enc.Release());
    raw_bytes += entry_bytes.back().size();
    metrics.push_back(r.fields[0]);
  }
  std::sort(metrics.begin(), metrics.end());
  const double kib = raw_bytes / 1024.0;
  uint64_t sink = 0;  // keeps replayed results observable

  // common.crc32c: 4 KiB buffers cut from the encoded entries.
  std::string joined;
  for (const auto& e : entry_bytes) joined += e;
  const size_t chunks = joined.size() / 4096;
  (*out)["common.crc32c.ns_per_kib"] =
      MedianNs(kReps, [&] {
        for (size_t c = 0; c < chunks; ++c) {
          sink += lsmstats::crc32c::Extend(0, joined.data() + c * 4096, 4096);
        }
      }) / (chunks * 4.0);

  // lsm.wal: one single-record frame per record.
  std::string frames;
  frames.reserve(raw_bytes + n * 32);
  (*out)["lsm.wal.frame_ns"] =
      MedianNs(kReps, [&] {
        frames.clear();
        for (size_t i = 0; i < n; ++i) {
          lsmstats::EncodeWalRecordFrame(lsmstats::WalOp::kPut, keys[i],
                                         values[i], &frames);
        }
        sink += frames.size();
      }) / n;

  // lsm.memtable: Put of every record into a fresh memtable (the value copy
  // included, as on the write path).
  (*out)["lsm.memtable.put_ns"] =
      MedianNs(kReps, [&] {
        lsmstats::MemTable memtable;
        for (size_t i = 0; i < n; ++i) memtable.Put(keys[i], values[i], true);
        sink += memtable.EntryCount();
      }) / n;

  // lsm.format: seal 4 KiB blocks, then decode them again.
  std::vector<std::string> blocks;
  const lsmstats::CompressionCodec* codec = lsmstats::CodecByName("none");
  (*out)["lsm.format.block.seal_ns_per_kib"] =
      MedianNs(kReps, [&] {
        blocks.clear();
        lsmstats::BlockBuilder builder(codec, 4096);
        for (const auto& e : entry_bytes) {
          builder.Add(e);
          if (builder.Full()) blocks.push_back(builder.Seal());
        }
        if (!builder.empty()) blocks.push_back(builder.Seal());
      }) / kib;
  bool decode_ok = true;
  (*out)["lsm.format.block.decode_ns_per_kib"] =
      MedianNs(kReps, [&] {
        std::string raw;
        for (const auto& block : blocks) {
          decode_ok &= lsmstats::DecodeBlock(block, "replay", &raw).ok();
          sink += raw.size();
        }
      }) / kib;

  // lsm.bloom: add every key, then probe present and absent keys.
  lsmstats::BloomFilter bloom(n, 10);
  (*out)["lsm.bloom.add_ns"] =
      MedianNs(kReps, [&] {
        lsmstats::BloomFilter fresh(n, 10);
        for (const auto& k : keys) fresh.Add(k);
        bloom = fresh;
      }) / n;
  (*out)["lsm.bloom.probe_ns"] =
      MedianNs(kReps, [&] {
        for (const auto& k : keys) {
          sink += bloom.MayContain(k) ? 1 : 0;
          sink += bloom.MayContain(lsmstats::PrimaryKey(k.k0 + (1 << 30)))
                      ? 1 : 0;
        }
      }) / (2.0 * n);

  // synopsis: the workload's builder over the sorted flush stream.
  const lsmstats::SynopsisConfig config{spec.synopsis, kSynopsisBudget,
                                        lsmstats::ValueDomain(0, kDomainLog)};
  (*out)["synopsis.build_ns_per_entry"] =
      MedianNs(kReps, [&] {
        auto builder = lsmstats::CreateSynopsisBuilder(config, n);
        for (int64_t v : metrics) builder->Add(v);
        sink += builder->Finish() != nullptr ? 1 : 0;
      }) / n;

  if (!decode_ok || sink == 0) (*out)["replay_failed"] = 1;
}

// ------------------------------------------------------------------ output

struct MetricDef {
  const char* name;
  const char* unit;
};

const std::vector<MetricDef>& EndToEndMetrics() {
  static const auto* kMetrics = new std::vector<MetricDef>{
      {"setup_s", "s"},
      {"ops_per_s", "1/s"},
      {"write_p50_us", "us"},
      {"write_p95_us", "us"},
      {"get_p50_us", "us"},
      {"get_p95_us", "us"},
      {"count_range_p50_us", "us"},
      {"count_range_p95_us", "us"},
      {"estimate_us", "us"},
      {"estimate_l1_error", "ratio"},
      {"reopen_s", "s"},
      {"space_amp", "ratio"},
      {"peak_rss_mb", "MB"},
  };
  return *kMetrics;
}

const std::vector<MetricDef>& LayerMetrics() {
  static const auto* kMetrics = new std::vector<MetricDef>{
      {"db.write.self_s", "s"},
      {"db.write.stall_s", "s"},
      {"db.get.s", "s"},
      {"db.count_range.s", "s"},
      {"db.count_range.results_per_call", "count"},
      {"lsm.tree.flush.s", "s"},
      {"lsm.tree.flush.count", "count"},
      {"lsm.tree.flush.entries", "count"},
      {"lsm.tree.merge.s", "s"},
      {"lsm.tree.merge.count", "count"},
      {"lsm.tree.merge.bytes_read", "B"},
      {"lsm.tree.merge.bytes_written", "B"},
      {"lsm.tree.write_amp", "ratio"},
      {"lsm.tree.bulkload.s", "s"},
      {"lsm.tree.components", "count"},
      {"lsm.scheduler.drain_s", "s"},
      {"lsm.scheduler.overlap", "ratio"},
      {"lsm.wal.records", "count"},
      {"lsm.wal.syncs_per_record", "ratio"},
      {"lsm.wal.frame_ns", "ns"},
      {"lsm.memtable.put_ns", "ns"},
      {"lsm.memtable.entries_at_read", "count"},
      {"lsm.format.block.seal_ns_per_kib", "ns/KiB"},
      {"lsm.format.block.decode_ns_per_kib", "ns/KiB"},
      {"lsm.format.block_cache.hit_ratio", "ratio"},
      {"lsm.format.block_cache.hits", "count"},
      {"lsm.format.block_cache.misses", "count"},
      {"lsm.format.block_cache.evictions", "count"},
      {"common.crc32c.ns_per_kib", "ns/KiB"},
      {"lsm.bloom.bytes", "B"},
      {"lsm.bloom.add_ns", "ns"},
      {"lsm.bloom.probe_ns", "ns"},
      {"synopsis.build_ns_per_entry", "ns"},
      {"stats.estimator.self_s", "s"},
      {"stats.estimator.cache_hit_ratio", "ratio"},
      {"stats.estimator.synopses_probed_per_call", "count"},
      {"trace.spans", "count"},
      {"trace.overhead_ops_per_s", "1/s"},
      {"trace.overhead_share", "ratio"},
  };
  return *kMetrics;
}

void PrintResult(bool correct, uint64_t attempted, uint64_t failed,
                 const std::vector<MetricDef>& defs,
                 const std::map<std::string, double>& values) {
  std::string json = "{\"correct\": ";
  json += correct ? "true" : "false";
  json += ", \"attempted\": " + std::to_string(attempted);
  json += ", \"failed\": " + std::to_string(failed);
  json += ", \"metrics\": {";
  for (size_t i = 0; i < defs.size(); ++i) {
    auto it = values.find(defs[i].name);
    double v = it == values.end() ? 0.0 : it->second;
    if (!std::isfinite(v)) v = 0.0;
    char buf[64];
    std::snprintf(buf, sizeof(buf), "%.17g", v);
    json += i == 0 ? "" : ", ";
    json += "\"" + std::string(defs[i].name) + "\": {\"value\": " + buf +
            ", \"unit\": \"" + defs[i].unit + "\"}";
  }
  json += "}}";
  std::printf("%s\n", json.c_str());
  std::fflush(stdout);
}

int Main(int argc, char** argv) {
  Args args;
  WorkloadSpec spec;
  if (!ParseArgs(argc, argv, &args) ||
      !MakeSpec(args.workload, args.scale, &spec)) {
    std::fprintf(stderr,
                 "usage: perfbench --workload ingest|ingest_bg|read|churn "
                 "--seed N --seconds S --trace 0|1 [--data-dir DIR] "
                 "[--trace-out FILE] [--scale X] [--git-sha SHA]\n");
    return 2;
  }
  std::error_code ec;
  fs::create_directories(args.data_dir, ec);
  if (ec) {
    std::fprintf(stderr, "perfbench: cannot create %s\n",
                 args.data_dir.c_str());
    return 2;
  }
  const uint64_t run_start = NowNs();

  // Each round draws fresh inputs from (seed, round); generating them is
  // part of the round's set-up.
  Inputs inputs;
  auto generate = [&](uint32_t round) {
    inputs = Inputs{};
    const uint64_t t0 = NowNs();
    GenerateInputs(spec, args.seed * 1000003 + round, &inputs);
    return (NowNs() - t0) / 1e9;
  };
  double generate_s = generate(0);
  const bool peak_reset = ResetPeakRss();
  const uint64_t rss_base_kb =
      peak_reset ? ProcStatusKb("VmRSS") : ProcStatusKb("VmHWM");

  std::printf("# host nproc=%ld sse4_2=%d pclmulqdq=%d build=%s git=%s "
              "data_fs=%s workers=%zu peak_reset=%d\n",
              ::sysconf(_SC_NPROCESSORS_ONLN),
              __builtin_cpu_supports("sse4.2") ? 1 : 0,
              __builtin_cpu_supports("pclmul") ? 1 : 0, PERFBENCH_BUILD_TYPE,
              args.git_sha.c_str(), FilesystemType(args.data_dir).c_str(),
              spec.workers, peak_reset ? 1 : 0);
  std::fflush(stdout);

  Runner runner(args, spec, inputs);
  Results results;
  bool ok = runner.RunRound(0, /*recorded=*/false, /*traced=*/false,
                            generate_s, &results);
  // Recorded rounds until --seconds of timed work; a trace run alternates
  // untraced and traced rounds so it can report the tracing overhead.
  const size_t min_rounds = args.trace ? 4 : 3;
  const double deadline_s = 150;
  double timed_total = 0;
  for (uint32_t round = 1; ok; ++round) {
    const bool traced = args.trace && round % 2 == 0;
    generate_s = generate(round);
    ok = runner.RunRound(round, /*recorded=*/true, traced, generate_s,
                         &results);
    timed_total += runner.last_timed_s();
    const bool enough = round >= min_rounds && timed_total >= args.seconds;
    if (enough || (NowNs() - run_start) / 1e9 > deadline_s) break;
  }
  if (!ok) {
    std::fprintf(stderr, "perfbench: run stopped after a fatal error\n");
  }
  const double peak_rss_mb =
      (static_cast<double>(ProcStatusKb("VmHWM")) -
       static_cast<double>(rss_base_kb)) / 1024.0;

  std::map<std::string, double> values;
  bool correct = ok && runner.failed() == 0;
  if (!args.trace) {
    for (const auto& [name, per_round] : results.round) {
      values[name] = Median(per_round);
    }
    values["peak_rss_mb"] = peak_rss_mb;
    std::printf("# samples");
    for (const auto& [name, n] : results.sample_counts) {
      std::printf(" %s=%zu", name.c_str(), n);
    }
    std::printf("\n");
    PrintResult(correct, runner.attempted(), runner.failed(),
                EndToEndMetrics(), values);
    return 0;
  }

  for (const auto& [name, per_round] : results.layer) {
    values[name] = Mean(per_round);
  }
  const double untraced = Median(results.round["ops_per_s"]);
  const double traced = Median(results.layer["traced_ops_per_s"]);
  values["trace.overhead_ops_per_s"] = untraced - traced;
  values["trace.overhead_share"] = untraced > 0 ? (untraced - traced) / untraced
                                                : 0;
  RunLayerReplays(spec, inputs, &values);
  if (values.count("replay_failed") != 0) correct = false;
  if (!args.trace_out.empty() && !runner.tracer()->WriteCsv(args.trace_out)) {
    std::fprintf(stderr, "perfbench: cannot write %s\n",
                 args.trace_out.c_str());
  }
  PrintResult(correct, runner.attempted(), runner.failed(), LayerMetrics(),
              values);
  return 0;
}

}  // namespace
}  // namespace perfbench

int main(int argc, char** argv) { return perfbench::Main(argc, argv); }
