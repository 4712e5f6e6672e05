#include "db/dataset.h"

#include <algorithm>
#include <chrono>
#include <limits>
#include <unordered_set>

#include "common/check.h"
#include "stats/composite_collector.h"
#include "stats/unsorted_field_collector.h"

namespace lsmstats {

namespace {

constexpr char kPrimaryKeyField[] = "_pk";

// The one place a dataset resolves its index trees' options: every index
// shares the directory, merge policy, scheduler, env and storage settings,
// and runs with auto_flush off because the dataset coordinates flushes.
LsmTreeOptions IndexTreeOptions(const DatasetOptions& opts, std::string name) {
  LsmTreeOptions tree_options;
  tree_options.directory = opts.directory;
  tree_options.name = std::move(name);
  tree_options.auto_flush = false;
  tree_options.merge_policy = opts.merge_policy;
  tree_options.scheduler = opts.scheduler;
  tree_options.env = opts.env;
  tree_options.write_options.compression = opts.compression;
  tree_options.block_cache = opts.block_cache.get();
  tree_options.min_free_bytes = opts.min_free_bytes;
  return tree_options;
}

}  // namespace

LsmKey Dataset::IndexTree::KeyOf(const Record& record) const {
  switch (kind) {
    case Kind::kPrimary:
      return PrimaryKey(record.pk);
    case Kind::kSecondary:
      return SecondaryKey(record.fields[field_a], record.pk);
    case Kind::kComposite:
      return CompositeKey(record.fields[field_a], record.fields[field_b],
                          record.pk);
  }
  return LsmKey{};
}

Dataset::Dataset(DatasetOptions options) : options_(std::move(options)) {}

Dataset::~Dataset() {
  // Arbiter rebalances call into the trees; the trees' background jobs call
  // into the collectors (declared after the trees, so destroyed before
  // them by default) and, through the pressure hook, into the arbiter. So:
  // stop the arbiter's rebalances, then destroy the trees — each wakes and
  // waits out its own jobs — while the collectors and the arbiter are still
  // alive.
  if (arbiter_ != nullptr) arbiter_->Shutdown();
  trees_.clear();
}

StatusOr<std::unique_ptr<Dataset>> Dataset::Open(DatasetOptions options) {
  if (options.synopsis_type != SynopsisType::kNone &&
      options.sink == nullptr) {
    return Status::InvalidArgument(
        "DatasetOptions.sink is required when statistics are enabled");
  }
  if (CodecByName(options.compression) == nullptr) {
    return Status::InvalidArgument("unknown compression codec: " +
                                   options.compression);
  }
  if (!options.merge_policy) {
    options.merge_policy = std::make_shared<NoMergePolicy>();
  }
  auto dataset = std::unique_ptr<Dataset>(new Dataset(std::move(options)));
  const DatasetOptions& opts = dataset->options_;

  // One storage configuration shared by every index of the dataset: the same
  // write options, and (when requested) a single block cache so primary,
  // secondary, and composite trees draw on one read-memory budget.
  if (dataset->options_.block_cache == nullptr &&
      dataset->options_.block_cache_mb > 0) {
    dataset->options_.block_cache =
        std::make_shared<BlockCache>(dataset->options_.block_cache_mb << 20);
  }
  dataset->env_ = opts.env != nullptr ? opts.env : Env::Default();

  // The index trees, in tree-id order: the primary, a secondary per indexed
  // field, a composite per composite index (paper §5). Each gets the
  // statistics collectors that summarize its stream.
  auto add_tree = [&](IndexTree::Kind kind, size_t field_a, size_t field_b,
                      const std::string& suffix) -> StatusOr<LsmTree*> {
    auto tree_or = LsmTree::Open(IndexTreeOptions(opts, opts.name + suffix));
    LSMSTATS_RETURN_IF_ERROR(tree_or.status());
    dataset->trees_.push_back(
        IndexTree{kind, field_a, field_b, std::move(tree_or).value()});
    return dataset->trees_.back().tree.get();
  };
  auto attach = [&](LsmTree* tree,
                    std::unique_ptr<LsmEventListener> collector) {
    tree->AddListener(collector.get());
    dataset->collectors_.push_back(std::move(collector));
  };
  const bool stats = opts.synopsis_type != SynopsisType::kNone;
  auto field_collector = [&](const std::string& field,
                             const ValueDomain& domain) {
    SynopsisConfig config;
    config.type = opts.synopsis_type;
    config.budget = opts.synopsis_budget;
    config.domain = domain;
    return std::make_unique<StatisticsCollector>(
        StatisticsKey{opts.name, field, opts.partition}, config, opts.sink);
  };

  auto primary = add_tree(IndexTree::Kind::kPrimary, 0, 0, "_pk");
  LSMSTATS_RETURN_IF_ERROR(primary.status());
  if (stats && opts.collect_primary_key_stats) {
    attach(*primary, field_collector(kPrimaryKeyField,
                                     ValueDomain::ForType(FieldType::kInt64)));
  }
  if (!opts.unsorted_stats_fields.empty()) {
    if (opts.sink == nullptr) {
      return Status::InvalidArgument(
          "unsorted_stats_fields requires DatasetOptions.sink");
    }
    attach(*primary, std::make_unique<UnsortedFieldCollector>(
                         opts.name, &dataset->options_.schema,
                         opts.unsorted_stats_fields, opts.synopsis_budget,
                         opts.sink, opts.partition));
  }
  for (size_t field_index : opts.schema.IndexedFields()) {
    const FieldDef& def = opts.schema.field(field_index);
    auto tree = add_tree(IndexTree::Kind::kSecondary, field_index, 0,
                         "_sk_" + def.name);
    LSMSTATS_RETURN_IF_ERROR(tree.status());
    if (stats) attach(*tree, field_collector(def.name, def.EffectiveDomain()));
  }
  for (const auto& [field_a, field_b] : opts.composite_indexes) {
    auto index_a = opts.schema.FieldIndex(field_a);
    LSMSTATS_RETURN_IF_ERROR(index_a.status());
    auto index_b = opts.schema.FieldIndex(field_b);
    LSMSTATS_RETURN_IF_ERROR(index_b.status());
    auto tree = add_tree(IndexTree::Kind::kComposite, *index_a, *index_b,
                         "_ck_" + field_a + "_" + field_b);
    LSMSTATS_RETURN_IF_ERROR(tree.status());
    if (stats) {
      attach(*tree, std::make_unique<CompositeStatisticsCollector>(
                        dataset->CompositeStatsKey(field_a, field_b),
                        opts.schema.field(*index_a).EffectiveDomain(),
                        opts.schema.field(*index_b).EffectiveDomain(),
                        opts.synopsis_budget, opts.sink));
    }
  }

  {
    // All trees are open, so recovery can demultiplex surviving shared
    // segments by tree id into the right memtables. fresh_insert is not
    // logged, so replay applies puts as non-fresh: always correct, merely
    // pessimistic about anti-matter placement. It runs with the WAL off too,
    // so turning the log off never drops records an earlier run logged.
    Status replay_error;
    auto apply = [&](uint32_t tree_id, WalOp op, const LsmKey& key,
                     std::string_view value) {
      if (!replay_error.ok()) return;
      LsmTree* tree = dataset->TreeById(tree_id);
      if (tree == nullptr) {
        replay_error = Status::Corruption(
            "shared WAL record for unknown tree id " +
            std::to_string(tree_id));
        return;
      }
      Status applied;
      switch (op) {
        case WalOp::kPut:
          applied = tree->Put(key, std::string(value), /*fresh_insert=*/false);
          break;
        case WalOp::kDelete:
          applied = tree->Delete(key);
          break;
        case WalOp::kAntiMatter:
          applied = tree->PutAntiMatter(key);
          break;
      }
      if (!applied.ok()) replay_error = applied;
    };
    auto recovery = RecoverWalSegments(dataset->env_, opts.directory,
                                       opts.name + "_wal", apply);
    LSMSTATS_RETURN_IF_ERROR(recovery.status());
    LSMSTATS_RETURN_IF_ERROR(replay_error);
    // The recovered segments back the records just replayed into the
    // memtables; they stay on disk until those records rotate and flush.
    dataset->wal_recovered_ = std::move(recovery->live_segments);
    dataset->wal_quarantined_ = std::move(recovery->quarantined_files);

    if (opts.wal) {
      WalLogOptions log_options;
      log_options.env = dataset->env_;
      log_options.directory = opts.directory;
      log_options.prefix = opts.name + "_wal";
      log_options.sync_mode = opts.wal_sync_mode;
      log_options.next_sequence = recovery->next_sequence;
      log_options.min_free_bytes = opts.min_free_bytes;
      dataset->wal_ = std::make_unique<WalLog>(std::move(log_options));
    }
  }

  // Global memory budget: when one is configured, stand up the arbiter and
  // register every memory consumer. When none is, the arbiter is never
  // constructed and no override atomic is ever written — every knob keeps
  // its static value bit-identically.
  const uint64_t total_mb = opts.total_memory_mb;
  if (total_mb > 0) {
    std::vector<LsmTree*> trees;
    for (const IndexTree& index : dataset->trees_) {
      trees.push_back(index.tree.get());
    }
    // A 20 ms tick keeps adaptation fast relative to workload phase shifts
    // while the 64-call counter gate keeps the per-operation cost at one
    // relaxed fetch_add.
    dataset->arbiter_ = std::make_unique<MemoryArbiter>(
        total_mb << 20, opts.scheduler, std::chrono::milliseconds(20));
    MemoryArbiter* arbiter = dataset->arbiter_.get();
    for (LsmTree* tree : trees) {
      // Backpressure stalls and free-space trips fire with tree locks held;
      // NotePressure is atomics-only, so the hook is safe there. ~Dataset
      // destroys the trees before the arbiter, so the raw pointer cannot
      // dangle.
      tree->SetPressureCallback([arbiter] { arbiter->NotePressure(); });
    }
    RegisterMemtableBudget(arbiter, trees);
    RegisterBloomBudget(arbiter, trees);
    if (dataset->options_.block_cache != nullptr) {
      RegisterBlockCacheBudget(arbiter, dataset->options_.block_cache.get());
    }
    if (opts.synopsis_type != SynopsisType::kNone) {
      // Synopsis element budget: the byte grant divided by a nominal
      // serialized element size, picked up at the next ANALYZE via
      // EffectiveSynopsisBudget(). Collectors built above keep their static
      // budget until then.
      MemoryArbiter::Registration reg;
      reg.name = "synopses";
      reg.min_bytes = 32 << 10;
      reg.max_bytes = std::max<uint64_t>(32 << 10, (total_mb << 20) / 8);
      // Synopses degrade gracefully to coarser buckets; bid modestly so the
      // hot read/write components win contested bytes.
      reg.utility = [] { return 0.05; };
      Dataset* raw = dataset.get();
      reg.apply = [raw](uint64_t grant) {
        // ~16 bytes per serialized synopsis element (bucket bound + count).
        raw->effective_synopsis_budget_.store(
            static_cast<size_t>(std::max<uint64_t>(grant / 16, 16)),
            std::memory_order_relaxed);
      };
      arbiter->Register(std::move(reg));
    }
    // Initial split so the dataset starts inside the budget instead of at
    // the static defaults.
    arbiter->Rebalance();
  }
  return dataset;
}

const Dataset::IndexTree* Dataset::FindIndex(IndexTree::Kind kind,
                                             const std::string& field_a,
                                             const std::string& field_b) const {
  for (const IndexTree& index : trees_) {
    if (index.kind != kind ||
        options_.schema.field(index.field_a).name != field_a) {
      continue;
    }
    if (kind == IndexTree::Kind::kComposite &&
        options_.schema.field(index.field_b).name != field_b) {
      continue;
    }
    return &index;
  }
  return nullptr;
}

LsmTree* Dataset::secondary(const std::string& field) {
  const IndexTree* index = FindIndex(IndexTree::Kind::kSecondary, field);
  return index != nullptr ? index->tree.get() : nullptr;
}

StatisticsKey Dataset::StatsKey(const std::string& field) const {
  return StatisticsKey{options_.name, field, options_.partition};
}

StatisticsKey Dataset::CompositeStatsKey(const std::string& field_a,
                                         const std::string& field_b) const {
  return StatisticsKey{options_.name, field_a + "+" + field_b,
                       options_.partition};
}

LsmTree* Dataset::composite(const std::string& field_a,
                            const std::string& field_b) {
  const IndexTree* index =
      FindIndex(IndexTree::Kind::kComposite, field_a, field_b);
  return index != nullptr ? index->tree.get() : nullptr;
}

LsmTree* Dataset::TreeById(uint32_t tree_id) {
  return tree_id < trees_.size() ? trees_[tree_id].tree.get() : nullptr;
}

Status Dataset::LogShared(const WriteBatch& batch) {
  // Durability before apply: if we crash between the two, replay re-applies
  // the batch, and an error here leaves the batch unacknowledged and
  // unapplied.
  return wal_ != nullptr ? wal_->AppendBatch(batch) : Status::OK();
}

Status Dataset::ApplyEntry(WriteBatchEntry& entry) {
  LsmTree* tree = TreeById(entry.tree_id);
  if (tree == nullptr) {
    return Status::Internal("write batch entry for unknown tree id " +
                            std::to_string(entry.tree_id));
  }
  switch (entry.op) {
    case WalOp::kPut:
      return tree->Put(entry.key, std::move(entry.value), entry.fresh_insert);
    case WalOp::kDelete:
      return tree->Delete(entry.key);
    case WalOp::kAntiMatter:
      return tree->PutAntiMatter(entry.key);
  }
  return Status::Internal("unknown write batch op");
}

Status Dataset::CommitMutation(WriteBatch batch) {
  LSMSTATS_RETURN_IF_ERROR(CheckWritable());
  LSMSTATS_RETURN_IF_ERROR(LogShared(batch));
  for (WriteBatchEntry& entry : batch.mutable_entries()) {
    LSMSTATS_RETURN_IF_ERROR(ApplyEntry(entry));
  }
  return Status::OK();
}

Status Dataset::SealWal() {
  std::optional<std::string> sealed;
  if (wal_ != nullptr) {
    auto sealed_or = wal_->Seal();
    LSMSTATS_RETURN_IF_ERROR(sealed_or.status());
    sealed = std::move(sealed_or).value();
  }
  // The records replayed from recovered segments rotate out at this same
  // boundary, so those segments graduate to reclaimable alongside the one
  // just sealed.
  wal_sealed_.insert(wal_sealed_.end(), wal_recovered_.begin(),
                     wal_recovered_.end());
  wal_recovered_.clear();
  if (sealed.has_value()) wal_sealed_.push_back(std::move(*sealed));
  return Status::OK();
}

void Dataset::RecordRotatedWal() {
  if (wal_sealed_.empty()) return;
  RotatedSegments group;
  group.segments = std::move(wal_sealed_);
  wal_sealed_.clear();
  for (const IndexTree& index : trees_) {
    group.flush_targets.push_back(index.tree->MemTablesRotated());
  }
  wal_rotated_.push_back(std::move(group));
}

Status Dataset::ReclaimRotatedWal() {
  while (!wal_rotated_.empty()) {
    RotatedSegments& oldest = wal_rotated_.front();
    for (size_t id = 0; id < oldest.flush_targets.size(); ++id) {
      // Groups are oldest first, so a younger one cannot be flushed past
      // while this one is not.
      if (trees_[id].tree->FlushesCompleted() < oldest.flush_targets[id]) {
        return Status::OK();
      }
    }
    // On failure keep the group: deletion is idempotent
    // (RemoveFileIfExists), so the next call retries all of it.
    LSMSTATS_RETURN_IF_ERROR(DeleteWalSegments(env_, oldest.segments));
    wal_rotated_.pop_front();
  }
  return Status::OK();
}

Status Dataset::MaybeFlush() {
  if (arbiter_ != nullptr) arbiter_->MaybeTick();
  if (!options_.auto_flush) return Status::OK();
  // Segments every tree rotated out are reclaimable once every tree has
  // flushed the memtables of that rotation: every record they back then
  // sits in a durable component. A tree parked read-only stops flushing, so
  // its segments are kept.
  LSMSTATS_RETURN_IF_ERROR(ReclaimRotatedWal());
  // Entry-count trigger always applies; the byte trigger exists only under
  // an arbiter (the per-tree byte grant is meaningless otherwise, since the
  // dataset's trees run auto_flush=false and flush only through here).
  const bool full =
      primary()->MemTableEntryCount() >= options_.memtable_max_entries ||
      (arbiter_ != nullptr &&
       primary()->MemTableBytes() >= primary()->EffectiveMemTableMaxBytes());
  if (!full) return Status::OK();
  if (options_.scheduler == nullptr) return Flush();
  // Scheduler mode: rotate every index and return to the writer; the worker
  // pool flushes all indexes in parallel off the write path. The shared WAL
  // segment is sealed with the memtables it backs; it becomes reclaimable
  // once every tree has rotated and the background flushes drain.
  LSMSTATS_RETURN_IF_ERROR(SealWal());
  for (IndexTree& index : trees_) {
    LSMSTATS_RETURN_IF_ERROR(index.tree->RequestFlush());
  }
  // Every tree rotated, so no mutable memtable holds a record of a sealed
  // segment any more.
  RecordRotatedWal();
  return Status::OK();
}

Status Dataset::Insert(const Record& record) {
  if (record.fields.size() != options_.schema.field_count()) {
    return Status::InvalidArgument("record does not match schema");
  }
  std::string existing;
  Status lookup = primary()->Get(PrimaryKey(record.pk), &existing);
  if (lookup.ok()) {
    return Status::AlreadyExists("pk " + std::to_string(record.pk));
  }
  if (lookup.code() != StatusCode::kNotFound) return lookup;
  WriteBatch batch;
  AppendInsertEntries(record, &batch);
  LSMSTATS_RETURN_IF_ERROR(CommitMutation(std::move(batch)));
  ++live_records_;
  return MaybeFlush();
}

// Entries for inserting `record` into every index, in tree-id order. The
// primary holds the record; every other index holds only its key.
void Dataset::AppendInsertEntries(const Record& record,
                                  WriteBatch* batch) const {
  Encoder enc;
  EncodeRecordValue(record, &enc);
  batch->Put(trees_[0].KeyOf(record), enc.Release(), /*fresh_insert=*/true,
             /*tree_id=*/0);
  for (uint32_t id = 1; id < trees_.size(); ++id) {
    batch->Put(trees_[id].KeyOf(record), "", /*fresh_insert=*/true, id);
  }
}

// Entries for deleting `old_record` from every index (anti-matter where the
// entry may live in older components; the trees decide via their memtables).
void Dataset::AppendDeleteEntries(const Record& old_record,
                                  WriteBatch* batch) const {
  for (uint32_t id = 0; id < trees_.size(); ++id) {
    batch->Delete(trees_[id].KeyOf(old_record), id);
  }
}

Status Dataset::Update(const Record& record) {
  if (record.fields.size() != options_.schema.field_count()) {
    return Status::InvalidArgument("record does not match schema");
  }
  auto old_or = Get(record.pk);
  if (!old_or.ok()) return old_or.status();
  const Record& old_record = old_or.value();

  Encoder enc;
  EncodeRecordValue(record, &enc);
  WriteBatch batch;
  // The primary index needs no anti-matter for an update: the newer version
  // shadows the older one and they reconcile at merge time (Appendix A).
  batch.Put(trees_[0].KeyOf(record), enc.Release(), /*fresh_insert=*/false,
            /*tree_id=*/0);
  // The other indexes key on their fields plus the PK, so a changed key
  // needs an anti-matter entry for the old one plus a regular entry for the
  // new one.
  for (uint32_t id = 1; id < trees_.size(); ++id) {
    const LsmKey old_key = trees_[id].KeyOf(old_record);
    const LsmKey new_key = trees_[id].KeyOf(record);
    if (old_key == new_key) continue;
    batch.Delete(old_key, id);
    batch.Put(new_key, "", /*fresh_insert=*/true, id);
  }
  LSMSTATS_RETURN_IF_ERROR(CommitMutation(std::move(batch)));
  return MaybeFlush();
}

Status Dataset::Delete(int64_t pk) {
  auto old_or = Get(pk);
  if (!old_or.ok()) return old_or.status();
  WriteBatch batch;
  AppendDeleteEntries(old_or.value(), &batch);
  LSMSTATS_RETURN_IF_ERROR(CommitMutation(std::move(batch)));
  --live_records_;
  return MaybeFlush();
}

Status Dataset::PutBatch(const std::vector<Record>& records) {
  if (records.empty()) return Status::OK();
  // Validate everything before mutating anything: an atomic batch must not
  // fail halfway with a prefix applied.
  std::unordered_set<int64_t> batch_pks;
  batch_pks.reserve(records.size());
  for (const Record& record : records) {
    if (record.fields.size() != options_.schema.field_count()) {
      return Status::InvalidArgument("record does not match schema");
    }
    if (!batch_pks.insert(record.pk).second) {
      return Status::InvalidArgument("duplicate pk in batch: " +
                                     std::to_string(record.pk));
    }
    std::string existing;
    Status lookup = primary()->Get(PrimaryKey(record.pk), &existing);
    if (lookup.ok()) {
      return Status::AlreadyExists("pk " + std::to_string(record.pk));
    }
    if (lookup.code() != StatusCode::kNotFound) return lookup;
  }
  WriteBatch batch;
  for (const Record& record : records) {
    AppendInsertEntries(record, &batch);
  }
  LSMSTATS_RETURN_IF_ERROR(CommitMutation(std::move(batch)));
  live_records_ += records.size();
  return MaybeFlush();
}

Status Dataset::DeleteBatch(const std::vector<int64_t>& pks) {
  if (pks.empty()) return Status::OK();
  std::unordered_set<int64_t> batch_pks;
  batch_pks.reserve(pks.size());
  std::vector<Record> old_records;
  old_records.reserve(pks.size());
  for (int64_t pk : pks) {
    if (!batch_pks.insert(pk).second) {
      return Status::InvalidArgument("duplicate pk in batch: " +
                                     std::to_string(pk));
    }
    auto old_or = Get(pk);
    if (!old_or.ok()) return old_or.status();
    old_records.push_back(std::move(old_or).value());
  }
  WriteBatch batch;
  for (const Record& old_record : old_records) {
    AppendDeleteEntries(old_record, &batch);
  }
  LSMSTATS_RETURN_IF_ERROR(CommitMutation(std::move(batch)));
  live_records_ -= pks.size();
  return MaybeFlush();
}

Status Dataset::Upsert(const Record& record) {
  if (Get(record.pk).ok()) return Update(record);
  return Insert(record);
}

Status Dataset::Load(std::vector<Record> records) {
  // Validate everything before applying anything: a rejected input must
  // leave every index as it was, and healthy.
  for (size_t i = 0; i < records.size(); ++i) {
    if (records[i].fields.size() != options_.schema.field_count()) {
      return Status::InvalidArgument("record does not match schema");
    }
    if (i > 0 && records[i - 1].pk >= records[i].pk) {
      return Status::InvalidArgument(
          "bulkload input must be sorted by pk without duplicates, at pk " +
          std::to_string(records[i].pk));
    }
  }
  for (uint32_t id = 0; id < trees_.size(); ++id) {
    std::vector<Entry> entries;
    entries.reserve(records.size());
    for (const Record& record : records) {
      std::string value;
      if (id == 0) {
        Encoder enc;
        EncodeRecordValue(record, &enc);
        value = enc.Release();
      }
      entries.push_back({trees_[id].KeyOf(record), std::move(value), false});
    }
    // The primary's keys arrive in pk order. Every other index sorts its
    // keys, as the sort operator at the bottom of AsterixDB's bulkload plan
    // would (§3.2).
    if (id != 0) {
      std::sort(entries.begin(), entries.end(),
                [](const Entry& a, const Entry& b) { return a.key < b.key; });
    }
    VectorEntryCursor cursor(std::move(entries));
    LSMSTATS_RETURN_IF_ERROR(
        trees_[id].tree->Bulkload(&cursor, records.size()));
  }
  live_records_ += records.size();
  return Status::OK();
}

StatusOr<Record> Dataset::Get(int64_t pk) const {
  // Read-path tick: a query-heavy phase with no writes still rebalances
  // (e.g. growing the block cache at the memtables' expense).
  if (arbiter_ != nullptr) arbiter_->MaybeTick();
  std::string value;
  LSMSTATS_RETURN_IF_ERROR(primary()->Get(PrimaryKey(pk), &value));
  Record record;
  record.pk = pk;
  LSMSTATS_RETURN_IF_ERROR(
      DecodeRecordValue(value, options_.schema.field_count(), &record));
  return record;
}

StatusOr<uint64_t> Dataset::CountRange(const std::string& field, int64_t lo,
                                       int64_t hi) const {
  const IndexTree* index = FindIndex(IndexTree::Kind::kSecondary, field);
  if (index == nullptr) {
    return Status::NotFound("no secondary index on field " + field);
  }
  return index->tree->ScanCount(
      SecondaryKey(lo, std::numeric_limits<int64_t>::min()),
      SecondaryKey(hi, std::numeric_limits<int64_t>::max()));
}

StatusOr<uint64_t> Dataset::CountRange2D(const std::string& field_a,
                                         const std::string& field_b,
                                         int64_t lo0, int64_t hi0,
                                         int64_t lo1, int64_t hi1) const {
  const IndexTree* index =
      FindIndex(IndexTree::Kind::kComposite, field_a, field_b);
  if (index == nullptr) {
    return Status::NotFound("no composite index on " + field_a + "+" +
                            field_b);
  }
  // The tree orders by k0 first, so [lo0, hi0] bounds the cursor and the k1
  // filter runs inline in the counting loop.
  MergeCursor merged = index->tree->NewRangeCursor(
      CompositeKey(lo0, std::numeric_limits<int64_t>::min(),
                   std::numeric_limits<int64_t>::min()),
      CompositeKey(hi0, std::numeric_limits<int64_t>::max(),
                   std::numeric_limits<int64_t>::max()),
      /*keys_only=*/true);
  uint64_t count = 0;
  for (; merged.Valid(); merged.Next()) {
    const int64_t k1 = merged.entry().key.k1;
    if (k1 >= lo1 && k1 <= hi1) ++count;
  }
  LSMSTATS_RETURN_IF_ERROR(merged.status());
  return count;
}

StatusOr<uint64_t> Dataset::CountAll() const {
  return primary()->ScanCount(
      PrimaryKey(std::numeric_limits<int64_t>::min()),
      PrimaryKey(std::numeric_limits<int64_t>::max()));
}

Status Dataset::Flush() {
  // Seal the active shared segment before any tree rotates so the segment
  // backs exactly the memtable contents this barrier will flush.
  LSMSTATS_RETURN_IF_ERROR(SealWal());
  if (options_.scheduler != nullptr) {
    // Kick every index's rotation first so the flushes overlap on the
    // worker pool; the drains below then mostly wait instead of working.
    for (IndexTree& index : trees_) {
      LSMSTATS_RETURN_IF_ERROR(index.tree->RequestFlush());
    }
  }
  for (IndexTree& index : trees_) {
    LSMSTATS_RETURN_IF_ERROR(index.tree->Flush());
  }
  // Every tree has now flushed everything the sealed segments back, so the
  // group recorded here is reclaimed at once.
  RecordRotatedWal();
  return ReclaimRotatedWal();
}

Status Dataset::WaitForBackgroundWork() {
  for (IndexTree& index : trees_) {
    LSMSTATS_RETURN_IF_ERROR(index.tree->WaitForBackgroundWork());
  }
  // With the background queues drained, every tree has flushed every
  // rotation it made, unless a flush failed and parked the tree.
  return ReclaimRotatedWal();
}

Status Dataset::CheckWritable() const {
  for (const IndexTree& index : trees_) {
    const LsmTree& tree = *index.tree;
    Status s = tree.BackgroundError();
    if (s.ok()) continue;
    return Status(s.code(), "dataset " + options_.name +
                                " rejecting writes: index " +
                                tree.options().name + " is " +
                                TreeModeToString(tree.Health().mode) + ": " +
                                s.message());
  }
  return Status::OK();
}

DatasetHealth Dataset::Health() const {
  DatasetHealth health;
  for (const IndexTree& index : trees_) {
    HealthSnapshot snapshot = index.tree->Health();
    if (snapshot.mode == TreeMode::kRecovering) ++health.recovering_trees;
    if (snapshot.mode == TreeMode::kReadOnly) ++health.degraded_trees;
    // TreeMode orders by severity, so "worst wins" is a plain max.
    if (snapshot.mode > health.mode) health.mode = snapshot.mode;
    health.trees.emplace_back(index.tree->options().name, std::move(snapshot));
  }
  health.wal_quarantined_files = wal_quarantined_;
  return health;
}

Status Dataset::Resume() {
  // Every tree gets its attempt, even after a failure.
  Status first;
  for (IndexTree& index : trees_) {
    Status s = index.tree->Resume();
    if (!s.ok() && first.ok()) first = std::move(s);
  }
  return first;
}

uint64_t Dataset::WalSyncCount() const {
  return wal_ != nullptr ? wal_->sync_count() : 0;
}

uint64_t Dataset::WalRecordsLogged() const {
  return wal_ != nullptr ? wal_->records_appended() : 0;
}

Status Dataset::ForceFullMerge() {
  for (IndexTree& index : trees_) {
    LSMSTATS_RETURN_IF_ERROR(index.tree->ForceFullMerge());
  }
  return Status::OK();
}

}  // namespace lsmstats
