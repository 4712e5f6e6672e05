#include "db/dataset.h"

#include <algorithm>
#include <chrono>
#include <limits>
#include <unordered_set>

#include "common/check.h"

namespace lsmstats {

namespace {

constexpr char kPrimaryKeyField[] = "_pk";

}  // namespace

Dataset::Dataset(DatasetOptions options) : options_(std::move(options)) {}

Dataset::~Dataset() {
  // Arbiter rebalances call into the trees; the trees' background jobs call
  // into the collectors (declared after the trees, so destroyed before
  // them by default) and, through the pressure hook, into the arbiter. So:
  // stop the arbiter's rebalances, then destroy the trees — each wakes and
  // waits out its own jobs — while the collectors and the arbiter are still
  // alive.
  if (arbiter_ != nullptr) arbiter_->Shutdown();
  composite_trees_.clear();
  secondaries_.clear();
  primary_.reset();
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
  auto apply_storage_options = [&](LsmTreeOptions& tree_opts) {
    tree_opts.write_options.compression = opts.compression;
    tree_opts.block_cache = opts.block_cache.get();
    tree_opts.min_free_bytes = opts.min_free_bytes;
  };

  // Primary index. The dataset coordinates flushes itself so the trees run
  // with auto_flush off.
  LsmTreeOptions tree_options;
  tree_options.directory = opts.directory;
  tree_options.name = opts.name + "_pk";
  tree_options.auto_flush = false;
  tree_options.merge_policy = opts.merge_policy;
  tree_options.scheduler = opts.scheduler;
  tree_options.env = opts.env;
  apply_storage_options(tree_options);
  auto primary_or = LsmTree::Open(tree_options);
  LSMSTATS_RETURN_IF_ERROR(primary_or.status());
  dataset->primary_ = std::move(primary_or).value();

  auto attach_collector = [&](const std::string& field,
                              const ValueDomain& domain, LsmTree* tree) {
    if (opts.synopsis_type == SynopsisType::kNone) return;
    SynopsisConfig config;
    config.type = opts.synopsis_type;
    config.budget = opts.synopsis_budget;
    config.domain = domain;
    StatisticsKey key{opts.name, field, opts.partition};
    dataset->collectors_.push_back(std::make_unique<StatisticsCollector>(
        std::move(key), config, opts.sink));
    tree->AddListener(dataset->collectors_.back().get());
  };

  if (opts.collect_primary_key_stats) {
    attach_collector(kPrimaryKeyField, ValueDomain::ForType(FieldType::kInt64),
                     dataset->primary_.get());
  }
  if (!opts.unsorted_stats_fields.empty()) {
    if (opts.sink == nullptr) {
      return Status::InvalidArgument(
          "unsorted_stats_fields requires DatasetOptions.sink");
    }
    dataset->unsorted_collector_ = std::make_unique<UnsortedFieldCollector>(
        opts.name, &dataset->options_.schema, opts.unsorted_stats_fields,
        opts.synopsis_budget, opts.sink, opts.partition);
    dataset->primary_->AddListener(dataset->unsorted_collector_.get());
  }

  // Secondary indexes on the indexed fields.
  dataset->indexed_fields_ = opts.schema.IndexedFields();
  for (size_t field_index : dataset->indexed_fields_) {
    const FieldDef& def = opts.schema.field(field_index);
    LsmTreeOptions sk_options;
    sk_options.directory = opts.directory;
    sk_options.name = opts.name + "_sk_" + def.name;
    sk_options.auto_flush = false;
    sk_options.merge_policy = opts.merge_policy;
    sk_options.scheduler = opts.scheduler;
    sk_options.env = opts.env;
    apply_storage_options(sk_options);
    auto tree_or = LsmTree::Open(sk_options);
    LSMSTATS_RETURN_IF_ERROR(tree_or.status());
    dataset->secondaries_.push_back(std::move(tree_or).value());
    attach_collector(def.name, def.EffectiveDomain(),
                     dataset->secondaries_.back().get());
  }
  // Composite secondary indexes (paper §5).
  for (const auto& [field_a, field_b] : opts.composite_indexes) {
    auto index_a = opts.schema.FieldIndex(field_a);
    LSMSTATS_RETURN_IF_ERROR(index_a.status());
    auto index_b = opts.schema.FieldIndex(field_b);
    LSMSTATS_RETURN_IF_ERROR(index_b.status());
    LsmTreeOptions ck_options;
    ck_options.directory = opts.directory;
    ck_options.name = opts.name + "_ck_" + field_a + "_" + field_b;
    ck_options.auto_flush = false;
    ck_options.merge_policy = opts.merge_policy;
    ck_options.scheduler = opts.scheduler;
    ck_options.env = opts.env;
    apply_storage_options(ck_options);
    auto tree = LsmTree::Open(ck_options);
    LSMSTATS_RETURN_IF_ERROR(tree.status());
    dataset->composite_fields_.push_back(
        {index_a.value(), index_b.value()});
    dataset->composite_trees_.push_back(std::move(tree).value());
    if (opts.synopsis_type != SynopsisType::kNone) {
      dataset->composite_collectors_.push_back(
          std::make_unique<CompositeStatisticsCollector>(
              dataset->CompositeStatsKey(field_a, field_b),
              opts.schema.field(index_a.value()).EffectiveDomain(),
              opts.schema.field(index_b.value()).EffectiveDomain(),
              opts.synopsis_budget, opts.sink));
      dataset->composite_trees_.back()->AddListener(
          dataset->composite_collectors_.back().get());
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
    trees.push_back(dataset->primary_.get());
    for (auto& secondary : dataset->secondaries_) {
      trees.push_back(secondary.get());
    }
    for (auto& composite : dataset->composite_trees_) {
      trees.push_back(composite.get());
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

LsmTree* Dataset::secondary(const std::string& field) {
  for (size_t i = 0; i < indexed_fields_.size(); ++i) {
    if (options_.schema.field(indexed_fields_[i]).name == field) {
      return secondaries_[i].get();
    }
  }
  return nullptr;
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
  for (size_t i = 0; i < composite_fields_.size(); ++i) {
    if (options_.schema.field(composite_fields_[i].first).name == field_a &&
        options_.schema.field(composite_fields_[i].second).name == field_b) {
      return composite_trees_[i].get();
    }
  }
  return nullptr;
}

LsmTree* Dataset::TreeById(uint32_t tree_id) {
  if (tree_id == 0) return primary_.get();
  size_t index = tree_id - 1;
  if (index < secondaries_.size()) return secondaries_[index].get();
  index -= secondaries_.size();
  if (index < composite_trees_.size()) return composite_trees_[index].get();
  return nullptr;
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
  const size_t tree_count = 1 + secondaries_.size() + composite_trees_.size();
  for (size_t id = 0; id < tree_count; ++id) {
    group.flush_targets.push_back(
        TreeById(static_cast<uint32_t>(id))->MemTablesRotated());
  }
  wal_rotated_.push_back(std::move(group));
}

Status Dataset::ReclaimRotatedWal() {
  while (!wal_rotated_.empty()) {
    RotatedSegments& oldest = wal_rotated_.front();
    for (size_t id = 0; id < oldest.flush_targets.size(); ++id) {
      // Groups are oldest first, so a younger one cannot be flushed past
      // while this one is not.
      if (TreeById(static_cast<uint32_t>(id))->FlushesCompleted() <
          oldest.flush_targets[id]) {
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
      primary_->MemTableEntryCount() >= options_.memtable_max_entries ||
      (arbiter_ != nullptr &&
       primary_->MemTableBytes() >= primary_->EffectiveMemTableMaxBytes());
  if (!full) return Status::OK();
  if (options_.scheduler == nullptr) return Flush();
  // Scheduler mode: rotate every index and return to the writer; the worker
  // pool flushes all indexes in parallel off the write path. The shared WAL
  // segment is sealed with the memtables it backs; it becomes reclaimable
  // once every tree has rotated and the background flushes drain.
  LSMSTATS_RETURN_IF_ERROR(SealWal());
  LSMSTATS_RETURN_IF_ERROR(primary_->RequestFlush());
  for (auto& secondary : secondaries_) {
    LSMSTATS_RETURN_IF_ERROR(secondary->RequestFlush());
  }
  for (auto& composite : composite_trees_) {
    LSMSTATS_RETURN_IF_ERROR(composite->RequestFlush());
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
  Status lookup = primary_->Get(PrimaryKey(record.pk), &existing);
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

// Entries for inserting `record` into every index, in the order the trees
// are maintained (primary, secondaries, composites — tree-id order).
void Dataset::AppendInsertEntries(const Record& record,
                                  WriteBatch* batch) const {
  Encoder enc;
  EncodeRecordValue(record, &enc);
  batch->Put(PrimaryKey(record.pk), enc.Release(), /*fresh_insert=*/true,
             /*tree_id=*/0);
  for (size_t i = 0; i < indexed_fields_.size(); ++i) {
    int64_t sk = record.fields[indexed_fields_[i]];
    batch->Put(SecondaryKey(sk, record.pk), "", /*fresh_insert=*/true,
               static_cast<uint32_t>(1 + i));
  }
  for (size_t i = 0; i < composite_fields_.size(); ++i) {
    batch->Put(CompositeKey(record.fields[composite_fields_[i].first],
                            record.fields[composite_fields_[i].second],
                            record.pk),
               "", /*fresh_insert=*/true,
               static_cast<uint32_t>(1 + indexed_fields_.size() + i));
  }
}

// Entries for deleting `old_record` from every index (anti-matter where the
// entry may live in older components; the trees decide via their memtables).
void Dataset::AppendDeleteEntries(const Record& old_record,
                                  WriteBatch* batch) const {
  batch->Delete(PrimaryKey(old_record.pk), /*tree_id=*/0);
  for (size_t i = 0; i < indexed_fields_.size(); ++i) {
    int64_t sk = old_record.fields[indexed_fields_[i]];
    batch->Delete(SecondaryKey(sk, old_record.pk),
                  static_cast<uint32_t>(1 + i));
  }
  for (size_t i = 0; i < composite_fields_.size(); ++i) {
    batch->Delete(CompositeKey(old_record.fields[composite_fields_[i].first],
                               old_record.fields[composite_fields_[i].second],
                               old_record.pk),
                  static_cast<uint32_t>(1 + indexed_fields_.size() + i));
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
  batch.Put(PrimaryKey(record.pk), enc.Release(), /*fresh_insert=*/false,
            /*tree_id=*/0);
  // Secondary indexes key on <SK, PK>, so a changed SK needs an anti-matter
  // entry for the old pair plus a regular entry for the new one.
  for (size_t i = 0; i < indexed_fields_.size(); ++i) {
    int64_t old_sk = old_record.fields[indexed_fields_[i]];
    int64_t new_sk = record.fields[indexed_fields_[i]];
    if (old_sk == new_sk) continue;
    const auto tree_id = static_cast<uint32_t>(1 + i);
    batch.Delete(SecondaryKey(old_sk, record.pk), tree_id);
    batch.Put(SecondaryKey(new_sk, record.pk), "", /*fresh_insert=*/true,
              tree_id);
  }
  for (size_t i = 0; i < composite_fields_.size(); ++i) {
    int64_t old_a = old_record.fields[composite_fields_[i].first];
    int64_t old_b = old_record.fields[composite_fields_[i].second];
    int64_t new_a = record.fields[composite_fields_[i].first];
    int64_t new_b = record.fields[composite_fields_[i].second];
    if (old_a == new_a && old_b == new_b) continue;
    const auto tree_id =
        static_cast<uint32_t>(1 + indexed_fields_.size() + i);
    batch.Delete(CompositeKey(old_a, old_b, record.pk), tree_id);
    batch.Put(CompositeKey(new_a, new_b, record.pk), "",
              /*fresh_insert=*/true, tree_id);
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
    Status lookup = primary_->Get(PrimaryKey(record.pk), &existing);
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
  if (!std::is_sorted(records.begin(), records.end(),
                      [](const Record& a, const Record& b) {
                        return a.pk < b.pk;
                      })) {
    return Status::InvalidArgument("bulkload input must be sorted by pk");
  }
  // Primary component.
  {
    std::vector<Entry> entries;
    entries.reserve(records.size());
    for (const Record& record : records) {
      Encoder enc;
      EncodeRecordValue(record, &enc);
      entries.push_back({PrimaryKey(record.pk), enc.Release(), false});
    }
    VectorEntryCursor cursor(std::move(entries));
    LSMSTATS_RETURN_IF_ERROR(
        primary_->Bulkload(&cursor, records.size()));
  }
  // Secondary components: sort <SK, PK> pairs per index, as the sort
  // operator at the bottom of AsterixDB's bulkload plan would (§3.2).
  for (size_t i = 0; i < indexed_fields_.size(); ++i) {
    size_t field_index = indexed_fields_[i];
    std::vector<Entry> entries;
    entries.reserve(records.size());
    for (const Record& record : records) {
      entries.push_back(
          {SecondaryKey(record.fields[field_index], record.pk), "", false});
    }
    std::sort(entries.begin(), entries.end(),
              [](const Entry& a, const Entry& b) { return a.key < b.key; });
    VectorEntryCursor cursor(std::move(entries));
    LSMSTATS_RETURN_IF_ERROR(
        secondaries_[i]->Bulkload(&cursor, records.size()));
  }
  for (size_t i = 0; i < composite_fields_.size(); ++i) {
    std::vector<Entry> entries;
    entries.reserve(records.size());
    for (const Record& record : records) {
      entries.push_back(
          {CompositeKey(record.fields[composite_fields_[i].first],
                        record.fields[composite_fields_[i].second],
                        record.pk),
           "", false});
    }
    std::sort(entries.begin(), entries.end(),
              [](const Entry& a, const Entry& b) { return a.key < b.key; });
    VectorEntryCursor cursor(std::move(entries));
    LSMSTATS_RETURN_IF_ERROR(
        composite_trees_[i]->Bulkload(&cursor, records.size()));
  }
  live_records_ += records.size();
  return Status::OK();
}

StatusOr<Record> Dataset::Get(int64_t pk) const {
  // Read-path tick: a query-heavy phase with no writes still rebalances
  // (e.g. growing the block cache at the memtables' expense).
  if (arbiter_ != nullptr) arbiter_->MaybeTick();
  std::string value;
  LSMSTATS_RETURN_IF_ERROR(primary_->Get(PrimaryKey(pk), &value));
  Record record;
  record.pk = pk;
  LSMSTATS_RETURN_IF_ERROR(
      DecodeRecordValue(value, options_.schema.field_count(), &record));
  return record;
}

StatusOr<uint64_t> Dataset::CountRange(const std::string& field, int64_t lo,
                                       int64_t hi) const {
  for (size_t i = 0; i < indexed_fields_.size(); ++i) {
    if (options_.schema.field(indexed_fields_[i]).name != field) continue;
    return secondaries_[i]->ScanCount(
        SecondaryKey(lo, std::numeric_limits<int64_t>::min()),
        SecondaryKey(hi, std::numeric_limits<int64_t>::max()));
  }
  return Status::NotFound("no secondary index on field " + field);
}

StatusOr<uint64_t> Dataset::CountRange2D(const std::string& field_a,
                                         const std::string& field_b,
                                         int64_t lo0, int64_t hi0,
                                         int64_t lo1, int64_t hi1) const {
  for (size_t i = 0; i < composite_fields_.size(); ++i) {
    if (options_.schema.field(composite_fields_[i].first).name != field_a ||
        options_.schema.field(composite_fields_[i].second).name != field_b) {
      continue;
    }
    // The tree orders by k0 first, so [lo0, hi0] bounds the cursor and the
    // k1 filter runs inline in the counting loop.
    MergeCursor merged = composite_trees_[i]->NewRangeCursor(
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
  return Status::NotFound("no composite index on " + field_a + "+" + field_b);
}

StatusOr<uint64_t> Dataset::CountAll() const {
  return primary_->ScanCount(
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
    LSMSTATS_RETURN_IF_ERROR(primary_->RequestFlush());
    for (auto& secondary : secondaries_) {
      LSMSTATS_RETURN_IF_ERROR(secondary->RequestFlush());
    }
    for (auto& composite : composite_trees_) {
      LSMSTATS_RETURN_IF_ERROR(composite->RequestFlush());
    }
  }
  LSMSTATS_RETURN_IF_ERROR(primary_->Flush());
  for (auto& secondary : secondaries_) {
    LSMSTATS_RETURN_IF_ERROR(secondary->Flush());
  }
  for (auto& composite : composite_trees_) {
    LSMSTATS_RETURN_IF_ERROR(composite->Flush());
  }
  // Every tree has now flushed everything the sealed segments back, so the
  // group recorded here is reclaimed at once.
  RecordRotatedWal();
  return ReclaimRotatedWal();
}

Status Dataset::WaitForBackgroundWork() {
  LSMSTATS_RETURN_IF_ERROR(primary_->WaitForBackgroundWork());
  for (auto& secondary : secondaries_) {
    LSMSTATS_RETURN_IF_ERROR(secondary->WaitForBackgroundWork());
  }
  for (auto& composite : composite_trees_) {
    LSMSTATS_RETURN_IF_ERROR(composite->WaitForBackgroundWork());
  }
  // With the background queues drained, every tree has flushed every
  // rotation it made, unless a flush failed and parked the tree.
  return ReclaimRotatedWal();
}

Status Dataset::CheckWritable() const {
  auto gate = [this](const LsmTree& tree) {
    Status s = tree.BackgroundError();
    if (s.ok()) return s;
    return Status(s.code(), "dataset " + options_.name +
                                " rejecting writes: index " +
                                tree.options().name + " is " +
                                TreeModeToString(tree.Health().mode) + ": " +
                                s.message());
  };
  LSMSTATS_RETURN_IF_ERROR(gate(*primary_));
  for (const auto& secondary : secondaries_) {
    LSMSTATS_RETURN_IF_ERROR(gate(*secondary));
  }
  for (const auto& composite : composite_trees_) {
    LSMSTATS_RETURN_IF_ERROR(gate(*composite));
  }
  return Status::OK();
}

DatasetHealth Dataset::Health() const {
  DatasetHealth health;
  auto add = [&health](const LsmTree& tree) {
    HealthSnapshot snapshot = tree.Health();
    if (snapshot.mode == TreeMode::kRecovering) ++health.recovering_trees;
    if (snapshot.mode == TreeMode::kReadOnly) ++health.degraded_trees;
    // TreeMode orders by severity, so "worst wins" is a plain max.
    if (snapshot.mode > health.mode) health.mode = snapshot.mode;
    health.trees.emplace_back(tree.options().name, std::move(snapshot));
  };
  add(*primary_);
  for (const auto& secondary : secondaries_) add(*secondary);
  for (const auto& composite : composite_trees_) add(*composite);
  health.wal_quarantined_files = wal_quarantined_;
  return health;
}

Status Dataset::Resume() {
  Status first;
  auto resume = [&first](LsmTree& tree) {
    Status s = tree.Resume();
    if (!s.ok() && first.ok()) first = std::move(s);
  };
  resume(*primary_);
  for (auto& secondary : secondaries_) resume(*secondary);
  for (auto& composite : composite_trees_) resume(*composite);
  return first;
}

uint64_t Dataset::WalSyncCount() const {
  return wal_ != nullptr ? wal_->sync_count() : 0;
}

uint64_t Dataset::WalRecordsLogged() const {
  return wal_ != nullptr ? wal_->records_appended() : 0;
}

Status Dataset::ForceFullMerge() {
  LSMSTATS_RETURN_IF_ERROR(primary_->ForceFullMerge());
  for (auto& secondary : secondaries_) {
    LSMSTATS_RETURN_IF_ERROR(secondary->ForceFullMerge());
  }
  for (auto& composite : composite_trees_) {
    LSMSTATS_RETURN_IF_ERROR(composite->ForceFullMerge());
  }
  return Status::OK();
}

}  // namespace lsmstats
