#include "lsm/lsm_tree.h"

#include <algorithm>
#include <cstdlib>
#include <map>
#include <optional>
#include <utility>

#include "common/logging.h"
#include "lsm/merge_cursor.h"
#include "lsm/scheduler.h"
#include "lsm/wal.h"

namespace lsmstats {

const char* TreeModeToString(TreeMode mode) {
  switch (mode) {
    case TreeMode::kHealthy:
      return "healthy";
    case TreeMode::kRecovering:
      return "recovering";
    case TreeMode::kReadOnly:
      return "read-only";
  }
  return "unknown";
}

LsmTree::LsmTree(LsmTreeOptions options)
    : options_(std::move(options)),
      env_(options_.env != nullptr ? options_.env : Env::Default()),
      memtable_(std::make_unique<MemTable>()) {
  if (!options_.merge_policy) {
    options_.merge_policy = std::make_shared<NoMergePolicy>();
  }
}

LsmTree::~LsmTree() {
  {
    MutexLock lock(&mu_);
    // Wake retry backoffs and recovery waits: outstanding jobs finish their
    // current attempt and bail instead of sleeping out their schedule.
    shutting_down_ = true;
    cv_.NotifyAll();
    while (pending_jobs_ != 0) cv_.Wait(&mu_);
  }
}

StatusOr<std::unique_ptr<LsmTree>> LsmTree::Open(LsmTreeOptions options) {
  if (options.directory.empty()) {
    return Status::InvalidArgument("LsmTreeOptions.directory is required");
  }
  auto tree = std::unique_ptr<LsmTree>(new LsmTree(std::move(options)));
  if (CodecByName(tree->options_.write_options.compression) == nullptr) {
    return Status::InvalidArgument("unknown compression codec: " +
                                   tree->options_.write_options.compression);
  }
  Env* env = tree->env_;
  // Recovery mutates guarded members (the component stack).
  // Nothing else can touch the tree yet, but holding mu_ keeps the accesses
  // inside the locking discipline — and every filesystem/cache rank sits
  // below kTreeState, so the ordering is exercised, not just asserted.
  MutexLock recovery_lock(&tree->mu_);
  LSMSTATS_RETURN_IF_ERROR(env->CreateDirIfMissing(tree->options_.directory));

  // Recover components left by a previous incarnation of this tree: files
  // named <name>_<id>.cmp, plus (for trees that have merged) the component
  // manifest recording stack order, levels, and any in-flight merge.
  std::vector<uint64_t> recovered_ids;
  const std::string prefix = tree->options_.name + "_";
  std::vector<std::string> names;
  LSMSTATS_RETURN_IF_ERROR(env->ListDir(tree->options_.directory, &names));
  // A tree does not log; its dataset's log is the only WAL. A
  // `<tree>_<seq>.wal` segment was left by the retired per-tree log and
  // holds acknowledged records nothing here replays, so refuse to open
  // rather than drop them.
  const std::vector<WalSegmentFile> retired_wal = FindWalSegments(
      names, tree->options_.directory, tree->options_.name);
  if (!retired_wal.empty()) {
    return Status::Unimplemented(
        "tree " + tree->options_.name +
        " has a segment of the retired per-tree WAL, which this release no "
        "longer replays: " + retired_wal.front().path);
  }
  for (const std::string& filename : names) {
    if (filename.rfind(prefix, 0) != 0) continue;
    if (filename.size() > 4 &&
        filename.substr(filename.size() - 4) == ".tmp") {
      // Orphan of a build that crashed before sealing; the sealed rename
      // never happened, so the bytes are garbage by construction.
      std::string orphan = tree->options_.directory + "/" + filename;
      LSMSTATS_LOG(kWarning) << tree->options_.name
                             << ": removing orphaned temporary " << orphan;
      LSMSTATS_RETURN_IF_ERROR(env->RemoveFileIfExists(orphan));
      continue;
    }
    if (filename.size() <= prefix.size() + 4 ||
        filename.substr(filename.size() - 4) != ".cmp") {
      continue;
    }
    std::string id_text =
        filename.substr(prefix.size(), filename.size() - prefix.size() - 4);
    char* end = nullptr;
    uint64_t id = std::strtoull(id_text.c_str(), &end, 10);
    if (end == nullptr || *end != '\0') continue;  // foreign file
    recovered_ids.push_back(id);
  }
  std::sort(recovered_ids.begin(), recovered_ids.end());  // oldest first
  if (!recovered_ids.empty()) {
    // Past every id on disk, including ones we may quarantine or delete
    // below.
    tree->next_component_id_ = recovered_ids.back() + 1;
  }

  // The manifest, when present, dictates recency order and levels; without
  // it (a tree that never merged) id order IS recency order and everything
  // sits at level 0. A manifest that fails its checksum is quarantined like
  // a corrupt component and recovery proceeds id-ordered — degraded but
  // safe for the merge-free trees that mode serves.
  const std::string manifest_path =
      ComponentManifestPath(tree->options_.directory, tree->options_.name);
  LSMSTATS_RETURN_IF_ERROR(env->RemoveFileIfExists(manifest_path + ".tmp"));
  std::optional<ComponentManifest> manifest;
  {
    auto manifest_or = ReadComponentManifest(env, tree->options_.directory,
                                             tree->options_.name);
    if (manifest_or.ok()) {
      manifest = std::move(*manifest_or);
    } else {
      if (!tree->options_.quarantine_corrupt_components) {
        return manifest_or.status();
      }
      LSMSTATS_LOG(kError)
          << tree->options_.name << ": component manifest failed recovery ("
          << manifest_or.status().ToString()
          << "); quarantining it and recovering in id order";
      if (env->FileExists(manifest_path)) {
        LSMSTATS_RETURN_IF_ERROR(
            env->RenameFile(manifest_path, manifest_path + ".quarantine"));
        tree->quarantined_files_.push_back(manifest_path + ".quarantine");
        LSMSTATS_RETURN_IF_ERROR(env->SyncDir(tree->options_.directory));
      }
    }
  }
  if (manifest.has_value()) {
    // Never reuse an id the manifest has seen — a pending merge may have
    // allocated ids past every file that survived.
    tree->next_component_id_ =
        std::max(tree->next_component_id_, manifest->next_component_id);
  }

  // Decide, per on-disk id, whether it is live and where it sits.
  struct IntendedEntry {
    uint64_t id = 0;
    uint32_t level = 0;
  };
  std::vector<IntendedEntry> intended;  // newest first
  std::vector<uint64_t> doomed;  // uncommitted outputs + stale merge inputs
  if (!manifest.has_value()) {
    for (auto it = recovered_ids.rbegin(); it != recovered_ids.rend(); ++it) {
      intended.push_back(IntendedEntry{*it, 0});
    }
  } else {
    auto contains = [](const std::vector<uint64_t>& ids, uint64_t id) {
      return std::find(ids.begin(), ids.end(), id) != ids.end();
    };
    std::vector<uint64_t> pending_outputs;
    if (manifest->pending.has_value()) {
      pending_outputs = manifest->pending->output_ids;
    }
    std::vector<uint64_t> listed_ids;
    listed_ids.reserve(manifest->stack.size());
    for (const ManifestEntry& entry : manifest->stack) {
      listed_ids.push_back(entry.id);
    }
    // Newest first: flushes sealed after the last manifest write (ids past
    // the manifest's high-water mark; id order is recency order among them),
    // then the manifest's stack in its own order.
    for (auto it = recovered_ids.rbegin(); it != recovered_ids.rend(); ++it) {
      uint64_t id = *it;
      if (contains(pending_outputs, id)) {
        // Sealed output of a merge that never committed.
        doomed.push_back(id);
        continue;
      }
      if (contains(listed_ids, id)) continue;  // placed below, in stack order
      if (id >= manifest->next_component_id) {
        intended.push_back(IntendedEntry{id, 0});  // post-manifest flush
      } else {
        // A merge input the committed manifest superseded; the crash
        // interrupted its unlink. Resurrecting it would re-expose records
        // its merge output reconciled away.
        doomed.push_back(id);
      }
    }
    for (const ManifestEntry& entry : manifest->stack) {
      // A listed entry whose file vanished fails to open below and takes
      // everything newer with it (quarantine cascade).
      intended.push_back(IntendedEntry{entry.id, entry.level});
    }
  }

  // Open oldest to newest so a corrupt component can take down itself and
  // everything newer while the consistent older prefix survives. Timestamps
  // must grow with recency: oldest component gets 1.
  std::vector<std::shared_ptr<DiskComponent>> recovered;  // oldest first
  for (size_t i = 0; i < intended.size(); ++i) {
    const IntendedEntry& entry = intended[intended.size() - 1 - i];
    std::string path = tree->ComponentPath(entry.id);
    auto component = DiskComponent::Open(
        env, path, entry.id, i + 1,
        DiskComponentReadOptions{tree->options_.block_cache}, entry.level);
    Status open_status = component.status();
    if (open_status.ok() && tree->options_.paranoid_recovery_checks) {
      open_status = (*component)->VerifyBlockChecksums();
    }
    if (open_status.ok()) {
      recovered.push_back(std::move(component).value());
      continue;
    }
    if (!tree->options_.quarantine_corrupt_components) return open_status;
    if (component.ok()) {
      // The component opened but failed verification; drop anything its
      // open may have cached so no quarantined bytes linger in the shared
      // cache.
      (*component)->EvictCachedBlocks();
    }
    // Quarantine this component and everything newer in stack order: keeping
    // a newer component above a hole would un-cancel its anti-matter and
    // resurrect deleted records. Renaming (not deleting) keeps the bytes for
    // forensics.
    LSMSTATS_LOG(kError) << tree->options_.name << ": component " << path
                         << " failed recovery (" << open_status.ToString()
                         << "); quarantining it and all newer components";
    for (size_t j = 0; j + i < intended.size(); ++j) {
      std::string victim = tree->ComponentPath(intended[j].id);
      if (!env->FileExists(victim)) continue;
      LSMSTATS_RETURN_IF_ERROR(
          env->RenameFile(victim, victim + ".quarantine"));
      tree->quarantined_files_.push_back(victim + ".quarantine");
    }
    LSMSTATS_RETURN_IF_ERROR(
        env->SyncDir(tree->options_.directory));
    break;
  }
  tree->components_.assign(recovered.rbegin(), recovered.rend());
  tree->logical_clock_ = recovered.size() + 1;

  if (manifest.has_value()) {
    // Re-synchronize the manifest with what actually survived BEFORE
    // removing any file it mentions: if the removals ran first and the
    // rewrite then failed, the next Open would find listed-but-missing
    // components and needlessly quarantine the newer half of the stack.
    ComponentManifest rewritten;
    {
      // Open() owns the tree exclusively, but the accessors assert mu_.
      rewritten.next_component_id = tree->next_component_id_;
      rewritten.stack.reserve(tree->components_.size());
      for (const auto& component : tree->components_) {
        rewritten.stack.push_back(ManifestEntry{component->metadata().id,
                                                component->metadata().level});
      }
    }
    LSMSTATS_RETURN_IF_ERROR(WriteComponentManifest(
        env, tree->options_.directory, tree->options_.name, rewritten));
    tree->manifest_present_ = true;
    for (uint64_t id : doomed) {
      std::string stale = tree->ComponentPath(id);
      LSMSTATS_LOG(kWarning) << tree->options_.name << ": removing component "
                             << stale << " left behind by an interrupted merge";
      LSMSTATS_RETURN_IF_ERROR(env->RemoveFileIfExists(stale));
    }
    if (!doomed.empty()) {
      LSMSTATS_RETURN_IF_ERROR(env->SyncDir(tree->options_.directory));
    }
  }
  tree->CheckLevelInvariantLocked();

  return tree;
}

void LsmTree::AddListener(LsmEventListener* listener) {
  listeners_.push_back(listener);
}

std::string LsmTree::ComponentPath(uint64_t id) const {
  return options_.directory + "/" + options_.name + "_" + std::to_string(id) +
         ".cmp";
}

bool LsmTree::MemTableFullLocked() const {
  return memtable_->EntryCount() >= options_.memtable_max_entries ||
         memtable_->ApproximateBytes() >= EffectiveMemTableMaxBytes();
}

bool LsmTree::RotateLocked() {
  if (memtable_->Empty()) return false;
  immutables_.push_back(std::shared_ptr<const MemTable>(std::move(memtable_)));
  memtable_ = std::make_unique<MemTable>();
  return true;
}

Status LsmTree::MaybeFlushAfterWrite() {
  bool scheduled = false;
  {
    MutexLock lock(&mu_);
    if (!options_.auto_flush || !MemTableFullLocked()) return Status::OK();
    if (options_.scheduler != nullptr) {
      // A full memtable is never empty, so this always rotates.
      RotateLocked();
      ++pending_jobs_;
      scheduled = true;
    }
  }
  if (!scheduled) {
    // Synchronous mode: flush inline, exactly like the single-threaded
    // engine. Flush() acquires the locks it needs.
    return Flush();
  }
  // Schedule without holding mu_: after a scheduler shutdown the job runs
  // inline on this thread, and the job itself takes mu_. Flush class: a
  // backlogged immutable queue stalls writers, so flushes outrank merges.
  options_.scheduler->Schedule(TaskPriority{TaskClass::kFlush, 0},
                               [this] { BackgroundFlushJob(); });
  // Backpressure: stall the writer once too many rotated memtables are
  // waiting for the workers, so memory stays bounded under write bursts.
  MutexLock lock(&mu_);
  if (immutables_.size() > options_.max_immutable_memtables &&
      pressure_callback_) {
    // Lock-free by contract (see SetPressureCallback): safe under mu_.
    pressure_callback_();
  }
  while (immutables_.size() > options_.max_immutable_memtables &&
         background_error_.ok()) {
    cv_.Wait(&mu_);
  }
  return WriteGateLocked();
}

Status LsmTree::Put(const LsmKey& key, std::string value, bool fresh_insert) {
  {
    MutexLock lock(&mu_);
    LSMSTATS_RETURN_IF_ERROR(WriteGateLocked());
    memtable_->Put(key, std::move(value), fresh_insert);
  }
  return MaybeFlushAfterWrite();
}

Status LsmTree::Delete(const LsmKey& key) {
  {
    MutexLock lock(&mu_);
    LSMSTATS_RETURN_IF_ERROR(WriteGateLocked());
    memtable_->Delete(key);
  }
  return MaybeFlushAfterWrite();
}

Status LsmTree::PutAntiMatter(const LsmKey& key) {
  {
    MutexLock lock(&mu_);
    LSMSTATS_RETURN_IF_ERROR(WriteGateLocked());
    memtable_->PutAntiMatter(key);
  }
  return MaybeFlushAfterWrite();
}

Status LsmTree::Get(const LsmKey& key, std::string* value) const {
  // Snapshot under the lock; the frozen memtables and components are
  // immutable, so the searches below run lock-free.
  std::vector<std::shared_ptr<const MemTable>> frozen;  // newest first
  std::vector<std::shared_ptr<DiskComponent>> components;
  {
    MutexLock lock(&mu_);
    bool anti = false;
    Status s = memtable_->Get(key, value, &anti);
    if (s.ok()) {
      return anti ? Status::NotFound("deleted") : Status::OK();
    }
    frozen.reserve(immutables_.size());
    for (auto it = immutables_.rbegin(); it != immutables_.rend(); ++it) {
      frozen.push_back(*it);
    }
    components = components_;
  }
  for (const auto& memtable : frozen) {
    bool anti = false;
    Status s = memtable->Get(key, value, &anti);
    if (s.ok()) {
      return anti ? Status::NotFound("deleted") : Status::OK();
    }
  }
  for (const auto& component : components) {
    Entry entry;
    Status s = component->Get(key, &entry);
    if (s.ok()) {
      if (entry.anti_matter) return Status::NotFound("deleted");
      *value = std::move(entry.value);
      return Status::OK();
    }
    if (s.code() != StatusCode::kNotFound) return s;
  }
  return Status::NotFound("key absent");
}

MergeCursor LsmTree::NewRangeCursor(const LsmKey& lo, const LsmKey& hi,
                                    bool keys_only) const {
  // Newest first: the mutable memtable's snapshot, the frozen memtables,
  // then the components. Only the snapshot copies, and only [lo, hi].
  std::vector<std::unique_ptr<EntryCursor>> inputs;
  std::vector<std::shared_ptr<DiskComponent>> components;
  {
    MutexLock lock(&mu_);
    inputs.reserve(1 + immutables_.size() + components_.size());
    inputs.push_back(memtable_->NewSnapshotCursor(lo, hi, keys_only));
    for (auto it = immutables_.rbegin(); it != immutables_.rend(); ++it) {
      inputs.push_back(MemTable::NewFrozenCursor(*it, lo, hi));
    }
    components = components_;
  }
  for (const auto& component : components) {
    const ComponentMetadata& md = component->metadata();
    if (md.max_key < lo || hi < md.min_key) continue;
    inputs.push_back(component->NewCursor(lo, hi));
  }
  // The cursor sees the whole tree, so anti-matter fully reconciles.
  return MergeCursor(std::move(inputs), /*drop_anti_matter=*/true);
}

Status LsmTree::Scan(const LsmKey& lo, const LsmKey& hi,
                     const std::function<void(const EntryView&)>& fn) const {
  MergeCursor merged = NewRangeCursor(lo, hi, /*keys_only=*/false);
  for (; merged.Valid(); merged.Next()) fn(merged.entry());
  return merged.status();
}

StatusOr<uint64_t> LsmTree::ScanCount(const LsmKey& lo,
                                      const LsmKey& hi) const {
  MergeCursor merged = NewRangeCursor(lo, hi, /*keys_only=*/true);
  uint64_t count = 0;
  for (; merged.Valid(); merged.Next()) ++count;
  LSMSTATS_RETURN_IF_ERROR(merged.status());
  return count;
}

template <typename Cursor>
Status LsmTree::BuildComponents(const OperationContext& context,
                                Cursor* input, uint64_t split_bytes,
                                ManifestPendingMerge* pending,
                                std::vector<SealedOutput>* outputs) {
  // Caller holds work_mu_, so listeners see one operation at a time and the
  // component stack cannot be restructured underneath us; mu_ is only taken
  // for the id/clock counters.
  LSMSTATS_RETURN_IF_ERROR(input->status());
  // Unwinds sealed-but-uninstalled outputs on failure; the stack is
  // untouched, so retrying is safe. Deletion is best effort: a merge's
  // leftover file is listed in the manifest's pending record, so the next
  // commit or the next recovery disposes of it.
  auto unwind = [this, outputs](Status s) -> Status {
    for (SealedOutput& output : *outputs) {
      output.component->EvictCachedBlocks();
      Status removed = output.component->DeleteFile();
      if (!removed.ok()) {
        LSMSTATS_LOG(kWarning)
            << options_.name << ": could not remove abandoned output: "
            << removed.ToString();
      }
    }
    outputs->clear();
    return s;
  };

  uint64_t consumed_records = 0;
  uint64_t consumed_anti = 0;
  do {
    SealedOutput output;
    // Still an upper bound for THIS output: whatever the input held minus
    // what earlier outputs already took.
    OperationContext output_context = context;
    output_context.expected_records -=
        std::min(output_context.expected_records, consumed_records);
    output_context.expected_anti_matter -=
        std::min(output_context.expected_anti_matter, consumed_anti);
    for (LsmEventListener* listener : listeners_) {
      auto observer = listener->OnOperationBegin(output_context);
      if (observer) output.observers.push_back(std::move(observer));
    }
    uint64_t id;
    {
      MutexLock lock(&mu_);
      id = next_component_id_++;
    }
    if (!input->Valid()) {
      // An empty stream (a merge can reconcile everything away): no new
      // component rather than an empty file, but the operation still seals,
      // with empty metadata, and keeps the id it took.
      output.metadata.id = id;
      output.metadata.level = context.target_level;
      {
        MutexLock lock(&mu_);
        output.metadata.timestamp = logical_clock_++;
      }
      outputs->push_back(std::move(output));
      return Status::OK();
    }
    if (pending != nullptr) {
      // Record the output id before its file can exist.
      pending->output_ids.push_back(id);
      Status persisted = PersistManifest(*pending);
      if (!persisted.ok()) return unwind(std::move(persisted));
    }
    // An arbiter bloom grant (0 = none) overrides the configured density for
    // components built from here on; serialization is size-independent, so
    // the on-disk format is unchanged.
    ComponentWriteOptions write_options = options_.write_options;
    const int bloom_bits =
        bloom_bits_override_.load(std::memory_order_relaxed);
    if (bloom_bits != 0) write_options.bloom_bits_per_key = bloom_bits;
    DiskComponentBuilder builder(
        env_, ComponentPath(id), output_context.expected_records,
        write_options, DiskComponentReadOptions{options_.block_cache});
    uint64_t approx_bytes = 0;
    do {
      const EntryView& entry = input->entry();
      Status s = builder.Add(entry);
      if (!s.ok()) {
        builder.Abandon();
        return unwind(std::move(s));
      }
      for (auto& observer : output.observers) observer->OnEntryView(entry);
      approx_bytes += entry.value.size() + 32;  // key + framing estimate
      input->Next();
      // A split lands on a key boundary; the next output continues here.
    } while (input->Valid() &&
             (split_bytes == 0 || approx_bytes < split_bytes));
    if (!input->status().ok()) {
      builder.Abandon();
      return unwind(input->status());
    }
    uint64_t timestamp;
    {
      MutexLock lock(&mu_);
      timestamp = logical_clock_++;
    }
    auto component_or = builder.Finish(id, timestamp, context.target_level);
    if (!component_or.ok()) return unwind(component_or.status());
    output.component = std::move(component_or).value();
    output.metadata = output.component->metadata();
    // record_count includes the anti-matter entries.
    consumed_anti += output.metadata.anti_matter_count;
    consumed_records +=
        output.metadata.record_count - output.metadata.anti_matter_count;
    LSMSTATS_LOG(kDebug) << options_.name << ": "
                         << LsmOperationToString(context.op) << " sealed "
                         << output.metadata.record_count << " entries ("
                         << output.metadata.anti_matter_count
                         << " anti-matter) as component " << id
                         << " at level " << context.target_level;
    outputs->push_back(std::move(output));
  } while (input->Valid());
  return Status::OK();
}

void LsmTree::NotifySealed(const std::vector<SealedOutput>& outputs,
                           const std::vector<uint64_t>& replaced_ids) {
  const std::vector<uint64_t> none;
  for (size_t i = 0; i < outputs.size(); ++i) {
    for (const auto& observer : outputs[i].observers) {
      observer->OnComponentSealed(outputs[i].metadata,
                                  i == 0 ? replaced_ids : none);
    }
  }
}

Status LsmTree::FlushOneImmutable() {
  MutexLock work(&work_mu_);
  std::shared_ptr<const MemTable> victim;
  {
    MutexLock lock(&mu_);
    if (immutables_.empty()) return Status::OK();
    victim = immutables_.front();
  }

  // Probe before building: a full disk should fail the flush cleanly here,
  // not leave a half-written temporary behind.
  LSMSTATS_RETURN_IF_ERROR(CheckFreeSpace("flush"));

  OperationContext context;
  context.op = LsmOperation::kFlush;
  context.expected_records = victim->EntryCount();
  context.expected_anti_matter = victim->AntiMatterCount();

  // The victim is frozen, so the flush reads it in place.
  std::unique_ptr<EntryCursor> cursor = MemTable::NewFrozenCursor(victim);

  std::vector<SealedOutput> outputs;
  LSMSTATS_RETURN_IF_ERROR(BuildComponents(context, cursor.get(),
                                           /*split_bytes=*/0,
                                           /*pending=*/nullptr, &outputs));
  {
    MutexLock lock(&mu_);
    // A rotated memtable is never empty, so a flush always seals a
    // component; swap it in and retire the memtable in one step so readers
    // never see the data twice or not at all.
    LSMSTATS_CHECK(outputs.size() == 1 && outputs.front().component);
    components_.insert(components_.begin(), outputs.front().component);
    immutables_.pop_front();
    flushes_completed_.fetch_add(1, std::memory_order_release);
    cv_.NotifyAll();
  }
  NotifySealed(outputs, {});
  return Status::OK();
}

Status LsmTree::Flush() {
  {
    MutexLock lock(&mu_);
    LSMSTATS_RETURN_IF_ERROR(WriteGateLocked());
    RotateLocked();
  }
  for (;;) {
    {
      MutexLock lock(&mu_);
      if (immutables_.empty()) break;
    }
    LSMSTATS_RETURN_IF_ERROR(FlushOneImmutableWithRetry());
    LSMSTATS_RETURN_IF_ERROR(MaybeMerge());
  }
  return WaitForBackgroundWork();
}

Status LsmTree::RequestFlush() {
  if (options_.scheduler == nullptr) return Flush();
  bool rotated;
  {
    MutexLock lock(&mu_);
    LSMSTATS_RETURN_IF_ERROR(WriteGateLocked());
    rotated = RotateLocked();
    if (rotated) ++pending_jobs_;
  }
  if (rotated) {
    options_.scheduler->Schedule(TaskPriority{TaskClass::kFlush, 0},
                                 [this] { BackgroundFlushJob(); });
  }
  return Status::OK();
}

Status LsmTree::WaitForBackgroundWork() {
  MutexLock lock(&mu_);
  while (pending_jobs_ != 0) cv_.Wait(&mu_);
  return background_error_;
}

Status LsmTree::BackgroundError() const {
  MutexLock lock(&mu_);
  return background_error_;
}

void LsmTree::FinishJob(Status s) {
  bool recover = false;
  {
    MutexLock lock(&mu_);
    if (!s.ok()) recover = SetBackgroundErrorLocked(std::move(s));
    --pending_jobs_;
    cv_.NotifyAll();
  }
  // Schedule with no lock held (rank kScheduler sits above every tree lock,
  // and a shut-down scheduler runs the job inline on this thread).
  if (recover) {
    options_.scheduler->Schedule([this] { BackgroundRecoveryJob(); });
  }
}

bool LsmTree::SetBackgroundErrorLocked(Status s) {
  if (s.ok()) return false;
  ErrorSeverity severity = ClassifySeverity(s);
  last_error_ = s;
  last_severity_ = severity;
  if (!background_error_.ok()) {
    // An episode is already in flight. Keep the first error sticky; a worse
    // failure arriving mid-recovery still demotes the tree to read-only (the
    // pending recovery job sees the mode change and will not clear it).
    if (severity >= ErrorSeverity::kHard && mode_ != TreeMode::kReadOnly) {
      EnterReadOnlyLocked();
    }
    return false;
  }
  background_error_ = std::move(s);
  cv_.NotifyAll();  // backpressured writers must wake up and fail fast
  if (severity == ErrorSeverity::kTransient && options_.auto_recovery &&
      options_.scheduler != nullptr && !shutting_down_) {
    mode_ = TreeMode::kRecovering;
    degraded_since_ = std::chrono::steady_clock::now();
    recovery_round_ = 0;
    ++pending_jobs_;  // the recovery job's slot; released in its epilogue
    return true;
  }
  EnterReadOnlyLocked();
  return false;
}

void LsmTree::ClearBackgroundErrorLocked() {
  background_error_ = Status::OK();
  if (mode_ != TreeMode::kHealthy) {
    degraded_accum_ += std::chrono::duration_cast<std::chrono::milliseconds>(
        std::chrono::steady_clock::now() - degraded_since_);
  }
  mode_ = TreeMode::kHealthy;
  recovery_round_ = 0;
  ++recoveries_succeeded_;
  cv_.NotifyAll();
}

void LsmTree::EnterReadOnlyLocked() {
  if (mode_ == TreeMode::kHealthy) {
    degraded_since_ = std::chrono::steady_clock::now();
  }
  mode_ = TreeMode::kReadOnly;
  cv_.NotifyAll();
}

Status LsmTree::WriteGateLocked() const {
  if (background_error_.ok()) return Status::OK();
  const char* state = mode_ == TreeMode::kRecovering
                          ? "recovering from"
                          : "read-only (degraded) after";
  // Keep the sticky error's code so callers branching on IOError/Corruption
  // behave the same whether they raced the failure or arrived later.
  return Status(background_error_.code(),
                options_.name + " is " + state + " a " +
                    ErrorSeverityToString(last_severity_) +
                    " background error: " + background_error_.message());
}

Status LsmTree::NoteStructuralFailure(Status s) {
  if (s.ok()) return s;
  ErrorSeverity severity = ClassifySeverity(s);
  MutexLock lock(&mu_);
  if (severity == ErrorSeverity::kTransient) {
    // The caller got the error back and the failed operation left no partial
    // state, so nothing is sticky — the seed's inline-error semantics, which
    // the crash sweeps rely on. Only the health surface records it.
    last_error_ = std::move(s);
    last_severity_ = severity;
    return last_error_;
  }
  bool recover = SetBackgroundErrorLocked(s);
  // Non-transient errors never take a recovery slot, so there is nothing to
  // schedule — which is what makes this safe to call with work_mu_ held.
  LSMSTATS_CHECK(!recover);
  return s;
}

Status LsmTree::CheckFreeSpace(const char* what) const {
  if (options_.min_free_bytes == 0) return Status::OK();
  auto free = env_->GetFreeSpace(options_.directory);
  // A failed probe must not stop the engine; only a successful answer below
  // the floor counts as disk-full.
  if (!free.ok()) return Status::OK();
  if (*free < options_.min_free_bytes) {
    // Lock-free by contract (see SetPressureCallback); the caller may hold
    // work_mu_, so no engine lock may be taken here.
    if (pressure_callback_) pressure_callback_();
    return Status::IOError(std::string(what) +
                           " aborted by free-space watchdog: " +
                           std::to_string(*free) + " bytes free in " +
                           options_.directory + ", need " +
                           std::to_string(options_.min_free_bytes));
  }
  return Status::OK();
}

Status LsmTree::RunWithTransientRetry(const char* what,
                                      const std::function<Status()>& body) {
  Status s = body();
  for (int attempt = 0;
       !s.ok() && ClassifySeverity(s) == ErrorSeverity::kTransient &&
       attempt < options_.background_flush_retries;
       ++attempt) {
    LSMSTATS_LOG(kWarning) << options_.name << ": " << what << " failed ("
                           << s.ToString() << "); retrying";
    {
      MutexLock lock(&mu_);
      // Interruptible backoff: teardown sets shutting_down_ and wakes us, so
      // a dying tree never waits out a retry schedule.
      if (cv_.WaitFor(&mu_, options_.flush_retry_backoff * (1 << attempt),
                      [this] {
                        mu_.AssertHeld();
                        return shutting_down_;
                      })) {
        return s;
      }
    }
    s = body();
  }
  return s;
}

Status LsmTree::FlushOneImmutableWithRetry() {
  return NoteStructuralFailure(
      RunWithTransientRetry("flush", [this] { return FlushOneImmutable(); }));
}

Status LsmTree::DrainPendingWork() {
  for (;;) {
    {
      MutexLock lock(&mu_);
      if (immutables_.empty()) break;
    }
    LSMSTATS_RETURN_IF_ERROR(FlushOneImmutableWithRetry());
  }
  return MaybeMerge();
}

void LsmTree::BackgroundRecoveryJob() {
  {
    MutexLock lock(&mu_);
    ++recovery_attempts_;
    int round = recovery_round_++;
    auto backoff = options_.auto_recovery_backoff * (1 << std::min(round, 6));
    if (cv_.WaitFor(&mu_, backoff, [this] {
          mu_.AssertHeld();
          return shutting_down_;
        })) {
      // Teardown: leave the error in place and release the slot.
      --pending_jobs_;
      cv_.NotifyAll();
      return;
    }
  }
  Status s = DrainPendingWork();
  bool reschedule = false;
  {
    MutexLock lock(&mu_);
    if (s.ok()) {
      // A concurrent escalation (hard error from another job) or an explicit
      // Resume() may have moved the tree out of kRecovering; only clear what
      // is still ours to clear.
      if (mode_ == TreeMode::kRecovering && !background_error_.ok()) {
        LSMSTATS_LOG(kInfo)
            << options_.name << ": auto-recovery cleared background error ("
            << last_error_.ToString() << ") after " << recovery_round_
            << " attempt(s)";
        ClearBackgroundErrorLocked();
      }
    } else if (ClassifySeverity(s) == ErrorSeverity::kTransient &&
               mode_ == TreeMode::kRecovering && !shutting_down_ &&
               recovery_round_ < options_.max_auto_recovery_attempts) {
      reschedule = true;
      ++pending_jobs_;
    } else {
      last_error_ = s;
      last_severity_ = ClassifySeverity(s);
      LSMSTATS_LOG(kError) << options_.name << ": auto-recovery gave up ("
                           << s.ToString() << "); tree is read-only";
      EnterReadOnlyLocked();
    }
    --pending_jobs_;
    cv_.NotifyAll();
  }
  if (reschedule) {
    options_.scheduler->Schedule([this] { BackgroundRecoveryJob(); });
  }
}

Status LsmTree::Resume() {
  {
    MutexLock lock(&mu_);
    if (background_error_.ok()) return Status::OK();
    if (last_severity_ == ErrorSeverity::kFatal) {
      return Status::FailedPrecondition(
          options_.name + ": cannot resume from a fatal error: " +
          background_error_.message());
    }
    ++recovery_attempts_;
  }
  Status s = DrainPendingWork();
  MutexLock lock(&mu_);
  if (!s.ok()) {
    last_error_ = s;
    last_severity_ = ClassifySeverity(s);
    EnterReadOnlyLocked();
    return s;
  }
  // A concurrent auto-recovery pass may have beaten us to the clear.
  if (!background_error_.ok()) ClearBackgroundErrorLocked();
  return Status::OK();
}

HealthSnapshot LsmTree::Health() const {
  MutexLock lock(&mu_);
  HealthSnapshot snap;
  snap.mode = mode_;
  snap.last_error = last_error_;
  snap.last_severity = last_severity_;
  snap.recovery_attempts = recovery_attempts_;
  snap.recoveries_succeeded = recoveries_succeeded_;
  snap.time_in_degraded = degraded_accum_;
  if (mode_ != TreeMode::kHealthy) {
    snap.time_in_degraded +=
        std::chrono::duration_cast<std::chrono::milliseconds>(
            std::chrono::steady_clock::now() - degraded_since_);
  }
  snap.merges_completed = merges_completed_;
  snap.merge_bytes_read = merge_bytes_read_;
  snap.merge_bytes_written = merge_bytes_written_;
  std::map<uint32_t, LevelStats> levels;
  for (const auto& component : components_) {
    const ComponentMetadata& md = component->metadata();
    LevelStats& stats = levels[md.level];
    stats.level = md.level;
    ++stats.components;
    stats.bytes += md.file_size;
    stats.records += md.record_count;
    stats.anti_matter += md.anti_matter_count;
    stats.bloom_bytes += component->bloom_size_bytes();
  }
  snap.levels.reserve(levels.size());
  for (const auto& [level, stats] : levels) snap.levels.push_back(stats);
  return snap;
}

void LsmTree::BackgroundFlushJob() {
  Status s = FlushOneImmutableWithRetry();
  bool want_merge = false;
  uint64_t merge_weight = 0;
  if (s.ok()) {
    MutexLock lock(&mu_);
    std::vector<ComponentMetadata> metadata;
    metadata.reserve(components_.size());
    for (const auto& component : components_) {
      metadata.push_back(component->metadata());
    }
    auto decision = options_.merge_policy->PickMerge(metadata);
    want_merge = decision.has_value();
    if (want_merge) {
      // The plan's input bytes become the task's priority weight, so small
      // merges dispatch before big ones. BackgroundMergeJob re-picks under
      // work_mu_, so the weight is advisory — staleness only costs ordering.
      for (uint64_t id : decision->input_ids) {
        for (const ComponentMetadata& md : metadata) {
          if (md.id == id) {
            merge_weight += md.file_size;
            break;
          }
        }
      }
      ++pending_jobs_;
    }
  }
  // Schedule outside mu_ (see MaybeFlushAfterWrite); post-shutdown this
  // runs the whole merge inline before the flush job is accounted done.
  if (want_merge) {
    options_.scheduler->Schedule(TaskPriority{TaskClass::kMerge, merge_weight},
                                 [this] { BackgroundMergeJob(); });
  }
  FinishJob(std::move(s));
}

void LsmTree::BackgroundMergeJob() { FinishJob(MaybeMerge()); }

Status LsmTree::MaybeMerge() {
  MutexLock work(&work_mu_);
  for (;;) {
    std::optional<MergeDecision> decision;
    {
      MutexLock lock(&mu_);
      std::vector<ComponentMetadata> metadata;
      metadata.reserve(components_.size());
      for (const auto& component : components_) {
        metadata.push_back(component->metadata());
      }
      decision = options_.merge_policy->PickMerge(metadata);
      // Full validation happens in ResolvePlanLocked against the live
      // stack; an empty plan is nonsense from any policy.
      if (decision.has_value()) {
        LSMSTATS_CHECK(!decision->input_ids.empty());
      }
    }
    if (!decision.has_value()) return Status::OK();
    Status s = MergePlanWithRetry(*decision);
    if (!s.ok()) return NoteStructuralFailure(std::move(s));
  }
}

Status LsmTree::MergePlanWithRetry(const MergeDecision& plan) {
  // Retrying the install phase with the same plan is safe: a failed
  // ExecuteMergePlan never ran its install, and work_mu_ (held by the
  // caller) pins the component stack, so the plan's input ids stay valid.
  // Once the install ran the stack HAS changed — `installed` makes sure a
  // retry only re-runs the idempotent commit + cleanup, never the merge.
  std::vector<std::shared_ptr<DiskComponent>> obsolete;
  bool installed = false;
  return RunWithTransientRetry("merge", [this, &plan, &obsolete, &installed] {
    work_mu_.AssertHeld();
    if (!installed) {
      LSMSTATS_RETURN_IF_ERROR(CheckFreeSpace("merge"));
      LSMSTATS_RETURN_IF_ERROR(ExecuteMergePlan(plan, &obsolete));
      installed = true;
    }
    // Commit the manifest BEFORE unlinking inputs: recovery must never find
    // input files gone while the manifest still calls the merge pending.
    LSMSTATS_RETURN_IF_ERROR(PersistManifest(std::nullopt));
    return DeleteObsoleteComponents(&obsolete);
  });
}

Status LsmTree::DeleteObsoleteComponents(
    std::vector<std::shared_ptr<DiskComponent>>* obsolete) {
  while (!obsolete->empty()) {
    // In-flight readers may still hold cursors on these components; they
    // keep reading through their open file handles (POSIX unlink keeps the
    // data alive until the last handle closes).
    LSMSTATS_RETURN_IF_ERROR(obsolete->back()->DeleteFile());
    obsolete->pop_back();
  }
  return Status::OK();
}

Status LsmTree::ForceFullMerge() {
  MutexLock work(&work_mu_);
  MergeDecision plan;
  {
    MutexLock lock(&mu_);
    // A lone component is rewritten only to drop anti-matter nothing older
    // can match (deletes of records that WAL replay re-applied as non-fresh
    // inserts); otherwise a full merge would copy it byte for byte.
    if (components_.empty() ||
        (components_.size() == 1 &&
         components_.front()->metadata().anti_matter_count == 0)) {
      return Status::OK();
    }
    for (const auto& component : components_) {
      plan.input_ids.push_back(component->metadata().id);
      // Deepest input level, so a leveled stack collapses into its bottom
      // level; an all-level-0 (paper-mode) stack keeps target 0 and behaves
      // exactly as the flat full merge always has.
      plan.target_level =
          std::max(plan.target_level, component->metadata().level);
    }
  }
  Status s = MergePlanWithRetry(plan);
  if (!s.ok()) return NoteStructuralFailure(std::move(s));
  return Status::OK();
}

void LsmTree::ResolvePlanLocked(const MergeDecision& plan,
                                ResolvedPlan* resolved) {
  // An invalid plan is a merge-policy bug, not an environment condition, so
  // violations abort (the seed's stance on policy contract checks).
  LSMSTATS_CHECK(!plan.input_ids.empty());
  for (uint64_t id : plan.input_ids) {
    size_t pos = components_.size();
    for (size_t i = 0; i < components_.size(); ++i) {
      if (components_[i]->metadata().id == id) {
        pos = i;
        break;
      }
    }
    LSMSTATS_CHECK(pos < components_.size());  // unknown input id
    resolved->positions.push_back(pos);
  }
  std::sort(resolved->positions.begin(), resolved->positions.end());
  for (size_t i = 1; i < resolved->positions.size(); ++i) {
    // Duplicate input ids would double-free on install.
    LSMSTATS_CHECK(resolved->positions[i] != resolved->positions[i - 1]);
  }

  uint32_t max_input_level = 0;
  for (size_t pos : resolved->positions) {
    const ComponentMetadata& md = components_[pos]->metadata();
    max_input_level = std::max(max_input_level, md.level);
    resolved->inputs.push_back(components_[pos]);
    resolved->replaced_ids.push_back(md.id);
    resolved->input_bytes += md.file_size;
    resolved->context.expected_records += md.record_count;
    resolved->context.expected_anti_matter += md.anti_matter_count;
  }
  resolved->context.op = LsmOperation::kMerge;
  resolved->context.target_level = plan.target_level;

  auto is_input = [resolved](size_t pos) {
    return std::binary_search(resolved->positions.begin(),
                              resolved->positions.end(), pos);
  };

  if (plan.target_level == 0) {
    // Flat-stack semantics: a contiguous range collapses in place. Valid
    // regardless of the inputs' levels, which keeps legacy policies working
    // on a stack a leveled run shaped before a policy switch.
    for (size_t i = 1; i < resolved->positions.size(); ++i) {
      LSMSTATS_CHECK(resolved->positions[i] == resolved->positions[i - 1] + 1);
    }
    resolved->install_before = resolved->positions.front();
    resolved->drop_anti_matter =
        resolved->positions.back() == components_.size() - 1;
  } else {
    LSMSTATS_CHECK(plan.target_level == max_input_level ||
                   plan.target_level == max_input_level + 1);
    // Outputs go where the target level's order puts them: before the first
    // survivor at a deeper level, or before the first same-level survivor
    // whose range starts past the inputs'.
    LsmKey input_min{};
    bool have_min = false;
    for (const auto& input : resolved->inputs) {
      const ComponentMetadata& md = input->metadata();
      if (md.record_count + md.anti_matter_count == 0) continue;
      if (!have_min || md.min_key < input_min) {
        input_min = md.min_key;
        have_min = true;
      }
    }
    size_t install = components_.size();
    for (size_t i = 0; i < components_.size(); ++i) {
      if (is_input(i)) continue;
      const ComponentMetadata& md = components_[i]->metadata();
      if (md.level > plan.target_level ||
          (md.level == plan.target_level && have_min &&
           input_min < md.min_key)) {
        install = i;
        break;
      }
    }
    resolved->install_before = install;
    // Recency safety: a survivor that key-overlaps a NEWER input must stay
    // below the outputs (its records lose to theirs), one that overlaps an
    // OLDER input must stay above them. A survivor pinched between the two
    // has no valid slot — the policy produced an impossible plan.
    for (size_t i = 0; i < components_.size(); ++i) {
      if (is_input(i)) continue;
      const ComponentMetadata& md = components_[i]->metadata();
      bool newer_overlap = false;
      bool older_overlap = false;
      for (size_t pos : resolved->positions) {
        if (!ComponentRangesOverlap(components_[pos]->metadata(), md)) {
          continue;
        }
        if (pos < i) newer_overlap = true;
        if (pos > i) older_overlap = true;
      }
      if (newer_overlap) LSMSTATS_CHECK(install <= i);
      if (older_overlap) LSMSTATS_CHECK(install > i);
    }
    // Anti-matter reconciles away when nothing older than the outputs
    // overlaps the inputs' key ranges.
    bool older_overlapping = false;
    for (size_t i = install; i < components_.size() && !older_overlapping;
         ++i) {
      if (is_input(i)) continue;
      for (const auto& input : resolved->inputs) {
        if (ComponentRangesOverlap(input->metadata(),
                                   components_[i]->metadata())) {
          older_overlapping = true;
          break;
        }
      }
    }
    resolved->drop_anti_matter = !older_overlapping;
  }
  resolved->context.includes_oldest_component = resolved->drop_anti_matter;
  if (resolved->inputs.size() == 1) {
    // A single-input plan must still change something: a split rewrite, a
    // level move, or dropping anti-matter. Anything else would install a
    // byte-identical copy forever.
    const ComponentMetadata& md = resolved->inputs.front()->metadata();
    LSMSTATS_CHECK(plan.output_split_bytes > 0 ||
                   plan.target_level != md.level ||
                   (resolved->drop_anti_matter && md.anti_matter_count > 0));
  }
}

Status LsmTree::PersistManifest(
    const std::optional<ManifestPendingMerge>& pending) {
  ComponentManifest manifest;
  {
    MutexLock lock(&mu_);
    manifest.next_component_id = next_component_id_;
    manifest.stack.reserve(components_.size());
    for (const auto& component : components_) {
      manifest.stack.push_back(ManifestEntry{component->metadata().id,
                                             component->metadata().level});
    }
  }
  manifest.pending = pending;
  LSMSTATS_RETURN_IF_ERROR(WriteComponentManifest(env_, options_.directory,
                                                  options_.name, manifest));
  manifest_present_ = true;
  return Status::OK();
}

void LsmTree::CheckLevelInvariantLocked() const {
#ifndef NDEBUG
  // Within each level >= 1 the components must cover pairwise-disjoint key
  // ranges — the property install positions and leveled reads rely on.
  std::map<uint32_t, std::vector<const ComponentMetadata*>> by_level;
  for (const auto& component : components_) {
    const ComponentMetadata& md = component->metadata();
    if (md.level == 0) continue;
    if (md.record_count + md.anti_matter_count == 0) continue;
    by_level[md.level].push_back(&md);
  }
  for (auto& [level, mds] : by_level) {
    std::sort(mds.begin(), mds.end(),
              [](const ComponentMetadata* a, const ComponentMetadata* b) {
                return a->min_key < b->min_key;
              });
    for (size_t i = 1; i < mds.size(); ++i) {
      LSMSTATS_CHECK(mds[i - 1]->max_key < mds[i]->min_key);
    }
  }
#endif
}

Status LsmTree::ExecuteMergePlan(
    const MergeDecision& plan,
    std::vector<std::shared_ptr<DiskComponent>>* obsolete) {
  // Caller holds work_mu_: no other structural operation can reshape the
  // stack between the resolve below and the install.
  ResolvedPlan resolved;
  {
    MutexLock lock(&mu_);
    ResolvePlanLocked(plan, &resolved);
  }

  // Write-ahead record of the merge BEFORE any output file exists,
  // re-written as each output id is allocated: a crash at any point leaves
  // the committed stack intact and the uncommitted outputs identifiable.
  ManifestPendingMerge pending;
  pending.target_level = plan.target_level;
  pending.input_ids = resolved.replaced_ids;
  LSMSTATS_RETURN_IF_ERROR(PersistManifest(pending));

  std::vector<std::unique_ptr<EntryCursor>> inputs;
  inputs.reserve(resolved.inputs.size());
  for (const auto& component : resolved.inputs) {
    inputs.push_back(component->NewCursor());
  }
  MergeCursor merged(std::move(inputs), resolved.drop_anti_matter);
  std::vector<SealedOutput> outputs;
  LSMSTATS_RETURN_IF_ERROR(BuildComponents(resolved.context, &merged,
                                           plan.output_split_bytes, &pending,
                                           &outputs));

  auto is_input = [&resolved](size_t pos) {
    return std::binary_search(resolved.positions.begin(),
                              resolved.positions.end(), pos);
  };
  {
    MutexLock lock(&mu_);
    // Rebuild the stack with the inputs dropped and the outputs (none when
    // everything reconciled away) spliced in before install_before, which
    // may be components_.size(): the bottom of the stack.
    std::vector<std::shared_ptr<DiskComponent>> next;
    next.reserve(components_.size() - resolved.positions.size() +
                 outputs.size());
    for (size_t i = 0; i <= components_.size(); ++i) {
      if (i == resolved.install_before) {
        for (const SealedOutput& output : outputs) {
          if (output.component) next.push_back(output.component);
        }
      }
      if (i < components_.size() && !is_input(i)) {
        next.push_back(components_[i]);
      }
    }
    components_ = std::move(next);
    ++merges_completed_;
    merge_bytes_read_ += resolved.input_bytes;
    for (const SealedOutput& output : outputs) {
      merge_bytes_written_ += output.metadata.file_size;
    }
    CheckLevelInvariantLocked();
  }
  NotifySealed(outputs, resolved.replaced_ids);
  *obsolete = std::move(resolved.inputs);
  return Status::OK();
}

Status LsmTree::Bulkload(EntryCursor* input, uint64_t expected_records,
                         uint64_t expected_anti_matter) {
  {
    MutexLock work(&work_mu_);
    {
      MutexLock lock(&mu_);
      LSMSTATS_RETURN_IF_ERROR(WriteGateLocked());
      if (!memtable_->Empty() || !immutables_.empty()) {
        return Status::FailedPrecondition(
            "bulkload requires an empty memtable; flush first");
      }
    }
    OperationContext context;
    context.op = LsmOperation::kBulkload;
    context.expected_records = expected_records;
    context.expected_anti_matter = expected_anti_matter;

    std::vector<SealedOutput> outputs;
    Status s = BuildComponents(context, input, /*split_bytes=*/0,
                               /*pending=*/nullptr, &outputs);
    // An out-of-order stream is the caller's error: the build was abandoned
    // and nothing changed, so the tree stays healthy. No transient retry
    // either: the caller owns the input cursor and it is not rewindable, so
    // only the health surface is updated.
    if (s.code() == StatusCode::kInvalidArgument) return s;
    if (!s.ok()) return NoteStructuralFailure(std::move(s));
    {
      MutexLock lock(&mu_);
      if (outputs.front().component) {
        components_.insert(components_.begin(), outputs.front().component);
      }
    }
    NotifySealed(outputs, {});
  }
  return MaybeMerge();
}

size_t LsmTree::ComponentCount() const {
  MutexLock lock(&mu_);
  return components_.size();
}

std::vector<ComponentMetadata> LsmTree::ComponentsMetadata() const {
  MutexLock lock(&mu_);
  std::vector<ComponentMetadata> result;
  result.reserve(components_.size());
  for (const auto& component : components_) {
    result.push_back(component->metadata());
  }
  return result;
}

uint64_t LsmTree::MemTableEntryCount() const {
  MutexLock lock(&mu_);
  return memtable_->EntryCount();
}

uint64_t LsmTree::MemTableBytes() const {
  MutexLock lock(&mu_);
  return memtable_->ApproximateBytes();
}

size_t LsmTree::ImmutableMemTableCount() const {
  MutexLock lock(&mu_);
  return immutables_.size();
}

uint64_t LsmTree::MemTablesRotated() const {
  MutexLock lock(&mu_);
  return flushes_completed_.load(std::memory_order_relaxed) +
         immutables_.size();
}

uint64_t LsmTree::TotalMemTableBytes() const {
  MutexLock lock(&mu_);
  uint64_t total = memtable_->ApproximateBytes();
  // Rotated memtables stay resident until their flush completes; a
  // write-buffer accounting that ignores the queue undercounts exactly when
  // memory pressure is highest.
  for (const auto& immutable : immutables_) {
    total += immutable->ApproximateBytes();
  }
  return total;
}

uint64_t LsmTree::TotalBloomBytes() const {
  MutexLock lock(&mu_);
  uint64_t total = 0;
  for (const auto& component : components_) {
    total += component->bloom_size_bytes();
  }
  return total;
}

std::vector<std::string> LsmTree::QuarantinedFiles() const {
  MutexLock lock(&mu_);
  return quarantined_files_;
}

uint64_t LsmTree::TotalDiskRecords() const {
  MutexLock lock(&mu_);
  uint64_t total = 0;
  for (const auto& component : components_) {
    total += component->metadata().record_count;
  }
  return total;
}

}  // namespace lsmstats
