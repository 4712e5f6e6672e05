// Dataset: one logical collection backed by an LSM primary index plus one
// LSM secondary index per indexed field, with statistics collectors attached
// to every index (the AsterixDB storage layout of paper §3.1: the LSM
// framework wraps both the primary B-tree and all secondary indexes).
//
// Like AsterixDB, the dataset enforces modification constraints — insert
// fails on an existing key, update/delete require the key to exist (§4.3.4)
// — which is what lets the memtable annihilate insert+delete pairs silently
// instead of emitting anti-matter.
//
// Secondary index maintenance follows the LSM discipline (Appendix A): an
// update that moves a record from SK a to SK b writes an anti-matter entry
// for <a, pk> and a regular entry for <b, pk>; a delete writes anti-matter
// for both the primary key and every <SK, pk>.
//
// All indexes flush together, driven by the primary memtable's budget, so
// one "flush" of the dataset produces one component (and one synopsis) per
// index — matching how the paper's prototype ties statistics to dataset
// lifecycle events.
//
// The dataset keeps its index trees in one list in tree-id order: 0 is the
// primary, then one secondary per indexed field (schema order), then one
// composite per DatasetOptions::composite_indexes entry. Each entry carries
// its key rule — PrimaryKey(pk), <SK, PK> or <SK1, SK2, PK> — so insert,
// delete, update and bulkload all derive every index's entries from that one
// rule, and every per-index operation (flush, merge, health, resume, WAL
// routing by tree id) is one loop over the list.

#ifndef LSMSTATS_DB_DATASET_H_
#define LSMSTATS_DB_DATASET_H_

#include <atomic>
#include <deque>
#include <memory>
#include <string>
#include <vector>

#include "db/memory_arbiter.h"
#include "db/record.h"
#include "lsm/lsm_tree.h"
#include "lsm/scheduler.h"
#include "lsm/wal.h"
#include "lsm/write_batch.h"
#include "stats/statistics_collector.h"
#include "synopsis/builder.h"

namespace lsmstats {

struct DatasetOptions {
  std::string directory;
  std::string name = "dataset";
  Schema schema;
  // Statistics configuration applied to every indexed field (the element
  // budget knob of §4.3.1). SynopsisType::kNone disables collection — the
  // NoStats baseline.
  SynopsisType synopsis_type = SynopsisType::kNone;
  size_t synopsis_budget = 256;
  // Also collect statistics on the primary key.
  bool collect_primary_key_stats = false;
  // Composite secondary indexes <fieldA, fieldB, PK> (paper §5 future
  // work). Each gets a 2-D grid-histogram collector; conjunctive range
  // predicates over the pair are estimated without the independence
  // assumption.
  std::vector<std::pair<std::string, std::string>> composite_indexes;
  // Non-indexed schema fields to cover with Greenwald-Khanna quantile
  // sketches built from primary-component streams (the §5 future-work
  // extension; see stats/unsorted_field_collector.h for the anti-matter
  // caveat).
  std::vector<std::string> unsorted_stats_fields;
  // Flush all indexes once the primary memtable holds this many records.
  uint64_t memtable_max_entries = 64 * 1024;
  bool auto_flush = true;
  // Shared by all indexes. Null means NoMerge — the paper-mode default.
  std::shared_ptr<MergePolicy> merge_policy;
  // When set, every index's flush/merge work runs on this scheduler: a full
  // memtable triggers a non-blocking rotation on all indexes, whose flushes
  // then proceed in parallel on the worker pool. Must outlive the dataset.
  // Modifications remain externally synchronized (one logical writer);
  // catalog reads and cardinality estimation are safe concurrently with
  // ongoing ingestion; see DESIGN.md "Threading model".
  BackgroundScheduler* scheduler = nullptr;
  // Where collectors publish synopses; required unless kNone. Must outlive
  // the dataset.
  SynopsisSink* sink = nullptr;
  // Partition tag carried in every published StatisticsKey (§3.4).
  uint32_t partition = 0;
  // Filesystem environment threaded into every index; Env::Default() when
  // null. Must outlive the dataset.
  Env* env = nullptr;
  // Compression codec name ("none", "delta", or a registered external codec)
  // for every component this dataset writes. Open rejects an unknown name.
  std::string compression = "none";
  // When > 0 and `block_cache` is null, Open creates one sharded BlockCache
  // of this many MiB shared by the primary, secondary, and composite trees —
  // a single read-memory budget for the whole dataset.
  uint64_t block_cache_mb = 0;
  // Externally owned cache (e.g. shared across datasets); takes precedence
  // over block_cache_mb.
  std::shared_ptr<BlockCache> block_cache;
  // Write-ahead log. When on, one log stream (`<name>_wal_<seq>.wal`) owned
  // by the dataset serves the primary, secondary, and composite trees: a
  // logical modification spanning every index is logged — and under
  // every-record sync, fsynced — exactly once, as one atomic batch frame
  // whose entries carry tree ids. Recovery demultiplexes by tree id; a sealed
  // segment is reclaimed only after ALL trees have flushed past it. The index
  // trees themselves never log. Off by default.
  bool wal = false;
  WalSyncMode wal_sync_mode = WalSyncMode::kFlushOnly;
  // Free-space watchdog floor applied to every index tree (flush/merge
  // refuse to start below it) and to WAL segment creation; see
  // LsmTreeOptions::min_free_bytes. 0 (the default) turns it off.
  uint64_t min_free_bytes = 0;
  // Global memory budget (MiB) arbitrated across the dataset's memtables,
  // block cache, bloom filters, and synopsis/estimator cache by a
  // MemoryArbiter (see db/memory_arbiter.h). 0 (the default) constructs no
  // arbiter, and every knob keeps its static value bit-identically.
  uint64_t total_memory_mb = 0;
};

// Aggregate health of a dataset's index trees (Dataset::Health()).
struct DatasetHealth {
  // Worst mode across all trees: one read-only index makes the dataset
  // read-only as a whole, because a logical modification must land in every
  // index to keep them synchronized.
  TreeMode mode = TreeMode::kHealthy;
  size_t recovering_trees = 0;
  size_t degraded_trees = 0;  // trees in kReadOnly
  // Per-tree snapshots, primary first, then secondaries and composites in
  // schema order; .first is the tree name (e.g. "<dataset>_sk_<field>").
  std::vector<std::pair<std::string, HealthSnapshot>> trees;
  // WAL segments Open renamed to `<file>.quarantine` because of mid-log
  // corruption: their acknowledged records, and those of every newer
  // segment, were not replayed.
  std::vector<std::string> wal_quarantined_files;
};

class Dataset {
 public:
  [[nodiscard]]
  static StatusOr<std::unique_ptr<Dataset>> Open(DatasetOptions options);

  // Stops the arbiter, then destroys the index trees (each drains its
  // background jobs) before the collectors they notify.
  ~Dataset();

  Dataset(const Dataset&) = delete;
  Dataset& operator=(const Dataset&) = delete;

  // --- Modifications -------------------------------------------------------

  // Fails with AlreadyExists if the primary key is present.
  [[nodiscard]] Status Insert(const Record& record);

  // Fails with NotFound if the primary key is absent.
  [[nodiscard]] Status Update(const Record& record);
  [[nodiscard]] Status Delete(int64_t pk);

  // Inserts or updates without a prior existence requirement.
  [[nodiscard]] Status Upsert(const Record& record);

  // Inserts every record as one atomic unit: all constraints are validated
  // up front (schema match, no existing pk, no duplicate pk within the
  // batch), then the whole batch is committed as one WAL frame, so recovery
  // replays it all-or-nothing and every-record sync pays one fsync for the
  // lot. Nothing is applied if validation fails.
  [[nodiscard]] Status PutBatch(const std::vector<Record>& records);

  // Deletes every pk as one atomic unit, with the same up-front validation
  // (pk exists, no duplicates) and the same one-frame commit.
  [[nodiscard]] Status DeleteBatch(const std::vector<int64_t>& pks);

  // Bulkloads `records` (sorted by pk, duplicate-free) into empty indexes:
  // the bottom-up path that produces a single component per index (§4.2).
  // Input whose pks are not strictly increasing, or whose records do not
  // match the schema, is rejected with InvalidArgument before any index is
  // touched.
  [[nodiscard]] Status Load(std::vector<Record> records);

  // --- Reads ---------------------------------------------------------------

  [[nodiscard]] StatusOr<Record> Get(int64_t pk) const;

  // Exact number of live records with field value in [lo, hi]: the ground
  // truth oracle for the accuracy experiments, computed from the secondary
  // index's reconciled scan.
  [[nodiscard]]
  StatusOr<uint64_t> CountRange(const std::string& field, int64_t lo,
                                int64_t hi) const;

  // Exact live record count.
  [[nodiscard]] StatusOr<uint64_t> CountAll() const;

  // --- Lifecycle -----------------------------------------------------------

  // Flushes every index (a staged-ingestion boundary, §4.3.4). A
  // synchronous barrier: in scheduler mode all indexes are rotated first so
  // their flushes overlap on the worker pool, then each is drained.
  [[nodiscard]] Status Flush();
  [[nodiscard]] Status ForceFullMerge();

  // Blocks until every index's scheduled flush/merge jobs completed;
  // returns the first background failure, if any.
  [[nodiscard]] Status WaitForBackgroundWork();

  // Aggregate + per-tree degradation state. Reads stay available in every
  // mode; writes are rejected while any tree is degraded (see
  // CheckWritable).
  [[nodiscard]] DatasetHealth Health() const;

  // Attempts LsmTree::Resume on every degraded index tree (all of them,
  // even after a failure) and returns the first error, so one stuck tree
  // doesn't stop the others from recovering.
  [[nodiscard]] Status Resume();

  // --- Introspection -------------------------------------------------------

  const Schema& schema() const { return options_.schema; }
  const DatasetOptions& options() const { return options_; }
  LsmTree* primary() { return trees_.front().tree.get(); }
  const LsmTree* primary() const { return trees_.front().tree.get(); }
  LsmTree* secondary(const std::string& field);
  LsmTree* composite(const std::string& field_a, const std::string& field_b);
  // The shared block cache (null when none configured); stats expose the
  // dataset-wide hit/miss/eviction counters.
  BlockCache* block_cache() const { return options_.block_cache.get(); }

  // The dataset's memory arbiter; null unless a total budget was configured
  // (DatasetOptions::total_memory_mb).
  MemoryArbiter* memory_arbiter() const { return arbiter_.get(); }

  // Synopsis element budget after any live arbiter grant: the grant (bytes)
  // is translated into elements when the arbiter rebalances, and the next
  // ANALYZE / collector rebuild picks it up. Static options_.synopsis_budget
  // when no arbiter runs.
  size_t EffectiveSynopsisBudget() const {
    const size_t granted =
        effective_synopsis_budget_.load(std::memory_order_relaxed);
    return granted != 0 ? granted : options_.synopsis_budget;
  }

  // Statistics key under which a field's synopses are published.
  StatisticsKey StatsKey(const std::string& field) const;

  // Statistics key of a composite index's 2-D synopses ("fieldA+fieldB").
  StatisticsKey CompositeStatsKey(const std::string& field_a,
                                  const std::string& field_b) const;

  // Exact number of live records with field_a in [lo0, hi0] AND field_b in
  // [lo1, hi1]: the 2-D ground-truth oracle, from the composite index scan.
  [[nodiscard]]
  StatusOr<uint64_t> CountRange2D(const std::string& field_a,
                                  const std::string& field_b, int64_t lo0,
                                  int64_t hi0, int64_t lo1,
                                  int64_t hi1) const;

  uint64_t live_records() const { return live_records_; }

  // Data fsyncs issued / logical records logged by this dataset's WAL (0
  // when the WAL is off). Benchmarks report fsyncs/record from these.
  uint64_t WalSyncCount() const;
  uint64_t WalRecordsLogged() const;

 private:
  // One index tree and the rule that keys a record into it.
  struct IndexTree {
    enum class Kind { kPrimary, kSecondary, kComposite };
    Kind kind = Kind::kPrimary;
    // Schema field indices: a secondary keys on `field_a`, a composite on
    // `field_a` then `field_b`; the primary uses neither.
    size_t field_a = 0;
    size_t field_b = 0;
    std::unique_ptr<LsmTree> tree;

    // PrimaryKey(pk), <SK, PK> or <SK1, SK2, PK>, by kind.
    LsmKey KeyOf(const Record& record) const;
  };

  explicit Dataset(DatasetOptions options);

  [[nodiscard]] Status MaybeFlush();

  // Index tree addressed by a WriteBatchEntry tree id (its position in
  // trees_); null if out of range.
  LsmTree* TreeById(uint32_t tree_id);

  // The index of `kind` on the schema fields named `field_a` (and `field_b`
  // for a composite); null when there is none.
  const IndexTree* FindIndex(IndexTree::Kind kind, const std::string& field_a,
                             const std::string& field_b = {}) const;

  // Logs `batch` to the shared WAL as one atomic frame, durable per the sync
  // mode on return. No-op when the WAL is off or the batch is empty. Called
  // BEFORE the entries are applied, so replay covers the crash window
  // between durability and apply.
  [[nodiscard]] Status LogShared(const WriteBatch& batch);

  // Routes one entry to its tree's Put/Delete/PutAntiMatter, moving the
  // value out.
  [[nodiscard]] Status ApplyEntry(WriteBatchEntry& entry);

  // Append the per-index entries of one logical insert/delete to `batch`,
  // in tree-id order.
  void AppendInsertEntries(const Record& record, WriteBatch* batch) const;
  void AppendDeleteEntries(const Record& old_record, WriteBatch* batch) const;

  // Write-availability gate, checked BEFORE any entry of a mutation is
  // logged or applied: a degraded index tree fails the whole modification up
  // front with an error naming the tree, instead of letting ApplyEntry
  // half-apply a cross-tree batch and leave the indexes desynchronized. (A
  // tree degrading concurrently mid-batch can still surface the error
  // per-entry; the gate removes the common already-degraded case.)
  [[nodiscard]] Status CheckWritable() const;

  // Logs then applies one modification's entries in batch order — the one
  // write path behind Insert/Update/Delete and the atomic batches.
  [[nodiscard]] Status CommitMutation(WriteBatch batch);

  // Seals the shared WAL's active segment at a rotation point; the sealed
  // segment (plus any segments recovered at Open, whose replayed records
  // rotate out with this same boundary) joins wal_sealed_.
  [[nodiscard]] Status SealWal();

  // Moves wal_sealed_ into a new wal_rotated_ group stamped with every
  // tree's MemTablesRotated() count. Called only once every tree has
  // rotated, so no mutable memtable holds a record of those segments.
  // Rotations happen only on the writer's thread, so the counts read here
  // are exactly that rotation's.
  void RecordRotatedWal();

  // Deletes rotated segment groups oldest first, each once every tree's
  // FlushesCompleted() reaches its count — the all-trees-flushed rule that
  // makes one log safe for many trees. On failure the group is kept and a
  // later call retries (deletion is idempotent).
  [[nodiscard]] Status ReclaimRotatedWal();

  DatasetOptions options_;
  Env* env_ = nullptr;  // options_.env or Env::Default(); never null
  // Every index tree, in tree-id order (see the file comment); the primary
  // is always trees_[0].
  std::vector<IndexTree> trees_;
  // The statistics collectors the trees notify, of every kind. Outlive the
  // trees: ~Dataset destroys the trees first.
  std::vector<std::unique_ptr<LsmEventListener>> collectors_;
  uint64_t live_records_ = 0;

  // The dataset's WAL, shared by every index tree (null when the WAL is
  // off). The dataset is externally synchronized, so these need no lock of
  // their own.
  std::unique_ptr<WalLog> wal_;
  // Segments recovered at Open: they back replayed records now sitting in
  // the mutable memtables, so they become reclaimable only at the next
  // rotation boundary (SealWal moves them into wal_sealed_).
  // Recovery runs with the WAL off too, so turning the log off never drops
  // records an earlier run logged.
  std::vector<std::string> wal_recovered_;
  // Segments the Open-time recovery quarantined, reported by Health().
  std::vector<std::string> wal_quarantined_;
  // Sealed segments whose records some tree may still hold in its mutable
  // memtable. The next rotation every tree completes (MaybeFlush or Flush)
  // moves them into a wal_rotated_ group; they are never deleted from here.
  std::vector<std::string> wal_sealed_;
  // Sealed segments every tree has rotated out of its mutable memtable,
  // oldest first, each group with the per-tree MemTablesRotated() count
  // (tree-id order) its rotation reached. ReclaimRotatedWal deletes a group
  // once every tree's FlushesCompleted() reaches its count; MaybeFlush calls
  // it on every write, so a dataset that only ingests keeps a bounded
  // number of segments.
  struct RotatedSegments {
    std::vector<std::string> segments;
    std::vector<uint64_t> flush_targets;
  };
  std::deque<RotatedSegments> wal_rotated_;

  // Synopsis element budget granted by the arbiter (0 = no grant yet / no
  // arbiter). Atomic: written from rebalance (possibly a scheduler worker),
  // read on the ANALYZE path.
  std::atomic<size_t> effective_synopsis_budget_{0};
  // Shut down by ~Dataset before the trees die and destroyed after them, so
  // neither side's callbacks ever reach a dead object.
  std::unique_ptr<MemoryArbiter> arbiter_;
};

}  // namespace lsmstats

#endif  // LSMSTATS_DB_DATASET_H_
