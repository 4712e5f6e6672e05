// LSM-tree: the write-optimized index structure everything else builds on.
//
// Modifications land in an in-memory component (MemTable); when it fills up
// it is rotated into a queue of immutable memtables and flushed to an
// immutable disk component with one sequential write. A merge policy
// periodically consolidates disk components, reconciling anti-matter with the
// records it cancels (Appendix A). Flush, bulkload and every merge output are
// written by one routine, BuildComponents(), the only place a component
// builder is made (a tools/lint.py rule, `component-writer`, keeps it so): it
// streams a sorted entry cursor into new components — splitting a merge's
// stream at key boundaries when the plan asks for it — and announces the
// stream to registered LsmEventListeners, which is where statistics
// collection hooks in (paper §3.1: "disk operations in the LSM framework can
// be generalized by a single bulkload() routine"). Each caller then splices
// the sealed outputs into the stack and sends the seal notifications.
//
// Threading model (see DESIGN.md "Threading model"):
//   * The tree is internally synchronized: Put/Delete/Get/Scan/Flush may be
//     called from any number of threads concurrently.
//   * With LsmTreeOptions::scheduler set, a full memtable is rotated into the
//     immutable queue and flushed on a worker thread; merges run as
//     background jobs too, so writers never wait on disk. Without a
//     scheduler, flush and merge run inline on the calling thread, in
//     exactly the seed's deterministic order (the paper-figure benches rely
//     on this).
//   * Structural operations (flush, merge, bulkload) are serialized per tree,
//     so listeners observe one operation at a time — the single-stream
//     contract StatisticsCollector depends on.
//   * AddListener is not synchronized: register all listeners before sharing
//     the tree across threads.

#ifndef LSMSTATS_LSM_LSM_TREE_H_
#define LSMSTATS_LSM_LSM_TREE_H_

#include <atomic>
#include <chrono>
#include <deque>
#include <functional>
#include <limits>
#include <memory>
#include <optional>
#include <string>
#include <vector>

#include "common/env.h"
#include "common/error_taxonomy.h"
#include "common/mutex.h"
#include "common/status.h"
#include "lsm/component_manifest.h"
#include "lsm/disk_component.h"
#include "lsm/entry.h"
#include "lsm/entry_cursor.h"
#include "lsm/event_listener.h"
#include "lsm/memtable.h"
#include "lsm/merge_cursor.h"
#include "lsm/merge_policy.h"

namespace lsmstats {

class BackgroundScheduler;

struct LsmTreeOptions {
  // Directory for component files; created if missing.
  std::string directory;
  // Name prefix for component files; unique per tree within a directory.
  std::string name = "tree";
  // Flush when the memtable reaches either bound.
  uint64_t memtable_max_entries = 64 * 1024;
  uint64_t memtable_max_bytes = 64ull << 20;
  // When false, the caller drives flushes explicitly (paper §4.3.4 stages
  // ingestion with forced flushes to control anti-matter placement).
  bool auto_flush = true;
  // Null means NoMergePolicy — the paper-mode default.
  std::shared_ptr<MergePolicy> merge_policy;
  // When set, flush and merge jobs run on this scheduler's worker threads
  // and a full memtable rotates instead of blocking the writer. Must outlive
  // the tree. Null (the default) keeps all maintenance inline and
  // deterministic.
  BackgroundScheduler* scheduler = nullptr;
  // Backpressure bound: writers stall once more than this many immutable
  // memtables await flushing (scheduler mode only).
  size_t max_immutable_memtables = 4;
  // Filesystem environment; Env::Default() when null. Must outlive the tree.
  // Tests substitute a FaultInjectionEnv to exercise crash paths.
  Env* env = nullptr;
  // What Open() does with a component that fails to open or fails checksum
  // verification: true renames it — and every newer component, since newer
  // components above a missing older one would resurrect anti-matter-deleted
  // records — to `<file>.quarantine` and opens the tree with the surviving
  // older prefix; false refuses to open and returns the Corruption error.
  bool quarantine_corrupt_components = true;
  // Verify every data-chunk checksum of every recovered component during
  // Open(), so torn tails and bit rot surface at recovery rather than at
  // first read. Costs one sequential scan per recovered component.
  bool paranoid_recovery_checks = true;
  // A flush or merge that fails with a TRANSIENT error (see
  // common/error_taxonomy.h) is retried inline this many times (a failed
  // flush/merge leaves the immutable queue and component stack untouched, so
  // the retry re-runs cleanly) with exponential backoff starting here; the
  // backoff wait is interruptible by shutdown. Inline flushes
  // report a persisting error to the caller; background jobs hand it to the
  // auto-recovery manager.
  int background_flush_retries = 1;
  std::chrono::milliseconds flush_retry_backoff{10};
  // Auto-recovery (scheduler mode only): when a background job exhausts its
  // inline retries on a transient error, the tree enters kRecovering and
  // schedules bounded-backoff recovery jobs that re-run the pending work,
  // clearing the background error when one succeeds. After
  // max_auto_recovery_attempts consecutive failures the tree gives up and
  // degrades to read-only (Resume() can still rescue it). Hard/fatal errors
  // skip straight to read-only.
  bool auto_recovery = true;
  int max_auto_recovery_attempts = 5;
  std::chrono::milliseconds auto_recovery_backoff{10};
  // Free-space watchdog: flush and merge refuse to start (with a retryable
  // IOError) while the tree directory's filesystem reports fewer free bytes
  // than this, so disk exhaustion degrades the tree BEFORE half-written
  // components appear — and auto-recovery resumes it when space returns.
  // 0 (the default) turns the watchdog off.
  uint64_t min_free_bytes = 0;
  // Codec/block-size for components this tree writes. The default ("none"
  // codec, 4 KiB blocks) keeps paper-mode files bit-identical.
  ComponentWriteOptions write_options;
  // Shared cache for decoded data blocks, typically owned by the Dataset so
  // all of its trees share one budget. Not owned; must outlive the tree.
  // Null means uncached reads.
  BlockCache* block_cache = nullptr;
};

// Degradation state of a tree. Reads (Get/Scan/ScanCount and the statistics
// they feed) are served in every mode; writes and structural operations are
// accepted only in kHealthy.
enum class TreeMode {
  kHealthy = 0,
  // A transient background failure is being retried by the auto-recovery
  // manager; writes fail fast until it clears.
  kRecovering,
  // Degraded: a hard/fatal error (or exhausted recovery) stopped background
  // work; the tree serves reads from the installed component stack until
  // Resume() succeeds.
  kReadOnly,
};

const char* TreeModeToString(TreeMode mode);

// Aggregate shape of one compaction level (HealthSnapshot::levels).
struct LevelStats {
  uint32_t level = 0;
  uint64_t components = 0;
  uint64_t bytes = 0;        // sum of component file sizes
  uint64_t records = 0;      // live records (anti-matter excluded)
  uint64_t anti_matter = 0;  // anti-matter entries still carried forward
  // Resident bloom-filter bytes across the level's components — the memory
  // the filters pin in RAM (also counted on disk in `bytes`).
  uint64_t bloom_bytes = 0;
};

// Point-in-time health of one tree (LsmTree::Health()).
struct HealthSnapshot {
  TreeMode mode = TreeMode::kHealthy;
  // Most recent error observed on a structural path (retried-away transient
  // errors included), and its classification. OK when nothing ever failed.
  Status last_error;
  ErrorSeverity last_severity = ErrorSeverity::kNone;
  // Recovery passes started (auto + explicit Resume) / completed
  // successfully over the tree's lifetime.
  uint64_t recovery_attempts = 0;
  uint64_t recoveries_succeeded = 0;
  // Total time spent outside kHealthy, including the current episode.
  std::chrono::milliseconds time_in_degraded{0};
  // Per-level shape of the component stack, ascending level, empty levels
  // omitted. A flat (never-merged) tree reports one level-0 row.
  std::vector<LevelStats> levels;
  // Lifetime merge work: plans installed, bytes read from merge inputs, and
  // bytes written to merge outputs. The benches derive write amplification
  // and "bytes rewritten per policy" from these.
  uint64_t merges_completed = 0;
  uint64_t merge_bytes_read = 0;
  uint64_t merge_bytes_written = 0;
};

class LsmTree {
 public:
  // Opens a tree, recovering any components a previous incarnation left in
  // the directory. When a component manifest exists (any tree that has
  // merged writes one; see lsm/component_manifest.h) it dictates stack order
  // and levels: uncommitted outputs of an in-flight merge are deleted, stale
  // merge inputs whose unlink the crash interrupted are deleted, and
  // components flushed after the last manifest write are stacked on top.
  // Without a manifest, recovery falls back to id order (ids are monotone in
  // creation order, so for a merge-free tree id order is recency order) with
  // every component at level 0. Orphaned `<name>_*.tmp` files from builds
  // that crashed before sealing are deleted; components that fail to open or
  // fail checksum verification are quarantined along with everything newer
  // (see LsmTreeOptions::quarantine_corrupt_components), as is a manifest
  // that fails its checksum. A tree keeps no write-ahead log: its memtable
  // starts empty, and a Dataset replays its own log into its trees after
  // opening them. A directory holding a `<name>_<seq>.wal` segment of the
  // retired per-tree log is refused (Unimplemented) rather than opened with
  // those acknowledged records dropped; see DESIGN.md "Failure model &
  // durability".
  [[nodiscard]]
  static StatusOr<std::unique_ptr<LsmTree>> Open(LsmTreeOptions options);

  LsmTree(const LsmTree&) = delete;
  LsmTree& operator=(const LsmTree&) = delete;

  // Blocks until all outstanding background jobs for this tree finished.
  ~LsmTree();

  // Listeners must outlive the tree. Not synchronized: register before the
  // tree is shared across threads.
  void AddListener(LsmEventListener* listener);

  // --- Modifications (land in the memtable) -------------------------------

  // Inserts or overwrites. `fresh_insert` marks keys the caller knows are
  // absent from all older components (see MemTable::Put). In scheduler mode
  // a full memtable is rotated and flushed in the background; the call
  // returns without touching disk (unless backpressure stalls it).
  [[nodiscard]]
  Status Put(const LsmKey& key, std::string value, bool fresh_insert = false)
      EXCLUDES(mu_);
  [[nodiscard]] Status Delete(const LsmKey& key) EXCLUDES(mu_);
  [[nodiscard]] Status PutAntiMatter(const LsmKey& key) EXCLUDES(mu_);

  // --- Reads ---------------------------------------------------------------

  // Point lookup across the memtable, immutable memtables, and all disk
  // components, newest first. Returns NotFound for absent or deleted keys.
  // Reads take a snapshot of the component list, so they observe a merge
  // either entirely before or entirely after it installs its result.
  [[nodiscard]] Status Get(const LsmKey& key, std::string* value) const;

  // Invokes `fn` for every live (non-anti-matter) entry in [lo, hi], in key
  // order, as of this call. Under mu_ it copies only the mutable memtable's
  // [lo, hi], values included; frozen memtables and components are read in
  // place through shared handles, and a component whose key range misses
  // [lo, hi] gets no cursor. A MergeCursor reconciles them. The view is
  // valid only during the call.
  [[nodiscard]]
  Status Scan(const LsmKey& lo, const LsmKey& hi,
              const std::function<void(const EntryView&)>& fn) const;

  // Exact number of live entries in [lo, hi] whose k1 lies in
  // [k1_lo, k1_hi]: the ground-truth cardinality oracle of the accuracy
  // experiments. Same snapshot as Scan, but keys alone, a run at a time
  // (KeyRunCursor): the mutable memtable's slice copied into one array,
  // frozen memtables and disk blocks read in place into bounded buffers
  // (values skipped, their lengths still checked). KeyRunMerge reconciles
  // the runs by MergeCursor's rule, with no per-entry virtual call. A read
  // error is returned, never a short count.
  [[nodiscard]]
  StatusOr<uint64_t> ScanCount(
      const LsmKey& lo, const LsmKey& hi,
      int64_t k1_lo = std::numeric_limits<int64_t>::min(),
      int64_t k1_hi = std::numeric_limits<int64_t>::max()) const;

  // --- Lifecycle events ----------------------------------------------------

  // Synchronous barrier: persists the memtable and every pending immutable
  // memtable as disk components (no-op when all are empty), lets the merge
  // policy run, and waits for outstanding background jobs.
  [[nodiscard]] Status Flush() EXCLUDES(work_mu_, mu_);

  // Non-blocking flush trigger: rotates a non-empty memtable and schedules
  // its flush on the background scheduler. Without a scheduler this is
  // Flush().
  [[nodiscard]] Status RequestFlush() EXCLUDES(work_mu_, mu_);

  // Runs the merge policy until it makes no further decision.
  [[nodiscard]] Status MaybeMerge() EXCLUDES(work_mu_, mu_);

  // Merges all disk components into one with every anti-matter entry
  // reconciled away (a lone component is rewritten only if it carries
  // anti-matter).
  [[nodiscard]] Status ForceFullMerge() EXCLUDES(work_mu_, mu_);

  // Blocks until all scheduled flush/merge jobs for this tree completed;
  // returns the first background failure, if any (sticky — also surfaced by
  // the next Put/Delete).
  [[nodiscard]] Status WaitForBackgroundWork() EXCLUDES(mu_);

  // First error a background job hit, or OK.
  [[nodiscard]] Status BackgroundError() const EXCLUDES(mu_);

  // Current degradation state, last error, and recovery counters.
  [[nodiscard]] HealthSnapshot Health() const EXCLUDES(mu_);

  // Explicitly re-runs the pending background work (flushes + merges) and
  // clears the background error on success, returning the tree to kHealthy —
  // the operator-facing escape from read-only mode once the underlying cause
  // (full disk, repaired files) is gone. OK when the tree is healthy;
  // FailedPrecondition for fatal-class errors, which indicate a bug rather
  // than a repairable environment.
  [[nodiscard]] Status Resume() EXCLUDES(work_mu_, mu_);

  // Builds one component bottom-up from a sorted, reconciled entry stream.
  // Requires an empty memtable. `expected_records` is the stream length
  // (known from the sorter, paper §3.2). A stream whose keys are not strictly
  // increasing is the caller's error: InvalidArgument, nothing written, and
  // the tree stays healthy.
  [[nodiscard]]
  Status Bulkload(EntryCursor* input, uint64_t expected_records,
                  uint64_t expected_anti_matter = 0);

  // --- Introspection -------------------------------------------------------

  size_t ComponentCount() const;
  std::vector<ComponentMetadata> ComponentsMetadata() const;
  uint64_t MemTableEntryCount() const;
  uint64_t MemTableBytes() const;
  // Immutable memtables rotated out but not yet flushed.
  size_t ImmutableMemTableCount() const;
  // Write-buffer bytes the tree actually pins: the mutable memtable PLUS the
  // rotated immutable queue (whose memtables stay resident until flushed).
  // MemTableBytes() alone undercounts under a backlogged scheduler.
  uint64_t TotalMemTableBytes() const;
  // Resident bloom-filter bytes across all disk components.
  uint64_t TotalBloomBytes() const;
  // Lifetime count of immutable memtables flushed to components; the memory
  // arbiter derives flushes-avoided-per-MB from its rate of change, and a
  // dataset reclaims WAL segments once it passes a rotation's count
  // (acquire: the flushed component is durable before the count moves).
  uint64_t FlushesCompleted() const {
    return flushes_completed_.load(std::memory_order_acquire);
  }
  // Lifetime count of memtables rotated out: FlushesCompleted() plus the
  // immutables still queued, read under one lock so the sum is exact. Once
  // FlushesCompleted() reaches a value read here, every memtable rotated
  // before the read sits in a durable component.
  uint64_t MemTablesRotated() const;
  const LsmTreeOptions& options() const { return options_; }

  // --- Memory-arbiter grant surface ---------------------------------------
  // These override the static construction-time knobs and may be called at
  // any time from any thread (the values are consulted atomically at the
  // next rotation / component build). 0 restores the configured default.

  // Overrides memtable_max_bytes: the memtable rotates once it holds this
  // many bytes. Takes effect on the next write.
  void SetMemTableMaxBytes(uint64_t bytes) {
    memtable_max_bytes_override_.store(bytes, std::memory_order_relaxed);
  }
  // Overrides write_options.bloom_bits_per_key for components built from
  // now on (existing components keep their filters until merged away).
  void SetBloomBitsPerKey(int bits_per_key) {
    bloom_bits_override_.store(bits_per_key, std::memory_order_relaxed);
  }
  // memtable_max_bytes after any live arbiter override.
  uint64_t EffectiveMemTableMaxBytes() const {
    const uint64_t granted =
        memtable_max_bytes_override_.load(std::memory_order_relaxed);
    return granted != 0 ? granted : options_.memtable_max_bytes;
  }
  // Lock-free pressure hook invoked from the write path when backpressure
  // stalls a writer and from the free-space watchdog when the disk floor
  // trips. Must be set before the tree is shared across threads; the
  // callback runs with tree locks held, so it must not take engine locks
  // (the arbiter's NotePressure is atomics-only).
  void SetPressureCallback(std::function<void()> callback) {
    pressure_callback_ = std::move(callback);
  }
  // Files Open() renamed to `<file>.quarantine` during recovery.
  std::vector<std::string> QuarantinedFiles() const;

  // Total live-record estimate ignoring reconciliation (records - 2*anti
  // would be exact only if every anti-matter cancels in-tree).
  uint64_t TotalDiskRecords() const;

 private:
  explicit LsmTree(LsmTreeOptions options);

  bool MemTableFullLocked() const REQUIRES(mu_);
  std::string ComponentPath(uint64_t id) const;

  // Moves a non-empty memtable into the immutable queue. Returns whether a
  // rotation happened.
  bool RotateLocked() REQUIRES(mu_);

  // Handles a full memtable after a write landed: inline flush without a
  // scheduler; rotate + schedule + backpressure with one. Called without mu_
  // (a shut-down scheduler runs the job inline, and the job takes mu_
  // itself).
  [[nodiscard]] Status MaybeFlushAfterWrite() EXCLUDES(work_mu_, mu_);

  // Background job bodies; failures funnel through FinishJob into
  // SetBackgroundErrorLocked.
  void BackgroundFlushJob() EXCLUDES(work_mu_, mu_);
  void BackgroundMergeJob() EXCLUDES(work_mu_, mu_);
  void FinishJob(Status s) EXCLUDES(mu_);

  // --- error handling & recovery (DESIGN.md "Error handling") --------------
  //
  // background_error_ is mutated ONLY by SetBackgroundErrorLocked and
  // ClearBackgroundErrorLocked (enforced by tools/lint.py rule
  // `background-error`), so every state transition of the recovery machine
  // goes through these two functions.

  // Records a failed structural operation: classifies `s`, keeps the first
  // error sticky, and decides the tree's fate. Returns true when the caller
  // must schedule BackgroundRecoveryJob (a pending_jobs_ slot has been taken
  // for it); the caller must do so with NO lock held — Schedule on a
  // shut-down scheduler runs the job inline.
  [[nodiscard]] bool SetBackgroundErrorLocked(Status s) REQUIRES(mu_);
  // Reverts to kHealthy after a successful recovery pass.
  void ClearBackgroundErrorLocked() REQUIRES(mu_);
  void EnterReadOnlyLocked() REQUIRES(mu_);
  // The write-path gate: OK when healthy, else a descriptive
  // read-only/recovering error carrying the sticky error's code.
  [[nodiscard]] Status WriteGateLocked() const REQUIRES(mu_);
  // Classifies and records a failure from an inline structural path (Flush/
  // MaybeMerge/Bulkload callers). Transient errors are only recorded as
  // last_error_ — they were returned to the caller and left no partial
  // state, matching the pre-recovery semantics the crash sweeps depend on.
  // Hard/fatal errors additionally degrade the tree to read-only. Returns
  // `s` unchanged for tail-call use.
  [[nodiscard]] Status NoteStructuralFailure(Status s) EXCLUDES(mu_);
  // Auto-recovery pass: interruptible backoff, then DrainPendingWork;
  // clears the error on success, reschedules itself on another transient
  // failure, gives up into read-only otherwise.
  void BackgroundRecoveryJob() EXCLUDES(work_mu_, mu_);
  // Re-runs the pending structural work: flushes every queued immutable
  // memtable, then runs the merge policy to quiescence.
  [[nodiscard]] Status DrainPendingWork() EXCLUDES(work_mu_, mu_);
  // Free-space watchdog probe for `what` ("flush"/"merge"): retryable
  // IOError when the directory's filesystem is below
  // options_.min_free_bytes. Probe failures never block — only a successful
  // answer below the floor counts.
  [[nodiscard]] Status CheckFreeSpace(const char* what) const;
  // Runs `body`, retrying transient failures up to
  // options_.background_flush_retries times with exponential backoff; the
  // backoff wait is woken by shutdown. May be
  // called with work_mu_ held (the body sees the caller's locks).
  [[nodiscard]] Status RunWithTransientRetry(
      const char* what, const std::function<Status()>& body) EXCLUDES(mu_);

  // Flushes the oldest pending immutable memtable (no-op when none).
  // Serializes on work_mu_. Does not run the merge policy.
  [[nodiscard]] Status FlushOneImmutable() EXCLUDES(work_mu_, mu_);

  // FlushOneImmutable plus up to background_flush_retries retries with
  // exponential backoff. Retrying is safe from any thread: a failed flush
  // leaves the immutable queue and component stack untouched and its
  // half-written temporary removed, so the retry re-runs the whole flush
  // under a fresh component id.
  [[nodiscard]]
  Status FlushOneImmutableWithRetry() EXCLUDES(work_mu_, mu_);

  // One output of BuildComponents: the sealed component (null when the
  // stream reconciled to nothing), the metadata its observers are told
  // about (empty but for id, timestamp and level in that case), and the
  // observers that watched it being written.
  struct SealedOutput {
    std::shared_ptr<DiskComponent> component;
    ComponentMetadata metadata;
    std::vector<std::unique_ptr<ComponentWriteObserver>> observers;
  };

  // One cursor per layer holding keys of [lo, hi], newest first, for
  // Scan (`Cursor` = EntryCursor) or ScanCount (KeyRunCursor).
  template <typename Cursor>
  std::vector<std::unique_ptr<Cursor>> RangeInputs(const LsmKey& lo,
                                                   const LsmKey& hi) const
      EXCLUDES(mu_);

  // The one component writer behind flush, bulkload and merge. Streams
  // `input` into new components at context.target_level, each announced to
  // the listeners before its id is taken. With `split_bytes` > 0 a new
  // output starts at the first key boundary once an output's approximate
  // size reaches it (0 writes one output). With `pending` set — a merge's
  // write-ahead manifest record — each output id is added to it and the
  // manifest re-written before that output's file exists. An empty stream
  // yields one output with no component; it still consumes an id and a
  // timestamp. Installs nothing: the caller splices `outputs` into the stack
  // under mu_, then calls NotifySealed. On failure the sealed outputs are
  // unlinked best-effort and `outputs` is left empty, so the stack is as it
  // was. `Cursor` is EntryCursor or the concrete MergeCursor, so a merge's
  // per-entry Next() is a direct call. Caller holds work_mu_.
  template <typename Cursor>
  [[nodiscard]]
  Status BuildComponents(const OperationContext& context, Cursor* input,
                         uint64_t split_bytes, ManifestPendingMerge* pending,
                         std::vector<SealedOutput>* outputs)
      REQUIRES(work_mu_) EXCLUDES(mu_);

  // Sends OnComponentSealed to every output's observers, after the install
  // and without mu_, so listeners see a stack that already holds every
  // output. Only the first output carries `replaced_ids`: downstream sinks
  // drop the inputs once and register each output exactly once.
  static void NotifySealed(const std::vector<SealedOutput>& outputs,
                           const std::vector<uint64_t>& replaced_ids);

  // A merge plan resolved against the live stack: the input components (in
  // stack order, newest first), their positions, where the outputs splice
  // in, and the listener context. Computed by ResolvePlanLocked, consumed by
  // ExecuteMergePlan; valid as long as work_mu_ is held (no other structural
  // operation can reshape the stack underneath it).
  struct ResolvedPlan {
    std::vector<std::shared_ptr<DiskComponent>> inputs;
    std::vector<size_t> positions;  // stack indices of inputs, ascending
    // Old-stack index the outputs are inserted before (inputs skipped while
    // rebuilding); components_.size() appends at the bottom.
    size_t install_before = 0;
    // True when no surviving component older than the install point overlaps
    // the inputs' key ranges, so anti-matter reconciles away.
    bool drop_anti_matter = false;
    OperationContext context;
    uint64_t input_bytes = 0;
    std::vector<uint64_t> replaced_ids;  // input ids, stack order
  };

  // Validates `plan` against the current stack (LSMSTATS_CHECKs — an invalid
  // plan is a policy bug, not an environment error) and fills `resolved`.
  void ResolvePlanLocked(const MergeDecision& plan, ResolvedPlan* resolved)
      REQUIRES(mu_);

  // Atomically replaces the on-disk manifest with the current stack (and the
  // id high-water mark) plus `pending`, the write-ahead record of a merge in
  // flight (nullopt commits). Caller holds work_mu_, so the stack cannot
  // change between the snapshot and the write.
  [[nodiscard]]
  Status PersistManifest(const std::optional<ManifestPendingMerge>& pending)
      REQUIRES(work_mu_) EXCLUDES(mu_);

  // Debug invariant: within every level >= 1, component key ranges are
  // pairwise disjoint. Compiled out in release builds.
  void CheckLevelInvariantLocked() const REQUIRES(mu_);

  // Executes one merge plan up to and including the atomic install, filling
  // `obsolete` with the replaced components (whose files still exist — pass
  // them to DeleteObsoleteComponents). Streams the merged inputs through
  // BuildComponents — one output, or several when plan.output_split_bytes >
  // 0 — and installs them at the plan's target level, at the stack position
  // ResolvePlanLocked computed. Writes the manifest's pending record before
  // creating any output file (BuildComponents re-writes it as each output id
  // is allocated), so a crash at any point leaves a recoverable directory.
  // On failure the install never ran and `obsolete` is untouched, so
  // retrying with the same plan is safe; a success must NOT be re-run (the
  // stack has changed under the plan's ids).
  [[nodiscard]]
  Status ExecuteMergePlan(const MergeDecision& plan,
                          std::vector<std::shared_ptr<DiskComponent>>* obsolete)
      REQUIRES(work_mu_) EXCLUDES(mu_);

  // Unlinks replaced components' files, popping each from `obsolete` as it
  // goes; idempotent (RemoveFileIfExists), so safe to retry after a partial
  // failure.
  [[nodiscard]]
  Status DeleteObsoleteComponents(
      std::vector<std::shared_ptr<DiskComponent>>* obsolete);

  // One pick-free merge step: CheckFreeSpace + ExecuteMergePlan + manifest
  // commit + cleanup, with transient failures of each phase retried
  // independently (the install runs at most once; the manifest is committed
  // before any input file is unlinked, so recovery never sees a pending
  // merge whose inputs are already gone). Caller holds work_mu_.
  [[nodiscard]]
  Status MergePlanWithRetry(const MergeDecision& plan)
      REQUIRES(work_mu_) EXCLUDES(mu_);

  LsmTreeOptions options_;
  Env* env_;  // options_.env or Env::Default(); never null
  // Live memory-arbiter grants (0 = use the static knob) and the lifetime
  // flush counter. Atomics: written by the arbiter's rebalance thread, read
  // on write/flush paths without mu_.
  std::atomic<uint64_t> memtable_max_bytes_override_{0};
  std::atomic<int> bloom_bits_override_{0};
  std::atomic<uint64_t> flushes_completed_{0};
  // See SetPressureCallback. Immutable once the tree is shared.
  std::function<void()> pressure_callback_;

  // Serializes structural operations (flush, merge, bulkload) and thereby
  // all listener callbacks. Never acquired while holding mu_ (kTreeWork sits
  // directly above kTreeState in the hierarchy).
  Mutex work_mu_{LockRank::kTreeWork, "tree_work"};

  // Guards every member below. Held only for short, non-blocking sections.
  mutable Mutex mu_{LockRank::kTreeState, "tree_state"};
  CondVar cv_;  // backpressure + job completion
  std::unique_ptr<MemTable> memtable_ GUARDED_BY(mu_);
  // Rotated memtables awaiting flush, oldest first. The memtables are
  // frozen: safe to read without mu_ once a shared_ptr has been taken
  // under it.
  std::deque<std::shared_ptr<const MemTable>> immutables_ GUARDED_BY(mu_);
  // Newest first.
  std::vector<std::shared_ptr<DiskComponent>> components_ GUARDED_BY(mu_);
  // Written only by AddListener before the tree is shared (see its comment).
  std::vector<LsmEventListener*> listeners_;
  uint64_t next_component_id_ GUARDED_BY(mu_) = 1;
  uint64_t logical_clock_ GUARDED_BY(mu_) = 1;
  // Lifetime merge-work counters surfaced by Health().
  uint64_t merges_completed_ GUARDED_BY(mu_) = 0;
  uint64_t merge_bytes_read_ GUARDED_BY(mu_) = 0;
  uint64_t merge_bytes_written_ GUARDED_BY(mu_) = 0;
  // Whether a component manifest exists on disk. Written by Open() before
  // the tree is shared and by PersistManifest under work_mu_; read only on
  // structural paths (also under work_mu_), so it needs no lock of its own.
  bool manifest_present_ = false;
  size_t pending_jobs_ GUARDED_BY(mu_) = 0;
  Status background_error_ GUARDED_BY(mu_);
  // Recovery state machine (see DESIGN.md "Error handling & degraded
  // modes"): mode_ tracks healthy -> recovering -> read-only transitions,
  // recovery_round_ counts consecutive failures within the current episode
  // (reset on success), the *_attempts_/ *_succeeded_ counters and the
  // degraded-time accumulator feed HealthSnapshot.
  TreeMode mode_ GUARDED_BY(mu_) = TreeMode::kHealthy;
  Status last_error_ GUARDED_BY(mu_);
  ErrorSeverity last_severity_ GUARDED_BY(mu_) = ErrorSeverity::kNone;
  uint64_t recovery_attempts_ GUARDED_BY(mu_) = 0;
  uint64_t recoveries_succeeded_ GUARDED_BY(mu_) = 0;
  int recovery_round_ GUARDED_BY(mu_) = 0;
  std::chrono::steady_clock::time_point degraded_since_ GUARDED_BY(mu_);
  std::chrono::milliseconds degraded_accum_ GUARDED_BY(mu_){0};
  // Set by the destructor to wake retry backoffs and recovery waits so
  // teardown never stalls behind a sleep.
  bool shutting_down_ GUARDED_BY(mu_) = false;
  // Written only during Open(), before the tree is shared (Open still takes
  // mu_ for the analysis's sake — it is uncontended there).
  std::vector<std::string> quarantined_files_ GUARDED_BY(mu_);
};

}  // namespace lsmstats

#endif  // LSMSTATS_LSM_LSM_TREE_H_
