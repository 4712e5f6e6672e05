// Write-ahead log for memtable durability.
//
// Without a WAL, a crash loses every record accepted into the mutable and
// immutable memtables — and with them the synopses those records would have
// fed (the paper's premise is that *every* record passes through an LSM
// lifecycle event). The WAL closes that gap: each Put/Delete/PutAntiMatter is
// appended to a log segment *before* it touches the memtable, and Open()
// replays surviving segments so accepted records survive a reboot.
//
// Segment files are named `<prefix>_<sequence>.wal` in the owning tree's (or
// dataset's) directory; sequence numbers are monotone, so name order is
// recency order (the same discovery convention as `<tree-name>_<id>.cmp`
// components). A segment holds the records of exactly one memtable
// incarnation: rotation seals the active segment and the next logged write
// starts a fresh one; once the corresponding memtable is flushed into a
// sealed component the segment is obsolete and deleted. A dataset's index
// trees share one log (see Dataset), which follows the same lifecycle with
// the dataset sealing around whole-dataset rotations.
//
// Record frame (all little-endian, varints/strings via common/coding.h):
//
//   [payload_len varint] [crc32c(payload) u32] [payload]
//
//   single-record payload:
//     [op u8 ∈ {1,2,3}] [k0 i64] [k1 i64] [k2 i64] [value length-prefixed]
//   batch payload (one WriteBatch, committed atomically):
//     [tag u8 = 4] [count varint]
//     then `count` × [tree_id varint] [op u8] [k0 i64] [k1 i64] [k2 i64]
//                    [value length-prefixed]
//
// The CRC covers the payload only; the length prefix lets replay walk frames
// without decoding them. A frame that extends past EOF is a torn tail (the
// write never completed — truncate to the last whole frame); a complete
// frame whose CRC or payload decode fails is mid-log corruption (handled
// like a corrupt component: quarantine, see RecoverWalSegments). Because one
// CRC covers a whole batch payload and replay decodes a frame completely
// before applying anything, a batch is replayed all-or-nothing: a reopened
// tree never observes half a WriteBatch.
//
// Durability is governed by WalSyncMode:
//   * kEveryRecord — an acknowledged write is durable the moment the call
//     returns, through group commit (below).
//   * kFlushOnly   — fsync only when the segment is sealed at rotation: the
//     immutable-memtable backlog is durable, the active memtable is not.
//   * kNone        — never fsync: the OS page cache decides (still recovers
//     from process crashes, not power loss).
//
// Group commit is how kEveryRecord keeps that promise: writers buffer their
// encoded frames under the log's mutex and wait; the first waiter whose
// record is not yet durable becomes the leader, writes and fsyncs every
// buffered frame with one syscall pair, and wakes all waiters whose records
// the sync covered. A lone writer leads its own group, so this costs it one
// fsync per record as a plain append-and-sync would. Only the ack is
// deferred, never the apply order.
//
// All file I/O flows through Env (tools/lint.py rule `wal-io` confines the
// `.wal` suffix and WAL file access to this module), so FaultInjectionEnv
// sees every WAL mutation and the crash-point sweep covers appends, syncs,
// truncations, and deletions.

#ifndef LSMSTATS_LSM_WAL_H_
#define LSMSTATS_LSM_WAL_H_

#include <cstdint>
#include <functional>
#include <memory>
#include <optional>
#include <string>
#include <string_view>
#include <vector>

#include "common/env.h"
#include "common/mutex.h"
#include "common/status.h"
#include "common/thread_annotations.h"
#include "lsm/entry.h"

namespace lsmstats {

class WriteBatch;  // lsm/write_batch.h

enum class WalSyncMode {
  kNone,
  kFlushOnly,
  kEveryRecord,
};

const char* WalSyncModeToString(WalSyncMode mode);
[[nodiscard]] StatusOr<WalSyncMode> WalSyncModeFromString(std::string_view s);

// Logged operation kinds. Values are on-disk format; never renumber.
enum class WalOp : uint8_t {
  kPut = 1,
  kDelete = 2,
  kAntiMatter = 3,
};

// On-disk payload tag marking a batch frame (stored where a single-record
// payload stores its WalOp). Sits above every WalOp value; never renumber.
inline constexpr uint8_t kWalBatchFrameTag = 4;

// `<directory>/<prefix>_<sequence>.wal`.
std::string WalFilePath(const std::string& directory,
                        const std::string& prefix, uint64_t sequence);

// Appends one framed single-record payload to `*out`.
void EncodeWalRecordFrame(WalOp op, const LsmKey& key, std::string_view value,
                          std::string* out);

// Appends one framed batch payload covering every entry of `batch` to
// `*out`. The frame's single CRC makes the batch atomic under replay.
void EncodeWalBatchFrame(const WriteBatch& batch, std::string* out);

// Appends framed records to one segment file. Never syncs on its own: the
// owner of the commit protocol (WalLog) decides when the bytes must become
// durable. Not internally synchronized: callers (WalLog, tests) serialize
// access themselves.
class WalSegmentWriter {
 public:
  // Creates (truncates) the segment file.
  [[nodiscard]]
  static StatusOr<std::unique_ptr<WalSegmentWriter>> Create(Env* env,
                                                            std::string path);

  [[nodiscard]]
  Status Append(WalOp op, const LsmKey& key, std::string_view value);

  // Appends pre-encoded frame bytes covering `record_count` logical records.
  [[nodiscard]]
  Status AppendFrames(std::string_view frames, uint64_t record_count);

  // Makes every appended frame durable.
  [[nodiscard]] Status Sync();

  // Flushes to the OS and closes the file. Idempotent on success; durability
  // beyond the sync mode's promises is NOT implied.
  [[nodiscard]] Status Close();

  const std::string& path() const { return path_; }
  uint64_t records_appended() const { return records_; }

 private:
  WalSegmentWriter(std::unique_ptr<WritableFile> file, std::string path)
      : file_(std::move(file)), path_(std::move(path)) {}

  std::unique_ptr<WritableFile> file_;
  std::string path_;
  uint64_t records_ = 0;
};

struct WalLogOptions {
  Env* env = nullptr;
  std::string directory;
  // Segment files are `<prefix>_<seq>.wal`: the tree name for a standalone
  // tree's log, `<dataset>_wal` for a dataset's shared log.
  std::string prefix;
  WalSyncMode sync_mode = WalSyncMode::kFlushOnly;
  // First unused segment sequence number (from WalRecoveryResult).
  uint64_t next_sequence = 1;
  // Free-space watchdog floor: a new segment is only started when the log
  // directory's filesystem reports at least this many free bytes, so a full
  // disk fails the triggering write fast instead of leaving a half-written
  // segment. 0 disables the probe. Wired from the tree/dataset options'
  // min_free_bytes.
  uint64_t min_free_bytes = 0;
};

// A write-ahead log: an append stream over rotating segment files. Under
// kEveryRecord a group-commit protocol amortizes one fsync across N
// concurrent writers. WalLog issues every fsync of its segments. Internally
// synchronized (rank LockRank::kWalLog — acquired under LsmTree::mu_ on a
// standalone tree's append/seal paths, bare from a dataset's writer and
// from commit waiters).
//
// Usage contract, in the order a write takes:
//   1. Append()/AppendBatch() — under the caller's own write critical
//      section, BEFORE the memtable apply, so log order always equals apply
//      order. Returns a ticket. Outside kEveryRecord the record is already
//      committed per the sync mode when this returns.
//   2. WaitDurable(ticket) — with NO caller lock held. Under kEveryRecord
//      this blocks until a leader has fsynced the record (electing the
//      calling thread as leader when none is active); the caller must not
//      acknowledge the write before this returns OK. In the other modes it
//      returns immediately.
//   3. Seal() — under the caller's write critical section, at memtable
//      rotation. Flushes any buffered frames, syncs per the sync mode,
//      closes the segment and returns its path (nullopt if no record was
//      ever logged); the next Append starts a fresh segment.
//
// Errors: failures on the caller's own append path (segment creation, a
// flush-only/none append) are returned to it and are retryable. A commit
// *leader* failure (or a failed seal) under kEveryRecord is sticky: the
// on-disk state of every buffered frame is unknown, so acknowledging
// anything newer would ack above a hole — every current and future
// every-record writer gets the same error. A caller that applied its write
// between steps 1 and 2 (a standalone LsmTree does, to keep log order equal
// to apply order across concurrent writers) leaves that unacknowledged write
// applied and visible when WaitDurable fails; a Dataset applies only after
// WaitDurable returns OK.
class WalLog {
 public:
  explicit WalLog(WalLogOptions options);
  // Best-effort: flushes buffered frames and closes the active segment,
  // logging (not raising) failures. Callers needing the error must Seal()
  // first. Must not race any other member call.
  ~WalLog();

  WalLog(const WalLog&) = delete;
  WalLog& operator=(const WalLog&) = delete;

  // Logs one record / one atomic batch. Returns the commit ticket to pass
  // to WaitDurable (0 when there is nothing to wait on, e.g. an empty
  // batch).
  [[nodiscard]] StatusOr<uint64_t> Append(WalOp op, const LsmKey& key,
                                          std::string_view value)
      EXCLUDES(mu_);
  [[nodiscard]] StatusOr<uint64_t> AppendBatch(const WriteBatch& batch)
      EXCLUDES(mu_);

  // Blocks until every frame up to `ticket` is durable (kEveryRecord) or
  // returns immediately (the other sync modes). Call with no lock held.
  [[nodiscard]] Status WaitDurable(uint64_t ticket) EXCLUDES(mu_);

  // Seals the active segment: flushes buffered frames, syncs per the sync
  // mode, closes the file. Returns the sealed segment's path, or nullopt if
  // nothing was ever appended since the last seal. On failure the segment
  // stays open so a retry can re-seal.
  [[nodiscard]] StatusOr<std::optional<std::string>> Seal() EXCLUDES(mu_);

  WalSyncMode sync_mode() const { return options_.sync_mode; }

  // Observability (benchmarks report fsyncs/record from these).
  uint64_t sync_count() const EXCLUDES(mu_);
  uint64_t records_appended() const EXCLUDES(mu_);

 private:
  [[nodiscard]] Status EnsureWriterLocked() REQUIRES(mu_);
  [[nodiscard]] StatusOr<uint64_t> AppendFrameLocked(std::string frame,
                                                     uint64_t record_count)
      REQUIRES(mu_);
  // Commit leader body: takes every buffered frame, releases mu_ for
  // the append+fsync (mu_ is re-held on return), publishes the new durable
  // ticket or the sticky error, and wakes all waiters.
  void LeadCommitLocked() REQUIRES(mu_);

  const WalLogOptions options_;
  // kEveryRecord: appends buffer and WaitDurable runs the commit protocol.
  const bool every_record_;

  mutable Mutex mu_{LockRank::kWalLog, "wal_log"};
  CondVar cv_;
  std::unique_ptr<WalSegmentWriter> writer_ GUARDED_BY(mu_);
  uint64_t next_sequence_ GUARDED_BY(mu_);
  // Frames buffered by every-record appends, awaiting a leader.
  std::string pending_ GUARDED_BY(mu_);
  uint64_t pending_records_ GUARDED_BY(mu_) = 0;
  // Tickets: appended_seq_ counts frames logged, durable_seq_ the prefix
  // known durable. Equal except between an every-record append and its
  // leader's fsync.
  uint64_t appended_seq_ GUARDED_BY(mu_) = 0;
  uint64_t durable_seq_ GUARDED_BY(mu_) = 0;
  // True while a leader owns the segment file outside mu_; Seal() and
  // leader election wait on it.
  bool sync_in_progress_ GUARDED_BY(mu_) = false;
  // Size of the most recent committed group. A would-be leader whose
  // pending set is smaller than this stalls one short window before
  // syncing: right after a group commits, its writers race back with their
  // next record, and whoever arrives first would otherwise burn an fsync on
  // a near-empty group while the rest are microseconds behind. The hint
  // decays to the solo group size after one commit, so a lone writer never
  // stalls twice.
  uint64_t last_group_records_ GUARDED_BY(mu_) = 0;
  // Sticky commit failure (kEveryRecord only); see the class comment.
  Status commit_error_ GUARDED_BY(mu_);
  uint64_t syncs_ GUARDED_BY(mu_) = 0;
  uint64_t records_ GUARDED_BY(mu_) = 0;
};

// Invoked for each replayed record, oldest first. `tree_id` is 0 for
// single-record frames and for batch entries logged by a standalone tree; a
// dataset's shared log tags each batch entry with the owning index tree (see
// Dataset's tree-id assignment).
using WalReplayFn = std::function<void(
    uint32_t tree_id, WalOp op, const LsmKey& key, std::string_view value)>;

// How one segment's byte stream ended.
enum class WalTail {
  kClean,    // every byte belongs to a whole, valid frame
  kTorn,     // the final frame extends past EOF (interrupted append)
  kCorrupt,  // a complete frame failed its CRC or payload decode
};

struct WalSegmentReplayResult {
  // Logical records applied (every entry of a batch frame counts).
  uint64_t records_applied = 0;
  // Offset of the first byte past the last valid frame — the truncation
  // target for a torn tail.
  uint64_t valid_bytes = 0;
  WalTail tail = WalTail::kClean;
};

// Streams every valid frame of `path` through `apply` in append order and
// classifies how the stream ended. A frame is decoded in full before any of
// its records is applied, so batch frames apply all-or-nothing. Does not
// mutate the file.
[[nodiscard]]
StatusOr<WalSegmentReplayResult> ReplayWalSegment(Env* env,
                                                  const std::string& path,
                                                  const WalReplayFn& apply);

struct WalRecoveryResult {
  // Surviving segments whose records were replayed, oldest first. They back
  // the recovered memtable and must be deleted once it flushes.
  std::vector<std::string> live_segments;
  // Segments renamed to `<file>.quarantine` because of mid-log corruption
  // (or a torn tail in a non-final segment), plus everything newer.
  std::vector<std::string> quarantined_files;
  // Next unused segment sequence number (past every id seen on disk).
  uint64_t next_sequence = 1;
  uint64_t records_applied = 0;
  // A torn final segment was truncated back to its last whole frame.
  bool truncated_torn_tail = false;
};

// Discovers `<prefix>_<seq>.wal` segments in `directory` and replays them
// oldest to newest through `apply`. Outcomes per segment:
//
//   * clean, non-empty  — replayed; kept as a live segment.
//   * clean, empty      — deleted (it backs no records).
//   * torn tail, final segment — truncated at the last whole frame; the
//     replayed prefix is kept. Only a suffix of acknowledged-but-unsynced
//     writes is lost, so recovery stays prefix-consistent.
//   * mid-log corruption (or a torn non-final segment) — with
//     `quarantine_corrupt` the segment and every newer one are renamed to
//     `<file>.quarantine` (keeping newer records above a hole would break
//     prefix consistency, exactly as with components); without it the
//     Corruption error is returned and the tree refuses to open.
//
// The directory is fsynced when any file was deleted/renamed/truncated.
[[nodiscard]]
StatusOr<WalRecoveryResult> RecoverWalSegments(Env* env,
                                               const std::string& directory,
                                               const std::string& prefix,
                                               bool quarantine_corrupt,
                                               const WalReplayFn& apply);

// Removes obsolete segment files (after their memtable flushed durably).
[[nodiscard]]
Status DeleteWalSegments(Env* env, const std::vector<std::string>& segments);

}  // namespace lsmstats

#endif  // LSMSTATS_LSM_WAL_H_
