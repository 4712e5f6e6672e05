// Write-ahead log for memtable durability.
//
// Without a WAL, a crash loses every record accepted into the mutable and
// immutable memtables — and with them the synopses those records would have
// fed (the paper's premise is that *every* record passes through an LSM
// lifecycle event). The WAL closes that gap: a dataset appends each logical
// modification to a log segment *before* it touches any index memtable, and
// Dataset::Open replays surviving segments so accepted records survive a
// reboot. The dataset is the log's only owner (tools/lint.py rule
// `wal-owner`): one stream serves its primary, secondary and composite
// trees, which never log on their own.
//
// Segment files are named `<prefix>_<sequence>.wal` (`<dataset>_wal_<seq>`)
// in the dataset's directory; sequence numbers are monotone, so name order
// is recency order (the same discovery convention as `<tree-name>_<id>.cmp`
// components). A segment holds the records of exactly one memtable
// incarnation: a rotation seals the active segment and the next logged
// write starts a fresh one; once every tree has flushed the memtables a
// segment backs, the segment is obsolete and deleted (see Dataset).
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
// dataset never observes half a WriteBatch.
//
// Durability is governed by WalSyncMode:
//   * kEveryRecord — each append writes its frame and fsyncs before it
//     returns, so an acknowledged write is durable.
//   * kFlushOnly   — fsync only when the segment is sealed at rotation: the
//     immutable-memtable backlog is durable, the active memtable is not.
//   * kNone        — never fsync: the OS page cache decides (still recovers
//     from process crashes, not power loss).
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

// Appends framed records to one segment file. Never syncs on its own: WalLog
// decides when the bytes must become durable. Not internally synchronized:
// callers (WalLog, tests) serialize access themselves.
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
  // Segment files are `<prefix>_<seq>.wal`; a dataset uses `<name>_wal`.
  std::string prefix;
  WalSyncMode sync_mode = WalSyncMode::kFlushOnly;
  // First unused segment sequence number (from WalRecoveryResult).
  uint64_t next_sequence = 1;
  // Free-space watchdog floor: a new segment is only started when the log
  // directory's filesystem reports at least this many free bytes, so a full
  // disk fails the triggering write fast instead of leaving a half-written
  // segment. 0 disables the probe. Wired from the dataset's min_free_bytes.
  uint64_t min_free_bytes = 0;
};

// A write-ahead log: an append stream over rotating segment files, written
// by one logical writer (the owning Dataset's). WalLog issues every fsync of
// its segments. Internally synchronized (rank LockRank::kWalLog, taken with
// no tree lock held) so counters can be read from any thread.
//
// Usage contract, in the order a write takes:
//   1. AppendBatch() — BEFORE the memtable applies, so replay covers the
//      crash window between logging and applying. Under kEveryRecord the
//      frame is written and fsynced before this returns; in the other
//      modes it is written only.
//   2. Seal() — at memtable rotation. Syncs per the sync mode, closes the
//      segment and returns its path (nullopt if no record was logged since
//      the last seal); the next append starts a fresh segment.
//
// Errors: failing to create a segment, and any append failure outside
// kEveryRecord, is returned to the caller and is retryable. A failed
// every-record write or fsync is sticky: the on-disk state of that frame is
// unknown (the bytes may or may not be there, and a later fsync could make
// them durable), so acknowledging anything appended after it could ack
// above a hole. Every later append returns the same error; only a reopen,
// whose replay decides what the segment holds, clears it.
class WalLog {
 public:
  explicit WalLog(WalLogOptions options);
  // Best-effort: closes the active segment, logging (not raising) a
  // failure. Callers needing the error must Seal() first.
  ~WalLog();

  WalLog(const WalLog&) = delete;
  WalLog& operator=(const WalLog&) = delete;

  // Logs one atomic batch as one frame, durable per the sync mode when this
  // returns OK. An empty batch logs nothing.
  [[nodiscard]] Status AppendBatch(const WriteBatch& batch) EXCLUDES(mu_);

  // Seals the active segment: syncs per the sync mode and closes the file.
  // Returns the sealed segment's path, or nullopt if nothing was appended
  // since the last seal. On failure the segment stays open so a retry can
  // re-seal.
  [[nodiscard]] StatusOr<std::optional<std::string>> Seal() EXCLUDES(mu_);

  // Observability (benchmarks report fsyncs/record from these).
  uint64_t sync_count() const EXCLUDES(mu_);
  uint64_t records_appended() const EXCLUDES(mu_);

 private:
  [[nodiscard]] Status EnsureWriterLocked() REQUIRES(mu_);

  const WalLogOptions options_;

  mutable Mutex mu_{LockRank::kWalLog, "wal_log"};
  std::unique_ptr<WalSegmentWriter> writer_ GUARDED_BY(mu_);
  uint64_t next_sequence_ GUARDED_BY(mu_);
  // Sticky every-record write/fsync failure; see the class comment.
  Status commit_error_ GUARDED_BY(mu_);
  uint64_t syncs_ GUARDED_BY(mu_) = 0;
  uint64_t records_ GUARDED_BY(mu_) = 0;
};

// Invoked for each replayed record, oldest first. `tree_id` is 0 for
// single-record frames; a dataset's log tags each batch entry with the
// owning index tree (see Dataset's tree-id assignment).
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

// One `<prefix>_<seq>.wal` segment found in a directory listing.
struct WalSegmentFile {
  uint64_t sequence = 0;
  std::string path;  // `<directory>/<file name>`
};

// The `<prefix>_<digits>.wal` entries of `names` (a listing of
// `directory`), oldest first. Names with other shapes are ignored.
std::vector<WalSegmentFile> FindWalSegments(
    const std::vector<std::string>& names, const std::string& directory,
    const std::string& prefix);

// Discovers `<prefix>_<seq>.wal` segments in `directory` and replays them
// oldest to newest through `apply`. Outcomes per segment:
//
//   * clean, non-empty  — replayed; kept as a live segment.
//   * clean, empty      — deleted (it backs no records).
//   * torn tail, final segment — truncated at the last whole frame; the
//     replayed prefix is kept. Only a suffix of acknowledged-but-unsynced
//     writes is lost, so recovery stays prefix-consistent.
//   * mid-log corruption (or a torn non-final segment) — the segment and
//     every newer one are renamed to `<file>.quarantine` (keeping newer
//     records above a hole would break prefix consistency, exactly as with
//     components).
//
// The directory is fsynced when any file was deleted/renamed/truncated.
[[nodiscard]]
StatusOr<WalRecoveryResult> RecoverWalSegments(Env* env,
                                               const std::string& directory,
                                               const std::string& prefix,
                                               const WalReplayFn& apply);

// Removes obsolete segment files (after their memtables flushed durably).
[[nodiscard]]
Status DeleteWalSegments(Env* env, const std::vector<std::string>& segments);

}  // namespace lsmstats

#endif  // LSMSTATS_LSM_WAL_H_
