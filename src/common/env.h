// Pluggable filesystem environment.
//
// Every storage consumer (DiskComponent build/open, LsmTree flush/merge/
// bulkload/recovery, Dataset, StatisticsCatalog persistence) reaches the
// filesystem exclusively through an Env, so the whole storage lifecycle can
// run against a substituted implementation. Two are provided:
//
//   * PosixEnv (Env::Default()) — the real filesystem.
//   * FaultInjectionEnv — a test double that injects I/O failures (fail the
//     Nth write/sync/rename, fail everything after a simulated crash point),
//     tears files (truncate tail bytes), and drops un-synced data the way a
//     power loss would. tests/fault_injection_test.cc sweeps crash points
//     through an ingest/flush/merge run with it.
//
// Durability contract (see DESIGN.md "Failure model & durability"): a
// component or catalog file is durable only after WritableFile::Sync(), an
// atomic RenameFile() into its final name, and SyncDir() on the containing
// directory. Env implementations must preserve rename atomicity.

#ifndef LSMSTATS_COMMON_ENV_H_
#define LSMSTATS_COMMON_ENV_H_

#include <cstdint>
#include <map>
#include <memory>
#include <string>
#include <vector>

#include "common/file.h"
#include "common/mutex.h"
#include "common/status.h"

namespace lsmstats {

class Env {
 public:
  virtual ~Env() = default;

  // The process-wide POSIX environment. Never null; not owned by callers.
  static Env* Default();

  // Creates (truncates) `path` for appending.
  [[nodiscard]]
  virtual StatusOr<std::unique_ptr<WritableFile>> NewWritableFile(
      const std::string& path) = 0;

  // Opens `path` for positional reads.
  [[nodiscard]]
  virtual StatusOr<std::shared_ptr<RandomAccessFile>> NewRandomAccessFile(
      const std::string& path) = 0;

  [[nodiscard]] virtual Status CreateDirIfMissing(const std::string& path) = 0;
  [[nodiscard]] virtual Status RemoveFileIfExists(const std::string& path) = 0;
  virtual bool FileExists(const std::string& path) = 0;

  // Atomically replaces `to` with `from` (POSIX rename semantics).
  [[nodiscard]]
  virtual Status RenameFile(const std::string& from, const std::string& to) = 0;

  // Fsyncs the directory so completed renames/creates survive a crash.
  [[nodiscard]] virtual Status SyncDir(const std::string& path) = 0;

  [[nodiscard]]
  virtual Status TruncateFile(const std::string& path, uint64_t size) = 0;

  // Fills `names` with the entries of `path` (no "."/".."), sorted.
  [[nodiscard]]
  virtual Status ListDir(const std::string& path,
                         std::vector<std::string>* names) = 0;

  // Bytes available to this process on the filesystem holding `path`. The
  // disk-space watchdog (LsmTree/WalLog) consults this before starting a
  // flush, merge, or WAL segment so the engine can degrade gracefully BEFORE
  // half-written files appear. The base default reports "unlimited" so an
  // Env that cannot answer never trips the watchdog by accident. PosixEnv
  // always reports the real filesystem; tests simulate a full disk with
  // FaultInjectionEnv::SetFreeSpaceBudget.
  [[nodiscard]] virtual StatusOr<uint64_t> GetFreeSpace(
      const std::string& path) {
    (void)path;
    return UINT64_MAX;
  }
};

// Directory part of `path` ("." when it has no separator) — for SyncDir after
// sealing a file into that directory.
std::string DirectoryOf(const std::string& path);

// Env test double injecting deterministic filesystem faults.
//
// Every mutating operation (file create, append, sync, rename, delete,
// truncate, dir sync) increments a shared op counter. Faults:
//
//   * CrashAtMutatingOp(k): op k and every later mutating op fail with
//     IOError("injected crash ...") — the process "died" at op k. Combine
//     with DropUnsyncedData() + a fresh tree Open to simulate recovery.
//   * FailNthWrite/Sync/Rename(n): the nth such op (1-based, counted per
//     kind) fails once with IOError("injected ..."); later ops succeed —
//     exercises retry paths.
//   * FailWritesWith(status, count): the next `count` write ops fail with
//     copies of `status` — scripts transient-outage windows (a burst of
//     EIO/ENOSPC that later clears) for the auto-recovery tests.
//   * SetFreeSpaceBudget(bytes): simulated disk capacity. Appends draw it
//     down; when a write doesn't fit it fails with an injected-ENOSPC
//     IOError and GetFreeSpace() reports what's left, so the free-space
//     watchdog and ENOSPC-then-recover sequences are scriptable without
//     filling a real disk. AddFreeSpace() models space being freed.
//   * TruncateTailBytes(path, n): tears the tail off a file on the backing
//     filesystem (torn-write simulation).
//   * DropUnsyncedData(): truncates every file written through this env back
//     to its last Sync()ed size, as a power loss would.
//
// Reads are never failed: a crashed process cannot observe them, and
// recovery-time read errors are exercised separately via corruption tests.
class FaultInjectionEnv : public Env {
 public:
  // Wraps `base` (Env::Default() when null).
  explicit FaultInjectionEnv(Env* base = nullptr);

  // --- fault schedule ------------------------------------------------------

  void CrashAtMutatingOp(uint64_t op_index);  // 1-based
  void FailNthWrite(uint64_t n);              // 1-based, one-shot
  void FailNthSync(uint64_t n);
  void FailNthRename(uint64_t n);
  // The next `count` write ops (file creates + appends) fail with copies of
  // `status`. Cleared by ClearFaults() or after `count` failures.
  void FailWritesWith(Status status, uint64_t count);
  void ClearFaults();

  // --- simulated disk capacity --------------------------------------------

  // Installs (or resets) the free-space budget. AddFreeSpace models an
  // operator freeing space; ClearFreeSpaceBudget returns to "unlimited".
  void SetFreeSpaceBudget(uint64_t bytes);
  void AddFreeSpace(uint64_t bytes);
  void ClearFreeSpaceBudget();

  // Mutating ops observed so far (to size a crash-point sweep).
  uint64_t MutatingOpCount() const;
  // Number of operations that failed due to an injected fault.
  uint64_t InjectedFailureCount() const;

  // --- crash simulation ----------------------------------------------------

  [[nodiscard]] Status DropUnsyncedData();
  [[nodiscard]]
  Status TruncateTailBytes(const std::string& path, uint64_t bytes);

  // --- Env interface -------------------------------------------------------

  [[nodiscard]]
  StatusOr<std::unique_ptr<WritableFile>> NewWritableFile(
      const std::string& path) override;
  [[nodiscard]]
  StatusOr<std::shared_ptr<RandomAccessFile>> NewRandomAccessFile(
      const std::string& path) override;
  [[nodiscard]] Status CreateDirIfMissing(const std::string& path) override;
  [[nodiscard]] Status RemoveFileIfExists(const std::string& path) override;
  bool FileExists(const std::string& path) override;
  [[nodiscard]]
  Status RenameFile(const std::string& from, const std::string& to) override;
  [[nodiscard]] Status SyncDir(const std::string& path) override;
  [[nodiscard]]
  Status TruncateFile(const std::string& path, uint64_t size) override;
  [[nodiscard]]
  Status ListDir(const std::string& path,
                 std::vector<std::string>* names) override;
  // Reports the remaining simulated budget when one is set, else forwards.
  [[nodiscard]]
  StatusOr<uint64_t> GetFreeSpace(const std::string& path) override;

 private:
  class FaultWritableFile;

  enum class OpKind { kWrite, kSync, kRename, kOther };

  // Returns the injected failure for the next mutating op of `kind`, or OK.
  // `what` names the op for the error message.
  [[nodiscard]] Status BeforeMutation(OpKind kind, const std::string& what);

  // Called by FaultWritableFile under no lock. `bytes` is the size of the
  // append, drawn from the free-space budget when one is set.
  [[nodiscard]] Status OnAppend(const std::string& path, uint64_t bytes);
  [[nodiscard]] Status OnSync(const std::string& path, uint64_t size);
  void RecordSynced(const std::string& path, uint64_t size);

  mutable Mutex mu_{LockRank::kEnv, "fault_injection_env"};
  Env* base_;
  uint64_t mutating_ops_ GUARDED_BY(mu_) = 0;
  uint64_t crash_at_ GUARDED_BY(mu_) = 0;  // 0 = no crash scheduled
  uint64_t writes_ GUARDED_BY(mu_) = 0;
  uint64_t syncs_ GUARDED_BY(mu_) = 0;
  uint64_t renames_ GUARDED_BY(mu_) = 0;
  uint64_t fail_write_at_ GUARDED_BY(mu_) = 0;
  uint64_t fail_sync_at_ GUARDED_BY(mu_) = 0;
  uint64_t fail_rename_at_ GUARDED_BY(mu_) = 0;
  uint64_t injected_failures_ GUARDED_BY(mu_) = 0;
  Status fail_writes_status_ GUARDED_BY(mu_);
  uint64_t fail_writes_remaining_ GUARDED_BY(mu_) = 0;
  bool has_free_budget_ GUARDED_BY(mu_) = false;
  uint64_t free_budget_ GUARDED_BY(mu_) = 0;
  // Last durable (synced) size of every file written through this env.
  // Files created but never synced map to 0.
  std::map<std::string, uint64_t> synced_sizes_ GUARDED_BY(mu_);
};

}  // namespace lsmstats

#endif  // LSMSTATS_COMMON_ENV_H_
