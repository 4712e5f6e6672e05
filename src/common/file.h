// File abstractions used by the LSM storage layer.
//
// WritableFile is an append-only buffered writer (components are written once,
// sequentially, then sealed). RandomAccessFile supports positional reads for
// component blocks, footers and WAL segments.
//
// Both file types are abstract so an Env (see common/env.h) can substitute
// implementations — the default is POSIX, tests use FaultInjectionEnv to
// exercise crash and I/O-error paths. The static Create/Open factories and
// the free filesystem helpers below forward to Env::Default() and exist for
// callers that don't need a pluggable environment.

#ifndef LSMSTATS_COMMON_FILE_H_
#define LSMSTATS_COMMON_FILE_H_

#include <cstdint>
#include <memory>
#include <string>
#include <string_view>
#include <vector>

#include "common/status.h"

namespace lsmstats {

// Append-only writer. Append() buffers in user space; Sync() makes every
// appended byte durable (flushes the buffer and fsyncs); Close() flushes the
// buffer to the OS but does NOT guarantee durability — callers that need
// crash safety must Sync() before Close() (the component seal protocol and
// catalog save do).
class WritableFile {
 public:
  // Creates (truncates) `path` for writing via Env::Default().
  [[nodiscard]]
  static StatusOr<std::unique_ptr<WritableFile>> Create(
      const std::string& path);

  virtual ~WritableFile() = default;
  WritableFile(const WritableFile&) = delete;
  WritableFile& operator=(const WritableFile&) = delete;

  [[nodiscard]] virtual Status Append(std::string_view data) = 0;
  // Flushes the user-space buffer and fsyncs the descriptor: on return every
  // byte appended so far survives a crash.
  [[nodiscard]] virtual Status Sync() = 0;
  // Flushes buffered data and closes the descriptor.
  [[nodiscard]] virtual Status Close() = 0;

  // Bytes appended so far (buffered or not).
  virtual uint64_t size() const = 0;

 protected:
  WritableFile() = default;
};

class RandomAccessFile {
 public:
  // Opens `path` for reading via Env::Default().
  [[nodiscard]]
  static StatusOr<std::shared_ptr<RandomAccessFile>> Open(
      const std::string& path);

  virtual ~RandomAccessFile() = default;
  RandomAccessFile(const RandomAccessFile&) = delete;
  RandomAccessFile& operator=(const RandomAccessFile&) = delete;

  // Reads exactly `n` bytes at `offset` into `*out` (resized to n).
  [[nodiscard]]
  virtual Status Read(uint64_t offset, size_t n, std::string* out) const = 0;

  virtual uint64_t size() const = 0;

 protected:
  RandomAccessFile() = default;
};

// Filesystem helpers; forward to Env::Default().
[[nodiscard]] Status CreateDirIfMissing(const std::string& path);
[[nodiscard]] Status RemoveFileIfExists(const std::string& path);
bool FileExists(const std::string& path);

namespace internal {

// POSIX primitives backing PosixEnv (common/env.cc). All direct filesystem
// syscalls live behind these two translation units; tools/lint.py rule
// `env-bypass` enforces that nothing else in src/ calls them directly.
[[nodiscard]]
StatusOr<std::unique_ptr<WritableFile>> PosixNewWritableFile(
    const std::string& path);
[[nodiscard]]
StatusOr<std::shared_ptr<RandomAccessFile>> PosixNewRandomAccessFile(
    const std::string& path);
[[nodiscard]] Status PosixCreateDirIfMissing(const std::string& path);
[[nodiscard]] Status PosixRemoveFileIfExists(const std::string& path);
bool PosixFileExists(const std::string& path);
[[nodiscard]]
Status PosixRenameFile(const std::string& from, const std::string& to);
[[nodiscard]] Status PosixSyncDir(const std::string& path);
[[nodiscard]] Status PosixTruncateFile(const std::string& path, uint64_t size);
// Bytes available to unprivileged writers on the filesystem holding `path`
// (statvfs f_bavail * f_frsize).
[[nodiscard]] StatusOr<uint64_t> PosixGetFreeSpace(const std::string& path);
[[nodiscard]]
Status PosixListDir(const std::string& path,
                    std::vector<std::string>* names);

}  // namespace internal

}  // namespace lsmstats

#endif  // LSMSTATS_COMMON_FILE_H_
