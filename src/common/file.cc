#include "common/file.h"

#include <fcntl.h>
#include <sys/stat.h>
#include <sys/statvfs.h>
#include <sys/types.h>
#include <unistd.h>

#include <algorithm>
#include <cerrno>
#include <cstring>
#include <filesystem>

#include "common/env.h"
#include "common/logging.h"

namespace lsmstats {

namespace {

constexpr size_t kWriteBufferSize = 1 << 16;

Status ErrnoStatus(const std::string& context) {
  // strerror's static buffer is fine here: this feeds an error path, and the
  // message is copied into the Status before any other call can clobber it.
  return Status::IOError(context + ": " + std::strerror(errno));  // NOLINT(concurrency-mt-unsafe)
}

// ---------------------------------------------------------------- Writable

class PosixWritableFile : public WritableFile {
 public:
  explicit PosixWritableFile(int fd) : fd_(fd) {
    buffer_.reserve(kWriteBufferSize);
  }

  ~PosixWritableFile() override {
    if (fd_ >= 0) {
      // Best-effort: a destructor cannot propagate the error, but a failed
      // final flush means lost bytes, so it must not pass silently. Callers
      // that care about durability must Sync()/Close() explicitly and check.
      Status s = FlushBuffer();
      if (!s.ok()) {
        LSMSTATS_LOG(kError) << "flush in ~WritableFile failed: "
                             << s.ToString();
      }
      ::close(fd_);
    }
  }

  Status Append(std::string_view data) override {
    size_ += data.size();
    if (buffer_.size() + data.size() <= kWriteBufferSize) {
      buffer_.append(data.data(), data.size());
      return Status::OK();
    }
    LSMSTATS_RETURN_IF_ERROR(FlushBuffer());
    if (data.size() >= kWriteBufferSize) {
      // Large payload: write through.
      size_t written = 0;
      while (written < data.size()) {
        ssize_t n = ::write(fd_, data.data() + written, data.size() - written);
        if (n < 0) return ErrnoStatus("write");
        written += static_cast<size_t>(n);
      }
      return Status::OK();
    }
    buffer_.append(data.data(), data.size());
    return Status::OK();
  }

  Status Sync() override {
    if (fd_ < 0) return Status::IOError("Sync on closed file");
    LSMSTATS_RETURN_IF_ERROR(FlushBuffer());
    if (::fsync(fd_) != 0) return ErrnoStatus("fsync");
    return Status::OK();
  }

  Status Close() override {
    if (fd_ < 0) return Status::OK();
    Status s = FlushBuffer();
    if (::close(fd_) != 0 && s.ok()) s = ErrnoStatus("close");
    fd_ = -1;
    return s;
  }

  uint64_t size() const override { return size_; }

 private:
  [[nodiscard]] Status FlushBuffer() {
    size_t written = 0;
    while (written < buffer_.size()) {
      ssize_t n = ::write(fd_, buffer_.data() + written,
                          buffer_.size() - written);
      if (n < 0) return ErrnoStatus("write");
      written += static_cast<size_t>(n);
    }
    buffer_.clear();
    return Status::OK();
  }

  int fd_;
  uint64_t size_ = 0;
  std::string buffer_;
};

// ------------------------------------------------------------ RandomAccess

class PosixRandomAccessFile : public RandomAccessFile {
 public:
  PosixRandomAccessFile(int fd, uint64_t size) : fd_(fd), size_(size) {}

  ~PosixRandomAccessFile() override {
    if (fd_ >= 0) ::close(fd_);
  }

  Status Read(uint64_t offset, size_t n, std::string* out) const override {
    out->resize(n);
    size_t done = 0;
    while (done < n) {
      ssize_t r = ::pread(fd_, out->data() + done, n - done,
                          static_cast<off_t>(offset + done));
      if (r < 0) return ErrnoStatus("pread");
      if (r == 0) return Status::Corruption("read past end of file");
      done += static_cast<size_t>(r);
    }
    return Status::OK();
  }

  uint64_t size() const override { return size_; }

 private:
  int fd_;
  uint64_t size_;
};

}  // namespace

// -------------------------------------------- default-env forwarding shims

StatusOr<std::unique_ptr<WritableFile>> WritableFile::Create(
    const std::string& path) {
  return Env::Default()->NewWritableFile(path);
}

StatusOr<std::shared_ptr<RandomAccessFile>> RandomAccessFile::Open(
    const std::string& path) {
  return Env::Default()->NewRandomAccessFile(path);
}

Status CreateDirIfMissing(const std::string& path) {
  return Env::Default()->CreateDirIfMissing(path);
}

Status RemoveFileIfExists(const std::string& path) {
  return Env::Default()->RemoveFileIfExists(path);
}

bool FileExists(const std::string& path) {
  return Env::Default()->FileExists(path);
}

// ------------------------------------------------------ POSIX primitives

namespace internal {

StatusOr<std::unique_ptr<WritableFile>> PosixNewWritableFile(
    const std::string& path) {
  int fd = ::open(path.c_str(), O_WRONLY | O_CREAT | O_TRUNC, 0644);
  if (fd < 0) return ErrnoStatus("open for write " + path);
  return std::unique_ptr<WritableFile>(new PosixWritableFile(fd));
}

StatusOr<std::shared_ptr<RandomAccessFile>> PosixNewRandomAccessFile(
    const std::string& path) {
  int fd = ::open(path.c_str(), O_RDONLY);
  if (fd < 0) return ErrnoStatus("open for read " + path);
  struct stat st;
  if (::fstat(fd, &st) != 0) {
    ::close(fd);
    return ErrnoStatus("fstat " + path);
  }
  return std::shared_ptr<RandomAccessFile>(
      new PosixRandomAccessFile(fd, static_cast<uint64_t>(st.st_size)));
}

Status PosixCreateDirIfMissing(const std::string& path) {
  if (::mkdir(path.c_str(), 0755) == 0 || errno == EEXIST) {
    return Status::OK();
  }
  return ErrnoStatus("mkdir " + path);
}

Status PosixRemoveFileIfExists(const std::string& path) {
  if (::unlink(path.c_str()) == 0 || errno == ENOENT) {
    return Status::OK();
  }
  return ErrnoStatus("unlink " + path);
}

bool PosixFileExists(const std::string& path) {
  struct stat st;
  return ::stat(path.c_str(), &st) == 0;
}

Status PosixRenameFile(const std::string& from, const std::string& to) {
  if (::rename(from.c_str(), to.c_str()) != 0) {
    return ErrnoStatus("rename " + from + " -> " + to);
  }
  return Status::OK();
}

Status PosixSyncDir(const std::string& path) {
  int fd = ::open(path.c_str(), O_RDONLY | O_DIRECTORY);
  if (fd < 0) return ErrnoStatus("open dir " + path);
  Status s;
  if (::fsync(fd) != 0) s = ErrnoStatus("fsync dir " + path);
  ::close(fd);
  return s;
}

Status PosixTruncateFile(const std::string& path, uint64_t size) {
  if (::truncate(path.c_str(), static_cast<off_t>(size)) != 0) {
    return ErrnoStatus("truncate " + path);
  }
  return Status::OK();
}

StatusOr<uint64_t> PosixGetFreeSpace(const std::string& path) {
  struct statvfs vfs;
  if (::statvfs(path.c_str(), &vfs) != 0) {
    return ErrnoStatus("statvfs " + path);
  }
  // f_bavail, not f_bfree: the watchdog should see what an unprivileged
  // writer can actually use, excluding the root-reserved blocks.
  return static_cast<uint64_t>(vfs.f_bavail) *
         static_cast<uint64_t>(vfs.f_frsize);
}

Status PosixListDir(const std::string& path,
                    std::vector<std::string>* names) {
  names->clear();
  std::error_code ec;
  for (const auto& entry : std::filesystem::directory_iterator(path, ec)) {
    names->push_back(entry.path().filename().string());
  }
  if (ec) {
    return Status::IOError("cannot list " + path + ": " + ec.message());
  }
  std::sort(names->begin(), names->end());
  return Status::OK();
}

}  // namespace internal

}  // namespace lsmstats
