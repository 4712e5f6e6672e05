#include "common/env.h"

#include <utility>

#include "common/logging.h"

namespace lsmstats {

namespace {

// --------------------------------------------------------------- PosixEnv

class PosixEnv : public Env {
 public:
  StatusOr<std::unique_ptr<WritableFile>> NewWritableFile(
      const std::string& path) override {
    return internal::PosixNewWritableFile(path);
  }
  StatusOr<std::shared_ptr<RandomAccessFile>> NewRandomAccessFile(
      const std::string& path) override {
    return internal::PosixNewRandomAccessFile(path);
  }
  Status CreateDirIfMissing(const std::string& path) override {
    return internal::PosixCreateDirIfMissing(path);
  }
  Status RemoveFileIfExists(const std::string& path) override {
    return internal::PosixRemoveFileIfExists(path);
  }
  bool FileExists(const std::string& path) override {
    return internal::PosixFileExists(path);
  }
  Status RenameFile(const std::string& from, const std::string& to) override {
    return internal::PosixRenameFile(from, to);
  }
  Status SyncDir(const std::string& path) override {
    return internal::PosixSyncDir(path);
  }
  Status TruncateFile(const std::string& path, uint64_t size) override {
    return internal::PosixTruncateFile(path, size);
  }
  Status ListDir(const std::string& path,
                 std::vector<std::string>* names) override {
    return internal::PosixListDir(path, names);
  }
  StatusOr<uint64_t> GetFreeSpace(const std::string& path) override {
    return internal::PosixGetFreeSpace(path);
  }
};

}  // namespace

Env* Env::Default() {
  static PosixEnv* env = new PosixEnv();  // lint:allow(raw-new) leaked process-wide singleton
  return env;
}

std::string DirectoryOf(const std::string& path) {
  auto slash = path.find_last_of('/');
  if (slash == std::string::npos) return ".";
  if (slash == 0) return "/";
  return path.substr(0, slash);
}

// ------------------------------------------------------ FaultInjectionEnv

// Forwards to a base WritableFile, consulting the env before every mutation
// and reporting durable sizes back to it after every successful Sync().
class FaultInjectionEnv::FaultWritableFile : public WritableFile {
 public:
  FaultWritableFile(FaultInjectionEnv* env, std::string path,
                    std::unique_ptr<WritableFile> base)
      : env_(env), path_(std::move(path)), base_(std::move(base)) {}

  Status Append(std::string_view data) override {
    LSMSTATS_RETURN_IF_ERROR(env_->OnAppend(path_, data.size()));
    return base_->Append(data);
  }

  Status Sync() override {
    LSMSTATS_RETURN_IF_ERROR(env_->OnSync(path_, base_->size()));
    LSMSTATS_RETURN_IF_ERROR(base_->Sync());
    env_->RecordSynced(path_, base_->size());
    return Status::OK();
  }

  Status Close() override {
    // Close flushes the user-space buffer into the OS — a mutation that a
    // crashed process can no longer perform.
    LSMSTATS_RETURN_IF_ERROR(
        env_->BeforeMutation(OpKind::kOther, "close " + path_));
    return base_->Close();
  }

  uint64_t size() const override { return base_->size(); }

 private:
  FaultInjectionEnv* env_;
  std::string path_;
  std::unique_ptr<WritableFile> base_;
};

FaultInjectionEnv::FaultInjectionEnv(Env* base)
    : base_(base != nullptr ? base : Env::Default()) {}

void FaultInjectionEnv::CrashAtMutatingOp(uint64_t op_index) {
  MutexLock lock(&mu_);
  crash_at_ = op_index;
}

void FaultInjectionEnv::FailNthWrite(uint64_t n) {
  MutexLock lock(&mu_);
  fail_write_at_ = n;
}

void FaultInjectionEnv::FailNthSync(uint64_t n) {
  MutexLock lock(&mu_);
  fail_sync_at_ = n;
}

void FaultInjectionEnv::FailNthRename(uint64_t n) {
  MutexLock lock(&mu_);
  fail_rename_at_ = n;
}

void FaultInjectionEnv::FailWritesWith(Status status, uint64_t count) {
  MutexLock lock(&mu_);
  fail_writes_status_ = std::move(status);
  fail_writes_remaining_ = count;
}

void FaultInjectionEnv::ClearFaults() {
  MutexLock lock(&mu_);
  crash_at_ = 0;
  fail_write_at_ = 0;
  fail_sync_at_ = 0;
  fail_rename_at_ = 0;
  fail_writes_remaining_ = 0;
  fail_writes_status_ = Status::OK();
}

void FaultInjectionEnv::SetFreeSpaceBudget(uint64_t bytes) {
  MutexLock lock(&mu_);
  has_free_budget_ = true;
  free_budget_ = bytes;
}

void FaultInjectionEnv::AddFreeSpace(uint64_t bytes) {
  MutexLock lock(&mu_);
  has_free_budget_ = true;
  free_budget_ += bytes;
}

void FaultInjectionEnv::ClearFreeSpaceBudget() {
  MutexLock lock(&mu_);
  has_free_budget_ = false;
  free_budget_ = 0;
}

uint64_t FaultInjectionEnv::MutatingOpCount() const {
  MutexLock lock(&mu_);
  return mutating_ops_;
}

uint64_t FaultInjectionEnv::InjectedFailureCount() const {
  MutexLock lock(&mu_);
  return injected_failures_;
}

Status FaultInjectionEnv::BeforeMutation(OpKind kind, const std::string& what) {
  MutexLock lock(&mu_);
  ++mutating_ops_;
  if (crash_at_ != 0 && mutating_ops_ >= crash_at_) {
    ++injected_failures_;
    return Status::IOError("injected crash at op " +
                           std::to_string(mutating_ops_) + " (" + what + ")");
  }
  uint64_t* counter = nullptr;
  uint64_t* trigger = nullptr;
  switch (kind) {
    case OpKind::kWrite:
      counter = &writes_;
      trigger = &fail_write_at_;
      break;
    case OpKind::kSync:
      counter = &syncs_;
      trigger = &fail_sync_at_;
      break;
    case OpKind::kRename:
      counter = &renames_;
      trigger = &fail_rename_at_;
      break;
    case OpKind::kOther:
      return Status::OK();
  }
  ++*counter;
  if (*trigger != 0 && *counter == *trigger) {
    *trigger = 0;  // one-shot
    ++injected_failures_;
    return Status::IOError("injected fault (" + what + ")");
  }
  if (kind == OpKind::kWrite && fail_writes_remaining_ > 0) {
    --fail_writes_remaining_;
    ++injected_failures_;
    return Status(fail_writes_status_.code(),
                  fail_writes_status_.message() + " (" + what + ")");
  }
  return Status::OK();
}

Status FaultInjectionEnv::OnAppend(const std::string& path, uint64_t bytes) {
  LSMSTATS_RETURN_IF_ERROR(BeforeMutation(OpKind::kWrite, "write " + path));
  MutexLock lock(&mu_);
  if (has_free_budget_) {
    if (free_budget_ < bytes) {
      ++injected_failures_;
      return Status::IOError("injected ENOSPC: write " + path + " needs " +
                             std::to_string(bytes) + " bytes, " +
                             std::to_string(free_budget_) + " free");
    }
    free_budget_ -= bytes;
  }
  return Status::OK();
}

Status FaultInjectionEnv::OnSync(const std::string& path, uint64_t size) {
  (void)size;  // recorded separately after the base sync succeeds
  return BeforeMutation(OpKind::kSync, "sync " + path);
}

void FaultInjectionEnv::RecordSynced(const std::string& path, uint64_t size) {
  MutexLock lock(&mu_);
  synced_sizes_[path] = size;
}

Status FaultInjectionEnv::DropUnsyncedData() {
  std::map<std::string, uint64_t> snapshot;
  {
    MutexLock lock(&mu_);
    snapshot = synced_sizes_;
  }
  for (const auto& [path, synced] : snapshot) {
    if (!base_->FileExists(path)) continue;
    LSMSTATS_RETURN_IF_ERROR(base_->TruncateFile(path, synced));
  }
  return Status::OK();
}

Status FaultInjectionEnv::TruncateTailBytes(const std::string& path,
                                            uint64_t bytes) {
  auto file = base_->NewRandomAccessFile(path);
  LSMSTATS_RETURN_IF_ERROR(file.status());
  uint64_t size = (*file)->size();
  uint64_t keep = bytes >= size ? 0 : size - bytes;
  return base_->TruncateFile(path, keep);
}

StatusOr<std::unique_ptr<WritableFile>> FaultInjectionEnv::NewWritableFile(
    const std::string& path) {
  LSMSTATS_RETURN_IF_ERROR(BeforeMutation(OpKind::kWrite, "create " + path));
  auto base = base_->NewWritableFile(path);
  LSMSTATS_RETURN_IF_ERROR(base.status());
  {
    MutexLock lock(&mu_);
    synced_sizes_[path] = 0;  // created but nothing durable yet
  }
  return std::unique_ptr<WritableFile>(
      new FaultWritableFile(this, path, std::move(base).value()));
}

StatusOr<std::shared_ptr<RandomAccessFile>>
FaultInjectionEnv::NewRandomAccessFile(const std::string& path) {
  return base_->NewRandomAccessFile(path);
}

Status FaultInjectionEnv::CreateDirIfMissing(const std::string& path) {
  LSMSTATS_RETURN_IF_ERROR(BeforeMutation(OpKind::kOther, "mkdir " + path));
  return base_->CreateDirIfMissing(path);
}

Status FaultInjectionEnv::RemoveFileIfExists(const std::string& path) {
  LSMSTATS_RETURN_IF_ERROR(BeforeMutation(OpKind::kOther, "unlink " + path));
  Status s = base_->RemoveFileIfExists(path);
  if (s.ok()) {
    MutexLock lock(&mu_);
    synced_sizes_.erase(path);
  }
  return s;
}

bool FaultInjectionEnv::FileExists(const std::string& path) {
  return base_->FileExists(path);
}

Status FaultInjectionEnv::RenameFile(const std::string& from,
                                     const std::string& to) {
  LSMSTATS_RETURN_IF_ERROR(
      BeforeMutation(OpKind::kRename, "rename " + from + " -> " + to));
  Status s = base_->RenameFile(from, to);
  if (s.ok()) {
    MutexLock lock(&mu_);
    auto it = synced_sizes_.find(from);
    if (it != synced_sizes_.end()) {
      synced_sizes_[to] = it->second;
      synced_sizes_.erase(it);
    }
  }
  return s;
}

Status FaultInjectionEnv::SyncDir(const std::string& path) {
  LSMSTATS_RETURN_IF_ERROR(BeforeMutation(OpKind::kSync, "syncdir " + path));
  return base_->SyncDir(path);
}

Status FaultInjectionEnv::TruncateFile(const std::string& path,
                                       uint64_t size) {
  LSMSTATS_RETURN_IF_ERROR(BeforeMutation(OpKind::kOther, "truncate " + path));
  return base_->TruncateFile(path, size);
}

Status FaultInjectionEnv::ListDir(const std::string& path,
                                  std::vector<std::string>* names) {
  return base_->ListDir(path, names);
}

StatusOr<uint64_t> FaultInjectionEnv::GetFreeSpace(const std::string& path) {
  {
    MutexLock lock(&mu_);
    if (has_free_budget_) return free_budget_;
  }
  return base_->GetFreeSpace(path);
}

}  // namespace lsmstats
