#include "lsm/component_manifest.h"

#include <utility>

#include "common/coding.h"
#include "common/crc32c.h"
#include "common/logging.h"

namespace lsmstats {

namespace {

// "lsmmanf1" little-endian.
constexpr uint64_t kManifestMagic = 0x31666e616d6d736cULL;
constexpr uint64_t kManifestVersion = 1;

}  // namespace

std::string ComponentManifestPath(const std::string& directory,
                                  const std::string& name) {
  return directory + "/" + name + ".manifest";
}

Status WriteComponentManifest(Env* env, const std::string& directory,
                              const std::string& name,
                              const ComponentManifest& manifest) {
  if (env == nullptr) env = Env::Default();
  Encoder enc;
  enc.PutU64(kManifestMagic);
  enc.PutVarint64(kManifestVersion);
  enc.PutVarint64(manifest.next_component_id);
  enc.PutVarint64(manifest.stack.size());
  for (const ManifestEntry& entry : manifest.stack) {
    enc.PutVarint64(entry.id);
    enc.PutVarint64(entry.level);
  }
  enc.PutU8(manifest.pending.has_value() ? 1 : 0);
  if (manifest.pending.has_value()) {
    enc.PutVarint64(manifest.pending->target_level);
    enc.PutVarint64(manifest.pending->input_ids.size());
    for (uint64_t id : manifest.pending->input_ids) enc.PutVarint64(id);
    enc.PutVarint64(manifest.pending->output_ids.size());
    for (uint64_t id : manifest.pending->output_ids) enc.PutVarint64(id);
  }
  enc.PutU32(crc32c::Value(enc.buffer()));

  // Same seal protocol as components: the old manifest stays intact until
  // the new one is durable, and the rename is atomic.
  const std::string path = ComponentManifestPath(directory, name);
  const std::string tmp_path = path + ".tmp";
  auto file_or = env->NewWritableFile(tmp_path);
  LSMSTATS_RETURN_IF_ERROR(file_or.status());
  std::unique_ptr<WritableFile> file = std::move(file_or).value();
  auto fail = [&](Status s) -> Status {
    file.reset();
    Status removed = env->RemoveFileIfExists(tmp_path);
    if (!removed.ok()) {
      LSMSTATS_LOG(kWarning) << "could not remove temporary manifest "
                             << tmp_path << ": " << removed.ToString();
    }
    return s;
  };
  Status s = file->Append(enc.buffer());
  if (!s.ok()) return fail(std::move(s));
  s = file->Sync();
  if (!s.ok()) return fail(std::move(s));
  s = file->Close();
  if (!s.ok()) return fail(std::move(s));
  file.reset();
  s = env->RenameFile(tmp_path, path);
  if (!s.ok()) return fail(std::move(s));
  return env->SyncDir(directory);
}

StatusOr<std::optional<ComponentManifest>> ReadComponentManifest(
    Env* env, const std::string& directory, const std::string& name) {
  if (env == nullptr) env = Env::Default();
  const std::string path = ComponentManifestPath(directory, name);
  if (!env->FileExists(path)) return std::optional<ComponentManifest>();
  auto file_or = env->NewRandomAccessFile(path);
  LSMSTATS_RETURN_IF_ERROR(file_or.status());
  std::shared_ptr<RandomAccessFile> file = std::move(file_or).value();
  if (file->size() < sizeof(uint64_t) + sizeof(uint32_t)) {
    return Status::Corruption("component manifest too small: " + path);
  }
  std::string bytes;
  LSMSTATS_RETURN_IF_ERROR(
      file->Read(0, static_cast<size_t>(file->size()), &bytes));

  uint32_t stored_crc = 0;
  {
    Decoder crc_dec(std::string_view(bytes).substr(bytes.size() - 4));
    LSMSTATS_RETURN_IF_ERROR(crc_dec.GetU32(&stored_crc));
  }
  std::string_view payload(bytes.data(), bytes.size() - 4);
  if (crc32c::Value(payload) != stored_crc) {
    return Status::Corruption("component manifest checksum mismatch: " + path);
  }

  Decoder dec(payload);
  uint64_t magic = 0;
  LSMSTATS_RETURN_IF_ERROR(dec.GetU64(&magic));
  if (magic != kManifestMagic) {
    return Status::Corruption("bad component manifest magic: " + path);
  }
  uint64_t version = 0;
  LSMSTATS_RETURN_IF_ERROR(dec.GetVarint64(&version));
  if (version != kManifestVersion) {
    return Status::Corruption("unsupported component manifest version " +
                              std::to_string(version) + ": " + path);
  }
  ComponentManifest manifest;
  LSMSTATS_RETURN_IF_ERROR(dec.GetVarint64(&manifest.next_component_id));
  uint64_t stack_size = 0;
  LSMSTATS_RETURN_IF_ERROR(dec.GetVarint64(&stack_size));
  // Each stack entry is two varints (id, level).
  if (stack_size > dec.remaining() / 2) {
    return Status::Corruption("component manifest stack size exceeds buffer: " +
                              path);
  }
  manifest.stack.reserve(stack_size);
  for (uint64_t i = 0; i < stack_size; ++i) {
    ManifestEntry entry;
    uint64_t level = 0;
    LSMSTATS_RETURN_IF_ERROR(dec.GetVarint64(&entry.id));
    LSMSTATS_RETURN_IF_ERROR(dec.GetVarint64(&level));
    entry.level = static_cast<uint32_t>(level);
    manifest.stack.push_back(entry);
  }
  uint8_t has_pending = 0;
  LSMSTATS_RETURN_IF_ERROR(dec.GetU8(&has_pending));
  if (has_pending != 0) {
    ManifestPendingMerge pending;
    uint64_t target = 0;
    LSMSTATS_RETURN_IF_ERROR(dec.GetVarint64(&target));
    pending.target_level = static_cast<uint32_t>(target);
    uint64_t inputs = 0;
    LSMSTATS_RETURN_IF_ERROR(dec.GetVarint64(&inputs));
    if (inputs > dec.remaining()) {
      return Status::Corruption(
          "component manifest merge inputs exceed buffer: " + path);
    }
    pending.input_ids.reserve(inputs);
    for (uint64_t i = 0; i < inputs; ++i) {
      uint64_t id = 0;
      LSMSTATS_RETURN_IF_ERROR(dec.GetVarint64(&id));
      pending.input_ids.push_back(id);
    }
    uint64_t outputs = 0;
    LSMSTATS_RETURN_IF_ERROR(dec.GetVarint64(&outputs));
    if (outputs > dec.remaining()) {
      return Status::Corruption(
          "component manifest merge outputs exceed buffer: " + path);
    }
    pending.output_ids.reserve(outputs);
    for (uint64_t i = 0; i < outputs; ++i) {
      uint64_t id = 0;
      LSMSTATS_RETURN_IF_ERROR(dec.GetVarint64(&id));
      pending.output_ids.push_back(id);
    }
    manifest.pending = std::move(pending);
  }
  if (!dec.Done()) {
    return Status::Corruption("trailing bytes in component manifest: " + path);
  }
  return std::optional<ComponentManifest>(std::move(manifest));
}

}  // namespace lsmstats
