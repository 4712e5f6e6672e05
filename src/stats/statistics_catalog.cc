#include "stats/statistics_catalog.h"

#include <algorithm>

#include "common/crc32c.h"
#include "common/file.h"
#include "common/logging.h"

namespace lsmstats {

namespace {

constexpr uint64_t kCatalogMagic = 0x4c534d5354434154ULL;  // "LSMSTCAT"
constexpr size_t kCatalogTrailerSize = 4 + 8;  // payload CRC32C + magic

}  // namespace

StatisticsCatalog::StatisticsCatalog(StatisticsCatalog&& other) {
  MutexLock lock(&other.mu_);
  streams_ = std::move(other.streams_);
  last_version_ = other.last_version_;
}

StatisticsCatalog& StatisticsCatalog::operator=(StatisticsCatalog&& other) {
  if (this != &other) {
    // Sequential, never nested: both catalogs share the same lock rank, so
    // holding one while acquiring the other would trip the rank checker (and
    // rightly so — two concurrent cross-assignments could deadlock). Take
    // the source's streams under its lock, then install under ours. The
    // instant between the two is safe: replacement has a single writer
    // (LoadFromFile), and readers see either the old or the new catalog.
    std::map<StatisticsKey, Stream> taken;
    uint64_t taken_last_version = 0;
    {
      MutexLock lock(&other.mu_);
      taken = std::move(other.streams_);
      other.streams_.clear();
      taken_last_version = other.last_version_;
    }
    // Shift the taken versions past every version handed out here: an
    // estimator bound to this catalog may hold a merged pair cached under
    // any of them, and must see each installed stream as new.
    MutexLock lock(&mu_);
    for (auto& [key, stream] : taken) stream.version += last_version_;
    last_version_ += taken_last_version;
    streams_ = std::move(taken);
  }
  return *this;
}

void StatisticsCatalog::Republish(Stream* stream,
                                  const std::vector<uint64_t>& removed_ids,
                                  SynopsisEntry* added) {
  auto next = std::make_shared<std::vector<SynopsisEntry>>();
  next->reserve(stream->entries->size() + 1);
  for (const SynopsisEntry& e : *stream->entries) {
    if (std::find(removed_ids.begin(), removed_ids.end(), e.component_id) ==
        removed_ids.end()) {
      next->push_back(e);
    }
  }
  if (added != nullptr) next->push_back(std::move(*added));
  stream->entries = std::move(next);
  stream->version = ++last_version_;
}

void StatisticsCatalog::Register(
    const StatisticsKey& key, SynopsisEntry entry,
    const std::vector<uint64_t>& replaced_component_ids) {
  MutexLock lock(&mu_);
  Republish(&streams_[key], replaced_component_ids, &entry);
}

void StatisticsCatalog::Drop(const StatisticsKey& key,
                             const std::vector<uint64_t>& component_ids) {
  MutexLock lock(&mu_);
  auto it = streams_.find(key);
  if (it == streams_.end()) return;
  Republish(&it->second, component_ids, nullptr);
}

StatisticsCatalog::StreamSnapshot StatisticsCatalog::Snapshot(
    const StatisticsKey& key) const {
  MutexLock lock(&mu_);
  auto it = streams_.find(key);
  if (it == streams_.end()) return {};
  return {it->second.version, it->second.entries};
}

std::vector<SynopsisEntry> StatisticsCatalog::GetSynopses(
    const StatisticsKey& key) const {
  StreamSnapshot snapshot = Snapshot(key);
  if (snapshot.entries == nullptr) return {};
  return *snapshot.entries;
}

std::vector<SynopsisEntry> StatisticsCatalog::GetSynopsesAllPartitions(
    const std::string& dataset, const std::string& field) const {
  MutexLock lock(&mu_);
  std::vector<SynopsisEntry> result;
  for (const auto& [key, stream] : streams_) {
    if (key.dataset == dataset && key.field == field) {
      result.insert(result.end(), stream.entries->begin(),
                    stream.entries->end());
    }
  }
  return result;
}

std::vector<StatisticsKey> StatisticsCatalog::Keys(
    const std::string& dataset, const std::string& field) const {
  MutexLock lock(&mu_);
  std::vector<StatisticsKey> result;
  for (const auto& [key, stream] : streams_) {
    if (key.dataset == dataset && key.field == field) {
      result.push_back(key);
    }
  }
  return result;
}

uint64_t StatisticsCatalog::Version(const StatisticsKey& key) const {
  MutexLock lock(&mu_);
  auto it = streams_.find(key);
  return it == streams_.end() ? 0 : it->second.version;
}

uint64_t StatisticsCatalog::TotalStorageBytes() const {
  MutexLock lock(&mu_);
  uint64_t total = 0;
  for (const auto& [key, stream] : streams_) {
    for (const SynopsisEntry& entry : *stream.entries) {
      for (const auto& synopsis : {entry.synopsis, entry.anti_synopsis}) {
        if (!synopsis) continue;
        Encoder enc;
        synopsis->EncodeTo(&enc);
        total += enc.size();
      }
    }
  }
  return total;
}

size_t StatisticsCatalog::EntryCount(const StatisticsKey& key) const {
  MutexLock lock(&mu_);
  auto it = streams_.find(key);
  return it == streams_.end() ? 0 : it->second.entries->size();
}

void StatisticsCatalog::EncodeTo(Encoder* enc) const {
  MutexLock lock(&mu_);
  enc->PutVarint64(streams_.size());
  for (const auto& [key, stream] : streams_) {
    enc->PutString(key.dataset);
    enc->PutString(key.field);
    enc->PutU32(key.partition);
    enc->PutVarint64(stream.version);
    enc->PutVarint64(stream.entries->size());
    for (const SynopsisEntry& entry : *stream.entries) {
      enc->PutVarint64(entry.component_id);
      enc->PutVarint64(entry.timestamp);
      for (const auto& synopsis : {entry.synopsis, entry.anti_synopsis}) {
        if (synopsis) {
          Encoder body;
          synopsis->EncodeTo(&body);
          enc->PutString(body.buffer());
        } else {
          enc->PutString("");
        }
      }
    }
  }
}

StatusOr<StatisticsCatalog> StatisticsCatalog::DecodeFrom(Decoder* dec) {
  StatisticsCatalog catalog;
  {
    // The catalog is function-local, but streams_ is a guarded member, so
    // the analysis wants its lock held. The scope must end before the final
    // return: the move into the StatusOr locks catalog.mu_ again, and the
    // rank checker treats that as a re-entrant acquisition if still held.
    MutexLock lock(&catalog.mu_);
    uint64_t stream_count;
    LSMSTATS_RETURN_IF_ERROR(dec->GetVarint64(&stream_count));
    for (uint64_t s = 0; s < stream_count; ++s) {
      StatisticsKey key;
      LSMSTATS_RETURN_IF_ERROR(dec->GetString(&key.dataset));
      LSMSTATS_RETURN_IF_ERROR(dec->GetString(&key.field));
      LSMSTATS_RETURN_IF_ERROR(dec->GetU32(&key.partition));
      Stream& stream = catalog.streams_[key];
      LSMSTATS_RETURN_IF_ERROR(dec->GetVarint64(&stream.version));
      catalog.last_version_ = std::max(catalog.last_version_, stream.version);
      uint64_t entry_count;
      LSMSTATS_RETURN_IF_ERROR(dec->GetVarint64(&entry_count));
      if (entry_count > dec->remaining()) {
        return Status::Corruption("catalog entry count exceeds buffer");
      }
      auto entries = std::make_shared<std::vector<SynopsisEntry>>(entry_count);
      for (SynopsisEntry& entry : *entries) {
        LSMSTATS_RETURN_IF_ERROR(dec->GetVarint64(&entry.component_id));
        LSMSTATS_RETURN_IF_ERROR(dec->GetVarint64(&entry.timestamp));
        for (auto* slot : {&entry.synopsis, &entry.anti_synopsis}) {
          std::string body;
          LSMSTATS_RETURN_IF_ERROR(dec->GetString(&body));
          if (body.empty()) continue;
          Decoder body_dec(body);
          auto synopsis = DecodeSynopsis(&body_dec);
          LSMSTATS_RETURN_IF_ERROR(synopsis.status());
          *slot = std::shared_ptr<const Synopsis>(
              std::move(synopsis).value().release());
        }
      }
      stream.entries = std::move(entries);
    }
  }
  return catalog;
}

Status StatisticsCatalog::SaveToFile(const std::string& path,
                                     Env* env) const {
  if (env == nullptr) env = Env::Default();
  Encoder enc;
  EncodeTo(&enc);
  enc.PutU32(crc32c::Value(enc.buffer()));
  enc.PutU64(kCatalogMagic);

  // Crash-consistent replace: a torn write can only ever hit the .tmp, so
  // the previous catalog survives any crash before the rename lands.
  const std::string tmp_path = path + ".tmp";
  auto file = env->NewWritableFile(tmp_path);
  LSMSTATS_RETURN_IF_ERROR(file.status());
  auto fail = [&](Status s) {
    file->reset();
    Status removed = env->RemoveFileIfExists(tmp_path);
    if (!removed.ok()) {
      LSMSTATS_LOG(kWarning) << "could not remove temporary catalog "
                             << tmp_path << ": " << removed.ToString();
    }
    return s;
  };
  Status s = (*file)->Append(enc.buffer());
  if (!s.ok()) return fail(std::move(s));
  s = (*file)->Sync();
  if (!s.ok()) return fail(std::move(s));
  s = (*file)->Close();
  if (!s.ok()) return fail(std::move(s));
  s = env->RenameFile(tmp_path, path);
  if (!s.ok()) return fail(std::move(s));
  return env->SyncDir(DirectoryOf(path));
}

Status StatisticsCatalog::LoadFromFile(const std::string& path, Env* env) {
  if (env == nullptr) env = Env::Default();
  auto file = env->NewRandomAccessFile(path);
  LSMSTATS_RETURN_IF_ERROR(file.status());
  if ((*file)->size() < kCatalogTrailerSize) {
    return Status::Corruption("catalog file too small: " + path);
  }
  std::string data;
  LSMSTATS_RETURN_IF_ERROR((*file)->Read(0, (*file)->size(), &data));

  Decoder trailer(std::string_view(data).substr(data.size() -
                                                kCatalogTrailerSize));
  uint32_t stored_crc;
  uint64_t magic;
  LSMSTATS_RETURN_IF_ERROR(trailer.GetU32(&stored_crc));
  LSMSTATS_RETURN_IF_ERROR(trailer.GetU64(&magic));
  if (magic != kCatalogMagic) {
    return Status::Corruption("bad catalog magic: " + path);
  }
  std::string_view payload(data.data(), data.size() - kCatalogTrailerSize);
  if (crc32c::Value(payload) != stored_crc) {
    return Status::Corruption("catalog checksum mismatch: " + path);
  }

  Decoder dec(payload);
  auto catalog = DecodeFrom(&dec);
  LSMSTATS_RETURN_IF_ERROR(catalog.status());
  if (!dec.Done()) {
    return Status::Corruption("trailing bytes after catalog");
  }
  *this = std::move(catalog).value();
  return Status::OK();
}

}  // namespace lsmstats
