#include "lsm/disk_component.h"

#include <algorithm>
#include <cstring>
#include <limits>

#include "common/check.h"
#include "common/coding.h"
#include "common/crc32c.h"
#include "common/logging.h"

namespace lsmstats {

namespace {

// Footer magic of the retired v2 flat format. Open recognizes it only to
// reject it with a message that names the format.
constexpr uint64_t kComponentMagicV2 = 0x4c534d5354415453ULL;  // "LSMSTATS"
constexpr uint64_t kComponentMagicV3 = 0x4c534d5354415433ULL;  // "LSMSTAT3"
// data_end, bloom_offset, checksum_offset, record_count, anti_matter_count,
// min/max key (6 x i64), footer CRC (u32), magic (u64).
constexpr size_t kFooterSize = 11 * 8 + 4 + 8;

constexpr int64_t kMaxKeySlot = std::numeric_limits<int64_t>::max();

// Fixed part of an encoded entry: k0, k1, k2 (i64 each) and the flags
// byte. The length-prefixed value follows.
constexpr size_t kEntryFixedBytes = 3 * 8 + 1;

// Decodes the entry at `*pos` of a raw block in place: `out->value` points
// into `block`. On success advances `*pos` past the entry and returns null;
// a truncated or malformed entry returns the Corruption message instead.
inline const char* DecodeEntryAt(std::string_view block, size_t* pos,
                                 EntryView* out) {
  const char* p = block.data() + *pos;
  const char* const limit = block.data() + block.size();
  if (static_cast<size_t>(limit - p) < kEntryFixedBytes) {
    return "decode past end of buffer";
  }
  std::memcpy(&out->key.k0, p, sizeof(int64_t));
  std::memcpy(&out->key.k1, p + 8, sizeof(int64_t));
  std::memcpy(&out->key.k2, p + 16, sizeof(int64_t));
  out->anti_matter = (static_cast<uint8_t>(p[24]) & 1) != 0;
  p += kEntryFixedBytes;
  uint64_t length = 0;
  if (const char* error = ParseVarint64(&p, limit, &length)) return error;
  if (static_cast<uint64_t>(limit - p) < length) {
    return "string extends past end of buffer";
  }
  out->value = std::string_view(p, static_cast<size_t>(length));
  *pos = static_cast<size_t>(p + length - block.data());
  return nullptr;
}

// Cursor: walks the block sequence from `block_index` and stops after `hi`,
// decoding entries in place out of cached (or freshly read) raw blocks. The
// pinned block handle backs the current view until Next() moves past it.
// Holds a shared reference to the component so a snapshot scan stays valid
// after the tree replaces the component.
class BlockComponentCursor final : public EntryCursor {
 public:
  BlockComponentCursor(std::shared_ptr<const DiskComponent> component,
                       size_t block_index, const LsmKey& hi)
      : component_(std::move(component)),
        block_index_(block_index),
        hi_(hi) {
    LoadBlock();
    Next();
  }

  [[nodiscard]] Status status() const override { return status_; }

  // A null block_ means the cursor is done: past the last block or past
  // `hi` (status OK), or failed (status_ says why).
  void Next() override {
    current_ = nullptr;
    while (block_ != nullptr && pos_ == data_.size()) {
      ++block_index_;
      LoadBlock();
    }
    if (block_ == nullptr) return;
    if (const char* error = DecodeEntryAt(data_, &pos_, &view_)) {
      status_ = Status::Corruption(error);
      block_ = nullptr;
      return;
    }
    if (hi_ < view_.key) {
      block_ = nullptr;  // past the range: unpin, and stay exhausted
      return;
    }
    current_ = &view_;
  }

 private:
  void LoadBlock() {
    block_ = nullptr;
    data_ = {};
    pos_ = 0;
    if (block_index_ >= component_->block_count()) return;
    auto block_or = component_->ReadBlock(block_index_);
    if (!block_or.ok()) {
      status_ = block_or.status();
      return;
    }
    block_ = std::move(block_or).value();
    data_ = *block_;
  }

  std::shared_ptr<const DiskComponent> component_;
  size_t block_index_;
  LsmKey hi_;
  BlockCache::BlockHandle block_;  // pins data_, which view_ points into
  std::string_view data_;
  size_t pos_ = 0;
  EntryView view_;
  Status status_;
};

}  // namespace

void EncodeEntry(const EntryView& entry, Encoder* enc) {
  enc->PutI64(entry.key.k0);
  enc->PutI64(entry.key.k1);
  enc->PutI64(entry.key.k2);
  enc->PutU8(entry.anti_matter ? 1 : 0);
  enc->PutString(entry.value);
}

// ------------------------------------------------------------------ Builder

DiskComponentBuilder::DiskComponentBuilder(
    Env* env, std::string path, uint64_t expected_entries,
    ComponentWriteOptions write_options, DiskComponentReadOptions read_options)
    : env_(env != nullptr ? env : Env::Default()),
      path_(std::move(path)),
      tmp_path_(path_ + ".tmp"),
      write_options_(std::move(write_options)),
      read_options_(read_options),
      bloom_(std::max<uint64_t>(expected_entries, kMinBloomEntries),
             write_options_.bloom_bits_per_key) {
  const CompressionCodec* codec = CodecByName(write_options_.compression);
  if (codec == nullptr) {
    open_status_ = Status::InvalidArgument("unknown compression codec: " +
                                           write_options_.compression);
    return;
  }
  block_.emplace(codec, write_options_.block_size);
  auto file_or = env_->NewWritableFile(tmp_path_);
  if (!file_or.ok()) {
    open_status_ = file_or.status();
    return;
  }
  file_ = std::move(file_or).value();
}

Status DiskComponentBuilder::SealBlock() {
  if (block_->empty()) return Status::OK();
  sparse_index_.emplace_back(pending_first_key_, file_->size());
  return file_->Append(block_->Seal());
}

Status DiskComponentBuilder::Add(const EntryView& entry) {
  LSMSTATS_RETURN_IF_ERROR(open_status_);
  if (has_entries_ && !(max_key_ < entry.key)) {
    return Status::InvalidArgument("component entries must be strictly "
                                   "increasing by key");
  }
  if (!has_entries_) {
    min_key_ = entry.key;
    has_entries_ = true;
  }
  max_key_ = entry.key;
  bloom_.Add(entry.key);
  Encoder enc;
  EncodeEntry(entry, &enc);
  if (block_->empty()) pending_first_key_ = entry.key;
  block_->Add(enc.buffer());
  if (block_->Full()) {
    LSMSTATS_RETURN_IF_ERROR(SealBlock());
  }
  ++record_count_;
  if (entry.anti_matter) ++anti_matter_count_;
  return Status::OK();
}

StatusOr<std::shared_ptr<DiskComponent>> DiskComponentBuilder::Finish(
    uint64_t id, uint64_t timestamp, uint32_t level) {
  LSMSTATS_RETURN_IF_ERROR(open_status_);
  // Any failure below leaves a half-written .tmp; make the cleanup uniform.
  auto fail = [this](Status s) -> Status {
    file_.reset();
    Status removed = env_->RemoveFileIfExists(tmp_path_);
    if (!removed.ok()) {
      LSMSTATS_LOG(kWarning) << "could not remove temporary component "
                             << tmp_path_ << ": " << removed.ToString();
    }
    return s;
  };

  Status s = SealBlock();  // flush the final partial block
  if (!s.ok()) return fail(std::move(s));
  uint64_t data_end = file_->size();

  Encoder index_enc;
  index_enc.PutVarint64(sparse_index_.size());
  for (const auto& [key, offset] : sparse_index_) {
    index_enc.PutI64(key.k0);
    index_enc.PutI64(key.k1);
    index_enc.PutI64(key.k2);
    index_enc.PutU64(offset);
  }
  s = file_->Append(index_enc.buffer());
  if (!s.ok()) return fail(std::move(s));

  uint64_t bloom_offset = file_->size();
  Encoder bloom_enc;
  bloom_.EncodeTo(&bloom_enc);
  s = file_->Append(bloom_enc.buffer());
  if (!s.ok()) return fail(std::move(s));

  uint64_t checksum_offset = file_->size();
  Encoder checksum_enc;
  checksum_enc.PutU32(crc32c::Value(index_enc.buffer()));
  checksum_enc.PutU32(crc32c::Value(bloom_enc.buffer()));
  // Data integrity lives inside each block; the checksum block only pins
  // the block count so a truncated index cannot silently drop blocks.
  checksum_enc.PutVarint64(sparse_index_.size());
  s = file_->Append(checksum_enc.buffer());
  if (!s.ok()) return fail(std::move(s));

  Encoder footer;
  footer.PutU64(data_end);
  footer.PutU64(bloom_offset);
  footer.PutU64(checksum_offset);
  footer.PutU64(record_count_);
  footer.PutU64(anti_matter_count_);
  footer.PutI64(min_key_.k0);
  footer.PutI64(min_key_.k1);
  footer.PutI64(min_key_.k2);
  footer.PutI64(max_key_.k0);
  footer.PutI64(max_key_.k1);
  footer.PutI64(max_key_.k2);
  footer.PutU32(crc32c::Value(footer.buffer()));
  footer.PutU64(kComponentMagicV3);
  LSMSTATS_CHECK(footer.size() == kFooterSize);
  s = file_->Append(footer.buffer());
  if (!s.ok()) return fail(std::move(s));

  // Seal protocol: make the bytes durable, atomically rename into the final
  // name, then fsync the directory so the rename itself survives a crash.
  s = file_->Sync();
  if (!s.ok()) return fail(std::move(s));
  s = file_->Close();
  if (!s.ok()) return fail(std::move(s));
  file_.reset();
  s = env_->RenameFile(tmp_path_, path_);
  if (!s.ok()) return fail(std::move(s));
  s = env_->SyncDir(DirectoryOf(path_));
  if (!s.ok()) {
    // The rename already happened; don't delete the sealed file, just
    // surface the failed directory sync.
    return s;
  }

  return DiskComponent::Open(env_, path_, id, timestamp, read_options_, level);
}

void DiskComponentBuilder::Abandon() {
  file_.reset();
  // Best-effort cleanup of a half-written component; the abandon itself is
  // already an error path, but leaking the file should still be visible.
  Status s = env_->RemoveFileIfExists(tmp_path_);
  if (!s.ok()) {
    LSMSTATS_LOG(kWarning) << "could not remove abandoned component "
                           << tmp_path_ << ": " << s.ToString();
  }
}

// ---------------------------------------------------------------- Component

StatusOr<std::shared_ptr<DiskComponent>> DiskComponent::Open(
    Env* env, const std::string& path, uint64_t id, uint64_t timestamp,
    DiskComponentReadOptions read_options, uint32_t level) {
  if (env == nullptr) env = Env::Default();
  auto file_or = env->NewRandomAccessFile(path);
  LSMSTATS_RETURN_IF_ERROR(file_or.status());
  std::shared_ptr<RandomAccessFile> file = std::move(file_or).value();

  if (file->size() < kFooterSize) {
    return Status::Corruption("component file too small: " + path);
  }
  std::string footer_bytes;
  LSMSTATS_RETURN_IF_ERROR(
      file->Read(file->size() - kFooterSize, kFooterSize, &footer_bytes));
  Decoder footer(footer_bytes);

  auto component = std::shared_ptr<DiskComponent>(new DiskComponent());
  component->env_ = env;
  component->path_ = path;
  component->file_ = file;
  uint64_t bloom_offset;
  uint64_t checksum_offset;
  LSMSTATS_RETURN_IF_ERROR(footer.GetU64(&component->data_end_));
  LSMSTATS_RETURN_IF_ERROR(footer.GetU64(&bloom_offset));
  LSMSTATS_RETURN_IF_ERROR(footer.GetU64(&checksum_offset));
  ComponentMetadata& md = component->metadata_;
  LSMSTATS_RETURN_IF_ERROR(footer.GetU64(&md.record_count));
  LSMSTATS_RETURN_IF_ERROR(footer.GetU64(&md.anti_matter_count));
  LSMSTATS_RETURN_IF_ERROR(footer.GetI64(&md.min_key.k0));
  LSMSTATS_RETURN_IF_ERROR(footer.GetI64(&md.min_key.k1));
  LSMSTATS_RETURN_IF_ERROR(footer.GetI64(&md.min_key.k2));
  LSMSTATS_RETURN_IF_ERROR(footer.GetI64(&md.max_key.k0));
  LSMSTATS_RETURN_IF_ERROR(footer.GetI64(&md.max_key.k1));
  LSMSTATS_RETURN_IF_ERROR(footer.GetI64(&md.max_key.k2));
  uint32_t footer_crc;
  LSMSTATS_RETURN_IF_ERROR(footer.GetU32(&footer_crc));
  uint64_t magic;
  LSMSTATS_RETURN_IF_ERROR(footer.GetU64(&magic));
  if (magic == kComponentMagicV2) {
    return Status::Unimplemented(
        "component is in the retired v2 flat format, which this release no "
        "longer reads: " + path);
  }
  if (magic != kComponentMagicV3) {
    return Status::Corruption("bad component magic: " + path);
  }
  uint32_t expected_footer_crc = crc32c::Value(
      std::string_view(footer_bytes.data(), kFooterSize - 4 - 8));
  if (footer_crc != expected_footer_crc) {
    return Status::Corruption("component footer checksum mismatch: " + path);
  }
  md.id = id;
  md.timestamp = timestamp;
  md.file_size = file->size();
  md.level = level;

  if (component->data_end_ > bloom_offset || bloom_offset > checksum_offset ||
      checksum_offset > file->size() - kFooterSize) {
    return Status::Corruption("component section offsets out of order");
  }

  // Checksum block first, so the index and bloom reads below verify.
  std::string checksum_bytes;
  LSMSTATS_RETURN_IF_ERROR(
      file->Read(checksum_offset,
                 static_cast<size_t>(file->size() - kFooterSize -
                                     checksum_offset),
                 &checksum_bytes));
  Decoder checksum_dec(checksum_bytes);
  uint32_t index_crc;
  uint32_t bloom_crc;
  LSMSTATS_RETURN_IF_ERROR(checksum_dec.GetU32(&index_crc));
  LSMSTATS_RETURN_IF_ERROR(checksum_dec.GetU32(&bloom_crc));
  uint64_t block_count = 0;
  LSMSTATS_RETURN_IF_ERROR(checksum_dec.GetVarint64(&block_count));

  // Sparse index.
  std::string index_bytes;
  LSMSTATS_RETURN_IF_ERROR(file->Read(component->data_end_,
                                      bloom_offset - component->data_end_,
                                      &index_bytes));
  if (crc32c::Value(index_bytes) != index_crc) {
    return Status::Corruption("component index checksum mismatch: " + path);
  }
  Decoder index_dec(index_bytes);
  uint64_t index_count;
  LSMSTATS_RETURN_IF_ERROR(index_dec.GetVarint64(&index_count));
  // Each index entry is a key (3 x i64) and an offset (u64).
  if (index_count > index_dec.remaining() / 32) {
    return Status::Corruption("component index count exceeds buffer: " +
                              path);
  }
  component->sparse_index_.reserve(index_count);
  for (uint64_t i = 0; i < index_count; ++i) {
    LsmKey key;
    uint64_t offset;
    LSMSTATS_RETURN_IF_ERROR(index_dec.GetI64(&key.k0));
    LSMSTATS_RETURN_IF_ERROR(index_dec.GetI64(&key.k1));
    LSMSTATS_RETURN_IF_ERROR(index_dec.GetI64(&key.k2));
    LSMSTATS_RETURN_IF_ERROR(index_dec.GetU64(&offset));
    component->sparse_index_.emplace_back(key, offset);
  }
  if (component->sparse_index_.size() != block_count) {
    return Status::Corruption("component block count mismatch: " + path);
  }
  for (size_t i = 0; i < component->sparse_index_.size(); ++i) {
    uint64_t offset = component->sparse_index_[i].second;
    if ((i == 0 && offset != 0) ||
        (i > 0 && offset <= component->sparse_index_[i - 1].second) ||
        offset >= component->data_end_) {
      return Status::Corruption("component block offsets malformed: " + path);
    }
  }
  if (component->sparse_index_.empty() && component->data_end_ != 0) {
    return Status::Corruption("component data region without blocks: " +
                              path);
  }

  // Bloom filter.
  std::string bloom_bytes;
  LSMSTATS_RETURN_IF_ERROR(
      file->Read(bloom_offset, checksum_offset - bloom_offset, &bloom_bytes));
  if (crc32c::Value(bloom_bytes) != bloom_crc) {
    return Status::Corruption("component bloom checksum mismatch: " + path);
  }
  Decoder bloom_dec(bloom_bytes);
  auto bloom_or = BloomFilter::DecodeFrom(&bloom_dec);
  LSMSTATS_RETURN_IF_ERROR(bloom_or.status());
  component->bloom_ = std::move(bloom_or).value();

  component->block_cache_ = read_options.block_cache;
  component->cache_file_id_ = NewBlockCacheFileId();

  return component;
}

StatusOr<BlockCache::BlockHandle> DiskComponent::ReadBlock(
    size_t block_index, bool fill_cache) const {
  LSMSTATS_CHECK(block_index < sparse_index_.size());
  uint64_t begin = sparse_index_[block_index].second;
  uint64_t end = block_index + 1 < sparse_index_.size()
                     ? sparse_index_[block_index + 1].second
                     : data_end_;
  if (block_cache_ != nullptr && fill_cache) {
    if (BlockCache::BlockHandle cached =
            block_cache_->Lookup(cache_file_id_, begin)) {
      return cached;
    }
  }
  std::string stored;
  LSMSTATS_RETURN_IF_ERROR(
      file_->Read(begin, static_cast<size_t>(end - begin), &stored));
  auto raw = std::make_shared<std::string>();
  LSMSTATS_RETURN_IF_ERROR(DecodeBlock(stored, path_, raw.get()));
  BlockCache::BlockHandle handle = std::move(raw);
  if (block_cache_ != nullptr && fill_cache) {
    block_cache_->Insert(cache_file_id_, begin, handle);
  }
  return handle;
}

Status DiskComponent::VerifyBlockChecksums() const {
  // Decode every block from disk; the cache is bypassed so the scan
  // checks the actual bytes and does not evict the working set.
  for (size_t i = 0; i < sparse_index_.size(); ++i) {
    LSMSTATS_RETURN_IF_ERROR(ReadBlock(i, /*fill_cache=*/false).status());
  }
  return Status::OK();
}

size_t DiskComponent::SeekBlockIndex(const LsmKey& key) const {
  // Last block whose first key is <= target; earlier blocks end below it.
  auto it = std::upper_bound(
      sparse_index_.begin(), sparse_index_.end(), key,
      [](const LsmKey& k, const auto& e) { return k < e.first; });
  if (it == sparse_index_.begin()) return 0;
  return static_cast<size_t>(std::prev(it) - sparse_index_.begin());
}

Status DiskComponent::Get(const LsmKey& key, Entry* out) const {
  if (metadata_.record_count == 0 || key < metadata_.min_key ||
      metadata_.max_key < key || !bloom_.MayContain(key)) {
    return Status::NotFound("key not in component");
  }
  if (sparse_index_.empty()) {
    return Status::NotFound("key not in component");
  }
  // The key can only live in the single block whose first key is <= key.
  // Earlier entries are decoded in place; only the match is copied out.
  auto block_or = ReadBlock(SeekBlockIndex(key));
  LSMSTATS_RETURN_IF_ERROR(block_or.status());
  const std::string_view block = **block_or;
  size_t pos = 0;
  EntryView view;
  while (pos < block.size()) {
    if (const char* error = DecodeEntryAt(block, &pos, &view)) {
      return Status::Corruption(error);
    }
    if (view.key == key) {
      out->key = view.key;
      out->value.assign(view.value);
      out->anti_matter = view.anti_matter;
      return Status::OK();
    }
    if (key < view.key) break;
  }
  return Status::NotFound("key not in component");
}

std::unique_ptr<EntryCursor> DiskComponent::NewCursor() const {
  return std::make_unique<BlockComponentCursor>(
      shared_from_this(), 0, LsmKey{kMaxKeySlot, kMaxKeySlot, kMaxKeySlot});
}

std::unique_ptr<EntryCursor> DiskComponent::NewCursor(const LsmKey& lo,
                                                      const LsmKey& hi) const {
  std::unique_ptr<EntryCursor> cursor = std::make_unique<BlockComponentCursor>(
      shared_from_this(), SeekBlockIndex(lo), hi);
  while (cursor->Valid() && cursor->entry().key < lo) {
    cursor->Next();
  }
  return cursor;
}

uint64_t DiskComponent::EvictCachedBlocks() {
  if (block_cache_ == nullptr) return 0;
  uint64_t removed = 0;
  for (const auto& block : sparse_index_) {
    if (block_cache_->Erase(cache_file_id_, block.second)) ++removed;
  }
  return removed;
}

Status DiskComponent::DeleteFile() {
  // Drop the cached blocks first: a dead component's blocks would otherwise
  // squat on the shared budget until chance eviction. In-flight readers are
  // unaffected — handles they already hold stay alive, and re-reads go back
  // to the still-open descriptor.
  EvictCachedBlocks();
  // Keep file_ open: readers that snapshotted this component before it was
  // replaced may still be scanning it. POSIX keeps the unlinked data
  // readable through the open descriptor; it is reclaimed when the last
  // reference to this component drops.
  return env_->RemoveFileIfExists(path_);
}

}  // namespace lsmstats
