// Immutable, file-backed LSM disk component.
//
// A component is a sorted run produced by exactly one LSM lifecycle event
// (flush, merge, or bulkload) and never modified afterwards. The format (v3)
// is block-based:
//
//   [data blocks]  [sparse index]  [bloom filter]  [checksum block]  [footer]
//
// The data region is a sequence of self-describing blocks (codec tag, raw
// size, possibly-compressed payload, CRC32C over the stored bytes — see
// lsm/format/block.h). The sparse index keeps one (first key, file offset)
// pair per block, so a point lookup is one binary search plus one block
// decode, and block boundaries need no separate table: block i spans
// [offset_i, offset_{i+1}) and the last block ends at data_end. Decoded
// blocks are served through an optional shared BlockCache
// (lsm/format/block_cache.h) keyed by a process-unique per-component id.
//
// v3 is the only format. Open rejects a file carrying the retired v2 flat
// format's footer magic with a status that names it.
//
// The Bloom filter lets lookups skip components that cannot contain the key.
// The checksum block stores CRC32C sums for the index and bloom sections
// plus the data block count, so bit rot is caught at read time
// and at recovery (VerifyBlockChecksums scans everything). The footer
// records the component metadata the statistics framework and the merge
// policies consume — record/anti-matter counts and the key range — and
// carries its own CRC.
//
// Sealing is crash-consistent: the builder writes to `<path>.tmp`, Sync()s
// (real fsync), renames into place, and fsyncs the directory. Recovery treats
// a `.tmp` file as an orphan of a crashed build and deletes it; final files
// are complete by construction or fail their checksums.

#ifndef LSMSTATS_LSM_DISK_COMPONENT_H_
#define LSMSTATS_LSM_DISK_COMPONENT_H_

#include <cstdint>
#include <memory>
#include <optional>
#include <string>
#include <vector>

#include "common/env.h"
#include "common/file.h"
#include "common/status.h"
#include "lsm/bloom_filter.h"
#include "lsm/entry.h"
#include "lsm/entry_cursor.h"
#include "lsm/format/block.h"
#include "lsm/format/block_cache.h"

namespace lsmstats {

// Summary of a sealed component; this is what event listeners and merge
// policies see.
struct ComponentMetadata {
  uint64_t id = 0;
  uint64_t record_count = 0;      // total entries, including anti-matter
  uint64_t anti_matter_count = 0;
  LsmKey min_key;
  LsmKey max_key;
  uint64_t file_size = 0;
  // Logical creation timestamp assigned by the owning LsmTree; newer
  // components have strictly larger timestamps.
  uint64_t timestamp = 0;
  // Compaction level assigned by the owning LsmTree (0 = flush arrival
  // area; levels >= 1 are sorted runs of non-overlapping key ranges under
  // the leveled policies). Not part of the on-disk footer — it is
  // persisted through the component manifest, so the file format and the
  // paper-mode runs stay bit-identical.
  uint32_t level = 0;
};

// Reader-side knobs, threaded from the owning tree into Open.
struct DiskComponentReadOptions {
  // Shared cache for decoded data blocks. Not owned;
  // null reads straight from the file on every access.
  BlockCache* block_cache = nullptr;
};

class DiskComponent;

// Writes one component file. Entries must arrive in strictly increasing key
// order (the LSM events guarantee this: flush iterates the memtable in order,
// merge consumes a sorted merge cursor, bulkload requires pre-sorted input).
class DiskComponentBuilder {
 public:
  // Builds `path` through `env` (Env::Default() when null). The bytes go to
  // `path + ".tmp"` until Finish() seals them into place.
  // `expected_entries` only sizes the Bloom filter; it may be an estimate
  // (zero falls back to a minimum-size filter rather than a degenerate one).
  // `write_options` picks the codec, block size and bloom density;
  // `read_options` is forwarded to the Open that Finish() returns.
  DiskComponentBuilder(
      Env* env, std::string path, uint64_t expected_entries,
      ComponentWriteOptions write_options = ComponentWriteOptions{},
      DiskComponentReadOptions read_options = DiskComponentReadOptions());

  DiskComponentBuilder(const DiskComponentBuilder&) = delete;
  DiskComponentBuilder& operator=(const DiskComponentBuilder&) = delete;

  // Copies the entry's bytes into the open block; the view need only live
  // for the call.
  [[nodiscard]] Status Add(const EntryView& entry);

  // Seals the file — sync, atomic rename into place, directory sync — and
  // opens it as a component. `id`, `timestamp`, and `level` are assigned by
  // the owning tree. On failure the temporary file is removed (best effort).
  [[nodiscard]]
  StatusOr<std::shared_ptr<DiskComponent>> Finish(uint64_t id,
                                                  uint64_t timestamp,
                                                  uint32_t level = 0);

  // Abandons the build and removes the partial file.
  void Abandon();

  uint64_t entries_added() const { return record_count_; }

  // Floor for bloom sizing, so expected_entries = 0 (unknown) still yields a
  // filter with a usable false-positive rate. Deliberately small: sizing from
  // the actual entry count keeps many-small-component workloads from paying
  // 1024-entry filters per tiny flush (the old floor made blooms dominate
  // resident memory there). Public: part of the sizing contract tests pin.
  static constexpr uint64_t kMinBloomEntries = 64;

 private:
  // Writes the pending block (if any) and records its index entry.
  [[nodiscard]] Status SealBlock();

  Env* env_;
  std::string path_;
  std::string tmp_path_;
  ComponentWriteOptions write_options_;
  DiskComponentReadOptions read_options_;
  std::unique_ptr<WritableFile> file_;
  Status open_status_;
  BloomFilter bloom_;
  std::vector<std::pair<LsmKey, uint64_t>> sparse_index_;
  // Accumulates raw entry bytes for the open block.
  std::optional<BlockBuilder> block_;
  LsmKey pending_first_key_;
  uint64_t record_count_ = 0;
  uint64_t anti_matter_count_ = 0;
  LsmKey min_key_;
  LsmKey max_key_;
  bool has_entries_ = false;
};

class DiskComponent : public std::enable_shared_from_this<DiskComponent> {
 public:
  // Opens a sealed component through `env` (Env::Default() when null),
  // verifying the footer, index, and bloom checksums. Data checksums are
  // verified lazily on every block read; recovery calls
  // VerifyBlockChecksums() to scan them eagerly.
  [[nodiscard]]
  static StatusOr<std::shared_ptr<DiskComponent>> Open(
      Env* env, const std::string& path, uint64_t id, uint64_t timestamp,
      DiskComponentReadOptions read_options = DiskComponentReadOptions(),
      uint32_t level = 0);

  const ComponentMetadata& metadata() const { return metadata_; }
  const std::string& path() const { return path_; }

  size_t block_count() const { return sparse_index_.size(); }
  size_t bloom_size_bytes() const { return bloom_.SizeBytes(); }

  // Reads, verifies, and decodes data block `block_index`. Served
  // from the block cache when one is configured; `fill_cache` = false
  // bypasses the cache entirely (verification scans must hit the disk and
  // must not evict the working set).
  [[nodiscard]]
  StatusOr<BlockCache::BlockHandle> ReadBlock(size_t block_index,
                                              bool fill_cache = true) const;

  // Reads every data block and checks its CRC32C; Corruption on
  // mismatch.
  [[nodiscard]] Status VerifyBlockChecksums() const;

  // Point lookup. Returns the entry (possibly anti-matter) or NotFound.
  [[nodiscard]] Status Get(const LsmKey& key, Entry* out) const;

  // Cursor over all entries. Its views read the cursor's pinned block in
  // place and stay valid until the cursor's next Next().
  std::unique_ptr<EntryCursor> NewCursor() const;

  // The same over the entries in [lo, hi] only: positioned at the first key
  // >= `lo`, exhausted after the last key <= `hi`.
  std::unique_ptr<EntryCursor> NewCursor(const LsmKey& lo,
                                         const LsmKey& hi) const;

  // Key runs over the entries in [lo, hi], for a count: each run is decoded
  // out of the pinned blocks into the cursor's own buffer.
  std::unique_ptr<KeyRunCursor> NewKeyCursor(const LsmKey& lo,
                                             const LsmKey& hi) const;

  // Unlinks the backing file from the directory. The component itself stays
  // readable (the descriptor remains open) so in-flight readers holding a
  // snapshot reference can finish; the space is reclaimed once the last
  // reference drops.
  [[nodiscard]] Status DeleteFile();

  // Drops this component's blocks from the shared block cache (no-op without
  // one); returns how many were removed. DeleteFile() does this implicitly;
  // recovery calls it directly when quarantining a component it opened but
  // will not keep.
  uint64_t EvictCachedBlocks();

 private:
  DiskComponent() = default;

  // Index of the single block that may contain `key`.
  size_t SeekBlockIndex(const LsmKey& key) const;

  Env* env_ = nullptr;
  std::string path_;
  std::shared_ptr<RandomAccessFile> file_;
  ComponentMetadata metadata_;
  uint64_t data_end_ = 0;
  // (first key, offset) per block.
  std::vector<std::pair<LsmKey, uint64_t>> sparse_index_;
  BloomFilter bloom_;
  // Optional shared cache plus the process-unique id this
  // component's blocks are keyed under.
  BlockCache* block_cache_ = nullptr;
  uint64_t cache_file_id_ = 0;
};

// Entry wire format: k0, k1, k2 (fixed i64), a flags byte (bit 0 =
// anti-matter), then the length-prefixed value. Readers decode it in place.
void EncodeEntry(const EntryView& entry, Encoder* enc);

}  // namespace lsmstats

#endif  // LSMSTATS_LSM_DISK_COMPONENT_H_
