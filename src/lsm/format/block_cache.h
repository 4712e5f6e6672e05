// Sharded LRU cache for decoded (raw) data blocks.
//
// One cache is owned at the Dataset level and shared by the primary,
// secondary, and composite trees, so a dataset has a single read-memory
// budget instead of per-tree buffers ("Breaking Down Memory Walls", Luo &
// Carey). Entries are keyed by (file id, block offset): the file id is a
// process-unique number minted per opened component (NewBlockCacheFileId),
// never the per-tree component id, so components from different trees — or
// the same file reopened after recovery — can never alias each other's
// blocks.
//
// Eviction is charge-based: each entry is charged its raw byte size plus a
// fixed bookkeeping overhead, and each shard evicts from its own LRU tail
// once its share of the capacity is exceeded. Cached blocks are handed out
// as shared_ptr<const std::string>, so eviction never invalidates a block a
// reader is still decoding. All operations are safe under the concurrent
// flush/merge scheduler: each shard has its own mutex, and the per-shard
// hit/miss/eviction counters are aggregated by GetStats().

#ifndef LSMSTATS_LSM_FORMAT_BLOCK_CACHE_H_
#define LSMSTATS_LSM_FORMAT_BLOCK_CACHE_H_

#include <atomic>
#include <cstdint>
#include <list>
#include <memory>
#include <string>
#include <unordered_map>
#include <vector>

#include "common/mutex.h"

namespace lsmstats {

class BlockCache {
 public:
  using BlockHandle = std::shared_ptr<const std::string>;

  // Total capacity in bytes, split evenly across `shard_count` shards
  // (clamped to at least 1; per-shard capacity is at least 1 byte).
  explicit BlockCache(uint64_t capacity_bytes, size_t shard_count = 8);

  BlockCache(const BlockCache&) = delete;
  BlockCache& operator=(const BlockCache&) = delete;

  // Returns the cached block and marks it most-recently-used, or null.
  BlockHandle Lookup(uint64_t file_id, uint64_t offset);

  // Inserts (replacing any entry under the same key) and evicts from the
  // shard's LRU tail until the shard is within budget again. A block larger
  // than a whole shard is evicted immediately — callers keep their handle.
  void Insert(uint64_t file_id, uint64_t offset, BlockHandle block);

  // Drops the block cached under (file_id, offset), returning whether one
  // was held. A component calls it for each of its block offsets when it is
  // deleted after a merge or quarantined during recovery: its blocks would
  // otherwise squat on the budget until chance eviction. Locks only the
  // key's shard. A dropped entry is not an eviction, and an absent one is
  // not a miss, in GetStats().
  bool Erase(uint64_t file_id, uint64_t offset);

  struct Stats {
    uint64_t hits = 0;
    uint64_t misses = 0;
    uint64_t evictions = 0;
    uint64_t charge = 0;    // bytes currently held
    uint64_t capacity = 0;  // configured budget
  };
  Stats GetStats() const;

  // Live capacity change (memory-arbiter grant path). Growing takes effect
  // lazily as inserts stop evicting; shrinking evicts from every shard's LRU
  // tail immediately so the cache is within the new budget on return.
  // Evictions performed here count in GetStats(). Handles already given out
  // stay valid — eviction only drops the cache's own reference.
  void SetCapacity(uint64_t capacity_bytes);

  // Recomputes `sum of per-entry charges` across all shards (O(n), each
  // shard locked in turn). Test-only invariant probe: must equal
  // GetStats().charge — a mismatch means Insert/Erase/SetCapacity let the
  // incremental counters drift from the entries actually held.
  uint64_t DebugComputeCharge() const;

  uint64_t capacity() const {
    return capacity_.load(std::memory_order_relaxed);
  }

 private:
  struct Key {
    uint64_t file_id;
    uint64_t offset;
    bool operator==(const Key& other) const {
      return file_id == other.file_id && offset == other.offset;
    }
  };
  struct KeyHash {
    size_t operator()(const Key& key) const;
  };
  struct Entry {
    Key key;
    BlockHandle block;
    uint64_t charge;
  };
  struct Shard {
    mutable Mutex mu{LockRank::kBlockCacheShard, "block_cache_shard"};
    std::list<Entry> lru GUARDED_BY(mu);  // front = most recently used
    std::unordered_map<Key, std::list<Entry>::iterator, KeyHash> map
        GUARDED_BY(mu);
    uint64_t charge GUARDED_BY(mu) = 0;
    uint64_t hits GUARDED_BY(mu) = 0;
    uint64_t misses GUARDED_BY(mu) = 0;
    uint64_t evictions GUARDED_BY(mu) = 0;
  };

  Shard& ShardFor(const Key& key);

  // Atomic because Insert's eviction loop and GetStats read them without a
  // shard lock while SetCapacity may store concurrently.
  std::atomic<uint64_t> capacity_;
  std::atomic<uint64_t> per_shard_capacity_;
  std::vector<std::unique_ptr<Shard>> shards_;
};

// Mints a process-unique cache file id for a newly opened component.
uint64_t NewBlockCacheFileId();

}  // namespace lsmstats

#endif  // LSMSTATS_LSM_FORMAT_BLOCK_CACHE_H_
