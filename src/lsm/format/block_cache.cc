#include "lsm/format/block_cache.h"

#include <algorithm>
#include <atomic>

namespace lsmstats {

namespace {

// Accounts for the list node, map slot, and string header alongside the
// block payload so many tiny blocks cannot blow past the byte budget.
constexpr uint64_t kEntryOverhead = 96;

uint64_t Mix64(uint64_t x) {
  x ^= x >> 33;
  x *= 0xff51afd7ed558ccdULL;
  x ^= x >> 33;
  x *= 0xc4ceb9fe1a85ec53ULL;
  x ^= x >> 33;
  return x;
}

}  // namespace

size_t BlockCache::KeyHash::operator()(const Key& key) const {
  return static_cast<size_t>(
      Mix64(key.file_id * 0x9e3779b97f4a7c15ULL ^ Mix64(key.offset)));
}

BlockCache::BlockCache(uint64_t capacity_bytes, size_t shard_count)
    : capacity_(capacity_bytes) {
  shard_count = std::max<size_t>(shard_count, 1);
  per_shard_capacity_ = std::max<uint64_t>(capacity_bytes / shard_count, 1);
  shards_.reserve(shard_count);
  for (size_t i = 0; i < shard_count; ++i) {
    shards_.push_back(std::make_unique<Shard>());
  }
}

BlockCache::Shard& BlockCache::ShardFor(const Key& key) {
  return *shards_[KeyHash{}(key) % shards_.size()];
}

BlockCache::BlockHandle BlockCache::Lookup(uint64_t file_id, uint64_t offset) {
  Key key{file_id, offset};
  Shard& shard = ShardFor(key);
  MutexLock lock(&shard.mu);
  auto it = shard.map.find(key);
  if (it == shard.map.end()) {
    ++shard.misses;
    return nullptr;
  }
  ++shard.hits;
  shard.lru.splice(shard.lru.begin(), shard.lru, it->second);
  return it->second->block;
}

void BlockCache::Insert(uint64_t file_id, uint64_t offset, BlockHandle block) {
  if (block == nullptr) return;
  Key key{file_id, offset};
  uint64_t charge = block->size() + kEntryOverhead;
  Shard& shard = ShardFor(key);
  MutexLock lock(&shard.mu);
  auto it = shard.map.find(key);
  if (it != shard.map.end()) {
    shard.charge -= it->second->charge;
    shard.lru.erase(it->second);
    shard.map.erase(it);
  }
  shard.lru.push_front(Entry{key, std::move(block), charge});
  shard.map[key] = shard.lru.begin();
  shard.charge += charge;
  const uint64_t bound = per_shard_capacity_.load(std::memory_order_relaxed);
  while (shard.charge > bound && !shard.lru.empty()) {
    Entry& victim = shard.lru.back();
    shard.charge -= victim.charge;
    shard.map.erase(victim.key);
    shard.lru.pop_back();
    ++shard.evictions;
  }
}

void BlockCache::SetCapacity(uint64_t capacity_bytes) {
  capacity_.store(capacity_bytes, std::memory_order_relaxed);
  const uint64_t per_shard =
      std::max<uint64_t>(capacity_bytes / shards_.size(), 1);
  per_shard_capacity_.store(per_shard, std::memory_order_relaxed);
  // Shrink takes effect now, not at the next insert: evict each shard down
  // to its new share so a memory grant taken away is actually returned.
  for (auto& shard : shards_) {
    MutexLock lock(&shard->mu);
    while (shard->charge > per_shard && !shard->lru.empty()) {
      Entry& victim = shard->lru.back();
      shard->charge -= victim.charge;
      shard->map.erase(victim.key);
      shard->lru.pop_back();
      ++shard->evictions;
    }
  }
}

uint64_t BlockCache::DebugComputeCharge() const {
  uint64_t total = 0;
  for (const auto& shard : shards_) {
    MutexLock lock(&shard->mu);
    uint64_t shard_total = 0;
    for (const auto& entry : shard->lru) shard_total += entry.charge;
    total += shard_total;
  }
  return total;
}

bool BlockCache::Erase(uint64_t file_id, uint64_t offset) {
  Key key{file_id, offset};
  Shard& shard = ShardFor(key);
  MutexLock lock(&shard.mu);
  auto it = shard.map.find(key);
  if (it == shard.map.end()) return false;
  shard.charge -= it->second->charge;
  shard.lru.erase(it->second);
  shard.map.erase(it);
  return true;
}

BlockCache::Stats BlockCache::GetStats() const {
  Stats stats;
  stats.capacity = capacity_.load(std::memory_order_relaxed);
  for (const auto& shard : shards_) {
    MutexLock lock(&shard->mu);
    stats.hits += shard->hits;
    stats.misses += shard->misses;
    stats.evictions += shard->evictions;
    stats.charge += shard->charge;
  }
  return stats;
}

uint64_t NewBlockCacheFileId() {
  static std::atomic<uint64_t> next_id{1};
  return next_id.fetch_add(1, std::memory_order_relaxed);
}

}  // namespace lsmstats
