// Unit tests for the v3 block layer: codec registry, the delta-varint codec,
// block framing (CRC, codec tags, corruption handling), and the sharded LRU
// block cache.

#include <atomic>
#include <chrono>
#include <memory>
#include <string>
#include <thread>
#include <vector>

#include <gtest/gtest.h>

#include "common/coding.h"
#include "common/crc32c.h"
#include "lsm/disk_component.h"
#include "lsm/format/block.h"
#include "lsm/format/block_cache.h"
#include "lsm/format/compression.h"

namespace lsmstats {
namespace {

// Raw wire bytes of a run of sorted secondary-index-style entries: dense SK
// deltas, PK tie-breakers, empty values — the shape the delta codec targets.
std::string SecondaryRunBytes(int64_t base, int count) {
  Encoder enc;
  for (int i = 0; i < count; ++i) {
    Entry entry;
    entry.key = SecondaryKey(base + i / 3, 1000 + i);
    entry.anti_matter = (i % 7 == 0);
    EncodeEntry(entry, &enc);
  }
  return std::string(enc.buffer());
}

// ------------------------------------------------------------ codec registry

TEST(CompressionRegistry, BuiltinsResolveByTagAndName) {
  const CompressionCodec* none = CodecByName("none");
  ASSERT_NE(none, nullptr);
  EXPECT_EQ(none->tag(), 0);
  EXPECT_EQ(CodecByTag(0), none);

  const CompressionCodec* delta = CodecByName("delta");
  ASSERT_NE(delta, nullptr);
  EXPECT_EQ(delta->tag(), 1);
  EXPECT_EQ(CodecByTag(1), delta);
}

TEST(CompressionRegistry, UnknownLookupsReturnNull) {
  EXPECT_EQ(CodecByTag(250), nullptr);
  EXPECT_EQ(CodecByName("zstd"), nullptr);
  EXPECT_EQ(CodecByName(""), nullptr);
}

class FakeCodec : public CompressionCodec {
 public:
  FakeCodec(uint8_t tag, const char* name) : tag_(tag), name_(name) {}
  uint8_t tag() const override { return tag_; }
  const char* name() const override { return name_; }
  bool Compress(std::string_view, std::string*) const override {
    return false;
  }
  Status Decompress(std::string_view, uint64_t,
                    std::string* out) const override {
    out->clear();
    return Status::OK();
  }

 private:
  uint8_t tag_;
  const char* name_;
};

TEST(CompressionRegistry, ExternalRegistration) {
  // Registered once per process; the registry is global, so this test owns
  // tag 200 / name "test-null" outright.
  static FakeCodec external(200, "test-null");
  ASSERT_TRUE(RegisterCodec(&external).ok());
  EXPECT_EQ(CodecByTag(200), &external);
  EXPECT_EQ(CodecByName("test-null"), &external);

  // Duplicate tag and duplicate name are both rejected.
  static FakeCodec dup_tag(200, "test-other");
  EXPECT_TRUE(RegisterCodec(&dup_tag).code() == StatusCode::kAlreadyExists);
  static FakeCodec dup_name(201, "test-null");
  EXPECT_TRUE(RegisterCodec(&dup_name).code() == StatusCode::kAlreadyExists);

  // Tags below 64 are reserved for built-ins.
  static FakeCodec reserved(63, "test-reserved");
  EXPECT_TRUE(RegisterCodec(&reserved).code() == StatusCode::kInvalidArgument);
}

// ------------------------------------------------------------- delta codec

TEST(DeltaCodec, RoundTripsSortedEntries) {
  const CompressionCodec* delta = CodecByName("delta");
  ASSERT_NE(delta, nullptr);
  std::string raw = SecondaryRunBytes(5000, 200);

  std::string compressed;
  ASSERT_TRUE(delta->Compress(raw, &compressed));
  EXPECT_LT(compressed.size(), raw.size());

  std::string expanded;
  ASSERT_TRUE(delta->Decompress(compressed, raw.size(), &expanded).ok());
  EXPECT_EQ(expanded, raw);
}

TEST(DeltaCodec, ShrinksDenseKeysSubstantially) {
  const CompressionCodec* delta = CodecByName("delta");
  std::string raw = SecondaryRunBytes(0, 1000);
  std::string compressed;
  ASSERT_TRUE(delta->Compress(raw, &compressed));
  // Three 8-byte key slots become a handful of varint delta bytes; anything
  // short of 2x means the codec regressed.
  EXPECT_LT(compressed.size() * 2, raw.size());
}

TEST(DeltaCodec, DeclinesNonEntryPayloads) {
  const CompressionCodec* delta = CodecByName("delta");
  std::string compressed;
  // Not parseable as the entry wire format: must decline, not corrupt.
  EXPECT_FALSE(delta->Compress("definitely not entries", &compressed));
}

TEST(DeltaCodec, DecompressRejectsWrongRawSize) {
  const CompressionCodec* delta = CodecByName("delta");
  std::string raw = SecondaryRunBytes(100, 50);
  std::string compressed;
  ASSERT_TRUE(delta->Compress(raw, &compressed));
  std::string expanded;
  EXPECT_EQ(delta->Decompress(compressed, raw.size() + 1, &expanded).code(), StatusCode::kCorruption);
  EXPECT_EQ(delta->Decompress(compressed, raw.size() - 1, &expanded).code(), StatusCode::kCorruption);
}

// ------------------------------------------------------------ block framing

TEST(BlockFormat, RawBlockRoundTrip) {
  BlockBuilder builder(CodecByName("none"), 64);
  EXPECT_TRUE(builder.empty());
  builder.Add("hello ");
  builder.Add("world");
  EXPECT_FALSE(builder.Full());
  std::string stored = builder.Seal();
  EXPECT_TRUE(builder.empty());

  // tag + varint size + payload + crc
  EXPECT_EQ(stored.size(), 1 + 1 + 11 + 4);
  EXPECT_EQ(stored[0], '\0');  // codec tag 0 = raw

  std::string raw;
  ASSERT_TRUE(DecodeBlock(stored, "test", &raw).ok());
  EXPECT_EQ(raw, "hello world");
}

TEST(BlockFormat, CompressedBlockRoundTrip) {
  BlockBuilder builder(CodecByName("delta"), 1024);
  std::string entries = SecondaryRunBytes(42, 100);
  builder.Add(entries);
  EXPECT_TRUE(builder.Full());
  std::string stored = builder.Seal();
  EXPECT_EQ(stored[0], '\x01');  // delta tag
  EXPECT_LT(stored.size(), entries.size());

  std::string raw;
  ASSERT_TRUE(DecodeBlock(stored, "test", &raw).ok());
  EXPECT_EQ(raw, entries);
}

TEST(BlockFormat, IncompressibleBlockStoredRaw) {
  // The delta codec declines non-entry bytes, so the block falls back to
  // tag 0 instead of growing.
  BlockBuilder builder(CodecByName("delta"), 64);
  builder.Add("incompressible free-form text payload");
  std::string stored = builder.Seal();
  EXPECT_EQ(stored[0], '\0');
  std::string raw;
  ASSERT_TRUE(DecodeBlock(stored, "test", &raw).ok());
  EXPECT_EQ(raw, "incompressible free-form text payload");
}

// The stored block layout, composed independently of BlockBuilder:
// [tag u8][raw size varint][payload][crc32c u32].
std::string ExpectedBlock(const CompressionCodec* codec,
                                 const std::string& raw) {
  uint8_t tag = 0;
  std::string payload;
  if (codec->tag() != 0 && codec->Compress(raw, &payload)) {
    tag = codec->tag();
  } else {
    payload = raw;
  }
  Encoder enc;
  enc.PutU8(tag);
  enc.PutVarint64(raw.size());
  std::string stored = enc.Release();
  stored.append(payload);
  Encoder crc;
  crc.PutU32(crc32c::Value(stored));
  return stored + crc.buffer();
}

TEST(BlockFormat, SealLayoutPinnedAcrossBuilderReuse) {
  for (const char* name : {"none", "delta"}) {
    const CompressionCodec* codec = CodecByName(name);
    // One builder for every block, of varying sizes and compressibility.
    BlockBuilder builder(codec, 512);
    int compressed_blocks = 0;
    for (int b = 0; b < 200; ++b) {
      std::string raw;
      if (b % 5 == 4) {
        raw = "free-form text the delta codec declines " + std::to_string(b);
        builder.Add(raw);
      } else {
        for (int i = 0; i < 1 + b % 40; ++i) {
          Entry entry;
          entry.key = SecondaryKey(b * 100 + i / 3, 1000 + i);
          entry.value = std::string(static_cast<size_t>(i % 7), 'v');
          Encoder enc;
          EncodeEntry(entry, &enc);
          raw += enc.buffer();
          builder.Add(enc.buffer());
        }
      }
      ASSERT_EQ(builder.raw_size(), raw.size());
      const std::string stored = builder.Seal();
      EXPECT_TRUE(builder.empty());
      EXPECT_EQ(stored, ExpectedBlock(codec, raw))
          << name << " block " << b;
      if (stored[0] != '\0') ++compressed_blocks;
    }
    if (codec->tag() != 0) {
      EXPECT_GT(compressed_blocks, 0) << name;
    }
  }
}

TEST(BlockFormat, CorruptionIsDetected) {
  BlockBuilder builder(CodecByName("none"), 64);
  builder.Add("some block payload");
  std::string stored = builder.Seal();

  std::string raw;
  for (size_t i = 0; i < stored.size(); ++i) {
    std::string flipped = stored;
    flipped[i] ^= 0x40;
    Status s = DecodeBlock(flipped, "test", &raw);
    EXPECT_EQ(s.code(), StatusCode::kCorruption) << "byte " << i << " undetected";
  }
  // Truncation at every length is also caught.
  for (size_t len = 0; len < stored.size(); ++len) {
    Status s = DecodeBlock(std::string_view(stored).substr(0, len), "test",
                           &raw);
    EXPECT_EQ(s.code(), StatusCode::kCorruption) << "length " << len << " undetected";
  }
}

TEST(BlockFormat, UnknownCodecTagIsCorruption) {
  // Hand-frame a block whose CRC is valid but whose tag names no registered
  // codec — the "written by a newer build" case.
  Encoder enc;
  enc.PutU8(77);
  enc.PutVarint64(4);
  enc.PutU32(0xdeadbeef);  // 4 payload bytes
  std::string stored(enc.buffer());
  Encoder crc;
  crc.PutU32(crc32c::Value(stored));
  stored.append(crc.buffer());

  std::string raw;
  Status s = DecodeBlock(stored, "test", &raw);
  ASSERT_EQ(s.code(), StatusCode::kCorruption);
  EXPECT_NE(s.ToString().find("codec"), std::string::npos);
}

// -------------------------------------------------------------- block cache

BlockCache::BlockHandle MakeBlock(size_t size, char fill) {
  return std::make_shared<const std::string>(std::string(size, fill));
}

TEST(BlockCacheTest, HitsAndMisses) {
  BlockCache cache(1 << 20, /*shard_count=*/1);
  EXPECT_EQ(cache.Lookup(1, 0), nullptr);
  cache.Insert(1, 0, MakeBlock(100, 'a'));
  BlockCache::BlockHandle hit = cache.Lookup(1, 0);
  ASSERT_NE(hit, nullptr);
  EXPECT_EQ(hit->size(), 100u);
  // Same offset under another file id is a distinct key.
  EXPECT_EQ(cache.Lookup(2, 0), nullptr);

  BlockCache::Stats stats = cache.GetStats();
  EXPECT_EQ(stats.hits, 1u);
  EXPECT_EQ(stats.misses, 2u);
  EXPECT_EQ(stats.evictions, 0u);
  EXPECT_GE(stats.charge, 100u);
  EXPECT_EQ(stats.capacity, 1u << 20);
}

TEST(BlockCacheTest, EvictsLeastRecentlyUsed) {
  // Room for roughly two 400-byte blocks (each charged size + overhead).
  BlockCache cache(1000, /*shard_count=*/1);
  cache.Insert(1, 0, MakeBlock(400, 'a'));
  cache.Insert(1, 1, MakeBlock(400, 'b'));
  // Touch block 0 so block 1 becomes the LRU victim.
  ASSERT_NE(cache.Lookup(1, 0), nullptr);
  cache.Insert(1, 2, MakeBlock(400, 'c'));

  EXPECT_NE(cache.Lookup(1, 0), nullptr);
  EXPECT_EQ(cache.Lookup(1, 1), nullptr);
  EXPECT_NE(cache.Lookup(1, 2), nullptr);
  EXPECT_GE(cache.GetStats().evictions, 1u);
}

TEST(BlockCacheTest, ReplacingAKeyKeepsChargeConsistent) {
  BlockCache cache(1 << 20, /*shard_count=*/1);
  cache.Insert(1, 0, MakeBlock(100, 'a'));
  uint64_t charge_small = cache.GetStats().charge;
  cache.Insert(1, 0, MakeBlock(300, 'b'));
  uint64_t charge_big = cache.GetStats().charge;
  EXPECT_EQ(charge_big - charge_small, 200u);
  BlockCache::BlockHandle h = cache.Lookup(1, 0);
  ASSERT_NE(h, nullptr);
  EXPECT_EQ(h->front(), 'b');
}

TEST(BlockCacheTest, OversizedBlockDoesNotStick) {
  BlockCache cache(256, /*shard_count=*/1);
  BlockCache::BlockHandle big = MakeBlock(10000, 'x');
  cache.Insert(1, 0, big);
  // The block was evicted immediately, but the caller's handle stays valid.
  EXPECT_EQ(cache.Lookup(1, 0), nullptr);
  EXPECT_EQ(big->size(), 10000u);
  EXPECT_EQ(cache.GetStats().charge, 0u);
}

TEST(BlockCacheTest, EvictedBlocksSurviveForHolders) {
  BlockCache cache(600, /*shard_count=*/1);
  cache.Insert(1, 0, MakeBlock(400, 'a'));
  BlockCache::BlockHandle held = cache.Lookup(1, 0);
  ASSERT_NE(held, nullptr);
  // Force eviction of (1, 0).
  cache.Insert(1, 1, MakeBlock(400, 'b'));
  EXPECT_EQ(cache.Lookup(1, 0), nullptr);
  // The held handle still reads fine — eviction only drops the cache's ref.
  EXPECT_EQ((*held)[0], 'a');
}

// Erases blocks (file_id, 0..offsets-1), the way a component erases its
// own block offsets; returns how many were held.
uint64_t EraseFileBlocks(BlockCache& cache, uint64_t file_id,
                         uint64_t offsets) {
  uint64_t removed = 0;
  for (uint64_t offset = 0; offset < offsets; ++offset) {
    if (cache.Erase(file_id, offset)) ++removed;
  }
  return removed;
}

TEST(BlockCacheTest, EraseDropsExactlyOneFilesBlocks) {
  // Several shards, so one file's blocks spread across all of them.
  BlockCache cache(1 << 20, /*shard_count=*/4);
  for (uint64_t offset = 0; offset < 8; ++offset) {
    cache.Insert(1, offset, MakeBlock(100, 'a'));
    cache.Insert(2, offset, MakeBlock(100, 'b'));
  }
  uint64_t charge_before = cache.GetStats().charge;
  uint64_t misses_before = cache.GetStats().misses;

  EXPECT_EQ(EraseFileBlocks(cache, 1, 8), 8u);
  BlockCache::Stats stats = cache.GetStats();
  // Dropped entries are not LRU evictions: a dead file's blocks leaving the
  // cache must not read as cache pressure.
  EXPECT_EQ(stats.evictions, 0u);
  EXPECT_EQ(stats.charge * 2, charge_before);
  EXPECT_EQ(stats.misses, misses_before);  // Erase itself counts nothing

  // File 1 is gone; file 2's entries are untouched and still hit.
  for (uint64_t offset = 0; offset < 8; ++offset) {
    EXPECT_EQ(cache.Lookup(1, offset), nullptr);
    ASSERT_NE(cache.Lookup(2, offset), nullptr);
  }
  // Erasing an absent file is a harmless no-op.
  EXPECT_EQ(EraseFileBlocks(cache, 1, 8), 0u);
  EXPECT_EQ(EraseFileBlocks(cache, 99, 8), 0u);
}

TEST(BlockCacheTest, FileIdsAreProcessUnique) {
  uint64_t a = NewBlockCacheFileId();
  uint64_t b = NewBlockCacheFileId();
  EXPECT_NE(a, b);
}

// Regression: the incremental charge counter must stay exact across every
// mutation path — Insert (with replacement), Erase of a whole file while
// readers hold handles, and live capacity shrink — or the arbiter's usage
// probe reports garbage. DebugComputeCharge recomputes from the entries.
TEST(BlockCacheTest, ChargeStaysExactAcrossEraseAndShrink) {
  BlockCache cache(1 << 20, /*shard_count=*/4);
  std::vector<BlockCache::BlockHandle> held;
  for (uint64_t offset = 0; offset < 32; ++offset) {
    cache.Insert(1, offset, MakeBlock(100 + offset, 'a'));
    cache.Insert(2, offset, MakeBlock(200, 'b'));
    if (offset % 3 == 0) held.push_back(cache.Lookup(1, offset));
  }
  ASSERT_EQ(cache.GetStats().charge, cache.DebugComputeCharge());

  // Erase file 1 while handles to some of its blocks are still live.
  EraseFileBlocks(cache, 1, 32);
  EXPECT_EQ(cache.GetStats().charge, cache.DebugComputeCharge());
  for (const auto& handle : held) {
    ASSERT_NE(handle, nullptr);
    EXPECT_EQ(handle->front(), 'a');  // in-flight readers keep their blocks
  }

  // Shrink below current usage: evicts down to the new budget, exactly.
  const uint64_t shrunk = cache.GetStats().charge / 2;
  cache.SetCapacity(shrunk);
  BlockCache::Stats stats = cache.GetStats();
  EXPECT_EQ(stats.capacity, shrunk);
  EXPECT_LE(stats.charge, shrunk);
  EXPECT_EQ(stats.charge, cache.DebugComputeCharge());

  // Growing back takes effect lazily: nothing is evicted, inserts fit again.
  cache.SetCapacity(1 << 20);
  cache.Insert(3, 0, MakeBlock(500, 'c'));
  EXPECT_NE(cache.Lookup(3, 0), nullptr);
  EXPECT_EQ(cache.GetStats().charge, cache.DebugComputeCharge());
}

TEST(BlockCacheTest, ChargeInvariantUnderConcurrentGetErase) {
  BlockCache cache(64 << 10, /*shard_count=*/4);
  std::atomic<bool> stop{false};
  std::vector<std::thread> threads;
  for (int t = 0; t < 2; ++t) {
    threads.emplace_back([&cache, &stop, t] {
      uint64_t i = 0;
      while (!stop.load(std::memory_order_relaxed)) {
        const uint64_t file = 1 + (i + t) % 3;
        cache.Insert(file, i % 64, MakeBlock(64 + i % 512, 'w'));
        cache.Lookup(file, (i * 7) % 64);
        ++i;
      }
    });
  }
  threads.emplace_back([&cache, &stop] {
    uint64_t i = 0;
    while (!stop.load(std::memory_order_relaxed)) {
      EraseFileBlocks(cache, 1 + i % 3, 64);
      cache.SetCapacity(16 << 10);
      cache.SetCapacity(64 << 10);
      ++i;
    }
  });
  std::this_thread::sleep_for(std::chrono::milliseconds(200));
  stop.store(true);
  for (auto& thread : threads) thread.join();
  EXPECT_EQ(cache.GetStats().charge, cache.DebugComputeCharge());
  EXPECT_LE(cache.GetStats().charge, cache.capacity());
}

}  // namespace
}  // namespace lsmstats
