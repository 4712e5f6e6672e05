// Component format tests: a file in the retired v2 format is refused with a
// status that names it, the delta codec shrinks real components without
// changing their contents, and cached reads are served from the shared block
// cache.

#include <cstdlib>
#include <filesystem>
#include <memory>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "common/coding.h"
#include "common/env.h"
#include "common/file.h"
#include "db/dataset.h"
#include "lsm/disk_component.h"
#include "lsm/format/block.h"
#include "lsm/format/block_cache.h"
#include "lsm/lsm_tree.h"

namespace lsmstats {
namespace {

class TempDir {
 public:
  TempDir() {
    char tmpl[] = "/tmp/lsmstats_fmt_XXXXXX";
    path_ = ::mkdtemp(tmpl);
  }
  ~TempDir() { std::filesystem::remove_all(path_); }
  const std::string& path() const { return path_; }

 private:
  std::string path_;
};

// Secondary-index-shaped entries: dense keys, empty values, some anti-matter.
std::vector<Entry> MakeEntries(int count) {
  std::vector<Entry> entries;
  entries.reserve(count);
  for (int i = 0; i < count; ++i) {
    Entry entry;
    entry.key = SecondaryKey(10000 + i / 4, i);
    entry.anti_matter = (i % 9 == 0);
    entries.push_back(std::move(entry));
  }
  return entries;
}

std::shared_ptr<DiskComponent> WriteComponent(
    const std::string& path, const std::vector<Entry>& entries,
    ComponentWriteOptions write_options,
    DiskComponentReadOptions read_options = DiskComponentReadOptions()) {
  DiskComponentBuilder builder(nullptr, path, entries.size(), write_options,
                               read_options);
  for (const Entry& entry : entries) {
    auto status = builder.Add(entry);
    EXPECT_TRUE(status.ok()) << status.ToString();
  }
  auto component = builder.Finish(/*id=*/1, /*timestamp=*/1);
  EXPECT_TRUE(component.ok()) << component.status().ToString();
  return component.ok() ? *component : nullptr;
}

std::vector<Entry> ReadAll(const DiskComponent& component) {
  std::vector<Entry> result;
  for (auto cursor = component.NewCursor(); cursor->Valid(); cursor->Next()) {
    result.push_back(ToEntry(cursor->entry()));
  }
  return result;
}

void ExpectSameEntries(const std::vector<Entry>& expected,
                       const std::vector<Entry>& actual) {
  ASSERT_EQ(expected.size(), actual.size());
  for (size_t i = 0; i < expected.size(); ++i) {
    EXPECT_EQ(expected[i].key, actual[i].key) << "entry " << i;
    EXPECT_EQ(expected[i].value, actual[i].value) << "entry " << i;
    EXPECT_EQ(expected[i].anti_matter, actual[i].anti_matter) << "entry " << i;
  }
}

// Rewrites the footer magic of the component at `path` to the retired v2
// format's ("LSMSTATS"). The footer CRC does not cover the magic, so only the
// format check can refuse the file.
void StampV2Magic(const std::string& path) {
  std::string bytes;
  {
    auto file = RandomAccessFile::Open(path);
    ASSERT_TRUE(file.ok()) << file.status().ToString();
    ASSERT_TRUE((*file)->Read(0, (*file)->size(), &bytes).ok());
  }
  Encoder magic;
  magic.PutU64(0x4c534d5354415453ULL);
  ASSERT_GE(bytes.size(), magic.size());
  bytes.replace(bytes.size() - magic.size(), magic.size(), magic.buffer());
  auto out = WritableFile::Create(path);
  ASSERT_TRUE(out.ok()) << out.status().ToString();
  ASSERT_TRUE((*out)->Append(bytes).ok());
  ASSERT_TRUE((*out)->Close().ok());
}

void ExpectRetiredFormat(const Status& status) {
  EXPECT_EQ(status.code(), StatusCode::kUnimplemented) << status.ToString();
  EXPECT_NE(status.message().find("retired v2"), std::string::npos)
      << status.ToString();
}

TEST(FormatCompat, V2ComponentIsRejected) {
  TempDir dir;
  std::string path = dir.path() + "/c.cmp";
  ASSERT_NE(WriteComponent(path, MakeEntries(500), ComponentWriteOptions{}),
            nullptr);
  StampV2Magic(path);
  auto reopened = DiskComponent::Open(nullptr, path, 1, 1);
  ASSERT_FALSE(reopened.ok());
  ExpectRetiredFormat(reopened.status());
}

TEST(FormatCompat, TreeWithV2ComponentRefusesToOpen) {
  TempDir dir;
  LsmTreeOptions options;
  options.directory = dir.path();
  options.memtable_max_entries = 100;
  {
    auto tree = LsmTree::Open(options);
    ASSERT_TRUE(tree.ok()) << tree.status().ToString();
    for (int64_t k = 0; k < 150; ++k) {
      ASSERT_TRUE((*tree)->Put(PrimaryKey(k), "value", true).ok());
    }
    ASSERT_TRUE((*tree)->Flush().ok());
    ASSERT_FALSE((*tree)->ComponentsMetadata().empty());
  }
  for (const auto& file : std::filesystem::directory_iterator(dir.path())) {
    if (file.path().extension() == ".cmp") StampV2Magic(file.path().string());
  }
  options.quarantine_corrupt_components = false;
  auto tree = LsmTree::Open(options);
  ASSERT_FALSE(tree.ok());
  ExpectRetiredFormat(tree.status());
}

TEST(FormatCompat, DeltaCodecShrinksComponentsLosslessly) {
  TempDir dir;
  std::vector<Entry> entries = MakeEntries(4000);
  auto plain = WriteComponent(dir.path() + "/plain.cmp", entries,
                              ComponentWriteOptions{});
  ComponentWriteOptions delta;
  delta.compression = "delta";
  auto packed = WriteComponent(dir.path() + "/delta.cmp", entries, delta);
  ASSERT_NE(plain, nullptr);
  ASSERT_NE(packed, nullptr);

  // Dense secondary keys should shrink at least 2x; content is unchanged.
  EXPECT_LT(packed->metadata().file_size * 2, plain->metadata().file_size);
  ExpectSameEntries(entries, ReadAll(*packed));
  EXPECT_TRUE(packed->VerifyBlockChecksums().ok());

  Entry found;
  ASSERT_TRUE(packed->Get(entries[1234].key, &found).ok());
  EXPECT_EQ(found.anti_matter, entries[1234].anti_matter);
}

TEST(FormatCompat, RepeatedReadsServeFromBlockCache) {
  TempDir dir;
  BlockCache cache(1 << 20);
  std::vector<Entry> entries = MakeEntries(2000);
  ComponentWriteOptions write_options;
  write_options.compression = "delta";
  write_options.block_size = 256;  // many blocks
  auto component = WriteComponent(dir.path() + "/c.cmp", entries,
                                  write_options,
                                  DiskComponentReadOptions{&cache});
  ASSERT_NE(component, nullptr);
  ASSERT_GT(component->block_count(), 4u);

  Entry found;
  ASSERT_TRUE(component->Get(entries[500].key, &found).ok());
  BlockCache::Stats after_first = cache.GetStats();
  EXPECT_EQ(after_first.hits, 0u);
  EXPECT_GT(after_first.misses, 0u);

  ASSERT_TRUE(component->Get(entries[500].key, &found).ok());
  BlockCache::Stats after_second = cache.GetStats();
  EXPECT_GT(after_second.hits, 0u);
  EXPECT_EQ(after_second.misses, after_first.misses);

  // Verification scans bypass the cache entirely: stats must not move.
  ASSERT_TRUE(component->VerifyBlockChecksums().ok());
  BlockCache::Stats after_verify = cache.GetStats();
  EXPECT_EQ(after_verify.hits, after_second.hits);
  EXPECT_EQ(after_verify.misses, after_second.misses);

  // A full scan fills the cache; a second scan is all hits.
  ExpectSameEntries(entries, ReadAll(*component));
  BlockCache::Stats after_scan = cache.GetStats();
  ExpectSameEntries(entries, ReadAll(*component));
  BlockCache::Stats after_rescan = cache.GetStats();
  EXPECT_EQ(after_rescan.misses, after_scan.misses);
  EXPECT_GE(after_rescan.hits,
            after_scan.hits + component->block_count());
}

TEST(FormatCompat, DeleteFileEvictsTheComponentsCachedBlocks) {
  // A merged-away (or quarantined) component must not leave dead blocks
  // squatting in the shared cache; its DeleteFile drops them immediately.
  TempDir dir;
  BlockCache cache(1 << 20);
  ComponentWriteOptions write_options;
  write_options.block_size = 256;
  std::vector<Entry> entries = MakeEntries(1000);
  auto dead = WriteComponent(dir.path() + "/dead.cmp", entries, write_options,
                             DiskComponentReadOptions{&cache});
  auto live = WriteComponent(dir.path() + "/live.cmp", entries, write_options,
                             DiskComponentReadOptions{&cache});
  ASSERT_NE(dead, nullptr);
  ASSERT_NE(live, nullptr);
  // Populate the cache from both components.
  ExpectSameEntries(entries, ReadAll(*dead));
  ExpectSameEntries(entries, ReadAll(*live));
  uint64_t charge_full = cache.GetStats().charge;
  ASSERT_GT(charge_full, 0u);

  ASSERT_TRUE(dead->DeleteFile().ok());
  BlockCache::Stats stats = cache.GetStats();
  EXPECT_EQ(stats.charge * 2, charge_full);  // identical components
  EXPECT_EQ(stats.evictions, 0u);
  // The survivor's blocks still serve from the cache.
  uint64_t misses_before = stats.misses;
  ExpectSameEntries(entries, ReadAll(*live));
  EXPECT_EQ(cache.GetStats().misses, misses_before);
  // Eviction reports the blocks it dropped, and counts no misses.
  EXPECT_EQ(dead->EvictCachedBlocks(), 0u);
  EXPECT_EQ(live->EvictCachedBlocks(), live->block_count());
  EXPECT_EQ(cache.GetStats().charge, 0u);
  EXPECT_EQ(cache.GetStats().misses, misses_before);
}

TEST(FormatCompat, UnknownWriteConfigurationIsRejected) {
  TempDir dir;
  LsmTreeOptions options;
  options.directory = dir.path();
  ComponentWriteOptions bad_codec;
  bad_codec.compression = "zstd";
  options.write_options = bad_codec;
  EXPECT_EQ(LsmTree::Open(options).status().code(),
            StatusCode::kInvalidArgument);
  // A dataset validates its codec name too, including an empty one.
  DatasetOptions dataset_options;
  dataset_options.directory = dir.path();
  for (const char* codec : {"zstd", ""}) {
    dataset_options.compression = codec;
    EXPECT_EQ(Dataset::Open(dataset_options).status().code(),
              StatusCode::kInvalidArgument)
        << codec;
  }
}

// Regression: expected_entries = 0 (unknown) used to size a degenerate bloom
// filter; the builder floors the sizing (kMinBloomEntries) so small/unknown
// components still filter effectively — without the old 1024-entry floor
// that cost every tiny component 1.25 KiB regardless of its size.
TEST(FormatCompat, ZeroEntryEstimateStillGetsUsableBloom) {
  TempDir dir;
  DiskComponentBuilder builder(nullptr, dir.path() + "/c.cmp",
                               /*expected_entries=*/0);
  for (int64_t k = 0; k < 300; ++k) {
    ASSERT_TRUE(builder.Add(Entry{PrimaryKey(k), "v", false}).ok());
  }
  auto component = builder.Finish(1, 1);
  ASSERT_TRUE(component.ok()) << component.status().ToString();
  // Floor sizing: at least the minimum filter (kMinBloomEntries keys x 10
  // bits), and no bigger than the old 1024-entry floor used to force.
  EXPECT_GE((*component)->bloom_size_bytes(),
            DiskComponentBuilder::kMinBloomEntries * 10 / 8);
  EXPECT_LT((*component)->bloom_size_bytes(), 1024u * 10 / 8);
  Entry found;
  for (int64_t k = 0; k < 300; ++k) {
    ASSERT_TRUE((*component)->Get(PrimaryKey(k), &found).ok()) << "key " << k;
  }
}

}  // namespace
}  // namespace lsmstats
