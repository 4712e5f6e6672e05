// Robustness / failure-injection tests: corrupt inputs must surface as
// Status errors, never as crashes or silent misbehaviour.

#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <filesystem>
#include <fstream>
#include <functional>
#include <iterator>

#include <gtest/gtest.h>

#include "cluster/cluster_controller.h"
#include "common/coding.h"
#include "common/crc32c.h"
#include "common/env.h"
#include "common/random.h"
#include "lsm/disk_component.h"
#include "lsm/lsm_tree.h"
#include "synopsis/builder.h"

namespace lsmstats {
namespace {

std::string EncodedSynopsis(SynopsisType type) {
  SynopsisConfig config{type, 32, ValueDomain(0, 12)};
  auto builder = CreateSynopsisBuilder(config, 100);
  for (int64_t v = 0; v < 100; ++v) builder->Add(v * 17);
  Encoder enc;
  builder->Finish()->EncodeTo(&enc);
  return enc.Release();
}

TEST(Robustness, SynopsisDecodeSurvivesTruncation) {
  for (SynopsisType type :
       {SynopsisType::kEquiWidthHistogram, SynopsisType::kEquiHeightHistogram,
        SynopsisType::kWavelet, SynopsisType::kGKQuantile}) {
    std::string bytes = EncodedSynopsis(type);
    for (size_t cut = 0; cut < bytes.size(); cut += 3) {
      Decoder dec(std::string_view(bytes.data(), cut));
      auto result = DecodeSynopsis(&dec);  // must not crash
      if (result.ok()) {
        // A truncated prefix that still decodes must at least be
        // self-consistent.
        EXPECT_LE((*result)->ElementCount(), (*result)->Budget());
      }
    }
  }
}

TEST(Robustness, SynopsisDecodeSurvivesBitFlips) {
  Random rng(21);
  for (SynopsisType type :
       {SynopsisType::kEquiWidthHistogram, SynopsisType::kEquiHeightHistogram,
        SynopsisType::kWavelet, SynopsisType::kGKQuantile}) {
    std::string original = EncodedSynopsis(type);
    for (int trial = 0; trial < 300; ++trial) {
      std::string bytes = original;
      int flips = 1 + static_cast<int>(rng.Uniform(8));
      for (int f = 0; f < flips; ++f) {
        size_t pos = rng.Uniform(bytes.size());
        bytes[pos] ^= static_cast<char>(1 << rng.Uniform(8));
      }
      Decoder dec(bytes);
      auto result = DecodeSynopsis(&dec);  // Status or value, never a crash
      if (result.ok()) {
        // Exercise the decoded object a little.
        (void)(*result)->EstimateRange(0, 4095);
        (void)(*result)->DebugString();
      }
    }
  }
}

TEST(Robustness, ClusterControllerRejectsGarbageMessages) {
  ClusterController controller;
  Random rng(22);
  for (int trial = 0; trial < 200; ++trial) {
    std::string garbage(rng.Uniform(200), '\0');
    for (auto& c : garbage) c = static_cast<char>(rng.Uniform(256));
    (void)controller.ReceiveStatistics(garbage);  // must not crash
  }
  // The controller still works afterwards.
  EXPECT_DOUBLE_EQ(controller.EstimateRange("ds", "f", 0, 100), 0.0);
}

TEST(Robustness, ClusterControllerRejectsCorruptSynopsisBody) {
  ClusterController controller;
  ComponentStatsMessage msg;
  msg.key = {"ds", "f", 0};
  msg.component_id = 1;
  msg.timestamp = 1;
  msg.record_count = 10;
  msg.synopsis_bytes = "definitely not a synopsis";
  Encoder enc;
  msg.EncodeTo(&enc);
  Status s = controller.ReceiveStatistics(enc.buffer());
  EXPECT_FALSE(s.ok());
  EXPECT_EQ(controller.catalog().EntryCount({"ds", "f", 0}), 0u);
}

TEST(Robustness, ComponentOpenRejectsCorruptFiles) {
  char tmpl[] = "/tmp/lsmstats_robust_XXXXXX";
  std::string dir = ::mkdtemp(tmpl);

  // Build a valid component, then corrupt it in assorted ways.
  std::string path = dir + "/c.cmp";
  {
    DiskComponentBuilder builder(Env::Default(), path, 100);
    for (int64_t k = 0; k < 100; ++k) {
      ASSERT_TRUE(builder.Add({PrimaryKey(k), "value", false}).ok());
    }
    ASSERT_TRUE(builder.Finish(1, 1).ok());
  }
  auto corrupt_and_open = [&](auto mutate) {
    std::string copy_path = dir + "/corrupt.cmp";
    std::filesystem::copy_file(
        path, copy_path, std::filesystem::copy_options::overwrite_existing);
    mutate(copy_path);
    auto result = DiskComponent::Open(Env::Default(), copy_path, 2, 2);
    if (result.ok()) {
      // If the corruption dodged the checks, reading must still be safe.
      auto cursor = (*result)->NewCursor();
      while (cursor->Valid()) cursor->Next();
    }
    return result.ok();
  };
  // Truncations of assorted severity must all fail Open or read safely.
  EXPECT_FALSE(corrupt_and_open([](const std::string& p) {
    std::filesystem::resize_file(p, 8);
  }));
  EXPECT_FALSE(corrupt_and_open([](const std::string& p) {
    std::filesystem::resize_file(p, std::filesystem::file_size(p) - 1);
  }));
  // Flipping the magic number must fail.
  EXPECT_FALSE(corrupt_and_open([](const std::string& p) {
    auto size = std::filesystem::file_size(p);
    FILE* f = std::fopen(p.c_str(), "r+b");
    ASSERT_TRUE(f != nullptr);
    std::fseek(f, static_cast<long>(size - 4), SEEK_SET);
    std::fputc(0x5a, f);
    std::fclose(f);
  }));
  std::filesystem::remove_all(dir);
}

TEST(Robustness, OversizedIndexCountIsCorruption) {
  char tmpl[] = "/tmp/lsmstats_index_count_XXXXXX";
  std::string dir = ::mkdtemp(tmpl);
  std::string path = dir + "/c.cmp";
  {
    DiskComponentBuilder builder(Env::Default(), path, 10);
    for (int64_t k = 0; k < 10; ++k) {
      ASSERT_TRUE(builder.Add({PrimaryKey(k), "value", false}).ok());
    }
    ASSERT_TRUE(builder.Finish(1, 1).ok());
  }
  std::string bytes;
  {
    std::ifstream in(path, std::ios::binary);
    bytes.assign(std::istreambuf_iterator<char>(in), {});
  }
  // The footer (100 bytes) opens with data_end, bloom_offset and
  // checksum_offset; the checksum block opens with the index CRC.
  const size_t footer = bytes.size() - 100;
  uint64_t data_end = 0;
  uint64_t bloom_offset = 0;
  uint64_t checksum_offset = 0;
  std::memcpy(&data_end, &bytes[footer], 8);
  std::memcpy(&bloom_offset, &bytes[footer + 8], 8);
  std::memcpy(&checksum_offset, &bytes[footer + 16], 8);
  // One block: [count varint 1][key 24 B][offset 8 B]. Claim 2^62 entries
  // with a 9-byte count in place of the count and the offset, keeping the
  // section's length, and re-sign it.
  ASSERT_EQ(bloom_offset - data_end, 33u);
  Encoder count;
  count.PutVarint64(uint64_t{1} << 62);
  const std::string index = count.buffer() + bytes.substr(data_end + 1, 24);
  ASSERT_EQ(index.size(), 33u);
  bytes.replace(data_end, 33, index);
  const uint32_t crc = crc32c::Value(index);
  std::memcpy(&bytes[checksum_offset], &crc, 4);
  {
    std::ofstream out(path, std::ios::binary | std::ios::trunc);
    out.write(bytes.data(), static_cast<std::streamsize>(bytes.size()));
  }
  auto result = DiskComponent::Open(Env::Default(), path, 1, 1);
  ASSERT_FALSE(result.ok());
  EXPECT_EQ(result.status().code(), StatusCode::kCorruption)
      << result.status().ToString();
  std::filesystem::remove_all(dir);
}

// Writes 100 primary entries with 50-byte values to `path` — two 4 KiB
// blocks, the second starting near byte 4111 — then flips one bit at
// `offset`. Footer, index and bloom stay intact, so Open succeeds.
void WriteComponentWithFlippedBit(const std::string& path, long offset) {
  {
    DiskComponentBuilder builder(Env::Default(), path, 100);
    for (int64_t k = 0; k < 100; ++k) {
      ASSERT_TRUE(
          builder.Add({PrimaryKey(k), std::string(50, 'v'), false}).ok());
    }
    ASSERT_TRUE(builder.Finish(1, 1).ok());
  }
  FILE* f = std::fopen(path.c_str(), "r+b");
  ASSERT_NE(f, nullptr);
  std::fseek(f, offset, SEEK_SET);
  int c = std::fgetc(f);
  std::fseek(f, offset, SEEK_SET);
  std::fputc(c ^ 0x04, f);
  std::fclose(f);
}

TEST(Robustness, DataBlockBitFlipCaughtAtReadTime) {
  char tmpl[] = "/tmp/lsmstats_bitflip_XXXXXX";
  std::string dir = ::mkdtemp(tmpl);
  std::string path = dir + "/c.cmp";
  // Flip one bit inside an entry's value bytes, far from footer/index/bloom.
  WriteComponentWithFlippedBit(path, 40);
  // Footer, index, and bloom checksums are intact, so Open succeeds...
  auto component = DiskComponent::Open(Env::Default(), path, 1, 1);
  ASSERT_TRUE(component.ok()) << component.status().ToString();
  // ...but the flipped bit is caught the moment a read touches its chunk —
  // never returned as data.
  Entry entry;
  Status get_status = (*component)->Get(PrimaryKey(0), &entry);
  EXPECT_EQ(get_status.code(), StatusCode::kCorruption)
      << get_status.ToString();
  auto cursor = (*component)->NewCursor();
  EXPECT_FALSE(cursor->Valid());
  EXPECT_EQ(cursor->status().code(), StatusCode::kCorruption)
      << cursor->status().ToString();
  // The eager recovery-time scan reports it too.
  EXPECT_EQ((*component)->VerifyBlockChecksums().code(),
            StatusCode::kCorruption);
  std::filesystem::remove_all(dir);
}

TEST(Robustness, ScanCountAcrossBitFlippedLaterBlockIsCorruption) {
  char tmpl[] = "/tmp/lsmstats_bitflip_XXXXXX";
  std::string dir = ::mkdtemp(tmpl);
  // The tree recovers `tree_1.cmp` as its only component. The flip lands in
  // the second block's payload.
  WriteComponentWithFlippedBit(dir + "/tree_1.cmp", 6000);
  {
    auto component =
        DiskComponent::Open(Env::Default(), dir + "/tree_1.cmp", 1, 1);
    ASSERT_TRUE(component.ok()) << component.status().ToString();
    ASSERT_EQ((*component)->block_count(), 2u);
    Entry entry;
    ASSERT_TRUE((*component)->Get(PrimaryKey(0), &entry).ok());
    ASSERT_EQ((*component)->Get(PrimaryKey(99), &entry).code(),
              StatusCode::kCorruption);
  }
  LsmTreeOptions options;
  options.directory = dir;
  // Recovery would otherwise verify every block and quarantine the file.
  options.paranoid_recovery_checks = false;
  auto tree = LsmTree::Open(options);
  ASSERT_TRUE(tree.ok()) << tree.status().ToString();
  ASSERT_EQ((*tree)->ComponentCount(), 1u);
  // A range inside the intact first block counts normally...
  auto head = (*tree)->ScanCount(PrimaryKey(0), PrimaryKey(9));
  ASSERT_TRUE(head.ok()) << head.status().ToString();
  EXPECT_EQ(*head, 10u);
  // ...one that crosses into the flipped block fails, never short-counts.
  auto all = (*tree)->ScanCount(PrimaryKey(0), PrimaryKey(99));
  EXPECT_EQ(all.status().code(), StatusCode::kCorruption)
      << (all.ok() ? "count " + std::to_string(*all)
                   : all.status().ToString());
  tree->reset();
  std::filesystem::remove_all(dir);
}

// Rewrites the payload of a single-block, uncompressed component in place
// (same length) and re-signs the block, so only the entry decoder can tell.
void PatchSingleBlockPayload(const std::string& path,
                             const std::function<void(std::string*)>& patch) {
  std::string bytes;
  {
    std::ifstream in(path, std::ios::binary);
    bytes.assign(std::istreambuf_iterator<char>(in), {});
  }
  // Footer: data_end is its first field. Block: [tag][raw_size varint]
  // [payload][crc32c].
  uint64_t data_end = 0;
  std::memcpy(&data_end, &bytes[bytes.size() - 100], 8);
  ASSERT_EQ(bytes[0], 0) << "expected an uncompressed block";
  Decoder dec(std::string_view(bytes).substr(1));
  uint64_t raw_size = 0;
  ASSERT_TRUE(dec.GetVarint64(&raw_size).ok());
  const size_t payload_at = bytes.size() - dec.remaining();
  ASSERT_EQ(payload_at + raw_size + 4, data_end);
  std::string payload = bytes.substr(payload_at, raw_size);
  patch(&payload);
  ASSERT_EQ(payload.size(), raw_size);
  bytes.replace(payload_at, raw_size, payload);
  const uint32_t crc = crc32c::Value(std::string_view(bytes).substr(
      0, static_cast<size_t>(data_end - 4)));
  std::memcpy(&bytes[data_end - 4], &crc, 4);
  std::ofstream out(path, std::ios::binary | std::ios::trunc);
  out.write(bytes.data(), static_cast<std::streamsize>(bytes.size()));
}

TEST(Robustness, TruncatedLastEntryInValidBlockIsCorruption) {
  char tmpl[] = "/tmp/lsmstats_truncated_XXXXXX";
  std::string dir = ::mkdtemp(tmpl);
  // Three entries of 25 fixed bytes + a 1-byte length + a 20-byte value.
  constexpr size_t kEntryBytes = 25 + 1 + 20;
  constexpr size_t kLength = 25;  // offset of the length byte in an entry
  struct Case {
    const char* name;
    std::function<void(std::string*)> patch;
  };
  const Case cases[] = {
      // The last entry's value length runs past the block end.
      {"value past end",
       [](std::string* p) { (*p)[2 * kEntryBytes + kLength] = 100; }},
      // The second entry's value swallows all but 10 bytes of the last one,
      // leaving fewer than the 25 fixed bytes an entry needs.
      {"short fixed part",
       [](std::string* p) {
         (*p)[kEntryBytes + kLength] = static_cast<char>(20 + kEntryBytes - 10);
       }},
  };
  for (const Case& c : cases) {
    SCOPED_TRACE(c.name);
    const std::string path = dir + "/c.cmp";
    {
      DiskComponentBuilder builder(Env::Default(), path, 3);
      for (int64_t k = 0; k < 3; ++k) {
        ASSERT_TRUE(
            builder.Add({PrimaryKey(k), std::string(20, 'v'), false}).ok());
      }
      ASSERT_TRUE(builder.Finish(1, 1).ok());
    }
    PatchSingleBlockPayload(path, c.patch);
    auto component = DiskComponent::Open(Env::Default(), path, 1, 1);
    ASSERT_TRUE(component.ok()) << component.status().ToString();
    ASSERT_TRUE((*component)->VerifyBlockChecksums().ok());
    // The cursor yields what precedes the damage, then stops on it.
    auto cursor = (*component)->NewCursor();
    size_t yielded = 0;
    for (; cursor->Valid(); cursor->Next()) ++yielded;
    EXPECT_LT(yielded, 3u);
    EXPECT_EQ(cursor->status().code(), StatusCode::kCorruption)
        << cursor->status().ToString();
    // Get finds an intact entry before the damage, and fails on the last.
    Entry entry;
    EXPECT_TRUE((*component)->Get(PrimaryKey(0), &entry).ok());
    EXPECT_EQ(entry.value, std::string(20, 'v'));
    Status s = (*component)->Get(PrimaryKey(2), &entry);
    EXPECT_EQ(s.code(), StatusCode::kCorruption) << s.ToString();
    component->reset();
    std::filesystem::remove(path);
  }
  std::filesystem::remove_all(dir);
}

TEST(Robustness, EstimatorHandlesEmptyAndMixedCatalogs) {
  StatisticsCatalog catalog;
  CardinalityEstimator estimator(&catalog, {});
  // Unknown keys estimate to zero.
  EXPECT_DOUBLE_EQ(estimator.EstimateRange("nope", "nothing", 0, 100), 0.0);
  // A stream whose first entry has a null synopsis must not crash the
  // mergeability probe.
  SynopsisEntry entry;
  entry.component_id = 1;
  entry.timestamp = 1;
  catalog.Register({"ds", "f", 0}, std::move(entry), {});
  EXPECT_DOUBLE_EQ(estimator.EstimateRangePartition({"ds", "f", 0}, 0, 100),
                   0.0);
}

}  // namespace
}  // namespace lsmstats
