// Direct unit tests for the merge policies (Tiered/Prefix edge cases, the
// Leveled/Partitioned plan shapes), the component manifest codec, and the
// end-to-end leveled invariants: every level >= 1 stays a sorted run of
// non-overlapping key ranges, partitioned merges rewrite only the
// overlapping partitions, and reopen preserves recency order after
// mid-stack merges (the id-order trap the manifest exists to close).

#include <cstdlib>
#include <filesystem>
#include <fstream>
#include <iterator>
#include <map>
#include <memory>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "common/coding.h"
#include "common/crc32c.h"
#include "common/env.h"
#include "common/random.h"
#include "lsm/component_manifest.h"
#include "lsm/lsm_tree.h"
#include "lsm/merge_policy.h"

namespace lsmstats {
namespace {

// Newest-first stack entry with just the fields the stack policies read.
ComponentMetadata Comp(uint64_t id, uint64_t size) {
  ComponentMetadata md;
  md.id = id;
  md.file_size = size;
  md.record_count = 1;
  return md;
}

// Leveled-policy entry: level + key range (k0 only; arity-1 keys).
ComponentMetadata LevComp(uint64_t id, uint32_t level, int64_t min_key,
                          int64_t max_key, uint64_t size) {
  ComponentMetadata md;
  md.id = id;
  md.level = level;
  md.min_key = PrimaryKey(min_key);
  md.max_key = PrimaryKey(max_key);
  md.file_size = size;
  md.record_count = 1;
  return md;
}

// ----------------------------------------------------------------- Tiered

TEST(TieredMergePolicy, SingleComponentAndBelowMinWidthStacksAreLeftAlone) {
  TieredMergePolicy policy(/*size_ratio=*/1.5, /*min_width=*/3,
                           /*max_width=*/6);
  EXPECT_FALSE(policy.PickMerge({}).has_value());
  EXPECT_FALSE(policy.PickMerge({Comp(1, 100)}).has_value());
  EXPECT_FALSE(policy.PickMerge({Comp(2, 100), Comp(1, 100)}).has_value());
}

TEST(TieredMergePolicy, EqualSizeTieMergesOldestWindow) {
  // All sizes equal: every window qualifies, so the pick must be the
  // deterministic oldest-most min_width window, leaving newer arrivals to
  // accumulate their own tier.
  TieredMergePolicy policy(1.5, 3, 10);
  std::vector<ComponentMetadata> stack = {Comp(4, 500), Comp(3, 500),
                                          Comp(2, 500), Comp(1, 500)};
  auto decision = policy.PickMerge(stack);
  ASSERT_TRUE(decision.has_value());
  EXPECT_EQ(decision->input_ids, (std::vector<uint64_t>{3, 2, 1}));
  EXPECT_EQ(decision->target_level, 0u);
  EXPECT_EQ(decision->output_split_bytes, 0u);
}

TEST(TieredMergePolicy, MaxWidthTruncatesTheMergeWindow) {
  // Five similar components with max_width 3: the merge takes exactly the
  // three oldest, never the whole run.
  TieredMergePolicy policy(1.5, 3, 3);
  std::vector<ComponentMetadata> stack;
  for (uint64_t id = 5; id >= 1; --id) stack.push_back(Comp(id, 100));
  auto decision = policy.PickMerge(stack);
  ASSERT_TRUE(decision.has_value());
  EXPECT_EQ(decision->input_ids, (std::vector<uint64_t>{3, 2, 1}));
}

TEST(TieredMergePolicy, DissimilarOldComponentExcludedFromWindow) {
  // A big, already-merged component at the oldest end must not be chewed
  // into a window of small fresh flushes; the window slides past it.
  TieredMergePolicy policy(1.5, 3, 10);
  std::vector<ComponentMetadata> stack = {Comp(4, 100), Comp(3, 100),
                                          Comp(2, 100), Comp(1, 1 << 20)};
  auto decision = policy.PickMerge(stack);
  ASSERT_TRUE(decision.has_value());
  EXPECT_EQ(decision->input_ids, (std::vector<uint64_t>{4, 3, 2}));
}

// ----------------------------------------------------------------- Prefix

TEST(PrefixMergePolicy, SingleComponentStackIsLeftAlone) {
  PrefixMergePolicy policy(/*max_mergable_size=*/1000,
                           /*max_tolerance_count=*/1);
  EXPECT_FALSE(policy.PickMerge({}).has_value());
  EXPECT_FALSE(policy.PickMerge({Comp(1, 10)}).has_value());
}

TEST(PrefixMergePolicy, ByteCapNeverStallsTheTrigger) {
  // Regression: the small-component run (5) exceeds the tolerance (3) but
  // its cumulative size blows past the byte cap after two components. The
  // policy must still merge — at least two components — rather than
  // concluding the capped prefix is within tolerance and stalling forever.
  PrefixMergePolicy policy(1000, 3);
  std::vector<ComponentMetadata> stack;
  for (uint64_t id = 5; id >= 1; --id) stack.push_back(Comp(id, 400));
  auto decision = policy.PickMerge(stack);
  ASSERT_TRUE(decision.has_value());
  EXPECT_EQ(decision->input_ids, (std::vector<uint64_t>{5, 4}));
}

TEST(PrefixMergePolicy, TakesLongestPrefixUnderTheCap) {
  PrefixMergePolicy policy(1000, 3);
  std::vector<ComponentMetadata> stack;
  for (uint64_t id = 6; id >= 1; --id) stack.push_back(Comp(id, 100));
  auto decision = policy.PickMerge(stack);
  ASSERT_TRUE(decision.has_value());
  EXPECT_EQ(decision->input_ids, (std::vector<uint64_t>{6, 5, 4, 3, 2, 1}));
}

// ---------------------------------------------------------------- Leveled

TEST(LeveledMergePolicy, Level0TriggerMergesArrivalAreaWithOverlapOnly) {
  LeveledPolicyOptions options;
  options.level0_limit = 2;
  LeveledMergePolicy policy(options);
  // Three L0 components (over the limit) plus two L1 partitions: only the
  // partition whose range intersects the arrival area joins the merge.
  std::vector<ComponentMetadata> stack = {
      LevComp(10, 0, 0, 10, 100),   LevComp(11, 0, 5, 15, 100),
      LevComp(12, 0, 20, 30, 100),  LevComp(1, 1, 0, 12, 500),
      LevComp(2, 1, 100, 200, 500),
  };
  auto decision = policy.PickMerge(stack);
  ASSERT_TRUE(decision.has_value());
  EXPECT_EQ(decision->target_level, 1u);
  EXPECT_EQ(decision->input_ids, (std::vector<uint64_t>{10, 11, 12, 1}));
  EXPECT_EQ(decision->output_split_bytes, 0u);
}

TEST(LeveledMergePolicy, BelowLimitIsQuiescent) {
  LeveledPolicyOptions options;
  options.level0_limit = 2;
  LeveledMergePolicy policy(options);
  std::vector<ComponentMetadata> stack = {LevComp(10, 0, 0, 10, 100),
                                          LevComp(11, 0, 5, 15, 100),
                                          LevComp(1, 1, 0, 12, 500)};
  EXPECT_FALSE(policy.PickMerge(stack).has_value());
}

TEST(LeveledMergePolicy, CapacityPromotionPicksMinOverlapVictim) {
  LeveledPolicyOptions options;
  options.level0_limit = 4;
  options.base_level_bytes = 1000;
  options.level_size_ratio = 10.0;
  LeveledMergePolicy policy(options);
  // Level 1 holds 1600 > 1000 bytes. Component 1 overlaps a fat L2
  // partition; component 2 overlaps nothing — it is the cheaper promotion
  // and must be the single input, targeted one level down.
  std::vector<ComponentMetadata> stack = {
      LevComp(1, 1, 0, 10, 800),
      LevComp(2, 1, 50, 60, 800),
      LevComp(3, 2, 0, 20, 5000),
  };
  auto decision = policy.PickMerge(stack);
  ASSERT_TRUE(decision.has_value());
  EXPECT_EQ(decision->target_level, 2u);
  EXPECT_EQ(decision->input_ids, (std::vector<uint64_t>{2}));
}

TEST(LeveledMergePolicy, PromotionDragsOverlappingNextLevelPartitions) {
  LeveledPolicyOptions options;
  options.level0_limit = 4;
  options.base_level_bytes = 1000;
  LeveledMergePolicy policy(options);
  // One over-capacity L1 component overlapping two of three L2 partitions.
  std::vector<ComponentMetadata> stack = {
      LevComp(1, 1, 5, 25, 2000),
      LevComp(2, 2, 0, 10, 300),
      LevComp(3, 2, 20, 30, 300),
      LevComp(4, 2, 50, 60, 300),
  };
  auto decision = policy.PickMerge(stack);
  ASSERT_TRUE(decision.has_value());
  EXPECT_EQ(decision->target_level, 2u);
  EXPECT_EQ(decision->input_ids, (std::vector<uint64_t>{1, 2, 3}));
}

TEST(LeveledMergePolicy, PartitionedHygieneResplitsOvergrownPartition) {
  LeveledPolicyOptions options;
  options.level0_limit = 4;
  options.base_level_bytes = 1 << 30;  // capacity never triggers
  options.partition_split_bytes = 1000;
  LeveledMergePolicy policy(options);
  std::vector<ComponentMetadata> stack = {LevComp(1, 1, 0, 10, 900),
                                          LevComp(2, 1, 20, 30, 2500)};
  auto decision = policy.PickMerge(stack);
  ASSERT_TRUE(decision.has_value());
  // Single-input, same-level re-split of the overgrown partition only.
  EXPECT_EQ(decision->input_ids, (std::vector<uint64_t>{2}));
  EXPECT_EQ(decision->target_level, 1u);
  EXPECT_EQ(decision->output_split_bytes, 1000u);
}

TEST(MergePolicyFactory, KnownNamesAndUnknownName) {
  for (const char* name :
       {"nomerge", "constant", "prefix", "tiered", "leveled", "partitioned"}) {
    EXPECT_NE(MakeMergePolicyByName(name), nullptr) << name;
  }
  EXPECT_EQ(MakeMergePolicyByName("bogus"), nullptr);
  // The partitioned factory variant really is the split-bytes one.
  auto partitioned = std::dynamic_pointer_cast<LeveledMergePolicy>(
      MakeMergePolicyByName("partitioned"));
  ASSERT_NE(partitioned, nullptr);
  EXPECT_GT(partitioned->options().partition_split_bytes, 0u);
}

// --------------------------------------------------------------- Manifest

class ManifestTest : public ::testing::Test {
 protected:
  void SetUp() override {
    char tmpl[] = "/tmp/lsmstats_manifest_XXXXXX";
    dir_ = ::mkdtemp(tmpl);
  }
  void TearDown() override { std::filesystem::remove_all(dir_); }
  std::string dir_;
};

TEST_F(ManifestTest, RoundTripsStackLevelsAndPendingMerge) {
  Env* env = Env::Default();
  EXPECT_FALSE(ReadComponentManifest(env, dir_, "t").value().has_value());

  ComponentManifest manifest;
  manifest.stack = {{7, 0}, {5, 1}, {6, 1}, {2, 3}};
  manifest.next_component_id = 9;
  ManifestPendingMerge pending;
  pending.target_level = 2;
  pending.input_ids = {5, 6, 2};
  pending.output_ids = {8};
  manifest.pending = pending;
  ASSERT_TRUE(WriteComponentManifest(env, dir_, "t", manifest).ok());

  auto read = ReadComponentManifest(env, dir_, "t");
  ASSERT_TRUE(read.ok()) << read.status().ToString();
  ASSERT_TRUE(read->has_value());
  const ComponentManifest& got = **read;
  ASSERT_EQ(got.stack.size(), 4u);
  for (size_t i = 0; i < got.stack.size(); ++i) {
    EXPECT_EQ(got.stack[i].id, manifest.stack[i].id) << i;
    EXPECT_EQ(got.stack[i].level, manifest.stack[i].level) << i;
  }
  EXPECT_EQ(got.next_component_id, 9u);
  ASSERT_TRUE(got.pending.has_value());
  EXPECT_EQ(got.pending->target_level, 2u);
  EXPECT_EQ(got.pending->input_ids, pending.input_ids);
  EXPECT_EQ(got.pending->output_ids, pending.output_ids);

  // A rewrite without a pending record replaces the file atomically.
  manifest.pending.reset();
  ASSERT_TRUE(WriteComponentManifest(env, dir_, "t", manifest).ok());
  read = ReadComponentManifest(env, dir_, "t");
  ASSERT_TRUE(read.ok());
  EXPECT_FALSE((*read)->pending.has_value());
}

TEST_F(ManifestTest, CorruptionIsDetectedByTheChecksum) {
  Env* env = Env::Default();
  ComponentManifest manifest;
  manifest.stack = {{1, 0}, {2, 0}};
  manifest.next_component_id = 3;
  ASSERT_TRUE(WriteComponentManifest(env, dir_, "t", manifest).ok());
  std::string path = ComponentManifestPath(dir_, "t");
  {
    std::fstream file(path, std::ios::in | std::ios::out | std::ios::binary);
    ASSERT_TRUE(file.good());
    file.seekp(10);
    char byte = 0;
    file.seekg(10);
    file.get(byte);
    byte = static_cast<char>(byte ^ 0x40);
    file.seekp(10);
    file.put(byte);
  }
  auto read = ReadComponentManifest(env, dir_, "t");
  ASSERT_FALSE(read.ok());
  EXPECT_EQ(read.status().code(), StatusCode::kCorruption)
      << read.status().ToString();
}

TEST_F(ManifestTest, OversizedCountsAreCorruption) {
  Env* env = Env::Default();
  ComponentManifest manifest;
  manifest.next_component_id = 9;
  manifest.pending = ManifestPendingMerge{};
  manifest.pending->target_level = 1;
  ASSERT_TRUE(WriteComponentManifest(env, dir_, "t", manifest).ok());
  const std::string path = ComponentManifestPath(dir_, "t");
  std::string written;
  {
    std::ifstream in(path, std::ios::binary);
    written.assign(std::istreambuf_iterator<char>(in), {});
  }
  // [magic u64][version 1][next id 9][stack size 0][pending 1][target 1]
  // [inputs 0][outputs 0][crc u32]: each count is one zero byte.
  ASSERT_EQ(written.size(), 8u + 7u + 4u);
  for (size_t count_at : {10, 13, 14}) {
    Encoder huge;
    huge.PutVarint64(uint64_t{1} << 62);
    std::string bytes = written.substr(0, written.size() - 4);
    ASSERT_EQ(bytes[count_at], '\0');
    bytes.replace(count_at, 1, huge.buffer());
    Encoder crc;
    crc.PutU32(crc32c::Value(bytes));
    bytes += crc.buffer();
    {
      std::ofstream out(path, std::ios::binary | std::ios::trunc);
      out.write(bytes.data(), static_cast<std::streamsize>(bytes.size()));
    }
    auto read = ReadComponentManifest(env, dir_, "t");
    ASSERT_FALSE(read.ok()) << "count at byte " << count_at;
    EXPECT_EQ(read.status().code(), StatusCode::kCorruption)
        << read.status().ToString();
  }
}

// ------------------------------------------------------ end-to-end leveled

class LeveledTreeTest : public ::testing::Test {
 protected:
  void SetUp() override {
    char tmpl[] = "/tmp/lsmstats_leveled_XXXXXX";
    dir_ = ::mkdtemp(tmpl);
  }
  void TearDown() override { std::filesystem::remove_all(dir_); }

  // Within every level >= 1 the key ranges must be pairwise disjoint — the
  // leveling invariant, asserted from the outside so it also holds in
  // release builds where the tree's internal debug check is compiled out.
  static void AssertLevelsNonOverlapping(
      const std::vector<ComponentMetadata>& components) {
    std::map<uint32_t, std::vector<ComponentMetadata>> by_level;
    for (const ComponentMetadata& md : components) {
      if (md.level >= 1 && md.record_count + md.anti_matter_count > 0) {
        by_level[md.level].push_back(md);
      }
    }
    for (auto& [level, run] : by_level) {
      std::sort(run.begin(), run.end(),
                [](const ComponentMetadata& a, const ComponentMetadata& b) {
                  return a.min_key < b.min_key;
                });
      for (size_t i = 1; i < run.size(); ++i) {
        EXPECT_LT(run[i - 1].max_key.k0, run[i].min_key.k0)
            << "overlap at level " << level << " between component "
            << run[i - 1].id << " and " << run[i].id;
      }
    }
  }

  std::string dir_;
};

TEST_F(LeveledTreeTest, LevelsStayNonOverlappingUnderRandomChurn) {
  LeveledPolicyOptions policy_options;
  policy_options.level0_limit = 2;
  policy_options.base_level_bytes = 16 << 10;
  policy_options.level_size_ratio = 2.0;
  LsmTreeOptions options;
  options.directory = dir_;
  options.memtable_max_entries = 128;
  options.merge_policy = std::make_shared<LeveledMergePolicy>(policy_options);
  auto tree = LsmTree::Open(options).value();

  std::map<int64_t, std::string> model;
  Random rng(42);
  for (int i = 0; i < 6000; ++i) {
    int64_t key = static_cast<int64_t>(rng.Uniform(2000));
    if (rng.Bernoulli(0.8)) {
      std::string value = "value-" + std::to_string(i);
      bool fresh = model.find(key) == model.end();
      ASSERT_TRUE(tree->Put(PrimaryKey(key), value, fresh).ok());
      model[key] = value;
    } else if (model.count(key)) {
      ASSERT_TRUE(tree->Delete(PrimaryKey(key)).ok());
      model.erase(key);
    }
    // Every flush may reshape the levels; probe the invariant periodically.
    if (i % 1000 == 999) {
      AssertLevelsNonOverlapping(tree->ComponentsMetadata());
    }
  }
  ASSERT_TRUE(tree->Flush().ok());

  auto metadata = tree->ComponentsMetadata();
  AssertLevelsNonOverlapping(metadata);
  uint32_t max_level = 0;
  for (const ComponentMetadata& md : metadata) {
    max_level = std::max(max_level, md.level);
  }
  EXPECT_GE(max_level, 1u) << "workload never formed a deep level";
  EXPECT_GT(tree->Health().merges_completed, 0u);

  // The tree still reads exactly like the model.
  EXPECT_EQ(
      tree->ScanCount(PrimaryKey(INT64_MIN), PrimaryKey(INT64_MAX)).value(),
      model.size());
  for (int64_t key = 0; key < 2000; key += 7) {
    std::string value;
    Status s = tree->Get(PrimaryKey(key), &value);
    auto it = model.find(key);
    if (it == model.end()) {
      EXPECT_EQ(s.code(), StatusCode::kNotFound) << key;
    } else {
      ASSERT_TRUE(s.ok()) << key;
      EXPECT_EQ(value, it->second) << key;
    }
  }

  // Reopening from the manifest reproduces the same levels and contents.
  tree.reset();
  LsmTreeOptions reopen = options;
  auto reopened = LsmTree::Open(reopen).value();
  AssertLevelsNonOverlapping(reopened->ComponentsMetadata());
  EXPECT_EQ(reopened->ScanCount(PrimaryKey(INT64_MIN), PrimaryKey(INT64_MAX))
                .value(),
            model.size());
}

// Runs the same two-phase workload (broad ingest, then narrow-range churn)
// and returns Health() at the end. `split` selects partitioned leveling.
HealthSnapshot RunTwoPhaseWorkload(const std::string& dir, uint64_t split,
                                   std::map<int64_t, std::string>* model) {
  LeveledPolicyOptions policy_options;
  policy_options.level0_limit = 2;
  policy_options.base_level_bytes = 1 << 30;  // L0 -> L1 merges only
  policy_options.partition_split_bytes = split;
  LsmTreeOptions options;
  options.directory = dir;
  options.memtable_max_entries = 1 << 20;  // flushes driven explicitly
  options.merge_policy = std::make_shared<LeveledMergePolicy>(policy_options);
  auto tree = LsmTree::Open(options).value();

  std::string payload(100, 'p');
  // Phase 1: broad ingest across [0, 4000) builds a populated level 1.
  for (int64_t batch = 0; batch < 80; ++batch) {
    for (int64_t i = 0; i < 50; ++i) {
      int64_t key = batch * 50 + i;
      EXPECT_TRUE(tree->Put(PrimaryKey(key), payload, true).ok());
      (*model)[key] = payload;
    }
    EXPECT_TRUE(tree->Flush().ok());
  }
  // Phase 2: updates confined to [0, 200) — merges only ever need to touch
  // the partitions covering that range.
  for (int64_t round = 0; round < 12; ++round) {
    for (int64_t key = 0; key < 200; key += 4) {
      std::string value = "u" + std::to_string(round) + payload;
      EXPECT_TRUE(tree->Put(PrimaryKey(key), value, false).ok());
      (*model)[key] = value;
    }
    EXPECT_TRUE(tree->Flush().ok());
  }

  // Readback sanity for both variants.
  EXPECT_EQ(
      tree->ScanCount(PrimaryKey(INT64_MIN), PrimaryKey(INT64_MAX)).value(),
      model->size());
  for (int64_t key = 0; key < 4000; key += 401) {
    std::string value;
    EXPECT_TRUE(tree->Get(PrimaryKey(key), &value).ok()) << key;
    EXPECT_EQ(value, (*model)[key]) << key;
  }
  return tree->Health();
}

TEST_F(LeveledTreeTest, PartitionedMergesRewriteOnlyOverlappingPartitions) {
  std::map<int64_t, std::string> leveled_model;
  HealthSnapshot leveled =
      RunTwoPhaseWorkload(dir_ + "_lv", /*split=*/0, &leveled_model);
  std::filesystem::remove_all(dir_ + "_lv");
  std::map<int64_t, std::string> partitioned_model;
  HealthSnapshot partitioned =
      RunTwoPhaseWorkload(dir_, /*split=*/16 << 10, &partitioned_model);

  ASSERT_GT(leveled.merges_completed, 0u);
  ASSERT_GT(partitioned.merges_completed, 0u);
  // Monolithic leveling rewrites all of level 1 on every narrow-range
  // merge; partitioning only rewrites the partitions the update range
  // overlaps, so its lifetime write volume must be far smaller.
  EXPECT_LT(partitioned.merge_bytes_written, leveled.merge_bytes_written / 2)
      << "partitioned=" << partitioned.merge_bytes_written
      << " leveled=" << leveled.merge_bytes_written;
  // And the partitions are real: level 1 holds several components.
  uint64_t level1_components = 0;
  for (const LevelStats& level : partitioned.levels) {
    if (level.level == 1) level1_components = level.components;
  }
  EXPECT_GT(level1_components, 3u);
}

// ------------------------------------------------------- manifest recovery

TEST_F(LeveledTreeTest, ReopenAfterMidStackMergePreservesRecencyOrder) {
  // A merge of the two OLDEST components gives the output a higher id than
  // the untouched newest component. Id-order recovery would stack the
  // output (holding the stale value) on top; the manifest must preserve
  // true recency across reopen.
  LsmTreeOptions options;
  options.directory = dir_;
  options.memtable_max_entries = 1 << 20;
  options.merge_policy = std::make_shared<ConstantMergePolicy>(2);
  {
    auto tree = LsmTree::Open(options).value();
    ASSERT_TRUE(tree->Put(PrimaryKey(7), "stale", true).ok());
    ASSERT_TRUE(tree->Flush().ok());  // component 1
    ASSERT_TRUE(tree->Put(PrimaryKey(100), "filler", true).ok());
    ASSERT_TRUE(tree->Flush().ok());  // component 2
    ASSERT_TRUE(tree->Put(PrimaryKey(7), "fresh", false).ok());
    ASSERT_TRUE(tree->Flush().ok());
    // Constant(2) merged components 1+2 (which hold "stale") into an output
    // whose id exceeds the id of the component holding "fresh".
    ASSERT_EQ(tree->ComponentCount(), 2u);
    std::string value;
    ASSERT_TRUE(tree->Get(PrimaryKey(7), &value).ok());
    ASSERT_EQ(value, "fresh");
  }
  // Reopen with a merge-free policy: recovery order is all that matters.
  options.merge_policy = std::make_shared<NoMergePolicy>();
  auto tree = LsmTree::Open(options).value();
  std::string value;
  ASSERT_TRUE(tree->Get(PrimaryKey(7), &value).ok());
  EXPECT_EQ(value, "fresh");
  ASSERT_TRUE(tree->Get(PrimaryKey(100), &value).ok());
  EXPECT_EQ(value, "filler");
  EXPECT_EQ(
      tree->ScanCount(PrimaryKey(INT64_MIN), PrimaryKey(INT64_MAX)).value(),
      2u);
}

TEST_F(LeveledTreeTest, ReopenDeletesPendingMergeOutputsAndStaleInputs) {
  Env* env = Env::Default();
  LsmTreeOptions options;
  options.directory = dir_;
  options.name = "t";
  options.memtable_max_entries = 1 << 20;
  options.merge_policy = std::make_shared<ConstantMergePolicy>(2);
  std::map<int64_t, std::string> model;
  {
    auto tree = LsmTree::Open(options).value();
    for (int64_t round = 0; round < 4; ++round) {
      for (int64_t key = 0; key < 20; ++key) {
        std::string value = "r" + std::to_string(round);
        ASSERT_TRUE(
            tree->Put(PrimaryKey(key), value, model.count(key) == 0).ok());
        model[key] = value;
      }
      ASSERT_TRUE(tree->Flush().ok());
    }
    ASSERT_GT(tree->Health().merges_completed, 0u);
  }

  // Simulate a crash mid-merge: re-write the manifest with a pending merge
  // whose output file exists (garbage — recovery must delete it without
  // opening it) and plant a stale low-id file a crashed unlink left behind.
  auto manifest_or = ReadComponentManifest(env, dir_, "t");
  ASSERT_TRUE(manifest_or.ok());
  ASSERT_TRUE(manifest_or->has_value());
  ComponentManifest manifest = **manifest_or;
  ASSERT_GE(manifest.next_component_id, 2u);
  uint64_t pending_output = manifest.next_component_id + 5;
  ManifestPendingMerge pending;
  pending.target_level = 0;
  for (const ManifestEntry& entry : manifest.stack) {
    pending.input_ids.push_back(entry.id);
  }
  pending.output_ids = {pending_output};
  manifest.pending = pending;
  ASSERT_TRUE(WriteComponentManifest(env, dir_, "t", manifest).ok());
  std::string pending_path =
      dir_ + "/t_" + std::to_string(pending_output) + ".cmp";
  {
    std::ofstream garbage(pending_path, std::ios::binary);
    garbage << "half-written merge output";
  }
  // A stale merge input: id below the high-water mark and not in the stack.
  uint64_t stale_id = 0;
  for (uint64_t id = 1; id < manifest.next_component_id; ++id) {
    bool listed = false;
    for (const ManifestEntry& entry : manifest.stack) {
      if (entry.id == id) listed = true;
    }
    if (!listed) {
      stale_id = id;
      break;
    }
  }
  ASSERT_GT(stale_id, 0u);
  std::string stale_path = dir_ + "/t_" + std::to_string(stale_id) + ".cmp";
  {
    std::ofstream garbage(stale_path, std::ios::binary);
    garbage << "stale merge input the crash failed to unlink";
  }

  auto tree = LsmTree::Open(options).value();
  // Both leftovers are gone, nothing was quarantined, and the committed
  // stack serves the full dataset.
  EXPECT_FALSE(std::filesystem::exists(pending_path));
  EXPECT_FALSE(std::filesystem::exists(stale_path));
  EXPECT_TRUE(tree->QuarantinedFiles().empty());
  EXPECT_EQ(
      tree->ScanCount(PrimaryKey(INT64_MIN), PrimaryKey(INT64_MAX)).value(),
      model.size());
  std::string value;
  for (const auto& [key, expected] : model) {
    ASSERT_TRUE(tree->Get(PrimaryKey(key), &value).ok()) << key;
    EXPECT_EQ(value, expected) << key;
  }
  // The pending output id was burned, never reused: new components get
  // fresh ids above it.
  ASSERT_TRUE(tree->Put(PrimaryKey(999), "post", true).ok());
  ASSERT_TRUE(tree->Flush().ok());
  uint64_t max_id = 0;
  for (const ComponentMetadata& md : tree->ComponentsMetadata()) {
    max_id = std::max(max_id, md.id);
  }
  EXPECT_GT(max_id, pending_output);
}

}  // namespace
}  // namespace lsmstats
