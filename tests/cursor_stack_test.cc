// Seeded differential test of the copy-free cursor stack.
//
// Every layer a range read merges — a snapshot of the mutable memtable,
// frozen memtables read in place, and disk components decoded in place out
// of 128-byte blocks — is generated at random over one small key domain, so
// keys overlap across layers and anti-matter shadows older records. The
// reconciled stream is checked against a std::map over random ranges plus
// the edge ranges (empty, inverted, a single key, the whole domain), both
// through MergeCursor directly (with and without anti-matter dropping, and
// with the mutable memtable's snapshot taken with and without values) and
// through LsmTree::Scan / ScanCount on a tree holding the same three kinds of
// layer. An input that fails partway must stop the merge with its status;
// ScanCount must return that status, never a short count. A snapshot of a
// memtable must keep yielding exactly what it copied once the memtable has
// changed or is gone.

#include <atomic>
#include <condition_variable>
#include <filesystem>
#include <limits>
#include <map>
#include <memory>
#include <mutex>
#include <optional>
#include <string>
#include <utility>
#include <vector>

#include <gtest/gtest.h>

#include "common/env.h"
#include "common/random.h"
#include "lsm/disk_component.h"
#include "lsm/lsm_tree.h"
#include "lsm/memtable.h"
#include "lsm/merge_cursor.h"
#include "lsm/merge_policy.h"
#include "lsm/scheduler.h"

namespace lsmstats {
namespace {

constexpr int64_t kMinSlot = std::numeric_limits<int64_t>::min();
constexpr int64_t kMaxSlot = std::numeric_limits<int64_t>::max();
constexpr int64_t kSecondaryValues = 24;  // key domain: <sk, pk> pairs
constexpr int64_t kPksPerValue = 8;

class TempDir {
 public:
  TempDir() {
    char tmpl[] = "/tmp/lsmstats_cursor_XXXXXX";
    path_ = ::mkdtemp(tmpl);
  }
  ~TempDir() { std::filesystem::remove_all(path_); }
  const std::string& path() const { return path_; }

 private:
  std::string path_;
};

// One layer's contents; nullopt is anti-matter.
using Layer = std::map<LsmKey, std::optional<std::string>>;

LsmKey RandomKey(Random* rng) {
  return SecondaryKey(rng->UniformInRange(0, kSecondaryValues - 1),
                      rng->UniformInRange(0, kPksPerValue - 1));
}

Layer RandomLayer(Random* rng, size_t entries) {
  Layer layer;
  while (layer.size() < entries) {
    const LsmKey key = RandomKey(rng);
    if (rng->Uniform(4) == 0) {
      layer[key] = std::nullopt;
    } else {
      // Values up to 60 bytes: a 128-byte block holds only a few entries,
      // so ranges cross block boundaries.
      layer[key] = std::string(rng->Uniform(61), static_cast<char>(
                                                     'a' + rng->Uniform(26)));
    }
  }
  return layer;
}

// Newest layer first; the first layer holding a key decides it.
std::vector<Entry> Reconcile(const std::vector<Layer>& layers,
                             const LsmKey& lo, const LsmKey& hi,
                             bool drop_anti_matter) {
  std::map<LsmKey, std::optional<std::string>> winners;
  for (const Layer& layer : layers) {
    for (const auto& [key, value] : layer) {
      if (key < lo || hi < key) continue;
      winners.try_emplace(key, value);
    }
  }
  std::vector<Entry> out;
  for (const auto& [key, value] : winners) {
    if (!value.has_value()) {
      if (!drop_anti_matter) out.push_back({key, "", true});
      continue;
    }
    out.push_back({key, *value, false});
  }
  return out;
}

std::vector<Entry> Drain(EntryCursor* cursor) {
  std::vector<Entry> out;
  for (; cursor->Valid(); cursor->Next()) {
    out.push_back(ToEntry(cursor->entry()));
  }
  return out;
}

void ExpectSameEntries(const std::vector<Entry>& expected,
                       const std::vector<Entry>& actual,
                       const std::string& what) {
  ASSERT_EQ(expected.size(), actual.size()) << what;
  for (size_t i = 0; i < expected.size(); ++i) {
    EXPECT_EQ(expected[i].key, actual[i].key) << what << " entry " << i;
    EXPECT_EQ(expected[i].value, actual[i].value) << what << " entry " << i;
    EXPECT_EQ(expected[i].anti_matter, actual[i].anti_matter)
        << what << " entry " << i;
  }
}

// The ranges every check runs over: the edge cases, then random ones.
std::vector<std::pair<LsmKey, LsmKey>> TestRanges(Random* rng,
                                                  const LsmKey& present) {
  std::vector<std::pair<LsmKey, LsmKey>> ranges = {
      // Empty: beyond the domain.
      {SecondaryKey(kSecondaryValues + 5, 0),
       SecondaryKey(kSecondaryValues + 9, 0)},
      // Inverted.
      {SecondaryKey(10, 0), SecondaryKey(3, 0)},
      // A single key that some layer holds.
      {present, present},
      // The whole domain.
      {LsmKey{kMinSlot, kMinSlot, kMinSlot},
       LsmKey{kMaxSlot, kMaxSlot, kMaxSlot}},
  };
  for (int i = 0; i < 24; ++i) {
    LsmKey lo = RandomKey(rng);
    LsmKey hi = RandomKey(rng);
    if (hi < lo) std::swap(lo, hi);
    ranges.emplace_back(lo, hi);
  }
  return ranges;
}

// Passes `inner` through until `fail_after` entries were yielded, then stops
// with an IOError, like a component whose next block read fails.
class FailingCursor final : public EntryCursor {
 public:
  FailingCursor(std::unique_ptr<EntryCursor> inner, size_t fail_after)
      : inner_(std::move(inner)), left_(fail_after) {
    Publish();
  }

  void Next() override {
    if (current_ == nullptr) return;
    inner_->Next();
    Publish();
  }
  [[nodiscard]] Status status() const override { return status_; }

 private:
  void Publish() {
    current_ = nullptr;
    if (left_ == 0) {
      status_ = Status::IOError("injected read failure");
      return;
    }
    --left_;
    if (inner_->Valid()) current_ = &inner_->entry();
  }

  std::unique_ptr<EntryCursor> inner_;
  size_t left_;
  Status status_;
};

// The layers of one MergeCursor stack: a mutable memtable, frozen
// memtables, and components, newest first.
class CursorStack {
 public:
  CursorStack(const std::string& dir, uint64_t seed) {
    Random rng(seed);
    layers_.push_back(RandomLayer(&rng, 30));
    Fill(layers_.back(), &mutable_);
    for (int i = 0; i < 2; ++i) {
      layers_.push_back(RandomLayer(&rng, 30));
      auto frozen = std::make_shared<MemTable>();
      Fill(layers_.back(), frozen.get());
      frozen_.push_back(std::move(frozen));
    }
    ComponentWriteOptions write_options;
    write_options.block_size = 128;
    for (int i = 0; i < 3; ++i) {
      layers_.push_back(RandomLayer(&rng, 60));
      DiskComponentBuilder builder(
          nullptr, dir + "/c" + std::to_string(i) + ".cmp", 60,
          write_options);
      for (const auto& [key, value] : layers_.back()) {
        EXPECT_TRUE(builder
                        .Add(EntryView{key, value.value_or(""),
                                       !value.has_value()})
                        .ok());
      }
      components_.push_back(std::move(builder.Finish(i + 1, i + 1)).value());
      EXPECT_GT(components_.back()->block_count(), 4u);
    }
  }

  const std::vector<Layer>& layers() const { return layers_; }

  // The layers as a keys-only snapshot sees them: the mutable memtable's
  // values read empty.
  std::vector<Layer> LayersKeysOnly() const {
    std::vector<Layer> layers = layers_;
    for (auto& [key, value] : layers.front()) {
      if (value.has_value()) value->clear();
    }
    return layers;
  }

  // One cursor per layer over [lo, hi], the way LsmTree::NewRangeCursor
  // builds them; the mutable memtable's snapshot copies values unless
  // `keys_only`. `fail_input` (if set) fails after `fail_after` entries.
  std::vector<std::unique_ptr<EntryCursor>> Inputs(
      const LsmKey& lo, const LsmKey& hi, bool keys_only = false,
      std::optional<size_t> fail_input = std::nullopt,
      size_t fail_after = 0) const {
    std::vector<std::unique_ptr<EntryCursor>> inputs;
    inputs.push_back(mutable_.NewSnapshotCursor(lo, hi, keys_only));
    for (const auto& frozen : frozen_) {
      inputs.push_back(MemTable::NewFrozenCursor(frozen, lo, hi));
    }
    for (const auto& component : components_) {
      inputs.push_back(component->NewCursor(lo, hi));
    }
    if (fail_input.has_value()) {
      inputs[*fail_input] = std::make_unique<FailingCursor>(
          std::move(inputs[*fail_input]), fail_after);
    }
    return inputs;
  }

 private:
  static void Fill(const Layer& layer, MemTable* memtable) {
    for (const auto& [key, value] : layer) {
      if (value.has_value()) {
        memtable->Put(key, *value, /*fresh_insert=*/false);
      } else {
        memtable->PutAntiMatter(key);
      }
    }
  }

  std::vector<Layer> layers_;
  MemTable mutable_;
  std::vector<std::shared_ptr<const MemTable>> frozen_;
  std::vector<std::shared_ptr<DiskComponent>> components_;
};

TEST(CursorStack, MergeCursorMatchesReconciliation) {
  for (uint64_t seed = 1; seed <= 8; ++seed) {
    TempDir dir;
    CursorStack stack(dir.path(), seed);
    Random rng(seed * 31 + 7);
    const LsmKey present = stack.layers()[3].begin()->first;
    const std::vector<Layer> keys_only_layers = stack.LayersKeysOnly();
    for (const auto& [lo, hi] : TestRanges(&rng, present)) {
      for (bool keys_only : {false, true}) {
        for (bool drop : {true, false}) {
          MergeCursor merged(stack.Inputs(lo, hi, keys_only), drop);
          std::vector<Entry> actual = Drain(&merged);
          EXPECT_TRUE(merged.status().ok()) << merged.status().ToString();
          // Exhausted: further Next() calls stay put.
          merged.Next();
          EXPECT_FALSE(merged.Valid());
          ExpectSameEntries(
              Reconcile(keys_only ? keys_only_layers : stack.layers(), lo, hi,
                        drop),
              actual,
              "seed " + std::to_string(seed) + (drop ? " drop" : " keep") +
                  (keys_only ? " keys-only" : ""));
        }
      }
    }
  }
}

TEST(CursorStack, FailingInputStopsTheMergeWithItsStatus) {
  TempDir dir;
  CursorStack stack(dir.path(), 42);
  const LsmKey lo{kMinSlot, kMinSlot, kMinSlot};
  const LsmKey hi{kMaxSlot, kMaxSlot, kMaxSlot};
  const size_t total =
      Reconcile(stack.layers(), lo, hi, /*drop_anti_matter=*/false).size();
  for (size_t input = 0; input < stack.layers().size(); ++input) {
    for (bool drop : {true, false}) {
      MergeCursor merged(
          stack.Inputs(lo, hi, /*keys_only=*/false, input, /*fail_after=*/5),
          drop);
      const size_t yielded = Drain(&merged).size();
      EXPECT_EQ(merged.status().code(), StatusCode::kIOError)
          << "input " << input;
      EXPECT_LT(yielded, total) << "input " << input;
      merged.Next();
      EXPECT_FALSE(merged.Valid());
      EXPECT_EQ(merged.status().code(), StatusCode::kIOError);
    }
  }
}

TEST(CursorStack, MemTableSnapshotsOutliveMutationAndTheMemTable) {
  for (uint64_t seed = 1; seed <= 8; ++seed) {
    SCOPED_TRACE("seed " + std::to_string(seed));
    Random rng(seed);
    auto memtable = std::make_unique<MemTable>();
    const Layer layer = RandomLayer(&rng, 60);
    std::vector<LsmKey> fresh;  // inserted fresh: a Delete annihilates them
    for (const auto& [key, value] : layer) {
      if (!value.has_value()) {
        memtable->PutAntiMatter(key);
      } else {
        const bool is_fresh = rng.Uniform(2) == 0;
        memtable->Put(key, *value, is_fresh);
        if (is_fresh) fresh.push_back(key);
      }
    }
    ASSERT_FALSE(fresh.empty());

    struct Snapshot {
      std::unique_ptr<EntryCursor> cursor;
      std::vector<Entry> expected;
      std::string what;
    };
    std::vector<Snapshot> snapshots;
    for (const auto& [lo, hi] : TestRanges(&rng, layer.begin()->first)) {
      for (bool keys_only : {false, true}) {
        std::vector<Entry> expected =
            Reconcile({layer}, lo, hi, /*drop_anti_matter=*/false);
        if (keys_only) {
          for (Entry& entry : expected) entry.value.clear();
        }
        snapshots.push_back({memtable->NewSnapshotCursor(lo, hi, keys_only),
                             std::move(expected),
                             keys_only ? "keys-only" : "values"});
      }
    }

    // Annihilate the fresh inserts, then overwrite or anti-matter every key
    // of the domain, and drop the memtable.
    const uint64_t before = memtable->EntryCount();
    for (const LsmKey& key : fresh) memtable->Delete(key);
    EXPECT_EQ(memtable->EntryCount(), before - fresh.size());
    for (int64_t sk = 0; sk < kSecondaryValues; ++sk) {
      for (int64_t pk = 0; pk < kPksPerValue; ++pk) {
        const LsmKey key = SecondaryKey(sk, pk);
        if (rng.Uniform(3) == 0) {
          memtable->PutAntiMatter(key);
        } else {
          memtable->Put(key, std::string(rng.Uniform(61), 'z'),
                        /*fresh_insert=*/false);
        }
      }
    }
    memtable.reset();

    for (Snapshot& snapshot : snapshots) {
      ExpectSameEntries(snapshot.expected, Drain(snapshot.cursor.get()),
                        snapshot.what);
      EXPECT_TRUE(snapshot.cursor->status().ok());
    }
  }
}

// Serves reads through the default Env, except that once armed, any read of
// a component (`.cmp`) file past its first bytes fails: the first data block
// of each component reads fine, a later one does not.
class FailingReadEnv : public Env {
 public:
  void Arm(bool armed) { armed_ = armed; }

  StatusOr<std::unique_ptr<WritableFile>> NewWritableFile(
      const std::string& path) override {
    return Env::Default()->NewWritableFile(path);
  }
  StatusOr<std::shared_ptr<RandomAccessFile>> NewRandomAccessFile(
      const std::string& path) override {
    auto file = Env::Default()->NewRandomAccessFile(path);
    if (!file.ok() || path.find(".cmp") == std::string::npos) return file;
    return std::shared_ptr<RandomAccessFile>(
        std::make_shared<File>(std::move(file).value(), &armed_));
  }
  Status CreateDirIfMissing(const std::string& path) override {
    return Env::Default()->CreateDirIfMissing(path);
  }
  Status RemoveFileIfExists(const std::string& path) override {
    return Env::Default()->RemoveFileIfExists(path);
  }
  bool FileExists(const std::string& path) override {
    return Env::Default()->FileExists(path);
  }
  Status RenameFile(const std::string& from, const std::string& to) override {
    return Env::Default()->RenameFile(from, to);
  }
  Status SyncDir(const std::string& path) override {
    return Env::Default()->SyncDir(path);
  }
  Status TruncateFile(const std::string& path, uint64_t size) override {
    return Env::Default()->TruncateFile(path, size);
  }
  Status ListDir(const std::string& path,
                 std::vector<std::string>* names) override {
    return Env::Default()->ListDir(path, names);
  }

 private:
  class File : public RandomAccessFile {
   public:
    File(std::shared_ptr<RandomAccessFile> base, const std::atomic<bool>* armed)
        : base_(std::move(base)), armed_(armed) {}
    Status Read(uint64_t offset, size_t n, std::string* out) const override {
      if (armed_->load() && offset > 0) {
        return Status::IOError("injected component read failure");
      }
      return base_->Read(offset, n, out);
    }
    uint64_t size() const override { return base_->size(); }

   private:
    std::shared_ptr<RandomAccessFile> base_;
    const std::atomic<bool>* armed_;
  };

  std::atomic<bool> armed_{false};
};

// Holds the scheduler's only worker until released, so rotated memtables
// stay frozen in the tree instead of being flushed.
class WorkerGate {
 public:
  explicit WorkerGate(BackgroundScheduler* scheduler) {
    scheduler->Schedule([this] {
      std::unique_lock<std::mutex> lock(mu_);
      entered_ = true;
      cv_.notify_all();
      cv_.wait(lock, [this] { return released_; });
    });
    std::unique_lock<std::mutex> lock(mu_);
    cv_.wait(lock, [this] { return entered_; });
  }
  ~WorkerGate() { Release(); }

  void Release() {
    std::lock_guard<std::mutex> lock(mu_);
    released_ = true;
    cv_.notify_all();
  }

 private:
  std::mutex mu_;
  std::condition_variable cv_;
  bool entered_ = false;
  bool released_ = false;
};

class TreeCursorStackTest : public ::testing::Test {
 protected:
  static constexpr uint64_t kMemtableEntries = 24;

  void Build(uint64_t seed) {
    LsmTreeOptions options;
    options.directory = dir_.path();
    options.memtable_max_entries = kMemtableEntries;
    options.merge_policy = std::make_shared<NoMergePolicy>();
    options.scheduler = &scheduler_;
    options.max_immutable_memtables = 8;
    options.write_options.block_size = 128;
    options.env = &env_;
    tree_ = std::move(LsmTree::Open(options)).value();
    Random rng(seed);
    // Components: three flushed memtables.
    for (int c = 0; c < 3; ++c) {
      for (uint64_t i = 0; i < kMemtableEntries - 1; ++i) Write(&rng);
      ASSERT_TRUE(tree_->Flush().ok());
    }
    ASSERT_EQ(tree_->ComponentCount(), 3u);
    // Frozen memtables: rotations whose flushes cannot run yet.
    gate_ = std::make_unique<WorkerGate>(&scheduler_);
    while (tree_->ImmutableMemTableCount() < 2) Write(&rng);
    // The mutable memtable, well short of rotating.
    for (uint64_t i = 0; i < kMemtableEntries / 4; ++i) Write(&rng);
    ASSERT_EQ(tree_->ImmutableMemTableCount(), 2u);
    ASSERT_GT(tree_->MemTableEntryCount(), 0u);
  }

  void TearDown() override {
    env_.Arm(false);
    if (gate_ != nullptr) gate_->Release();
    if (tree_ != nullptr) scheduler_.Drain();
    tree_.reset();
  }

  void Write(Random* rng) {
    const LsmKey key = RandomKey(rng);
    if (rng->Uniform(4) == 0) {
      ASSERT_TRUE(tree_->PutAntiMatter(key).ok());
      oracle_[key] = std::nullopt;
    } else {
      std::string value(rng->Uniform(61), 'v');
      ASSERT_TRUE(tree_->Put(key, value).ok());
      oracle_[key] = std::move(value);
    }
  }

  std::vector<Entry> Expected(const LsmKey& lo, const LsmKey& hi) const {
    return Reconcile({oracle_}, lo, hi, /*drop_anti_matter=*/true);
  }

  TempDir dir_;
  FailingReadEnv env_;
  BackgroundScheduler scheduler_{1};
  std::unique_ptr<WorkerGate> gate_;
  std::unique_ptr<LsmTree> tree_;
  Layer oracle_;  // the latest write per key
};

TEST_F(TreeCursorStackTest, ScanAndScanCountMatchReconciliation) {
  for (uint64_t seed = 1; seed <= 4; ++seed) {
    SCOPED_TRACE("seed " + std::to_string(seed));
    TearDown();
    oracle_.clear();
    std::filesystem::remove_all(dir_.path());
    std::filesystem::create_directories(dir_.path());
    Build(seed);
    Random rng(seed * 17 + 3);
    const LsmKey present = oracle_.begin()->first;
    for (const auto& [lo, hi] : TestRanges(&rng, present)) {
      std::vector<Entry> expected = Expected(lo, hi);
      std::vector<Entry> scanned;
      ASSERT_TRUE(tree_->Scan(lo, hi, [&](const EntryView& e) {
                     scanned.push_back(ToEntry(e));
                   }).ok());
      ExpectSameEntries(expected, scanned, "Scan");
      auto count = tree_->ScanCount(lo, hi);
      ASSERT_TRUE(count.ok()) << count.status().ToString();
      EXPECT_EQ(*count, expected.size());
    }
  }
}

TEST_F(TreeCursorStackTest, ScanCountReturnsReadErrorNotShortCount) {
  Build(9);
  const LsmKey lo{kMinSlot, kMinSlot, kMinSlot};
  const LsmKey hi{kMaxSlot, kMaxSlot, kMaxSlot};
  ASSERT_GT(Expected(lo, hi).size(), 0u);
  env_.Arm(true);
  auto count = tree_->ScanCount(lo, hi);
  EXPECT_EQ(count.status().code(), StatusCode::kIOError)
      << (count.ok() ? "count " + std::to_string(*count)
                     : count.status().ToString());
  size_t scanned = 0;
  Status s = tree_->Scan(lo, hi, [&](const EntryView&) { ++scanned; });
  EXPECT_EQ(s.code(), StatusCode::kIOError);
  EXPECT_LT(scanned, Expected(lo, hi).size());
}

}  // namespace
}  // namespace lsmstats
