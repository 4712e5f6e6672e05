#include "lsm/memtable.h"

#include <string_view>
#include <utility>
#include <vector>

namespace lsmstats {

namespace {
constexpr uint64_t kPerEntryOverhead = 64;  // map node + key + flags
}  // namespace

std::pair<MemTable::Map::const_iterator, MemTable::Map::const_iterator>
MemTable::Range(const LsmKey& lo, const LsmKey& hi) const {
  auto end = entries_.upper_bound(hi);
  // An inverted range is empty; lower_bound(lo) would lie past `end`.
  return {hi < lo ? end : entries_.lower_bound(lo), end};
}

class MemTable::FrozenCursor final : public EntryCursor {
 public:
  using Iterator = Map::const_iterator;

  FrozenCursor(std::shared_ptr<const MemTable> memtable, Iterator begin,
               Iterator end)
      : memtable_(std::move(memtable)), it_(begin), end_(end) {
    Load();
  }

  void Next() override {
    if (current_ == nullptr) return;
    ++it_;
    Load();
  }
  [[nodiscard]] Status status() const override { return Status::OK(); }

 private:
  void Load() {
    if (it_ == end_) {
      current_ = nullptr;
      return;
    }
    view_ = EntryView{it_->first, it_->second.value, it_->second.anti_matter};
    current_ = &view_;
  }

  std::shared_ptr<const MemTable> memtable_;
  Iterator it_;
  Iterator end_;
  EntryView view_;
};

std::unique_ptr<EntryCursor> MemTable::NewFrozenCursor(
    std::shared_ptr<const MemTable> memtable) {
  auto begin = memtable->entries_.begin();
  auto end = memtable->entries_.end();
  return std::make_unique<FrozenCursor>(std::move(memtable), begin, end);
}

std::unique_ptr<EntryCursor> MemTable::NewFrozenCursor(
    std::shared_ptr<const MemTable> memtable, const LsmKey& lo,
    const LsmKey& hi) {
  auto [begin, end] = memtable->Range(lo, hi);
  return std::make_unique<FrozenCursor>(std::move(memtable), begin, end);
}

// Owns a copy of a range: the views, and the one buffer that holds their
// values' bytes back to back.
class MemTable::SnapshotCursor final : public EntryCursor {
 public:
  // `views` still point at the memtable's values; they are repointed here,
  // once `values` sits where it stays (moving a short string moves its
  // bytes).
  SnapshotCursor(std::vector<EntryView> views, std::string values)
      : views_(std::move(views)), values_(std::move(values)) {
    size_t offset = 0;
    for (EntryView& view : views_) {
      view.value = std::string_view(values_).substr(offset, view.value.size());
      offset += view.value.size();
    }
    Load();
  }

  void Next() override {
    if (current_ == nullptr) return;
    ++pos_;
    Load();
  }
  [[nodiscard]] Status status() const override { return Status::OK(); }

 private:
  void Load() {
    current_ = pos_ < views_.size() ? &views_[pos_] : nullptr;
  }

  std::vector<EntryView> views_;
  std::string values_;
  size_t pos_ = 0;
};

std::unique_ptr<EntryCursor> MemTable::NewSnapshotCursor(
    const LsmKey& lo, const LsmKey& hi) const {
  std::vector<EntryView> views;
  std::string values;
  for (auto [it, end] = Range(lo, hi); it != end; ++it) {
    const EntryState& state = it->second;
    views.push_back(EntryView{it->first, state.value, state.anti_matter});
    values += state.value;
  }
  return std::make_unique<SnapshotCursor>(std::move(views), std::move(values));
}

class MemTable::FrozenKeyCursor final : public KeyRunCursor {
 public:
  FrozenKeyCursor(std::shared_ptr<const MemTable> memtable,
                  Map::const_iterator begin, Map::const_iterator end)
      : memtable_(std::move(memtable)), it_(begin), end_(end) {}

  std::span<const KeyFlag> NextRun() override {
    size_t n = 0;
    for (; n < kRunCapacity && it_ != end_; ++n, ++it_) {
      run_[n] = KeyFlag{it_->first, it_->second.anti_matter};
    }
    return {run_.data(), n};
  }

 private:
  std::shared_ptr<const MemTable> memtable_;
  Map::const_iterator it_;
  Map::const_iterator end_;
  KeyRunBuffer run_;
};

std::unique_ptr<KeyRunCursor> MemTable::NewFrozenKeyCursor(
    std::shared_ptr<const MemTable> memtable, const LsmKey& lo,
    const LsmKey& hi) {
  auto [begin, end] = memtable->Range(lo, hi);
  return std::make_unique<FrozenKeyCursor>(std::move(memtable), begin, end);
}

// Owns a copy of a range's keys; hands it out as one run.
class MemTable::SnapshotKeyCursor final : public KeyRunCursor {
 public:
  explicit SnapshotKeyCursor(std::vector<KeyFlag> keys)
      : keys_(std::move(keys)) {}

  std::span<const KeyFlag> NextRun() override {
    return std::exchange(keys_left_, {});
  }

 private:
  std::vector<KeyFlag> keys_;
  std::span<const KeyFlag> keys_left_{keys_};
};

std::unique_ptr<KeyRunCursor> MemTable::NewSnapshotKeyCursor(
    const LsmKey& lo, const LsmKey& hi) const {
  std::vector<KeyFlag> keys;
  for (auto [it, end] = Range(lo, hi); it != end; ++it) {
    keys.push_back(KeyFlag{it->first, it->second.anti_matter});
  }
  if (keys.empty()) return nullptr;
  return std::make_unique<SnapshotKeyCursor>(std::move(keys));
}

void MemTable::Put(const LsmKey& key, std::string value, bool fresh_insert) {
  auto [it, inserted] = entries_.try_emplace(key);
  if (!inserted) {
    if (it->second.anti_matter) {
      --anti_matter_count_;
      // Re-inserting over an anti-matter entry: the delete proves the key
      // may exist in older components, so the new record is never fresh —
      // a later delete must emit anti-matter, not silently annihilate.
      fresh_insert = false;
    } else {
      // An update of a fresh insert is still wholly contained in this
      // memtable generation; an update of anything older is not.
      fresh_insert = it->second.fresh_insert;
    }
    approximate_bytes_ -= it->second.value.capacity();
  } else {
    approximate_bytes_ += kPerEntryOverhead;
  }
  it->second.value = std::move(value);
  // Charge the capacity the entry actually retains after the assignment, not
  // the incoming value's size: move-assignment may keep the destination's
  // larger buffer, and a shrinking overwrite retains its old allocation.
  approximate_bytes_ += it->second.value.capacity();
  it->second.anti_matter = false;
  it->second.fresh_insert = fresh_insert;
}

void MemTable::Delete(const LsmKey& key) {
  auto it = entries_.find(key);
  if (it != entries_.end() && !it->second.anti_matter &&
      it->second.fresh_insert) {
    // Insert + delete within one memtable generation: annihilate silently.
    approximate_bytes_ -= it->second.value.capacity() + kPerEntryOverhead;
    entries_.erase(it);
    return;
  }
  PutAntiMatter(key);
}

void MemTable::PutAntiMatter(const LsmKey& key) {
  auto [it, inserted] = entries_.try_emplace(key);
  if (!inserted) {
    if (it->second.anti_matter) --anti_matter_count_;
    approximate_bytes_ -= it->second.value.capacity();
  } else {
    approximate_bytes_ += kPerEntryOverhead;
  }
  // clear() keeps the heap allocation; swap with a fresh string so an
  // anti-matter entry that replaced a large value actually releases the
  // buffer instead of squatting on it uncharged until flush.
  std::string().swap(it->second.value);
  approximate_bytes_ += it->second.value.capacity();
  it->second.anti_matter = true;
  it->second.fresh_insert = false;
  ++anti_matter_count_;
}

Status MemTable::Get(const LsmKey& key, std::string* value,
                     bool* is_anti_matter) const {
  auto it = entries_.find(key);
  if (it == entries_.end()) {
    return Status::NotFound("key not in memtable");
  }
  *is_anti_matter = it->second.anti_matter;
  if (!it->second.anti_matter) *value = it->second.value;
  return Status::OK();
}

uint64_t MemTable::DebugComputeBytes() const {
  uint64_t total = 0;
  for (const auto& [key, state] : entries_) {
    total += kPerEntryOverhead + state.value.capacity();
  }
  return total;
}

}  // namespace lsmstats
