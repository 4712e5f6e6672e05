#include "lsm/merge_cursor.h"

#include <algorithm>
#include <span>
#include <utility>

namespace lsmstats {

// Merges a newer and an older key stream into runs of its own buffer.
class KeyRunMerge::TwoWay final : public KeyRunCursor {
 public:
  void SetInputs(KeyRunCursor* newer, KeyRunCursor* older) {
    newer_.input = newer;
    older_.input = older;
  }

  std::span<const KeyFlag> NextRun() override {
    size_t n = 0;
    while (n < kRunCapacity && status_.ok()) {
      if (!Fill(&newer_) || !Fill(&older_)) break;
      if (newer_.pos == newer_.end || older_.pos == older_.end) {
        // One stream (or none) is left: its run goes out as it is.
        Side& rest = newer_.pos == newer_.end ? older_ : newer_;
        const size_t m = std::min(kRunCapacity - n,
                                  static_cast<size_t>(rest.end - rest.pos));
        if (m == 0) break;
        std::copy_n(rest.pos, m, run_.data() + n);
        n += m;
        rest.pos += m;
        continue;
      }
      // Locals, so the stores into run_ cannot alias the heads.
      const KeyFlag* a = newer_.pos;
      const KeyFlag* b = older_.pos;
      while (a != newer_.end && b != older_.end && n < kRunCapacity) {
        const bool older_first = OlderGoesFirst(a->key, b->key);
        const bool older_leaves = OlderLeaves(a->key, b->key);
        run_[n++] = *(older_first ? b : a);
        a += static_cast<size_t>(!older_first);
        b += static_cast<size_t>(older_leaves);
      }
      newer_.pos = a;
      older_.pos = b;
    }
    return {run_.data(), n};
  }

 private:
  struct Side {
    KeyRunCursor* input = nullptr;
    const KeyFlag* pos = nullptr;  // [pos, end): what is left of its run
    const KeyFlag* end = nullptr;
    bool done = false;
  };

  // Loads the side's next run once its current one is used up; false when
  // the input failed (status_ then says why).
  bool Fill(Side* side) {
    if (side->pos != side->end || side->done) return true;
    const std::span<const KeyFlag> run = side->input->NextRun();
    side->pos = run.data();
    side->end = run.data() + run.size();
    if (!run.empty()) return true;
    side->done = true;
    status_ = side->input->status();
    return status_.ok();
  }

  Side newer_;
  Side older_;
  KeyRunBuffer run_;
};

MergeCursor::MergeCursor(std::vector<std::unique_ptr<EntryCursor>> inputs,
                         bool drop_anti_matter)
    : inputs_(std::move(inputs)),
      heads_(inputs_.size()),
      drop_anti_matter_(drop_anti_matter) {
  for (size_t i = 0; i < inputs_.size(); ++i) {
    if (!Refresh(i)) return;
  }
  FindNext();
}

bool MergeCursor::InputEnded(size_t i) {
  status_ = inputs_[i]->status();
  return status_.ok();
}

void MergeCursor::Next() {
  if (current_ == nullptr) return;
  current_ = nullptr;
  if (Advance(winner_)) FindNext();
}

void MergeCursor::FindNext() {
  // The fan-in of LSM merges is small (tens of components at most), so a
  // linear scan over the cached heads is simpler than a heap. What it costs
  // is its branches, not its length: BM_MergeCursorCount runs at ~8 / 14 /
  // 25 / 39 ns per entry at fan-in 1 / 4 / 8 / 16 when the winner cycles,
  // and ~10 / 28 / 60 / 99 ns when it is a coin flip. Counts, where inputs
  // interleave at random, go through KeyRunMerge's branch-free two-input
  // tree instead (BM_KeyRunCount: ~5 / 19 / 26 / 34 ns either way).
  for (;;) {
    size_t winner = kNone;
    for (size_t i = 0; i < heads_.size(); ++i) {
      if (heads_[i] == nullptr) continue;
      if (winner == kNone ||
          OlderGoesFirst(heads_[winner]->key, heads_[i]->key)) {
        winner = i;
      }
    }
    if (winner == kNone) return;
    // The newest version shadows the key in every older input; no older
    // head lies below it, so those that leave hold the key.
    const LsmKey& key = heads_[winner]->key;
    for (size_t i = winner + 1; i < heads_.size(); ++i) {
      if (heads_[i] != nullptr && OlderLeaves(key, heads_[i]->key) &&
          !Advance(i)) {
        return;
      }
    }
    if (heads_[winner]->anti_matter && drop_anti_matter_) {
      // Reconciled away; nothing older can contain the key.
      if (!Advance(winner)) return;
      continue;
    }
    winner_ = winner;
    current_ = heads_[winner];
    return;
  }
}

KeyRunMerge::KeyRunMerge(std::vector<std::unique_ptr<KeyRunCursor>> inputs)
    : inputs_(std::move(inputs)) {
  if (inputs_.empty()) return;
  if (inputs_.size() > 1) {
    merges_ = std::make_unique<TwoWay[]>(inputs_.size() - 1);
  }
  size_t next = 0;
  root_ = Fold(0, inputs_.size(), &next);
}

KeyRunMerge::~KeyRunMerge() = default;

KeyRunCursor* KeyRunMerge::Fold(size_t lo, size_t hi, size_t* next) {
  if (hi - lo == 1) return inputs_[lo].get();
  // The newer half is never the smaller, so the oldest input (the largest,
  // in a leveled tree) passes through the fewest merges.
  const size_t mid = hi - (hi - lo) / 2;
  TwoWay& merge = merges_[(*next)++];
  KeyRunCursor* newer = Fold(lo, mid, next);
  merge.SetInputs(newer, Fold(mid, hi, next));
  return &merge;
}

std::span<const KeyFlag> KeyRunMerge::NextRun() {
  if (root_ == nullptr) return {};
  const std::span<const KeyFlag> run = root_->NextRun();
  if (run.empty()) status_ = root_->status();
  return run;
}

StatusOr<uint64_t> CountLiveKeys(
    std::vector<std::unique_ptr<KeyRunCursor>> inputs, int64_t k1_lo,
    int64_t k1_hi) {
  KeyRunMerge merged(std::move(inputs));
  uint64_t count = 0;
  for (auto run = merged.NextRun(); !run.empty(); run = merged.NextRun()) {
    for (const KeyFlag& entry : run) {
      count += static_cast<uint64_t>(!entry.anti_matter &
                                     (entry.key.k1 >= k1_lo) &
                                     (entry.key.k1 <= k1_hi));
    }
  }
  LSMSTATS_RETURN_IF_ERROR(merged.status());
  return count;
}

}  // namespace lsmstats
