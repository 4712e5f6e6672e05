#include "lsm/merge_cursor.h"

namespace lsmstats {

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
  // linear scan over the cached heads is simpler than a heap and as fast at
  // the fan-ins the benchmark trees reach (BM_MergeCursorCount measures it).
  for (;;) {
    size_t winner = kNone;
    for (size_t i = 0; i < heads_.size(); ++i) {
      if (heads_[i] == nullptr) continue;
      if (winner == kNone || heads_[i]->key < heads_[winner]->key) winner = i;
    }
    if (winner == kNone) return;
    // The newest version shadows the key in every older input.
    const LsmKey& key = heads_[winner]->key;
    for (size_t i = winner + 1; i < heads_.size(); ++i) {
      if (heads_[i] != nullptr && heads_[i]->key == key && !Advance(i)) {
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

}  // namespace lsmstats
