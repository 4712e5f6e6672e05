// K-way reconciling merge over sorted entry streams.
//
// Inputs are ordered newest-first. For each key the newest version wins and
// older versions are discarded. When the merge covers the oldest component of
// the tree (`drop_anti_matter`), a winning anti-matter entry has nothing left
// to cancel and is dropped from the output (Appendix A, Figure 10c);
// otherwise it is preserved so it can still cancel records in components
// outside the merge.
//
// The cursor copies nothing: entry() is the winning input's own view, and
// the winner is only advanced by the next Next(). Each input's head (its
// current view) is cached, so picking a winner makes no virtual call; only
// the inputs that move do.
//
// A count reads keys alone, and merges them by another route
// (KeyRunMerge): each input hands out runs of keys, and the inputs are
// folded newest-first through two-input merges that take one branch-free
// step per key. Both merges apply one rule, OlderGoesFirst / OlderLeaves
// below: the smaller key goes first, the newer input's key on a tie, and
// the older equal key is consumed with it.

#ifndef LSMSTATS_LSM_MERGE_CURSOR_H_
#define LSMSTATS_LSM_MERGE_CURSOR_H_

#include <cstdint>
#include <limits>
#include <memory>
#include <span>
#include <vector>

#include "lsm/entry_cursor.h"

namespace lsmstats {

// The reconciliation rule between the heads of a newer and an older input.
// `a < b` is evaluated without a branch, so a merge step whose winner is a
// coin flip (interleaved inputs) does not mispredict.
inline bool KeyLess(const LsmKey& a, const LsmKey& b) {
  return (a.k0 < b.k0) |
         ((a.k0 == b.k0) & ((a.k1 < b.k1) | ((a.k1 == b.k1) & (a.k2 < b.k2))));
}
// The older head goes out first: its key is smaller (a tie goes to the
// newer head).
inline bool OlderGoesFirst(const LsmKey& newer, const LsmKey& older) {
  return KeyLess(older, newer);
}
// The older head leaves in this step: it goes out first, or it holds the
// newer head's key and is shadowed by it.
inline bool OlderLeaves(const LsmKey& newer, const LsmKey& older) {
  return !KeyLess(newer, older);
}

class MergeCursor final : public EntryCursor {
 public:
  // `inputs[0]` is the newest stream. Each input must be key-sorted and
  // duplicate-free within itself. The merge stops at the first input that
  // fails, with that input's status.
  MergeCursor(std::vector<std::unique_ptr<EntryCursor>> inputs,
              bool drop_anti_matter);

  // A no-op once the cursor is exhausted or failed.
  void Next() override;
  [[nodiscard]] Status status() const override { return status_; }

 private:
  static constexpr size_t kNone = static_cast<size_t>(-1);

  // Re-reads input `i`'s head; false (with status_ set) when the input
  // stopped on an error.
  bool Refresh(size_t i) {
    const EntryCursor& input = *inputs_[i];
    heads_[i] = input.Valid() ? &input.entry() : nullptr;
    return heads_[i] != nullptr || InputEnded(i);
  }
  // Input `i` stopped: records its status, true when it merely ran out.
  bool InputEnded(size_t i);
  bool Advance(size_t i) {
    inputs_[i]->Next();
    return Refresh(i);
  }
  // Positions on the next reconciled entry, if any: the smallest head key
  // wins (the newest input on ties) and every older input moves past it.
  void FindNext();

  std::vector<std::unique_ptr<EntryCursor>> inputs_;
  // heads_[i]: input i's current view (its key is the cached head key),
  // null once the input is exhausted.
  std::vector<const EntryView*> heads_;
  // The input whose view current_ forwards.
  size_t winner_ = kNone;
  bool drop_anti_matter_;
  Status status_;
};

// The reconciled key stream over `inputs` (`inputs[0]` the newest), as
// runs: every key once, with the anti-matter bit of its newest version, so
// a deleted key still comes out, as anti-matter. The inputs are folded
// through a balanced tree of two-input merges, allocated together; each
// merge fills runs of its own. The stream stops at the first input that
// fails, with that input's status. BM_KeyRunCount measures it beside
// BM_MergeCursorCount.
class KeyRunMerge final : public KeyRunCursor {
 public:
  explicit KeyRunMerge(std::vector<std::unique_ptr<KeyRunCursor>> inputs);
  ~KeyRunMerge() override;

  std::span<const KeyFlag> NextRun() override;

 private:
  class TwoWay;

  // Wires the merges over inputs_[lo, hi) from merges_[*next] on; returns
  // the cursor that yields their merged stream.
  KeyRunCursor* Fold(size_t lo, size_t hi, size_t* next);

  std::vector<std::unique_ptr<KeyRunCursor>> inputs_;
  std::unique_ptr<TwoWay[]> merges_;  // inputs_.size() - 1 of them
  KeyRunCursor* root_ = nullptr;      // null without inputs
};

// Number of live keys of KeyRunMerge(inputs) whose k1 lies in
// [k1_lo, k1_hi], or the status of the input that failed: never a short
// count.
[[nodiscard]] StatusOr<uint64_t> CountLiveKeys(
    std::vector<std::unique_ptr<KeyRunCursor>> inputs,
    int64_t k1_lo = std::numeric_limits<int64_t>::min(),
    int64_t k1_hi = std::numeric_limits<int64_t>::max());

}  // namespace lsmstats

#endif  // LSMSTATS_LSM_MERGE_CURSOR_H_
