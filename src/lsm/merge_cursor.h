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

#ifndef LSMSTATS_LSM_MERGE_CURSOR_H_
#define LSMSTATS_LSM_MERGE_CURSOR_H_

#include <memory>
#include <vector>

#include "lsm/entry_cursor.h"

namespace lsmstats {

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

}  // namespace lsmstats

#endif  // LSMSTATS_LSM_MERGE_CURSOR_H_
