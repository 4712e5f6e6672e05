// Abstract forward cursor over a sorted entry stream.
//
// Disk components, memtables, and k-way merge cursors all expose this
// interface, so LSM operations (merge, scan, bulkload) are written once
// against "a unified sorted record stream abstraction" — paper §3.5 relies on
// exactly this property to rebuild synopses during merges.
//
// A cursor yields views: entry() borrows its value bytes from whatever the
// cursor pins (a decoded block, a frozen memtable, an owned vector), and the
// view stays valid until the next Next() or the cursor's destruction. A
// consumer that keeps an entry past that copies it (ToEntry). Only Next()
// and status() are virtual: each implementation publishes its current view
// through `current_`, so Valid() and entry() are plain loads.

#ifndef LSMSTATS_LSM_ENTRY_CURSOR_H_
#define LSMSTATS_LSM_ENTRY_CURSOR_H_

#include <utility>
#include <vector>

#include "common/status.h"
#include "lsm/entry.h"

namespace lsmstats {

class EntryCursor {
 public:
  virtual ~EntryCursor() = default;

  bool Valid() const { return current_ != nullptr; }
  // The current entry; requires Valid(). Valid until the next Next().
  const EntryView& entry() const { return *current_; }
  virtual void Next() = 0;
  // Why the cursor stopped: OK when it ran out of entries.
  [[nodiscard]] virtual Status status() const = 0;

 protected:
  // The current entry, or null once the cursor is exhausted or failed.
  const EntryView* current_ = nullptr;
};

// Cursor over an owned, pre-sorted entry vector (bulkload inputs, tests).
class VectorEntryCursor final : public EntryCursor {
 public:
  explicit VectorEntryCursor(std::vector<Entry> entries)
      : entries_(std::move(entries)) {
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
    if (pos_ < entries_.size()) {
      view_ = entries_[pos_];
      current_ = &view_;
    } else {
      current_ = nullptr;
    }
  }

  std::vector<Entry> entries_;
  size_t pos_ = 0;
  EntryView view_;
};

}  // namespace lsmstats

#endif  // LSMSTATS_LSM_ENTRY_CURSOR_H_
