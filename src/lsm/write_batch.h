// WriteBatch: an ordered group of modifications committed atomically.
//
// A batch is the unit of a dataset's commit and of crash atomicity:
//
//   * Dataset mutations (Insert/Update/Delete/PutBatch/DeleteBatch) build
//     one batch spanning the primary, secondary, and composite index
//     trees. Entries carry tree ids, so with the dataset's WAL one logical
//     multi-index modification is logged — and fsynced under every-record
//     sync — exactly once, as ONE write-ahead-log frame
//     (WalLog::AppendBatch).
//   * Recovery replays a batch frame all-or-nothing: the frame's CRC covers
//     every entry, so a torn or corrupt batch is dropped in its entirety —
//     a reopened dataset never observes half a batch.
//
// A WriteBatch is a plain value type: build it up, hand it to the log, reuse
// or discard it. It performs no I/O and takes no locks itself.

#ifndef LSMSTATS_LSM_WRITE_BATCH_H_
#define LSMSTATS_LSM_WRITE_BATCH_H_

#include <cstdint>
#include <string>
#include <utility>
#include <vector>

#include "lsm/entry.h"
#include "lsm/wal.h"

namespace lsmstats {

// One operation inside a WriteBatch. `tree_id` routes the entry to one of a
// dataset's index trees (the dataset assigns 0 = primary, then secondaries,
// then composites, in schema order).
struct WriteBatchEntry {
  uint32_t tree_id = 0;
  WalOp op = WalOp::kPut;
  LsmKey key;
  std::string value;
  // Not logged: replay is pessimistic about anti-matter placement (see
  // Dataset::Open). Live applies honor it.
  bool fresh_insert = false;
};

class WriteBatch {
 public:
  WriteBatch() = default;

  void Put(const LsmKey& key, std::string value, bool fresh_insert = false,
           uint32_t tree_id = 0) {
    entries_.push_back(WriteBatchEntry{tree_id, WalOp::kPut, key,
                                       std::move(value), fresh_insert});
  }

  void Delete(const LsmKey& key, uint32_t tree_id = 0) {
    entries_.push_back(
        WriteBatchEntry{tree_id, WalOp::kDelete, key, std::string(), false});
  }

  void PutAntiMatter(const LsmKey& key, uint32_t tree_id = 0) {
    entries_.push_back(WriteBatchEntry{tree_id, WalOp::kAntiMatter, key,
                                       std::string(), false});
  }

  void Clear() { entries_.clear(); }

  size_t size() const { return entries_.size(); }
  bool empty() const { return entries_.empty(); }

  const std::vector<WriteBatchEntry>& entries() const { return entries_; }
  // Mutable access so appliers can move values out after the batch was
  // encoded into its log frame.
  std::vector<WriteBatchEntry>& mutable_entries() { return entries_; }

 private:
  std::vector<WriteBatchEntry> entries_;
};

}  // namespace lsmstats

#endif  // LSMSTATS_LSM_WRITE_BATCH_H_
