// LSM lifecycle event hooks.
//
// This is the surface the statistics framework piggybacks on (paper §3): the
// tree announces every disk operation (flush, merge, bulkload) before it
// starts writing the new component, and a listener may return an observer
// that will see every entry written to that component, in sorted key order.
// Because every record eventually flows through some LSM event, an observer
// sees all of the data — the property that distinguishes this design from
// sampling-based statistics collection.
//
// The OperationContext carries the input-cardinality information that
// equi-height histogram construction needs up front (paper §3.2): the exact
// memtable count for a flush, the exact input count for a bulkload, and the
// pre-reconciliation sum of the merged components' counts for a merge.

#ifndef LSMSTATS_LSM_EVENT_LISTENER_H_
#define LSMSTATS_LSM_EVENT_LISTENER_H_

#include <cstdint>
#include <memory>
#include <vector>

#include "lsm/disk_component.h"
#include "lsm/entry.h"

namespace lsmstats {

enum class LsmOperation : uint8_t {
  kFlush = 0,
  kMerge = 1,
  kBulkload = 2,
};

const char* LsmOperationToString(LsmOperation op);

struct OperationContext {
  LsmOperation op = LsmOperation::kFlush;
  // Upper bound on entries the new component will contain (exact for flush
  // and bulkload; the sum over merge inputs for a merge, before anti-matter
  // reconciliation shrinks it).
  uint64_t expected_records = 0;
  uint64_t expected_anti_matter = 0;
  // Merge only: true when no surviving component older than the merge
  // output overlaps its key range, so anti-matter entries are reconciled
  // away rather than carried forward. (A merge that covers the oldest
  // component always qualifies.)
  bool includes_oldest_component = false;
  // Compaction level the new component is installed at (0 for flushes and
  // bulkloads; the merge plan's target for merges).
  uint32_t target_level = 0;
};

// Observes the write of one new component.
class ComponentWriteObserver {
 public:
  virtual ~ComponentWriteObserver() = default;

  // Called for every entry, in strictly increasing key order, including
  // anti-matter entries. The view borrows the writer's cursor and is valid
  // only during the call. The default copies it into an Entry (reusing one
  // buffer) for OnEntry.
  virtual void OnEntryView(const EntryView& entry);

  // Owning form of OnEntryView, for observers written against Entry; no-op
  // by default. Observers on the statistics path override OnEntryView.
  virtual void OnEntry(const Entry& /*entry*/) {}

  // Called once after the component is durably sealed. `replaced_ids` lists
  // the components this one supersedes (empty for flush/bulkload).
  virtual void OnComponentSealed(
      const ComponentMetadata& metadata,
      const std::vector<uint64_t>& replaced_ids) = 0;

 private:
  Entry scratch_;  // OnEntryView's copy for OnEntry
};

class LsmEventListener {
 public:
  virtual ~LsmEventListener() = default;

  // Called before the operation starts writing. Returning nullptr opts out
  // of observing this operation.
  virtual std::unique_ptr<ComponentWriteObserver> OnOperationBegin(
      const OperationContext& context) = 0;
};

}  // namespace lsmstats

#endif  // LSMSTATS_LSM_EVENT_LISTENER_H_
