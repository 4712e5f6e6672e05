#include "lsm/event_listener.h"

namespace lsmstats {

const char* LsmOperationToString(LsmOperation op) {
  switch (op) {
    case LsmOperation::kFlush:
      return "flush";
    case LsmOperation::kMerge:
      return "merge";
    case LsmOperation::kBulkload:
      return "bulkload";
  }
  return "unknown";
}

void ComponentWriteObserver::OnEntryView(const EntryView& entry) {
  scratch_.key = entry.key;
  scratch_.value.assign(entry.value);
  scratch_.anti_matter = entry.anti_matter;
  OnEntry(scratch_);
}

}  // namespace lsmstats
