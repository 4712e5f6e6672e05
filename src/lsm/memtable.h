// In-memory LSM component.
//
// All modifications happen here, in place (Appendix A): a put overwrites, a
// delete installs an anti-matter entry that will cancel the record in older
// disk components once flushed. Entries whose whole lifetime is contained in
// the current memtable generation (inserted fresh, then deleted before any
// flush) are silently removed instead of generating anti-matter — the paper's
// §4.3.4 relies on exactly this behaviour ("as opposed to their just being
// silently deleted within in-memory components").
//
// The map's nodes come from a pool the memtable owns, so a range walk reads
// nodes packed together instead of scattered between the heap's other
// allocations (a primary tree's values, above all). Nodes freed by an
// annihilating delete are reused; the pool is released with the memtable.
//
// The memtable is externally synchronized, like the rest of the engine: only
// the writer allocates, and a frozen memtable never changes.

#ifndef LSMSTATS_LSM_MEMTABLE_H_
#define LSMSTATS_LSM_MEMTABLE_H_

#include <cstdint>
#include <map>
#include <memory>
#include <memory_resource>
#include <string>
#include <utility>

#include "common/status.h"
#include "lsm/entry.h"
#include "lsm/entry_cursor.h"

namespace lsmstats {

class MemTable {
 public:
  MemTable() = default;

  // Inserts or overwrites a regular record. `fresh_insert` marks records
  // known to not exist in any older component (the dataset layer knows this
  // because it enforces insert/update/delete constraints, like AsterixDB).
  void Put(const LsmKey& key, std::string value, bool fresh_insert);

  // Deletes `key`. If the current in-memory entry is a fresh insert the pair
  // annihilates silently; otherwise an anti-matter entry is recorded.
  void Delete(const LsmKey& key);

  // Unconditionally records an anti-matter entry (used by secondary index
  // maintenance where the old <SK, PK> entry always lives on disk or in an
  // earlier state).
  void PutAntiMatter(const LsmKey& key);

  // Point lookup within the memtable only. Returns:
  //   kOk        -> *value filled, *is_anti_matter=false
  //   kOk + anti -> key is deleted here (*is_anti_matter=true)
  //   kNotFound  -> memtable has no information about the key
  [[nodiscard]]
  Status Get(const LsmKey& key, std::string* value,
             bool* is_anti_matter) const;

  // Number of entries (regular + anti-matter) that a flush would write.
  uint64_t EntryCount() const { return entries_.size(); }
  uint64_t AntiMatterCount() const { return anti_matter_count_; }
  uint64_t ApproximateBytes() const { return approximate_bytes_; }
  bool Empty() const { return entries_.empty(); }

  // Recomputes the byte accounting from scratch (O(n)). Test-only invariant
  // probe: must equal ApproximateBytes() after any sequence of operations —
  // incremental drift (double-counted overwrites, uncharged anti-matter
  // buffers) shows up as a mismatch here.
  uint64_t DebugComputeBytes() const;

  // Cursor over the entries in [lo, hi] (all of them without bounds) of a
  // memtable that no longer changes — a frozen one. It reads the map in
  // place: views point into the memtable, which the cursor keeps alive.
  static std::unique_ptr<EntryCursor> NewFrozenCursor(
      std::shared_ptr<const MemTable> memtable);
  static std::unique_ptr<EntryCursor> NewFrozenCursor(
      std::shared_ptr<const MemTable> memtable, const LsmKey& lo,
      const LsmKey& hi);

  // Cursor over a copy of the entries in [lo, hi], for the mutable memtable,
  // which changes once its lock is released. The copy is one vector of views
  // and one buffer holding every value's bytes.
  std::unique_ptr<EntryCursor> NewSnapshotCursor(const LsmKey& lo,
                                                 const LsmKey& hi) const;

  // Key runs for a count. The frozen form reads the map in place, a bounded
  // run at a time; the snapshot form copies the keys and anti-matter bits of
  // [lo, hi] into one array and hands it out as one run, and is null when
  // no key lies in [lo, hi] (a count then merges one input fewer).
  static std::unique_ptr<KeyRunCursor> NewFrozenKeyCursor(
      std::shared_ptr<const MemTable> memtable, const LsmKey& lo,
      const LsmKey& hi);
  std::unique_ptr<KeyRunCursor> NewSnapshotKeyCursor(const LsmKey& lo,
                                                     const LsmKey& hi) const;

 private:
  class FrozenCursor;
  class SnapshotCursor;
  class FrozenKeyCursor;
  class SnapshotKeyCursor;

  struct EntryState {
    std::string value;
    bool anti_matter = false;
    bool fresh_insert = false;
  };
  using Map = std::pmr::map<LsmKey, EntryState>;

  // The entries in [lo, hi]; an inverted range is empty.
  std::pair<Map::const_iterator, Map::const_iterator> Range(
      const LsmKey& lo, const LsmKey& hi) const;

  // Declared before the map, so the map's nodes are destroyed first.
  std::pmr::unsynchronized_pool_resource pool_;
  Map entries_{&pool_};
  uint64_t anti_matter_count_ = 0;
  uint64_t approximate_bytes_ = 0;
};

}  // namespace lsmstats

#endif  // LSMSTATS_LSM_MEMTABLE_H_
