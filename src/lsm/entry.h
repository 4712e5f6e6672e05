// Key and entry model shared by all LSM-ified indexes.
//
// Paper §3.1: disk operations in the LSM framework are generalized by a
// single bulkload() routine that receives a stream of records ordered by
// <PK> for primary index components, or by <SK, PK> pairs for secondary
// index components. We model both — plus the composite-key indexes of the
// paper's §5 future work — with a three-slot integer key compared
// lexicographically: primary trees use k0 = PK; secondary trees use
// k0 = SK, k1 = PK; composite secondary trees use k0 = SK1, k1 = SK2,
// k2 = PK. Unused trailing slots stay zero, so narrower keys sort exactly
// as before.
//
// An Entry is one record in a component: a key, an opaque value payload
// (empty for secondary entries), and the anti-matter flag that marks entries
// which cancel a matching record in an older component (Appendix A). An
// EntryView is the same record borrowed from whoever holds its bytes — a
// cursor's pinned block or memtable — which is how cursors, component
// builders and synopsis observers pass entries without copying values.

#ifndef LSMSTATS_LSM_ENTRY_H_
#define LSMSTATS_LSM_ENTRY_H_

#include <compare>
#include <cstdint>
#include <string>
#include <string_view>

namespace lsmstats {

struct LsmKey {
  int64_t k0 = 0;
  int64_t k1 = 0;
  int64_t k2 = 0;

  friend auto operator<=>(const LsmKey&, const LsmKey&) = default;
};

// Key for a primary index (arity 1).
inline LsmKey PrimaryKey(int64_t pk) { return LsmKey{pk, 0, 0}; }

// Key for a secondary index (arity 2): sort by SK first, PK breaks ties.
inline LsmKey SecondaryKey(int64_t sk, int64_t pk) {
  return LsmKey{sk, pk, 0};
}

// Key for a composite secondary index (arity 3): <SK1, SK2, PK>.
inline LsmKey CompositeKey(int64_t sk1, int64_t sk2, int64_t pk) {
  return LsmKey{sk1, sk2, pk};
}

// A borrowed entry: `value` points into storage owned by the producer and
// is valid only as long as the producer says (for a cursor: until Next()).
struct EntryView {
  LsmKey key;
  std::string_view value;
  bool anti_matter = false;
};

struct Entry {
  LsmKey key;
  std::string value;
  bool anti_matter = false;

  // Views this entry; the view is valid while the entry is alive and
  // unchanged, as a string_view is for a string.
  operator EntryView() const {
    return EntryView{key, value, anti_matter};
  }
};

// Owning copy of a borrowed entry.
inline Entry ToEntry(const EntryView& view) {
  return Entry{view.key, std::string(view.value), view.anti_matter};
}

}  // namespace lsmstats

#endif  // LSMSTATS_LSM_ENTRY_H_
