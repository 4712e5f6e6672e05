// System catalog for component statistics.
//
// Every LSM lifecycle event produces one (synopsis, anti-matter synopsis)
// pair per indexed attribute, keyed by the component it summarizes (paper
// §3.4: "each LSM-framework event creates a local synopsis which is ...
// persisted in the system catalog, so that it can be used during query
// optimization"). When a merge replaces components, their catalog entries are
// dropped and the merged component's freshly rebuilt synopses take their
// place (§3.5). Every publication of a stream is stamped with a version
// drawn from one catalog-wide counter, so a version names one set of entries
// for the catalog's whole life; this supports the merged-synopsis cache
// staleness check of Algorithm 2. Loading a saved catalog shifts the loaded
// versions past every version this catalog has handed out, so an estimator
// bound to it never mistakes the loaded entries for ones it has cached.
//
// The catalog is internally synchronized: statistics delivery runs on the
// background scheduler's workers while queries estimate from the same
// streams. Each stream publishes its entries as one immutable vector:
// Register, Drop and DecodeFrom build a new vector and swap it in under the
// catalog mutex (copy-on-write), so a reader takes a Snapshot — the version
// and a shared reference to the entries, under one lock — and probes it
// without copying or locking again. A held snapshot never changes.

#ifndef LSMSTATS_STATS_STATISTICS_CATALOG_H_
#define LSMSTATS_STATS_STATISTICS_CATALOG_H_

#include <cstdint>
#include <map>
#include <memory>
#include <string>
#include <vector>

#include "common/env.h"
#include "common/mutex.h"
#include "synopsis/synopsis.h"

namespace lsmstats {

// Statistics for one component and one attribute. The anti-matter synopsis is
// the "anti-twin" of §3.3: it summarizes the anti-matter records so the
// estimator can subtract their contribution.
struct SynopsisEntry {
  uint64_t component_id = 0;
  // Logical creation time of the component; later entries are newer.
  uint64_t timestamp = 0;
  std::shared_ptr<const Synopsis> synopsis;
  std::shared_ptr<const Synopsis> anti_synopsis;
};

// Identifies one statistics stream: a dataset attribute on one storage
// partition (partition 0 unless running under the cluster simulation).
struct StatisticsKey {
  std::string dataset;
  std::string field;
  uint32_t partition = 0;

  friend auto operator<=>(const StatisticsKey&, const StatisticsKey&) =
      default;
};

class StatisticsCatalog {
 public:
  // One stream's entries, oldest first, and the version they were published
  // at. `entries` is null when the key has never been registered.
  struct StreamSnapshot {
    uint64_t version = 0;
    std::shared_ptr<const std::vector<SynopsisEntry>> entries;
  };

  StatisticsCatalog() = default;

  // Movable (DecodeFrom returns by value); moves lock the source so a
  // catalog being replaced via LoadFromFile stays consistent for readers.
  StatisticsCatalog(StatisticsCatalog&& other);
  StatisticsCatalog& operator=(StatisticsCatalog&& other);
  StatisticsCatalog(const StatisticsCatalog&) = delete;
  StatisticsCatalog& operator=(const StatisticsCatalog&) = delete;

  // Registers statistics for a newly sealed component and drops entries for
  // the components it replaced (empty for flush/bulkload).
  void Register(const StatisticsKey& key, SynopsisEntry entry,
                const std::vector<uint64_t>& replaced_component_ids);

  // Drops entries without adding a replacement (merge that reconciled every
  // record away).
  void Drop(const StatisticsKey& key,
            const std::vector<uint64_t>& component_ids);

  // The published entries of one attribute and their version, read under
  // one lock: the estimator's staleness check compares exactly the version
  // of the entries it folds.
  StreamSnapshot Snapshot(const StatisticsKey& key) const;

  // A copy of the snapshot's entries, oldest first.
  std::vector<SynopsisEntry> GetSynopses(const StatisticsKey& key) const;

  // Entries for one (dataset, field) across all partitions, oldest first.
  std::vector<SynopsisEntry> GetSynopsesAllPartitions(
      const std::string& dataset, const std::string& field) const;

  // All statistics keys present for (dataset, field), one per partition.
  std::vector<StatisticsKey> Keys(const std::string& dataset,
                                  const std::string& field) const;

  // Moves on every Register/Drop of the key and on a load, never back to a
  // value this catalog handed out before; the estimator compares this to
  // decide whether its cached merged synopsis is stale (Algorithm 2 isStale).
  uint64_t Version(const StatisticsKey& key) const;

  // Total serialized footprint of all stored synopses, in bytes — the
  // "space occupied by the metadata" axis of §3.5.
  uint64_t TotalStorageBytes() const;

  size_t EntryCount(const StatisticsKey& key) const;

  // Persistence: the catalog is durable metadata in the paper's design
  // ("synopsis is persisted in the system catalog"). The whole catalog is
  // serialized with the same encoding the cluster transport uses, followed
  // by a CRC32C + magic trailer. Save is crash-consistent: write to
  // `path + ".tmp"`, Sync, rename into place, sync the directory — a crash
  // mid-save leaves the previous catalog intact. Load verifies the trailer
  // and returns Corruption on any mismatch. `env` defaults to
  // Env::Default() when null.
  [[nodiscard]]
  Status SaveToFile(const std::string& path, Env* env = nullptr) const;
  [[nodiscard]]
  Status LoadFromFile(const std::string& path, Env* env = nullptr);

  void EncodeTo(Encoder* enc) const;
  [[nodiscard]] static StatusOr<StatisticsCatalog> DecodeFrom(Decoder* dec);

 private:
  struct Stream {
    // Never null, never mutated once published.
    std::shared_ptr<const std::vector<SynopsisEntry>> entries =
        std::make_shared<const std::vector<SynopsisEntry>>();
    uint64_t version = 0;
  };

  // Publishes `stream`'s entries minus those of `removed_ids`, plus `added`
  // when given, as a new immutable vector under the next version.
  void Republish(Stream* stream, const std::vector<uint64_t>& removed_ids,
                 SynopsisEntry* added) REQUIRES(mu_);

  // Guards streams_. EncodeTo locks it, so Save/DecodeFrom callers must not
  // hold it (they don't: SaveToFile only touches the encoder and the file).
  mutable Mutex mu_{LockRank::kStatisticsCatalog, "statistics_catalog"};
  std::map<StatisticsKey, Stream> streams_ GUARDED_BY(mu_);
  // The last version handed out to any stream; no stream's version is
  // above it.
  uint64_t last_version_ GUARDED_BY(mu_) = 0;
};

}  // namespace lsmstats

#endif  // LSMSTATS_STATS_STATISTICS_CATALOG_H_
