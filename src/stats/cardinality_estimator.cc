#include "stats/cardinality_estimator.h"

#include <algorithm>
#include <cmath>
#include <iterator>

#include "common/check.h"
#include "synopsis/grid_histogram.h"

namespace lsmstats {

namespace {

// Fixed bookkeeping charge per cache slot (map node, key, shared_ptr control
// blocks) on top of the synopses' serialized size.
constexpr uint64_t kCacheSlotOverhead = 128;

// Serialized footprint of a cached synopsis (byte-true: what EncodeTo would
// persist). Null synopses cost nothing.
uint64_t SynopsisBytes(const std::shared_ptr<const Synopsis>& synopsis) {
  if (synopsis == nullptr) return 0;
  Encoder enc;
  synopsis->EncodeTo(&enc);
  return enc.size();
}

}  // namespace

CardinalityEstimator::CardinalityEstimator(const StatisticsCatalog* catalog,
                                           Options options)
    : catalog_(catalog),
      options_(options),
      cache_byte_budget_(options.cache_byte_budget) {
  LSMSTATS_CHECK(catalog != nullptr);
}

void CardinalityEstimator::SetCacheByteBudget(uint64_t bytes) {
  cache_byte_budget_.store(bytes, std::memory_order_relaxed);
  MutexLock lock(&cache_mu_);
  EvictToBudgetLocked();
}

void CardinalityEstimator::EvictToBudgetLocked() {
  const uint64_t budget = cache_byte_budget_.load(std::memory_order_relaxed);
  if (budget == 0) return;  // unbounded
  while (cached_bytes_ > budget && !cache_.empty()) {
    auto victim = cache_.begin();
    for (auto it = std::next(cache_.begin()); it != cache_.end(); ++it) {
      if (it->second.last_used < victim->second.last_used) victim = it;
    }
    cached_bytes_ -= victim->second.bytes;
    cache_.erase(victim);
  }
}

double CardinalityEstimator::EstimateRangePartition(const StatisticsKey& key,
                                                    int64_t lo, int64_t hi,
                                                    QueryStats* stats) {
  // One lock for the entries and their version: the merged pair built from
  // these entries is cached under exactly this version.
  const StatisticsCatalog::StreamSnapshot snapshot = catalog_->Snapshot(key);
  if (snapshot.entries == nullptr || snapshot.entries->empty()) return 0.0;
  const std::vector<SynopsisEntry>& entries = *snapshot.entries;
  const uint64_t version = snapshot.version;

  const Synopsis* first = entries.front().synopsis.get();
  const bool mergeable = options_.enable_merged_cache && first != nullptr &&
                         SynopsisTypeIsMergeable(first->type());

  if (mergeable) {
    // Copy the shared snapshot out under the lock, probe it outside: a
    // concurrent InvalidateCache or recompute only drops the map entry, not
    // the synopses this query is reading.
    std::shared_ptr<const Synopsis> cached_merged;
    std::shared_ptr<const Synopsis> cached_anti;
    {
      MutexLock lock(&cache_mu_);
      auto it = cache_.find(key);
      // Algorithm 2 lines 4-10: serve from the cached merged synopsis unless
      // the catalog changed underneath it (isStale).
      if (it != cache_.end() && it->second.catalog_version == version) {
        cached_merged = it->second.merged;
        cached_anti = it->second.merged_anti;
        it->second.last_used = ++use_clock_;
      }
    }
    if (cached_merged != nullptr) {
      double estimate = cached_merged->EstimateRange(lo, hi);
      if (stats) ++stats->synopses_probed;
      if (cached_anti) {
        double anti = cached_anti->EstimateRange(lo, hi);
        LSMSTATS_DCHECK(std::isfinite(anti));
        estimate -= anti;
        if (stats) ++stats->synopses_probed;
      }
      if (stats) stats->served_from_cache = true;
      return std::max(0.0, estimate);
    }
  }

  // Algorithm 2 main loop: sum per-component estimates, negate anti-matter,
  // and fold mergeable synopses into a fresh merged pair along the way.
  double total = 0.0;
  std::unique_ptr<Synopsis> merged;
  std::unique_ptr<Synopsis> merged_anti;
  auto fold = [](std::unique_ptr<Synopsis>* accumulator,
                 const Synopsis& next) {
    if (!*accumulator) {
      *accumulator = next.Clone();
      return;
    }
    auto combined = MergeSynopses(**accumulator, next, (*accumulator)->Budget());
    if (combined.ok()) *accumulator = std::move(combined).value();
  };
  for (const SynopsisEntry& entry : entries) {
    if (entry.synopsis) {
      total += entry.synopsis->EstimateRange(lo, hi);
      if (stats) ++stats->synopses_probed;
      if (mergeable) fold(&merged, *entry.synopsis);
    }
    if (entry.anti_synopsis && entry.anti_synopsis->TotalRecords() > 0) {
      double anti = entry.anti_synopsis->EstimateRange(lo, hi);
      // Anti-matter mass counts reconciled records, so it can never go
      // negative except for bounded wavelet thresholding error (§3.6).
      LSMSTATS_DCHECK(std::isfinite(anti));
      if (entry.anti_synopsis->type() != SynopsisType::kWavelet) {
        LSMSTATS_DCHECK_GE(anti, 0.0);
      }
      total -= anti;
      if (stats) ++stats->synopses_probed;
      if (mergeable) fold(&merged_anti, *entry.anti_synopsis);
    }
  }
  if (mergeable) {
    // Serialized size is measured outside the lock; the synopses are
    // immutable once built.
    std::shared_ptr<const Synopsis> merged_shared = std::move(merged);
    std::shared_ptr<const Synopsis> anti_shared = std::move(merged_anti);
    const uint64_t bytes = kCacheSlotOverhead + SynopsisBytes(merged_shared) +
                           SynopsisBytes(anti_shared);
    // Two threads recomputing concurrently both store equivalent results for
    // the same version; last writer wins and nothing is torn.
    MutexLock lock(&cache_mu_);
    CachedMerged& cached = cache_[key];
    cached_bytes_ -= cached.bytes;  // zero for a fresh slot
    cached.catalog_version = version;
    cached.merged = std::move(merged_shared);
    cached.merged_anti = std::move(anti_shared);
    cached.bytes = bytes;
    cached.last_used = ++use_clock_;
    cached_bytes_ += bytes;
    EvictToBudgetLocked();
  }
  return std::max(0.0, total);
}

double CardinalityEstimator::EstimateRange2DPartition(
    const StatisticsKey& key, int64_t lo0, int64_t hi0, int64_t lo1,
    int64_t hi1, QueryStats* stats) {
  double total = 0.0;
  auto estimate_2d = [&](const Synopsis& synopsis) -> double {
    if (synopsis.type() != SynopsisType::kGrid2D) return 0.0;
    if (stats) ++stats->synopses_probed;
    return static_cast<const GridHistogram&>(synopsis).EstimateRange2D(
        lo0, hi0, lo1, hi1);
  };
  const StatisticsCatalog::StreamSnapshot snapshot = catalog_->Snapshot(key);
  if (snapshot.entries == nullptr) return 0.0;
  for (const SynopsisEntry& entry : *snapshot.entries) {
    if (entry.synopsis) total += estimate_2d(*entry.synopsis);
    if (entry.anti_synopsis && entry.anti_synopsis->TotalRecords() > 0) {
      double anti = estimate_2d(*entry.anti_synopsis);
      // Grid cells hold non-negative reconciled-record mass.
      LSMSTATS_DCHECK_GE(anti, 0.0);
      total -= anti;
    }
  }
  return std::max(0.0, total);
}

double CardinalityEstimator::EstimateRange2D(
    const std::string& dataset, const std::string& composite_field,
    int64_t lo0, int64_t hi0, int64_t lo1, int64_t hi1, QueryStats* stats) {
  double total = 0.0;
  for (const StatisticsKey& key : catalog_->Keys(dataset, composite_field)) {
    total += EstimateRange2DPartition(key, lo0, hi0, lo1, hi1, stats);
  }
  return total;
}

double CardinalityEstimator::EstimateRange(const std::string& dataset,
                                           const std::string& field,
                                           int64_t lo, int64_t hi,
                                           QueryStats* stats) {
  // In the shared-nothing deployment each partition contributes an
  // independent statistics stream; the global estimate is their sum (§3.4).
  double total = 0.0;
  for (const StatisticsKey& key : catalog_->Keys(dataset, field)) {
    total += EstimateRangePartition(key, lo, hi, stats);
  }
  return total;
}

}  // namespace lsmstats
