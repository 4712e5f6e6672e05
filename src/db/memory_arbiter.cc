#include "db/memory_arbiter.h"

#include <algorithm>
#include <chrono>
#include <cmath>
#include <utility>

#include "common/check.h"
#include "lsm/format/block_cache.h"
#include "lsm/lsm_tree.h"
#include "lsm/scheduler.h"
#include "stats/cardinality_estimator.h"
#include "stats/statistics_catalog.h"

namespace lsmstats {

namespace {

int64_t MonotonicNowNs() {
  return std::chrono::duration_cast<std::chrono::nanoseconds>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

// Floor for degenerate utility probes (NaN, inf, <= 0): keeps every budget
// weakly in the race so the proportional split stays well-defined.
constexpr double kMinUtility = 1e-3;

}  // namespace

MemoryArbiter::MemoryArbiter(uint64_t total_bytes,
                             BackgroundScheduler* scheduler,
                             std::chrono::milliseconds tick_interval)
    : total_bytes_(total_bytes),
      scheduler_(scheduler),
      tick_interval_ns_(
          std::chrono::duration_cast<std::chrono::nanoseconds>(tick_interval)
              .count()) {
  LSMSTATS_CHECK(total_bytes_ > 0);
}

MemoryArbiter::~MemoryArbiter() { Shutdown(); }

void MemoryArbiter::Shutdown() {
  MutexLock lock(&mu_);
  shutting_down_ = true;
  cv_.Wait(&mu_, [this]() REQUIRES(mu_) { return tasks_in_flight_ == 0; });
}

const MemoryArbiter::MemoryBudget* MemoryArbiter::Register(
    Registration registration) {
  auto budget = std::make_unique<MemoryBudget>();
  budget->name_ = std::move(registration.name);
  budget->min_bytes_ = registration.min_bytes;
  budget->max_bytes_ = std::max(registration.max_bytes, registration.min_bytes);
  budget->usage_ = std::move(registration.usage);
  budget->utility_ = std::move(registration.utility);
  budget->apply_ = std::move(registration.apply);
  const MemoryBudget* handle = budget.get();
  MutexLock lock(&mu_);
  budgets_.push_back(std::move(budget));
  return handle;
}

void MemoryArbiter::Rebalance() {
  // (apply callback, grant) pairs collected under the lock, invoked after
  // releasing it: apply() calls into trees/cache/estimator, whose locks rank
  // below kMemoryArbiter but whose code may in turn call NotePressure-style
  // hooks — keeping the arbiter lock out of those stacks keeps the contract
  // simple (apply runs lock-free from the arbiter's point of view).
  std::vector<std::pair<const std::function<void(uint64_t)>*, uint64_t>>
      applies;
  {
    MutexLock lock(&mu_);
    if (budgets_.empty()) return;

    const size_t n = budgets_.size();
    std::vector<uint64_t> grants(n, 0);
    std::vector<double> weights(n, kMinUtility);

    // Floor phase: everyone gets its minimum (clamped to its maximum).
    uint64_t committed = 0;
    for (size_t i = 0; i < n; ++i) {
      MemoryBudget& b = *budgets_[i];
      grants[i] = std::min(b.min_bytes_, b.max_bytes_);
      committed += grants[i];
      if (b.utility_) {
        const double u = b.utility_();
        if (std::isfinite(u) && u > kMinUtility) weights[i] = u;
      } else {
        weights[i] = 1.0;
      }
    }

    // Water-fill phase: split the remainder proportionally to utility,
    // re-running whenever a budget hits its cap so capped budgets stop
    // absorbing share. Deterministic: no randomness, stable iteration order.
    uint64_t remaining =
        total_bytes_ > committed ? total_bytes_ - committed : 0;
    std::vector<bool> capped(n, false);
    while (remaining > 0) {
      double active_weight = 0.0;
      for (size_t i = 0; i < n; ++i) {
        if (!capped[i] && grants[i] < budgets_[i]->max_bytes_) {
          active_weight += weights[i];
        }
      }
      if (active_weight <= 0.0) break;  // everyone capped
      uint64_t distributed = 0;
      for (size_t i = 0; i < n; ++i) {
        if (capped[i] || grants[i] >= budgets_[i]->max_bytes_) continue;
        const double share =
            static_cast<double>(remaining) * (weights[i] / active_weight);
        uint64_t add = static_cast<uint64_t>(share);
        const uint64_t headroom = budgets_[i]->max_bytes_ - grants[i];
        if (add >= headroom) {
          add = headroom;
          capped[i] = true;
        }
        grants[i] += add;
        distributed += add;
      }
      if (distributed == 0) {
        // Rounding stalled (shares all floored to zero): hand the residue to
        // the first uncapped budget so the loop terminates and the full
        // total is always granted.
        for (size_t i = 0; i < n; ++i) {
          if (capped[i] || grants[i] >= budgets_[i]->max_bytes_) continue;
          const uint64_t add =
              std::min(remaining, budgets_[i]->max_bytes_ - grants[i]);
          grants[i] += add;
          distributed += add;
          break;
        }
        if (distributed == 0) break;
      }
      remaining -= distributed;
    }

    applies.reserve(n);
    for (size_t i = 0; i < n; ++i) {
      MemoryBudget& b = *budgets_[i];
      const uint64_t previous =
          b.granted_.exchange(grants[i], std::memory_order_relaxed);
      if (b.apply_ && grants[i] != previous) {
        applies.emplace_back(&b.apply_, grants[i]);
      }
    }
  }
  for (const auto& [apply, grant] : applies) {
    (*apply)(grant);
  }
  rebalances_.fetch_add(1, std::memory_order_relaxed);
}

void MemoryArbiter::MaybeTick() {
  const bool pressured = pressure_pending_.load(std::memory_order_relaxed);
  if (!pressured) {
    // Gate the clock read: hot paths call this per operation, so only every
    // 64th call even looks at the time.
    if ((tick_calls_.fetch_add(1, std::memory_order_relaxed) & 0x3F) != 0) {
      return;
    }
  }
  const int64_t now = MonotonicNowNs();
  int64_t last = last_tick_ns_.load(std::memory_order_relaxed);
  if (!pressured && now - last < tick_interval_ns_) return;
  // One caller claims the tick; everyone else keeps going.
  if (!last_tick_ns_.compare_exchange_strong(last, now,
                                             std::memory_order_relaxed)) {
    return;
  }
  pressure_pending_.store(false, std::memory_order_relaxed);
  ScheduleRebalance();
}

void MemoryArbiter::ScheduleRebalance() {
  if (scheduler_ == nullptr) {
    Rebalance();
    return;
  }
  {
    MutexLock lock(&mu_);
    if (shutting_down_) return;
    ++tasks_in_flight_;
  }
  scheduler_->Schedule(
      TaskPriority{TaskClass::kDefault, 0}, [this] {
        Rebalance();
        MutexLock lock(&mu_);
        --tasks_in_flight_;
        cv_.NotifyAll();
      });
}

std::vector<MemoryArbiter::GrantInfo> MemoryArbiter::Snapshot() const {
  std::vector<GrantInfo> out;
  MutexLock lock(&mu_);
  out.reserve(budgets_.size());
  for (const auto& budget : budgets_) {
    GrantInfo info;
    info.name = budget->name_;
    info.granted = budget->granted_.load(std::memory_order_relaxed);
    info.usage = budget->usage_ ? budget->usage_() : 0;
    info.min_bytes = budget->min_bytes_;
    info.max_bytes = budget->max_bytes_;
    out.push_back(std::move(info));
  }
  return out;
}

// --- Registration helpers ---------------------------------------------------

namespace {

constexpr uint64_t kMiB = 1ull << 20;
constexpr uint64_t kKiB = 1ull << 10;

}  // namespace

const MemoryArbiter::MemoryBudget* RegisterMemtableBudget(
    MemoryArbiter* arbiter, std::vector<LsmTree*> trees) {
  LSMSTATS_CHECK(arbiter != nullptr && !trees.empty());
  const uint64_t total = arbiter->total_bytes();
  MemoryArbiter::Registration reg;
  reg.name = "memtables";
  reg.min_bytes = std::max<uint64_t>(kMiB, total / 16);
  // Write buffers cap at half the budget: past that, bigger buffers stop
  // reducing flush counts proportionally (insert cost grows with buffer
  // size) while starving the read path of every byte.
  reg.max_bytes = std::max(reg.min_bytes, total / 2);
  reg.usage = [trees] {
    uint64_t bytes = 0;
    for (LsmTree* tree : trees) bytes += tree->TotalMemTableBytes();
    return bytes;
  };
  // Flushes-avoided-per-MB proxy: the faster the trees are flushing, the
  // more the next byte of write buffer is worth. Idle trees (no flush since
  // the last rebalance) bid near-nothing so a read phase can reclaim the
  // write buffers. `last` lives in the closure; utility calls are
  // serialized under the arbiter lock.
  reg.utility = [trees, last = std::make_shared<uint64_t>(0)]() mutable {
    uint64_t flushes = 0;
    for (LsmTree* tree : trees) flushes += tree->FlushesCompleted();
    const uint64_t delta = flushes - *last;
    *last = flushes;
    // Even one flush per tick window means the write buffers are cycling —
    // bid on par with a fully-thrashing cache (whose ceiling is 8.5).
    return 0.1 + 8.0 * static_cast<double>(std::min<uint64_t>(delta, 8));
  };
  reg.apply = [trees](uint64_t grant) {
    // Split the grant proportionally to each tree's live buffer footprint:
    // the primary's fat records dwarf the secondary-index entries, so an
    // even split would strand most of the grant on trees that never fill.
    // Every tree keeps a floor so an idle index still accepts writes; with
    // no usage anywhere (fresh dataset) the split is even.
    std::vector<uint64_t> usage(trees.size(), 0);
    uint64_t used_total = 0;
    for (size_t i = 0; i < trees.size(); ++i) {
      usage[i] = trees[i]->TotalMemTableBytes();
      used_total += usage[i];
    }
    for (size_t i = 0; i < trees.size(); ++i) {
      uint64_t share = grant / trees.size();
      if (used_total > 0) {
        share = static_cast<uint64_t>(
            static_cast<double>(grant) * (static_cast<double>(usage[i]) /
                                          static_cast<double>(used_total)));
      }
      trees[i]->SetMemTableMaxBytes(std::max<uint64_t>(share, 64 * kKiB));
    }
  };
  return arbiter->Register(std::move(reg));
}

const MemoryArbiter::MemoryBudget* RegisterBlockCacheBudget(
    MemoryArbiter* arbiter, BlockCache* cache) {
  LSMSTATS_CHECK(arbiter != nullptr && cache != nullptr);
  const uint64_t total = arbiter->total_bytes();
  MemoryArbiter::Registration reg;
  reg.name = "block_cache";
  reg.min_bytes = std::max<uint64_t>(256 * kKiB, total / 32);
  reg.max_bytes = total;
  reg.usage = [cache] { return cache->GetStats().charge; };
  // Recent miss rate plus occupancy: a cold or thrashing cache (high misses
  // per lookup since the last rebalance) bids high to grow, and a warm full
  // cache keeps a floor bid proportional to how much of its grant it is
  // actually using — otherwise a perfectly-sized cache would stop bidding,
  // shed capacity, and oscillate between warm and evicted.
  reg.utility = [cache, last = std::make_shared<std::pair<uint64_t, uint64_t>>(
                            0, 0)]() mutable {
    const BlockCache::Stats stats = cache->GetStats();
    const uint64_t hits = stats.hits - last->first;
    const uint64_t misses = stats.misses - last->second;
    last->first = stats.hits;
    last->second = stats.misses;
    const double occupancy =
        stats.capacity > 0 ? static_cast<double>(stats.charge) /
                                 static_cast<double>(stats.capacity)
                           : 0.0;
    const uint64_t lookups = hits + misses;
    if (lookups == 0) return 0.25 + 2.0 * occupancy;
    return 0.5 + 2.0 * occupancy +
           8.0 * static_cast<double>(misses) / static_cast<double>(lookups);
  };
  reg.apply = [cache](uint64_t grant) { cache->SetCapacity(grant); };
  return arbiter->Register(std::move(reg));
}

const MemoryArbiter::MemoryBudget* RegisterBloomBudget(
    MemoryArbiter* arbiter, std::vector<LsmTree*> trees) {
  LSMSTATS_CHECK(arbiter != nullptr && !trees.empty());
  const uint64_t total = arbiter->total_bytes();
  MemoryArbiter::Registration reg;
  reg.name = "blooms";
  reg.min_bytes = 64 * kKiB;
  reg.max_bytes = std::max<uint64_t>(64 * kKiB, total / 8);
  reg.usage = [trees] {
    uint64_t bytes = 0;
    for (LsmTree* tree : trees) bytes += tree->TotalBloomBytes();
    return bytes;
  };
  // Blooms are sized for future components, not resized live, so they place
  // a flat modest bid and rely on their min/max band for protection.
  reg.utility = [] { return 0.05; };
  reg.apply = [trees](uint64_t grant) {
    const uint64_t per_tree = grant / trees.size();
    for (LsmTree* tree : trees) {
      // Translate the byte grant into a filter density for components built
      // from now on: grant bytes spread over the records currently on disk
      // (at least one so an empty tree gets the dense default).
      uint64_t records = 0;
      for (const auto& meta : tree->ComponentsMetadata()) {
        records += meta.record_count;
      }
      const uint64_t bits = per_tree * 8 / std::max<uint64_t>(records, 1);
      const int bits_per_key =
          static_cast<int>(std::clamp<uint64_t>(bits, 2, 16));
      tree->SetBloomBitsPerKey(bits_per_key);
    }
  };
  return arbiter->Register(std::move(reg));
}

const MemoryArbiter::MemoryBudget* RegisterEstimatorBudget(
    MemoryArbiter* arbiter, CardinalityEstimator* estimator,
    const StatisticsCatalog* catalog) {
  LSMSTATS_CHECK(arbiter != nullptr && estimator != nullptr);
  const uint64_t total = arbiter->total_bytes();
  MemoryArbiter::Registration reg;
  reg.name = "synopses";
  reg.min_bytes = 64 * kKiB;
  reg.max_bytes = std::max<uint64_t>(64 * kKiB, total / 4);
  reg.usage = [estimator, catalog] {
    uint64_t bytes = estimator->CachedBytes();
    if (catalog != nullptr) bytes += catalog->TotalStorageBytes();
    return bytes;
  };
  // Synopses shrink gracefully (coarser buckets), so the estimator places a
  // flat modest bid rather than competing with hot read/write components.
  reg.utility = [] { return 0.05; };
  reg.apply = [estimator](uint64_t grant) {
    estimator->SetCacheByteBudget(grant);
  };
  return arbiter->Register(std::move(reg));
}

}  // namespace lsmstats
