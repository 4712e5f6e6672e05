// MemoryArbiter: one global byte budget per dataset, arbitrated across the
// components that consume memory — memtable write buffers, the shared block
// cache, bloom filters, and the synopsis/estimator budgets ("Breaking Down
// Memory Walls": a static split of a fixed budget loses to an adaptive one
// whenever the workload shifts).
//
// Components register first-class MemoryBudget handles. Each registration
// carries:
//   * a [min, max] byte range the component can live with,
//   * a usage() probe reporting bytes currently held,
//   * a utility() probe reporting a marginal-utility weight (e.g. the cache's
//     recent miss rate, a tree's recent flush rate), and
//   * an apply() callback that installs a new grant.
//
// The arbiter rebalances on a timer tick (MaybeTick, driven from the
// dataset's write/read paths and executed on the BackgroundScheduler when one
// exists) and immediately after pressure events (NotePressure — wired to
// memtable backpressure and the free-space watchdog via
// LsmTree::SetPressureCallback; cache eviction storms surface through the
// cache budget's utility at the next tick). Rebalancing is deterministic
// water-filling: every budget starts at its min, and the remainder is split
// proportionally to utility, capped at each budget's max.
//
// Locking: mu_ (rank kMemoryArbiter, above every engine lock) guards the
// registration list and grant arithmetic. usage()/utility() probes run under
// mu_ and may take component locks (all ranked below). apply() callbacks run
// with NO arbiter lock held. NotePressure is atomics-only so call sites
// holding tree locks can use it.
//
// When a dataset has no total budget configured the arbiter is simply never
// constructed, keeping every knob bit-identical to the static defaults.

#ifndef LSMSTATS_DB_MEMORY_ARBITER_H_
#define LSMSTATS_DB_MEMORY_ARBITER_H_

#include <atomic>
#include <chrono>
#include <cstdint>
#include <functional>
#include <memory>
#include <string>
#include <vector>

#include "common/mutex.h"

namespace lsmstats {

class BackgroundScheduler;
class BlockCache;
class CardinalityEstimator;
class LsmTree;
class StatisticsCatalog;

class MemoryArbiter {
 public:
  // A registered component's live grant. Returned by Register(); owned by
  // the arbiter, valid for the arbiter's lifetime.
  class MemoryBudget {
   public:
    MemoryBudget() = default;
    MemoryBudget(const MemoryBudget&) = delete;
    MemoryBudget& operator=(const MemoryBudget&) = delete;

    const std::string& name() const { return name_; }
    uint64_t granted() const {
      return granted_.load(std::memory_order_relaxed);
    }

   private:
    friend class MemoryArbiter;
    std::string name_;
    uint64_t min_bytes_ = 0;
    uint64_t max_bytes_ = 0;
    std::function<uint64_t()> usage_;
    std::function<double()> utility_;
    std::function<void(uint64_t)> apply_;
    std::atomic<uint64_t> granted_{0};
  };

  struct Registration {
    std::string name;
    // Grant clamp. min is honored even when the mins oversubscribe the total
    // (a configuration error, not a runtime condition to arbitrate).
    uint64_t min_bytes = 0;
    uint64_t max_bytes = UINT64_MAX;
    // Bytes currently held. May be null (reported as 0).
    std::function<uint64_t()> usage;
    // Marginal-utility weight, higher = more deserving of the next byte.
    // Non-finite/non-positive results are clamped to a small epsilon. May be
    // null (weight 1). Called under the arbiter lock; may take component
    // locks (all ranked below kMemoryArbiter) and may keep internal state
    // for rate deltas (calls are serialized).
    std::function<double()> utility;
    // Installs a new grant. Called WITHOUT the arbiter lock; must be safe
    // from any thread. May be null (grant is observable via granted() only).
    std::function<void(uint64_t)> apply;
  };

  // One row of Snapshot(): the current grant next to what the component
  // actually holds.
  struct GrantInfo {
    std::string name;
    uint64_t granted = 0;
    uint64_t usage = 0;
    uint64_t min_bytes = 0;
    uint64_t max_bytes = 0;
  };

  // `scheduler` (optional, must outlive the arbiter) runs tick-triggered
  // rebalances off the caller's thread; null runs them inline.
  explicit MemoryArbiter(
      uint64_t total_bytes, BackgroundScheduler* scheduler = nullptr,
      std::chrono::milliseconds tick_interval = std::chrono::milliseconds(50));

  MemoryArbiter(const MemoryArbiter&) = delete;
  MemoryArbiter& operator=(const MemoryArbiter&) = delete;

  // Calls Shutdown().
  ~MemoryArbiter();

  // Stops scheduling rebalances and waits for any in-flight one. No
  // registered callback runs afterwards, so the components may then be
  // destroyed before the arbiter. Idempotent.
  void Shutdown() EXCLUDES(mu_);

  // Registers a component. The returned handle is valid until the arbiter
  // is destroyed; every callback must remain callable until Shutdown()
  // (i.e. the component must outlive the arbiter or its shutdown). Does not
  // rebalance by itself — call Rebalance() once registrations are
  // complete.
  const MemoryBudget* Register(Registration registration) EXCLUDES(mu_);

  // Recomputes every grant (deterministic water-filling, see file comment)
  // and invokes apply() callbacks with the lock released.
  void Rebalance() EXCLUDES(mu_);

  // Cheap periodic gate for hot paths: rebalances (inline or via the
  // scheduler) when the tick interval elapsed or a pressure event is
  // pending; otherwise a couple of relaxed atomic ops.
  void MaybeTick() EXCLUDES(mu_);

  // Records a pressure event (memtable backpressure, free-space watchdog,
  // cache storm) and makes the next MaybeTick rebalance immediately.
  // Lock-free: safe from code holding any engine lock.
  void NotePressure() {
    pressure_events_.fetch_add(1, std::memory_order_relaxed);
    pressure_pending_.store(true, std::memory_order_relaxed);
  }

  uint64_t total_bytes() const { return total_bytes_; }
  uint64_t rebalances() const {
    return rebalances_.load(std::memory_order_relaxed);
  }
  uint64_t pressure_events() const {
    return pressure_events_.load(std::memory_order_relaxed);
  }

  // Current grants with live usage probes — diagnostics for tests and the
  // --mode=memory bench.
  std::vector<GrantInfo> Snapshot() const EXCLUDES(mu_);

 private:
  void ScheduleRebalance() EXCLUDES(mu_);

  const uint64_t total_bytes_;
  BackgroundScheduler* const scheduler_;
  const int64_t tick_interval_ns_;

  std::atomic<bool> pressure_pending_{false};
  std::atomic<uint64_t> pressure_events_{0};
  std::atomic<uint64_t> rebalances_{0};
  std::atomic<uint32_t> tick_calls_{0};
  std::atomic<int64_t> last_tick_ns_{0};

  mutable Mutex mu_{LockRank::kMemoryArbiter, "memory_arbiter"};
  CondVar cv_;  // destructor waits for scheduled rebalances
  bool shutting_down_ GUARDED_BY(mu_) = false;
  int tasks_in_flight_ GUARDED_BY(mu_) = 0;
  std::vector<std::unique_ptr<MemoryBudget>> budgets_ GUARDED_BY(mu_);
};

// --- Registration helpers ---------------------------------------------------
//
// ALL direct budget-knob mutation (LsmTree::SetMemTableMaxBytes /
// SetBloomBitsPerKey, BlockCache::SetCapacity,
// CardinalityEstimator::SetCacheByteBudget) lives behind these helpers in
// memory_arbiter.cc — enforced by the `memory-budget` rule in tools/lint.py —
// so every budget change in the system flows through the arbiter.

// Write buffers: usage sums TotalMemTableBytes (mutable + immutable queue)
// across `trees`; utility tracks the recent flush rate (frequent flushes =
// bigger memtables save work); apply splits the grant evenly per tree.
const MemoryArbiter::MemoryBudget* RegisterMemtableBudget(
    MemoryArbiter* arbiter, std::vector<LsmTree*> trees);

// Shared block cache: usage = charge, utility tracks the recent miss rate,
// apply = SetCapacity (shrink evicts immediately).
const MemoryArbiter::MemoryBudget* RegisterBlockCacheBudget(
    MemoryArbiter* arbiter, BlockCache* cache);

// Bloom filters: usage sums resident filter bytes; apply converts the grant
// into a bits-per-key density (clamped to [2, 16]) for components built from
// now on.
const MemoryArbiter::MemoryBudget* RegisterBloomBudget(
    MemoryArbiter* arbiter, std::vector<LsmTree*> trees);

// Merged-synopsis cache (+ optional catalog storage as usage context):
// apply = SetCacheByteBudget, which LRU-evicts immediately. `catalog` may be
// null.
const MemoryArbiter::MemoryBudget* RegisterEstimatorBudget(
    MemoryArbiter* arbiter, CardinalityEstimator* estimator,
    const StatisticsCatalog* catalog);

}  // namespace lsmstats

#endif  // LSMSTATS_DB_MEMORY_ARBITER_H_
