// Annotated mutex / condition-variable wrappers with a debug lock-rank
// deadlock detector.
//
// All locking in src/ goes through these types instead of raw std::mutex
// (enforced by the `raw-mutex` rule in tools/lint.py), which buys two layers
// of machine-checked lock discipline:
//
//   1. Static: Mutex/MutexLock carry Clang Thread Safety Analysis
//      annotations (common/thread_annotations.h). Under the dedicated
//      `-Wthread-safety` CI leg, touching a GUARDED_BY member without the
//      lock or calling a REQUIRES function unlocked is a build break.
//   2. Dynamic (debug builds): every Mutex is constructed with a LockRank.
//      A thread-local held-lock stack asserts that ranks are acquired in
//      strictly decreasing order; any inversion — including re-entrant
//      acquisition and equal-rank nesting — aborts immediately with the
//      full held-lock stack, *before* blocking, so cross-component cycles
//      that static per-function analysis cannot see die deterministically
//      instead of deadlocking once in a thousand runs.
//
// The rank checker is compiled in when LSMSTATS_LOCK_RANK_CHECKS is 1
// (default: on unless NDEBUG). Release builds compile it out entirely — no
// tracker symbols, no extra branches (CI asserts the symbols are absent from
// the release archive). The `tsan` preset forces it on so the full suite
// exercises the engine's lock order on every push.
//
// Adding a mutex: pick the rank from the table in DESIGN.md ("Lock
// hierarchy") matching where the new lock nests — it must be lower than
// every lock that may be held when it is acquired, and higher than every
// lock acquired while it is held. Extend the enum (ranks are spaced by 10 so
// new levels fit between existing ones) and document the new row.

#ifndef LSMSTATS_COMMON_MUTEX_H_
#define LSMSTATS_COMMON_MUTEX_H_

#include <chrono>
#include <condition_variable>
#include <mutex>

#include "common/thread_annotations.h"

#if !defined(LSMSTATS_LOCK_RANK_CHECKS)
#if defined(NDEBUG)
#define LSMSTATS_LOCK_RANK_CHECKS 0
#else
#define LSMSTATS_LOCK_RANK_CHECKS 1
#endif
#endif

namespace lsmstats {

// Global lock hierarchy, highest (acquired first) to lowest. A thread may
// only acquire a mutex whose rank is STRICTLY LOWER than every mutex it
// already holds. Full table with the nesting chains that pin each value:
// DESIGN.md "Lock hierarchy".
enum class LockRank : int {
  // BackgroundScheduler::mu_. Highest: Schedule()/Drain()/Shutdown() must be
  // called with no engine lock held (a post-shutdown Schedule runs the task
  // inline, and workers take tree locks), so nothing may nest inside it.
  kScheduler = 120,
  // MemoryArbiter::mu_ — guards registrations and grant arithmetic. A
  // rebalance applies grants by calling INTO trees/cache/estimator (ranks
  // <= 100) after releasing this lock; pressure notifications from code
  // holding tree locks are atomics-only and never take it.
  kMemoryArbiter = 110,
  // LsmTree::work_mu_ — serializes structural ops; held across component
  // writes and listener streams.
  kTreeWork = 100,
  // LsmTree::mu_ — memtable / component-stack state. Acquired under
  // work_mu_ (install steps), never the other way around.
  kTreeState = 90,
  // WalLog::mu_ — the write-ahead-log state. Taken by the dataset's writer
  // with no tree lock held; performs Env I/O (append, fsync, seal) while
  // held.
  kWalLog = 85,
  // FaultInjectionEnv::mu_ — filesystem ops run under tree locks (recovery
  // under mu_, component builds under work_mu_) and under WalLog::mu_.
  kEnv = 80,
  // BlockCache::Shard::mu — block reads happen under merge (work_mu_);
  // shards never call out while locked and never nest with each other.
  kBlockCacheShard = 70,
  // NodeController::TransportSink::mu_ — publishes under work_mu_ and calls
  // into the cluster controller while holding it (one in-flight delivery).
  kTransportSink = 60,
  // ClusterController::receive_mu_ — acquired from the transport sink;
  // mutates the catalog while held.
  kClusterReceive = 50,
  // CardinalityEstimator::cache_mu_ — may consult the catalog below it.
  kEstimatorCache = 40,
  // StatisticsCatalog::mu_ — reached from sinks, the receive path, and the
  // estimator; calls nothing that locks.
  kStatisticsCatalog = 30,
  // Codec registry in lsm/format/compression.cc — block decode paths under
  // any of the above.
  kCodecRegistry = 20,
  // A mutex that never holds another lock while locked and is never
  // acquired with specific ordering requirements above it.
  kLeaf = 10,
};

class CAPABILITY("mutex") Mutex;

namespace lock_rank_internal {
#if LSMSTATS_LOCK_RANK_CHECKS
// Aborts (with the held-lock stack) unless acquiring `mu` keeps this
// thread's held ranks strictly decreasing; called BEFORE blocking on the
// native mutex so an inversion dies loudly instead of deadlocking.
void CheckAcquire(const Mutex* mu);
// Pushes `mu` onto the thread's held-lock stack.
void RecordAcquired(const Mutex* mu);
// Removes `mu` from the stack wherever it sits — release order is free.
void RecordReleased(const Mutex* mu);
// Aborts unless this thread holds `mu`.
void CheckHeld(const Mutex* mu);
#endif
}  // namespace lock_rank_internal

// Annotated wrapper over std::mutex. Construction requires a rank and a
// name; the name appears in rank-checker diagnostics.
class CAPABILITY("mutex") Mutex {
 public:
  explicit Mutex(LockRank rank, const char* name)
      : rank_(rank), name_(name) {}

  Mutex(const Mutex&) = delete;
  Mutex& operator=(const Mutex&) = delete;

  void Lock() ACQUIRE() {
#if LSMSTATS_LOCK_RANK_CHECKS
    lock_rank_internal::CheckAcquire(this);
#endif
    native_.lock();
#if LSMSTATS_LOCK_RANK_CHECKS
    lock_rank_internal::RecordAcquired(this);
#endif
  }

  void Unlock() RELEASE() {
#if LSMSTATS_LOCK_RANK_CHECKS
    lock_rank_internal::RecordReleased(this);
#endif
    native_.unlock();
  }

  // Tells the static analysis — and, in debug builds, verifies at runtime —
  // that the calling thread holds this mutex. Used at the top of lambdas
  // invoked under a lock the analysis cannot see through.
  void AssertHeld() const ASSERT_CAPABILITY(this) {
#if LSMSTATS_LOCK_RANK_CHECKS
    lock_rank_internal::CheckHeld(this);
#endif
  }

  LockRank rank() const { return rank_; }
  const char* name() const { return name_; }

 private:
  friend class CondVar;

  std::mutex native_;
  const LockRank rank_;
  const char* const name_;
};

// RAII lock. The only way src/ code should hold a Mutex.
class SCOPED_CAPABILITY MutexLock {
 public:
  explicit MutexLock(Mutex* mu) ACQUIRE(mu) : mu_(mu) { mu_->Lock(); }
  ~MutexLock() RELEASE() { mu_->Unlock(); }

  MutexLock(const MutexLock&) = delete;
  MutexLock& operator=(const MutexLock&) = delete;

 private:
  Mutex* const mu_;
};

// Condition variable bound to the annotated Mutex. Wait() keeps the
// rank-checker's held-lock stack honest across the implicit release/
// re-acquire, so waiting while holding a lower-ranked second lock — a
// lost-wakeup / deadlock recipe — still aborts in debug builds.
class CondVar {
 public:
  CondVar() = default;
  CondVar(const CondVar&) = delete;
  CondVar& operator=(const CondVar&) = delete;

  // Atomically releases `*mu`, sleeps, and re-acquires it before returning.
  // Spurious wakeups happen: always wait in a predicate loop (or use the
  // predicate overload below).
  void Wait(Mutex* mu) REQUIRES(mu) {
#if LSMSTATS_LOCK_RANK_CHECKS
    lock_rank_internal::CheckHeld(mu);
    lock_rank_internal::RecordReleased(mu);
#endif
    std::unique_lock<std::mutex> native(mu->native_, std::adopt_lock);
    cv_.wait(native);
    // The native lock stays held past this scope; ownership returns to the
    // caller's MutexLock, so the guard must not unlock on destruction.
    native.release();
#if LSMSTATS_LOCK_RANK_CHECKS
    lock_rank_internal::CheckAcquire(mu);
    lock_rank_internal::RecordAcquired(mu);
#endif
  }

  // Waits until `pred()` holds.
  template <typename Predicate>
  void Wait(Mutex* mu, Predicate pred) REQUIRES(mu) {
    while (!pred()) Wait(mu);
  }

  // Single timed wait. Returns true if woken by a notify, false on timeout.
  // Spurious wakeups count as notifies: use the predicate overload below
  // unless the caller loops itself.
  template <typename Clock, typename Duration>
  bool WaitUntil(Mutex* mu,
                 std::chrono::time_point<Clock, Duration> deadline)
      REQUIRES(mu) {
#if LSMSTATS_LOCK_RANK_CHECKS
    lock_rank_internal::CheckHeld(mu);
    lock_rank_internal::RecordReleased(mu);
#endif
    std::unique_lock<std::mutex> native(mu->native_, std::adopt_lock);
    const std::cv_status status = cv_.wait_until(native, deadline);
    native.release();
#if LSMSTATS_LOCK_RANK_CHECKS
    lock_rank_internal::CheckAcquire(mu);
    lock_rank_internal::RecordAcquired(mu);
#endif
    return status == std::cv_status::no_timeout;
  }

  // Waits up to `timeout` for `pred()` to hold. Returns pred()'s value on
  // exit — true means the predicate held, false means the window elapsed
  // without it.
  template <typename Rep, typename Period, typename Predicate>
  bool WaitFor(Mutex* mu, std::chrono::duration<Rep, Period> timeout,
               Predicate pred) REQUIRES(mu) {
    const auto deadline = std::chrono::steady_clock::now() + timeout;
    while (!pred()) {
      if (!WaitUntil(mu, deadline)) return pred();
    }
    return true;
  }

  void NotifyOne() { cv_.notify_one(); }
  void NotifyAll() { cv_.notify_all(); }

 private:
  std::condition_variable cv_;
};

}  // namespace lsmstats

#endif  // LSMSTATS_COMMON_MUTEX_H_
