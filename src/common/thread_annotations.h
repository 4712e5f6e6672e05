// Clang Thread Safety Analysis annotation macros.
//
// These expand to Clang's thread-safety attributes when the compiler supports
// them and to nothing otherwise (GCC builds the same sources unannotated).
// Paired with `-Wthread-safety -Werror=thread-safety` (the dedicated CI leg),
// a violated locking contract — touching a GUARDED_BY member without the
// lock, calling a REQUIRES function unlocked, leaking a capability — is a
// compile error instead of a flaky runtime report.
//
// Conventions (see DESIGN.md "Lock hierarchy"):
//   * Every shared member is GUARDED_BY its mutex.
//   * A function that expects the caller to hold a lock is named `...Locked`
//     and annotated REQUIRES(mu).
//   * A function that must NOT be entered with a lock held (because it
//     acquires it, or blocks on it) is annotated EXCLUDES(mu).
//   * Lambdas invoked under a lock the analysis cannot see through (e.g. the
//     condition-variable predicates LsmTree waits on under mu_) start with
//     `mu_.AssertHeld()`, which both informs the analysis and — in debug
//     builds — verifies the claim at runtime via the lock-rank tracker.
//
// The macro names follow the Clang documentation / Abseil spelling so the
// annotations read like every other annotated codebase.

#ifndef LSMSTATS_COMMON_THREAD_ANNOTATIONS_H_
#define LSMSTATS_COMMON_THREAD_ANNOTATIONS_H_

#if defined(__clang__)
#define LSMSTATS_THREAD_ANNOTATION_ATTRIBUTE(x) __attribute__((x))
#else
#define LSMSTATS_THREAD_ANNOTATION_ATTRIBUTE(x)  // no-op on GCC/MSVC
#endif

// On a class: instances are a synchronization capability ("mutex").
#define CAPABILITY(x) \
  LSMSTATS_THREAD_ANNOTATION_ATTRIBUTE(capability(x))

// On an RAII class whose constructor acquires and destructor releases.
#define SCOPED_CAPABILITY \
  LSMSTATS_THREAD_ANNOTATION_ATTRIBUTE(scoped_lockable)

// On a data member: may only be read/written while holding `x`.
#define GUARDED_BY(x) \
  LSMSTATS_THREAD_ANNOTATION_ATTRIBUTE(guarded_by(x))

// On a pointer member: the pointed-to data is protected by `x`.
#define PT_GUARDED_BY(x) \
  LSMSTATS_THREAD_ANNOTATION_ATTRIBUTE(pt_guarded_by(x))

// On a mutex member: document static acquisition order between mutexes.
#define ACQUIRED_BEFORE(...) \
  LSMSTATS_THREAD_ANNOTATION_ATTRIBUTE(acquired_before(__VA_ARGS__))
#define ACQUIRED_AFTER(...) \
  LSMSTATS_THREAD_ANNOTATION_ATTRIBUTE(acquired_after(__VA_ARGS__))

// On a function: caller must hold the capability (exclusively / shared).
#define REQUIRES(...) \
  LSMSTATS_THREAD_ANNOTATION_ATTRIBUTE(requires_capability(__VA_ARGS__))
#define REQUIRES_SHARED(...) \
  LSMSTATS_THREAD_ANNOTATION_ATTRIBUTE(requires_shared_capability(__VA_ARGS__))

// On a function: it acquires the capability and does not release it.
#define ACQUIRE(...) \
  LSMSTATS_THREAD_ANNOTATION_ATTRIBUTE(acquire_capability(__VA_ARGS__))
#define ACQUIRE_SHARED(...) \
  LSMSTATS_THREAD_ANNOTATION_ATTRIBUTE(acquire_shared_capability(__VA_ARGS__))

// On a function: it releases a capability the caller holds.
#define RELEASE(...) \
  LSMSTATS_THREAD_ANNOTATION_ATTRIBUTE(release_capability(__VA_ARGS__))
#define RELEASE_SHARED(...) \
  LSMSTATS_THREAD_ANNOTATION_ATTRIBUTE(release_shared_capability(__VA_ARGS__))

// On a function returning bool: acquires the capability when returning `b`.
#define TRY_ACQUIRE(b, ...) \
  LSMSTATS_THREAD_ANNOTATION_ATTRIBUTE(try_acquire_capability(b, __VA_ARGS__))

// On a function: caller must NOT hold the capability (the function acquires
// it itself, or would deadlock).
#define EXCLUDES(...) \
  LSMSTATS_THREAD_ANNOTATION_ATTRIBUTE(locks_excluded(__VA_ARGS__))

// On a function: asserts (rather than acquires) that the capability is held —
// the escape hatch for lock flow the analysis cannot follow.
#define ASSERT_CAPABILITY(x) \
  LSMSTATS_THREAD_ANNOTATION_ATTRIBUTE(assert_capability(x))

// On a function returning a reference/pointer to a capability.
#define RETURN_CAPABILITY(x) \
  LSMSTATS_THREAD_ANNOTATION_ATTRIBUTE(lock_returned(x))

// On a function: opt out of analysis entirely (use sparingly, with a comment).
#define NO_THREAD_SAFETY_ANALYSIS \
  LSMSTATS_THREAD_ANNOTATION_ATTRIBUTE(no_thread_safety_analysis)

#endif  // LSMSTATS_COMMON_THREAD_ANNOTATIONS_H_
