// Clang Thread Safety Analysis annotations + annotated mutex wrappers.
//
// The simulator's threading model is *confinement*: one simulation instance
// (Network, Scheduler, PacketPool, registries, apps) is owned end-to-end by
// exactly one thread. src/ starts no threads of its own (sweeps fork one
// process per run, src/sim/supervisor.h), but an embedder may drive several
// instances from several threads. Under that model almost nothing needs a
// lock — the only cross-thread state is the two process-wide tables: the
// git-describe cache in src/sim/telemetry.cc and the flight post-mortem
// registry in src/sim/flight.cc.
//
// This header makes both halves of the model checkable at compile time with
// Clang's -Wthread-safety (the capability/annotation system described in
// "C/C++ Thread Safety Analysis", CAV 2014, and used throughout abseil):
//
//   * every mutex in src/ must be a tfc::Mutex (tools/lint.py bans raw
//     std::mutex outside this header), so every lock is visible to the
//     analysis;
//   * shared data carries TFC_GUARDED_BY(mu), and functions that expect a
//     lock held carry TFC_REQUIRES(mu); forgetting the lock is then a
//     compile error under clang, not a TSan report you hope to trigger.
//
// Under GCC (which has no thread-safety analysis) every macro expands to
// nothing and tfc::Mutex is a zero-overhead std::mutex wrapper; the TSan
// preset (cmake --preset tsan) provides the runtime check there.
//
// Macro set and spellings follow abseil's thread_annotations.h with a TFC_
// prefix; see https://clang.llvm.org/docs/ThreadSafetyAnalysis.html.

#ifndef SRC_SIM_THREAD_ANNOTATIONS_H_
#define SRC_SIM_THREAD_ANNOTATIONS_H_

#include <mutex>

#if defined(__clang__) && (!defined(SWIG))
#define TFC_THREAD_ANNOTATION_ATTRIBUTE_(x) __attribute__((x))
#else
#define TFC_THREAD_ANNOTATION_ATTRIBUTE_(x)  // no-op under GCC/MSVC
#endif

// Data members: which mutex protects this field.
#define TFC_GUARDED_BY(x) TFC_THREAD_ANNOTATION_ATTRIBUTE_(guarded_by(x))
// Pointer members: the *pointee* is protected by the mutex.
#define TFC_PT_GUARDED_BY(x) TFC_THREAD_ANNOTATION_ATTRIBUTE_(pt_guarded_by(x))

// Lock-ordering declarations between mutexes.
#define TFC_ACQUIRED_AFTER(...) \
  TFC_THREAD_ANNOTATION_ATTRIBUTE_(acquired_after(__VA_ARGS__))
#define TFC_ACQUIRED_BEFORE(...) \
  TFC_THREAD_ANNOTATION_ATTRIBUTE_(acquired_before(__VA_ARGS__))

// Function contracts: caller must hold (exclusively / shared), must NOT hold.
#define TFC_REQUIRES(...) \
  TFC_THREAD_ANNOTATION_ATTRIBUTE_(requires_capability(__VA_ARGS__))
#define TFC_REQUIRES_SHARED(...) \
  TFC_THREAD_ANNOTATION_ATTRIBUTE_(requires_shared_capability(__VA_ARGS__))
#define TFC_EXCLUDES(...) \
  TFC_THREAD_ANNOTATION_ATTRIBUTE_(locks_excluded(__VA_ARGS__))

// Function effects: acquires / releases the capability.
#define TFC_ACQUIRE(...) \
  TFC_THREAD_ANNOTATION_ATTRIBUTE_(acquire_capability(__VA_ARGS__))
#define TFC_ACQUIRE_SHARED(...) \
  TFC_THREAD_ANNOTATION_ATTRIBUTE_(acquire_shared_capability(__VA_ARGS__))
#define TFC_RELEASE(...) \
  TFC_THREAD_ANNOTATION_ATTRIBUTE_(release_capability(__VA_ARGS__))
#define TFC_RELEASE_SHARED(...) \
  TFC_THREAD_ANNOTATION_ATTRIBUTE_(release_shared_capability(__VA_ARGS__))
#define TFC_RELEASE_GENERIC(...) \
  TFC_THREAD_ANNOTATION_ATTRIBUTE_(release_generic_capability(__VA_ARGS__))
#define TFC_TRY_ACQUIRE(...) \
  TFC_THREAD_ANNOTATION_ATTRIBUTE_(try_acquire_capability(__VA_ARGS__))
#define TFC_TRY_ACQUIRE_SHARED(...) \
  TFC_THREAD_ANNOTATION_ATTRIBUTE_(try_acquire_shared_capability(__VA_ARGS__))

// Runtime assertions the analysis trusts ("I know this lock is held").
#define TFC_ASSERT_CAPABILITY(x) \
  TFC_THREAD_ANNOTATION_ATTRIBUTE_(assert_capability(x))
#define TFC_ASSERT_SHARED_CAPABILITY(x) \
  TFC_THREAD_ANNOTATION_ATTRIBUTE_(assert_shared_capability(x))

// Type/return annotations.
#define TFC_CAPABILITY(x) TFC_THREAD_ANNOTATION_ATTRIBUTE_(capability(x))
#define TFC_SCOPED_CAPABILITY TFC_THREAD_ANNOTATION_ATTRIBUTE_(scoped_lockable)
#define TFC_RETURN_CAPABILITY(x) TFC_THREAD_ANNOTATION_ATTRIBUTE_(lock_returned(x))

// Escape hatch: disables the analysis for one function. Every use must carry
// a comment explaining why the analysis cannot see the invariant.
#define TFC_NO_THREAD_SAFETY_ANALYSIS \
  TFC_THREAD_ANNOTATION_ATTRIBUTE_(no_thread_safety_analysis)

namespace tfc {

// Annotated exclusive mutex. The one sanctioned mutex type in src/ — wrapping
// std::mutex so the capability attribute rides along and every Lock/Unlock
// is visible to -Wthread-safety. Non-recursive; lock ordering is the
// annotator's job (TFC_ACQUIRED_BEFORE/AFTER).
class TFC_CAPABILITY("mutex") Mutex {
 public:
  Mutex() = default;
  Mutex(const Mutex&) = delete;
  Mutex& operator=(const Mutex&) = delete;

  void Lock() TFC_ACQUIRE() { mu_.lock(); }
  void Unlock() TFC_RELEASE() { mu_.unlock(); }

 private:
  std::mutex mu_;
};

// RAII lock for tfc::Mutex, annotated as a scoped capability so the analysis
// tracks the critical section's extent:
//
//   tfc::MutexLock lock(&mu_);
//   ++shared_counter_;  // OK: shared_counter_ is TFC_GUARDED_BY(mu_)
class TFC_SCOPED_CAPABILITY MutexLock {
 public:
  explicit MutexLock(Mutex* mu) TFC_ACQUIRE(mu) : mu_(mu) { mu_->Lock(); }
  MutexLock(const MutexLock&) = delete;
  MutexLock& operator=(const MutexLock&) = delete;
  ~MutexLock() TFC_RELEASE() { mu_->Unlock(); }

 private:
  Mutex* mu_;
};

}  // namespace tfc

#endif  // SRC_SIM_THREAD_ANNOTATIONS_H_
