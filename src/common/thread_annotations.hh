/**
 * @file
 * Clang thread-safety-analysis attributes behind portable macros.
 *
 * Under Clang with -Wthread-safety (the CI `clang-tsa` job builds with
 * it plus -Werror), these expand to the capability attributes and the
 * compiler proves at compile time that every access to a
 * HLLC_GUARDED_BY member happens with its mutex held. Under GCC the
 * macros compile away entirely, so the annotations cost nothing in the
 * default toolchain.
 *
 * The annotated primitives live in common/sync.hh: std::mutex itself
 * carries no capability attributes under libstdc++, so the analysis
 * needs the thin hllc::Mutex / MutexLock / CondVar wrappers.
 */

#ifndef HLLC_COMMON_THREAD_ANNOTATIONS_HH
#define HLLC_COMMON_THREAD_ANNOTATIONS_HH

#if defined(__clang__) && defined(__has_attribute)
#if __has_attribute(guarded_by)
#define HLLC_TS_ATTR(x) __attribute__((x))
#endif
#endif
#ifndef HLLC_TS_ATTR
#define HLLC_TS_ATTR(x) // no-op outside Clang
#endif

/** Marks a type as a lockable capability ("mutex"). */
#define HLLC_CAPABILITY(x) HLLC_TS_ATTR(capability(x))
/** Marks an RAII type that acquires in its ctor, releases in its dtor. */
#define HLLC_SCOPED_CAPABILITY HLLC_TS_ATTR(scoped_lockable)
/** Member readable/writable only with capability @p x held. */
#define HLLC_GUARDED_BY(x) HLLC_TS_ATTR(guarded_by(x))
/** Pointee guarded by @p x (the pointer itself is not). */
#define HLLC_PT_GUARDED_BY(x) HLLC_TS_ATTR(pt_guarded_by(x))
/** Caller must hold the listed capabilities. */
#define HLLC_REQUIRES(...) \
    HLLC_TS_ATTR(requires_capability(__VA_ARGS__))
/** Function acquires the capability and holds it on return. */
#define HLLC_ACQUIRE(...) \
    HLLC_TS_ATTR(acquire_capability(__VA_ARGS__))
/** Function releases the capability. */
#define HLLC_RELEASE(...) \
    HLLC_TS_ATTR(release_capability(__VA_ARGS__))
/** Escape hatch: the analysis is wrong or too weak here. */
#define HLLC_NO_THREAD_SAFETY_ANALYSIS \
    HLLC_TS_ATTR(no_thread_safety_analysis)

#endif // HLLC_COMMON_THREAD_ANNOTATIONS_HH
