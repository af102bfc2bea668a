/**
 * @file
 * Capability-annotated synchronisation primitives.
 *
 * Thin wrappers over std::mutex / std::condition_variable that carry
 * the Clang thread-safety attributes libstdc++'s types lack, so code
 * holding state under a lock can say so in the type system:
 *
 *     Mutex mutex_;
 *     std::deque<Task> queue_ HLLC_GUARDED_BY(mutex_);
 *
 *     void push(Task t) {
 *         MutexLock lock(mutex_);   // scoped capability
 *         queue_.push_back(std::move(t));
 *     }                             // released here
 *
 * Under -Wthread-safety (CI's clang-tsa job) a read of queue_ without
 * the lock is a compile error; under GCC everything reduces to the
 * plain std primitives with zero overhead.
 */

#ifndef HLLC_COMMON_SYNC_HH
#define HLLC_COMMON_SYNC_HH

#include <chrono>
#include <condition_variable>
#include <cstdint>
#include <mutex>

#include "common/thread_annotations.hh"

namespace hllc
{

/** std::mutex as a Clang thread-safety capability. */
class HLLC_CAPABILITY("mutex") Mutex
{
  public:
    Mutex() = default;
    Mutex(const Mutex &) = delete;
    Mutex &operator=(const Mutex &) = delete;

    void lock() HLLC_ACQUIRE() { mutex_.lock(); }
    void unlock() HLLC_RELEASE() { mutex_.unlock(); }

    /** The wrapped mutex, for CondVar only. */
    std::mutex &native() { return mutex_; }

  private:
    std::mutex mutex_;
};

/** Scoped lock (std::lock_guard with the scoped-capability attribute). */
class HLLC_SCOPED_CAPABILITY MutexLock
{
  public:
    explicit MutexLock(Mutex &mutex) HLLC_ACQUIRE(mutex) : mutex_(mutex)
    {
        mutex_.lock();
    }
    ~MutexLock() HLLC_RELEASE() { mutex_.unlock(); }

    MutexLock(const MutexLock &) = delete;
    MutexLock &operator=(const MutexLock &) = delete;

  private:
    Mutex &mutex_;
};

/**
 * Condition variable over hllc::Mutex. wait() requires the mutex held —
 * which the analysis can now check — and, like std::condition_variable,
 * releases it while blocked and reacquires before returning.
 */
class CondVar
{
  public:
    void notifyOne() { cv_.notify_one(); }
    void notifyAll() { cv_.notify_all(); }

    void
    wait(Mutex &mutex) HLLC_REQUIRES(mutex)
    {
        // Adopt the already-held native mutex for the wait protocol,
        // then release the unique_lock without unlocking: ownership
        // stays with the caller's MutexLock.
        std::unique_lock<std::mutex> lock(mutex.native(),
                                          std::adopt_lock);
        cv_.wait(lock);
        lock.release();
    }

    /**
     * Wait for up to @p timeout_ms milliseconds (monotonic clock).
     * Returns false on timeout, true when notified (possibly
     * spuriously — re-check the predicate either way).
     */
    bool
    waitFor(Mutex &mutex, std::uint64_t timeout_ms) HLLC_REQUIRES(mutex)
    {
        std::unique_lock<std::mutex> lock(mutex.native(),
                                          std::adopt_lock);
        const auto status =
            cv_.wait_for(lock, std::chrono::milliseconds(timeout_ms));
        lock.release();
        return status == std::cv_status::no_timeout;
    }

  private:
    std::condition_variable cv_;
};

} // namespace hllc

#endif // HLLC_COMMON_SYNC_HH
