/**
 * @file
 * A minimal fixed-size thread pool for the embarrassingly parallel
 * policy×mix grids the experiments run.
 *
 * Design constraints (see DESIGN.md §7):
 *  - no work stealing: one mutex-protected FIFO queue shared by all
 *    workers, because grid cells are seconds-long and queue contention
 *    is irrelevant at that granularity;
 *  - determinism is the caller's job: tasks must derive any randomness
 *    from their grid coordinates (never from thread id or execution
 *    order) and write results into pre-sized slots;
 *  - jobs == 1 bypasses the workers entirely, so the serial path stays
 *    exercisable (and debuggable) with the same code.
 */

#ifndef HLLC_COMMON_THREAD_POOL_HH
#define HLLC_COMMON_THREAD_POOL_HH

#include <deque>
#include <exception>
#include <functional>
#include <future>
#include <memory>
#include <stdexcept>
#include <thread>
#include <type_traits>
#include <vector>

#include "common/sync.hh"
#include "common/thread_annotations.hh"

namespace hllc
{

/**
 * Fixed worker count, FIFO dispatch, futures out. stop() (or
 * destruction) drains the queue deterministically: every task accepted
 * by submit() before the stop runs to completion, and every submit()
 * attempted after the stop began throws std::runtime_error — a task is
 * never silently enqueued to a pool whose workers are gone.
 */
class ThreadPool
{
  public:
    /** @param num_workers worker threads; 0 is clamped to 1. */
    explicit ThreadPool(unsigned num_workers);

    /** stop()s if the caller has not already. */
    ~ThreadPool();

    ThreadPool(const ThreadPool &) = delete;
    ThreadPool &operator=(const ThreadPool &) = delete;

    unsigned numWorkers() const
    {
        return static_cast<unsigned>(workers_.size());
    }

    /**
     * Drain and join: runs every task already accepted, then joins the
     * workers. The accept/reject decision is made under the queue lock,
     * so a submit() racing a stop() either got in before it (its task is
     * guaranteed to run) or throws — never a silent enqueue. Idempotent:
     * the first caller joins, later calls return immediately.
     */
    void stop();

    /**
     * Queue @p task for execution; the returned future yields its result
     * or rethrows the exception it exited with. Throws
     * std::runtime_error once stop() has begun (a silently dropped task
     * would wait on its future forever).
     */
    template <typename F>
    std::future<std::invoke_result_t<F>>
    submit(F task)
    {
        using R = std::invoke_result_t<F>;
        // packaged_task is move-only but std::function requires copyable
        // targets, so the task rides behind a shared_ptr.
        auto packaged = std::make_shared<std::packaged_task<R()>>(
            std::move(task));
        std::future<R> result = packaged->get_future();
        {
            MutexLock lock(mutex_);
            if (stopping_) {
                throw std::runtime_error(
                    "ThreadPool::submit() after stop(): the task would"
                    " never run");
            }
            queue_.emplace_back([packaged] { (*packaged)(); });
        }
        available_.notifyOne();
        return result;
    }

  private:
    void workerLoop() HLLC_EXCLUDES(mutex_);

    std::vector<std::thread> workers_;
    Mutex mutex_;
    CondVar available_;
    std::deque<std::function<void()>> queue_ HLLC_GUARDED_BY(mutex_);
    bool stopping_ HLLC_GUARDED_BY(mutex_) = false;
    bool joined_ HLLC_GUARDED_BY(mutex_) = false;
};

/**
 * Number of parallel jobs to use by default: the HLLC_JOBS environment
 * variable if set to an integer >= 1, otherwise hardware_concurrency()
 * (with a warning when HLLC_JOBS is set but malformed).
 */
unsigned defaultJobs();

/**
 * Run body(0) .. body(n - 1) on @p jobs workers (inline when jobs <= 1
 * or n <= 1) and wait for all of them. Iterations are dispatched in
 * index order; if any iteration throws, the first (lowest-index)
 * exception is rethrown after every iteration has finished.
 *
 * The iteration index is the only coupling between body and schedule:
 * bodies must key any randomness on it, not on thread identity.
 */
void parallelFor(unsigned jobs, std::size_t n,
                 const std::function<void(std::size_t)> &body);

} // namespace hllc

#endif // HLLC_COMMON_THREAD_POOL_HH
