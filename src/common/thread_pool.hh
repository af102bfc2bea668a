/**
 * @file
 * Thread pools for the policy×mix grids the experiments run.
 *
 * Two schedulers share one set of rules (see DESIGN.md §7):
 *  - parallelFor / ThreadPool: a fixed-size pool with one
 *    mutex-protected FIFO queue, iterations dispatched in index order
 *    and no work stealing; the replay and phase grids and the capture
 *    use it, as their cells are independent and seconds-long;
 *  - runJobs: the forecast grid's scheduler. Jobs start in a caller-
 *    given order (longest first), and a running job may fork a batch of
 *    tasks (ForkJoin) that idle workers help run once no job is left to
 *    start;
 *  - determinism is the caller's job either way: tasks must derive any
 *    randomness from their grid coordinates (never from thread id or
 *    execution order) and write results into pre-sized slots;
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

/**
 * Fork-join for one job of runJobs(): run() hands a batch of tasks to
 * the scheduler and returns once all of them have finished.
 */
class ForkJoin
{
  public:
    /**
     * One task: its index, and a slot in [0, width()) that no other
     * task of the batch holds while this one runs (per-slot scratch
     * state needs no lock).
     */
    using Body = std::function<void(std::size_t task, unsigned slot)>;

    /** Most tasks of one batch in flight at once. */
    virtual unsigned width() const = 0;

    /**
     * Run body(i, slot) for every i in [0, n), claimed in index order,
     * and wait for them. Once a task throws, tasks not yet claimed are
     * skipped; after the claimed ones finish, the lowest-index
     * exception is rethrown (the one a serial loop would have hit).
     */
    virtual void run(std::size_t n, const Body &body) = 0;

  protected:
    ~ForkJoin() = default;
};

/**
 * The serial fork-join: body(0, 0) .. body(n - 1, 0) in order on the
 * calling thread, width 1.
 */
ForkJoin &inlineForkJoin();

/**
 * Run job(order[0], fj), job(order[1], fj), ... on @p jobs workers,
 * each worker starting the next job of @p order (a permutation of
 * [0, order.size())), and wait for all of them. A job may fork batches through its ForkJoin (width jobs):
 *  - the job's own thread runs the batch's unclaimed tasks, and once
 *    none is left blocks until the others finish; it never starts
 *    another job meanwhile;
 *  - a worker with no job left to start helps run any open batch.
 *
 * jobs <= 1 runs the jobs inline in @p order with inlineForkJoin().
 * Like parallelFor, if a job throws, the exception of the lowest job
 * index is rethrown after every job has finished, and each job body
 * passes the threadpool.task.* chaos sites first.
 */
void runJobs(unsigned jobs, const std::vector<std::size_t> &order,
             const std::function<void(std::size_t, ForkJoin &)> &job);

} // namespace hllc

#endif // HLLC_COMMON_THREAD_POOL_HH
