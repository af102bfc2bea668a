/**
 * @file
 * The one scheduler for the policy×mix grids the experiments run
 * (see DESIGN.md §7):
 *  - runJobs: jobs start in a caller-given order (the forecast grid
 *    passes longest first), and a running job may fork a batch of tasks
 *    (ForkJoin) that idle workers help run once no job is left to
 *    start;
 *  - parallelFor: runJobs in index order, with no fork; the replay and
 *    phase grids, the capture and payload synthesis use it;
 *  - determinism is the caller's job: tasks must derive any randomness
 *    from their grid coordinates (never from thread id or execution
 *    order) and write results into pre-sized slots;
 *  - jobs == 1 bypasses the workers entirely, so the serial path stays
 *    exercisable (and debuggable) with the same code.
 */

#ifndef HLLC_COMMON_THREAD_POOL_HH
#define HLLC_COMMON_THREAD_POOL_HH

#include <cstddef>
#include <functional>
#include <vector>

namespace hllc
{

/**
 * Number of parallel jobs to use by default: the HLLC_JOBS environment
 * variable if set to an integer >= 1, otherwise hardware_concurrency()
 * (with a warning when HLLC_JOBS is set but malformed).
 */
unsigned defaultJobs();

/**
 * Run body(0) .. body(n - 1) on min(@p jobs, n) workers (inline when
 * that is <= 1) and wait for all of them: runJobs() over the indices in
 * order, with no fork. Every iteration runs, at any width; if any
 * throws, the first (lowest-index) exception is rethrown after every
 * iteration has finished.
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
 * If a job throws, the exception of the lowest job index is rethrown
 * after every job has finished, and each job body passes the
 * threadpool.task.* chaos sites first. A worker thread that fails to
 * start only narrows the grid: the calling thread is a worker too.
 */
void runJobs(unsigned jobs, const std::vector<std::size_t> &order,
             const std::function<void(std::size_t, ForkJoin &)> &job);

} // namespace hllc

#endif // HLLC_COMMON_THREAD_POOL_HH
