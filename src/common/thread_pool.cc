#include "common/thread_pool.hh"

#include <algorithm>
#include <cstdlib>
#include <exception>
#include <numeric>
#include <system_error>
#include <thread>

#include "common/argparse.hh"
#include "common/failpoint.hh"
#include "common/interrupt.hh"
#include "common/logging.hh"
#include "common/sync.hh"

namespace hllc
{

namespace
{

/**
 * Chaos instrumentation before every runJobs job, so before every
 * parallelFor body too: an injected throw proves worker exceptions stay
 * contained to their index, an injected stall (25 ms, interruptible)
 * widens scheduling windows so deadline/drain races actually happen
 * under test.
 */
void
chaosBeforeBody()
{
    HLLC_FAILPOINT("threadpool.task.throw");
    if (failpoint::shouldFail("threadpool.task.stall"))
        interruptibleSleepMs(25);
}

/** inlineForkJoin(): every task on the caller, in index order. */
class InlineForkJoin final : public ForkJoin
{
  public:
    unsigned width() const override { return 1; }

    void
    run(std::size_t n, const Body &body) override
    {
        for (std::size_t i = 0; i < n; ++i)
            body(i, 0);
    }
};

/**
 * The runJobs() scheduler. One mutex guards the job cursor and every
 * open batch; workers sleep on work_, a batch's owner on its own
 * finished condition. Tasks are claimed in index order, so the lowest
 * failing task of a batch always runs (every lower task was claimed
 * before it).
 */
class JobScheduler
{
  public:
    using JobFn = std::function<void(std::size_t, ForkJoin &)>;

    JobScheduler(unsigned workers, const std::vector<std::size_t> &order,
                 const JobFn &job)
        : workers_(workers), order_(order), job_(job),
          errors_(order.size())
    {
    }

    /** Run every job on workers_ threads (the caller is one). */
    void
    run()
    {
        std::vector<std::thread> threads;
        try {
            for (unsigned i = 1; i < workers_; ++i)
                threads.emplace_back([this] { workerLoop(); });
        } catch (const std::system_error &e) {
            // Fewer helpers only slow the grid: the caller's own loop
            // still runs every job that no other worker takes.
            warn("runJobs: started %zu of %u workers: %s",
                 threads.size() + 1, workers_, e.what());
        }
        workerLoop();
        for (std::thread &t : threads)
            t.join();
        // errors_ is indexed by job, so the first set one is the
        // lowest job index, whatever order the jobs ran in.
        for (const std::exception_ptr &error : errors_) {
            if (error)
                std::rethrow_exception(error);
        }
    }

  private:
    /**
     * One fork-join batch, on its owner's stack. Guarded by the
     * scheduler's mutex_ (not annotated: the analysis cannot name
     * another object's mutex).
     */
    struct Batch
    {
        Batch(std::size_t tasks, const ForkJoin::Body &fn, unsigned width)
            : n(tasks), body(&fn)
        {
            // Slots pop from the back: the lowest free one goes first.
            for (unsigned slot = width; slot > 0; --slot)
                freeSlots.push_back(slot - 1);
        }

        std::size_t n;
        const ForkJoin::Body *body;
        std::size_t next = 0;    //!< first unclaimed task
        std::size_t running = 0; //!< claimed, not yet finished
        std::vector<unsigned> freeSlots;
        std::size_t failedTask = 0;
        std::exception_ptr error; //!< of failedTask, the lowest so far
        CondVar finished;         //!< running == 0 and nothing to claim
    };

    /** A claimed task, run outside the lock. */
    struct Claim
    {
        Batch *batch = nullptr;
        std::size_t task = 0;
        unsigned slot = 0;
    };

    /** The ForkJoin a running job forks through. */
    class Handle final : public ForkJoin
    {
      public:
        explicit Handle(JobScheduler &scheduler) : scheduler_(scheduler)
        {
        }

        unsigned width() const override { return scheduler_.workers_; }

        void
        run(std::size_t n, const Body &body) override
        {
            scheduler_.runBatch(n, body);
        }

      private:
        JobScheduler &scheduler_;
    };

    /** Claim the next task of @p b. */
    Claim
    claim(Batch &b) HLLC_REQUIRES(mutex_)
    {
        Claim c{ &b, b.next++, b.freeSlots.back() };
        b.freeSlots.pop_back();
        ++b.running;
        if (b.next == b.n)
            close(b);
        return c;
    }

    /** Take @p b off the open list: no task of it is left to claim. */
    void
    close(Batch &b) HLLC_REQUIRES(mutex_)
    {
        const auto it = std::find(open_.begin(), open_.end(), &b);
        if (it != open_.end())
            open_.erase(it);
    }

    /** Run a claimed task outside the lock; its exception, if any. */
    static std::exception_ptr
    execute(const Claim &c)
    {
        try {
            (*c.batch->body)(c.task, c.slot);
        } catch (...) {
            return std::current_exception();
        }
        return nullptr;
    }

    /** Record a finished task; wakes the owner when the batch is done. */
    void
    finish(const Claim &c, std::exception_ptr error) HLLC_REQUIRES(mutex_)
    {
        Batch &b = *c.batch;
        --b.running;
        b.freeSlots.push_back(c.slot);
        if (error && (!b.error || c.task < b.failedTask)) {
            b.error = error;
            b.failedTask = c.task;
            // Skip the unclaimed rest: the error is already decided.
            b.next = b.n;
            close(b);
        }
        if (b.running == 0 && b.next == b.n)
            b.finished.notifyOne();
    }

    /** ForkJoin::run of a job: help with our own batch, else wait. */
    void
    runBatch(std::size_t n, const ForkJoin::Body &body)
    {
        if (n == 0)
            return;
        Batch b(n, body, workers_);
        {
            MutexLock lock(mutex_);
            open_.push_back(&b);
        }
        work_.notifyAll();
        for (;;) {
            Claim c;
            {
                MutexLock lock(mutex_);
                while (b.next == b.n && b.running > 0)
                    b.finished.wait(mutex_);
                if (b.next == b.n)
                    break;
                c = claim(b);
            }
            const std::exception_ptr error = execute(c);
            MutexLock lock(mutex_);
            finish(c, error);
        }
        // Nothing references b any more: it left open_ when its last
        // task was claimed, and no task of it is running.
        if (b.error)
            std::rethrow_exception(b.error);
    }

    /** Start jobs while any is left, then help open batches. */
    void
    workerLoop()
    {
        for (;;) {
            std::size_t job = 0;
            bool have_job = false;
            Claim c;
            {
                MutexLock lock(mutex_);
                for (;;) {
                    if (nextJob_ < order_.size()) {
                        job = order_[nextJob_++];
                        have_job = true;
                        break;
                    }
                    if (!open_.empty()) {
                        c = claim(*open_.front());
                        break;
                    }
                    if (doneJobs_ == order_.size())
                        return;
                    work_.wait(mutex_);
                }
            }
            if (have_job) {
                runJob(job);
                continue;
            }
            const std::exception_ptr error = execute(c);
            MutexLock lock(mutex_);
            finish(c, error);
        }
    }

    void
    runJob(std::size_t job)
    {
        Handle handle(*this);
        try {
            chaosBeforeBody();
            job_(job, handle);
        } catch (...) {
            errors_[job] = std::current_exception();
        }
        bool all_done = false;
        {
            MutexLock lock(mutex_);
            all_done = ++doneJobs_ == order_.size();
        }
        if (all_done)
            work_.notifyAll();
    }

    const unsigned workers_;
    const std::vector<std::size_t> &order_;
    const JobFn &job_;
    /** Per job index; each slot written by the one thread running it. */
    std::vector<std::exception_ptr> errors_;

    Mutex mutex_;
    CondVar work_; //!< a job is done, or a batch opened
    std::size_t nextJob_ HLLC_GUARDED_BY(mutex_) = 0;
    std::size_t doneJobs_ HLLC_GUARDED_BY(mutex_) = 0;
    std::vector<Batch *> open_ HLLC_GUARDED_BY(mutex_);
};

} // anonymous namespace

unsigned
defaultJobs()
{
    const char *env = std::getenv("HLLC_JOBS");
    if (env != nullptr && env[0] != '\0') {
        if (const auto parsed = parseUnsigned(env, 1))
            return *parsed;
        warn("ignoring invalid HLLC_JOBS '%s'", env);
    }
    const unsigned hw = std::thread::hardware_concurrency();
    return hw == 0 ? 1 : hw;
}

void
parallelFor(unsigned jobs, std::size_t n,
            const std::function<void(std::size_t)> &body)
{
    std::vector<std::size_t> order(n);
    std::iota(order.begin(), order.end(), std::size_t{ 0 });
    const unsigned width =
        static_cast<unsigned>(std::min<std::size_t>(jobs, n));
    runJobs(width, order, [&](std::size_t i, ForkJoin &) { body(i); });
}

ForkJoin &
inlineForkJoin()
{
    static InlineForkJoin serial;
    return serial;
}

void
runJobs(unsigned jobs, const std::vector<std::size_t> &order,
        const std::function<void(std::size_t, ForkJoin &)> &job)
{
    if (jobs <= 1) {
        std::exception_ptr first_error;
        std::size_t first_job = 0;
        for (const std::size_t i : order) {
            try {
                chaosBeforeBody();
                job(i, inlineForkJoin());
            } catch (...) {
                if (!first_error || i < first_job) {
                    first_error = std::current_exception();
                    first_job = i;
                }
            }
        }
        if (first_error)
            std::rethrow_exception(first_error);
        return;
    }
    JobScheduler(jobs, order, job).run();
}

} // namespace hllc
