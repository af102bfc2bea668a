#include "common/thread_pool.hh"

#include <cstdlib>

#include "common/argparse.hh"
#include "common/failpoint.hh"
#include "common/interrupt.hh"
#include "common/logging.hh"

namespace hllc
{

namespace
{

/**
 * Chaos instrumentation around every parallelFor body: an injected
 * throw proves worker exceptions stay contained to their index, an
 * injected stall (25 ms, interruptible) widens scheduling windows so
 * watchdog/drain races actually happen under test.
 */
void
runInstrumentedBody(const std::function<void(std::size_t)> &body,
                    std::size_t i)
{
    HLLC_FAILPOINT("threadpool.task.throw");
    if (failpoint::shouldFail("threadpool.task.stall"))
        interruptibleSleepMs(25);
    body(i);
}

} // anonymous namespace

ThreadPool::ThreadPool(unsigned num_workers)
{
    if (num_workers == 0)
        num_workers = 1;
    workers_.reserve(num_workers);
    for (unsigned i = 0; i < num_workers; ++i)
        workers_.emplace_back([this] { workerLoop(); });
}

ThreadPool::~ThreadPool()
{
    stop();
}

void
ThreadPool::stop()
{
    bool join_here = false;
    {
        MutexLock lock(mutex_);
        stopping_ = true;
        if (!joined_) {
            joined_ = true;
            join_here = true;
        }
    }
    available_.notifyAll();
    if (!join_here)
        return;
    for (auto &worker : workers_)
        worker.join();
}

void
ThreadPool::workerLoop()
{
    for (;;) {
        std::function<void()> task;
        {
            MutexLock lock(mutex_);
            while (!stopping_ && queue_.empty())
                available_.wait(mutex_);
            // Drain-on-stop: only exit once the queue is empty, so work
            // submitted before destruction still completes.
            if (queue_.empty())
                return;
            task = std::move(queue_.front());
            queue_.pop_front();
        }
        task(); // packaged_task captures any exception in its future
    }
}

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
    if (jobs <= 1 || n <= 1) {
        for (std::size_t i = 0; i < n; ++i)
            runInstrumentedBody(body, i);
        return;
    }

    ThreadPool pool(jobs);
    std::vector<std::future<void>> pending;
    pending.reserve(n);
    for (std::size_t i = 0; i < n; ++i)
        pending.push_back(
            pool.submit([&body, i] { runInstrumentedBody(body, i); }));

    // Wait on every iteration (even after a failure, so that bodies
    // referencing caller state never outlive this frame), then rethrow
    // the lowest-index exception for a deterministic error report.
    std::exception_ptr first_error;
    for (auto &future : pending) {
        try {
            future.get();
        } catch (...) {
            if (!first_error)
                first_error = std::current_exception();
        }
    }
    if (first_error)
        std::rethrow_exception(first_error);
}

} // namespace hllc
