/**
 * @file
 * The library's one scheduler (runJobs) and the mix tasks a forecast
 * cell without Set Dueling forks every simulation phase.
 *
 * RunJobs.*: jobs start in the given order, a job waiting on its batch
 * never starts another job or runs another job's task, slots are
 * exclusive, and a task's exception fails its own job only (retry and
 * quarantine behave as for a throwing cell). MixTasks.*: a ForecastEngine
 * whose phases run on 2, 4 or 8 workers (4 alone for a Set Dueling
 * policy, which forks nothing, and under TSan for the rows run to the
 * 0.6 floor) gives the serial loop's series, checkpoint bytes and
 * export bit for bit, a throwing mix task retries to the same series,
 * an interrupt raised inside a mix task stops the run at the next step
 * boundary, and so does a passed deadline.
 */

#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <chrono>
#include <csignal>
#include <cstdio>
#include <cstring>
#include <functional>
#include <mutex>
#include <ostream>
#include <set>
#include <string>
#include <thread>
#include <vector>

#include "common/error.hh"
#include "common/interrupt.hh"
#include "common/numfmt.hh"
#include "common/serialize.hh"
#include "common/thread_pool.hh"
#include "forecast/forecast.hh"
#include "hybrid/insertion_policy.hh"
#include "sim/experiment.hh"
#include "sim/resilience.hh"

namespace
{

using namespace hllc;
using forecast::ForecastConfig;
using forecast::ForecastEngine;
using forecast::ForecastPoint;
using forecast::RunOptions;
using hybrid::PolicyKind;

constexpr std::size_t noJob = static_cast<std::size_t>(-1);

/** The job whose batch this thread is inside ForkJoin::run() for. */
thread_local std::size_t waitingFor = noJob;
/** The job this thread is running, if any. */
thread_local std::size_t runningJob = noJob;
/** Set on the thread that calls runJobs(). */
thread_local bool isCaller = false;

void
pause(unsigned ms)
{
    std::this_thread::sleep_for(std::chrono::milliseconds(ms));
}

TEST(RunJobs, SerialRunsInlineInTheGivenOrder)
{
    isCaller = true;
    std::vector<std::size_t> started;
    std::vector<std::size_t> tasks;
    runJobs(1, { 2, 0, 1 }, [&](std::size_t job, ForkJoin &fj) {
        EXPECT_TRUE(isCaller);
        EXPECT_EQ(fj.width(), 1u);
        started.push_back(job);
        fj.run(3, [&](std::size_t task, unsigned slot) {
            EXPECT_EQ(slot, 0u);
            tasks.push_back(job * 10 + task);
        });
    });
    EXPECT_EQ(started, (std::vector<std::size_t>{ 2, 0, 1 }));
    EXPECT_EQ(tasks, (std::vector<std::size_t>{ 20, 21, 22, 0, 1, 2, 10,
                                                11, 12 }));
    isCaller = false;
}

TEST(RunJobs, FirstJobsStartedAreTheHeadOfTheOrder)
{
    std::mutex mutex;
    std::vector<std::size_t> started;
    runJobs(2, { 3, 1, 0, 2 }, [&](std::size_t job, ForkJoin &) {
        {
            const std::lock_guard<std::mutex> lock(mutex);
            started.push_back(job);
        }
        pause(20);
    });
    ASSERT_EQ(started.size(), 4u);
    EXPECT_EQ(std::set<std::size_t>(started.begin(), started.begin() + 2),
              (std::set<std::size_t>{ 3, 1 }));
}

TEST(RunJobs, WaitingJobNeverStartsAnotherJob)
{
    // Job 0 forks long batches, the others short ones: once no job is
    // left to start, the idle workers help job 0.
    constexpr std::size_t jobs = 6;
    constexpr std::size_t batches = 3;
    constexpr std::size_t maxTasks = 24;
    const auto tasksOf = [](std::size_t job) -> std::size_t {
        return job == 0 ? maxTasks : 4;
    };
    std::atomic<unsigned> violations{ 0 };
    std::atomic<unsigned> helped{ 0 };
    std::vector<std::atomic<unsigned>> ran(jobs * batches * maxTasks);
    std::vector<std::size_t> order(jobs);
    for (std::size_t j = 0; j < jobs; ++j)
        order[j] = j;

    runJobs(3, order, [&](std::size_t job, ForkJoin &fj) {
        if (waitingFor != noJob || runningJob != noJob)
            ++violations; // a job started inside another's wait
        runningJob = job;
        for (std::size_t b = 0; b < batches; ++b) {
            waitingFor = job;
            fj.run(tasksOf(job), [&](std::size_t task, unsigned) {
                // Either this job's own thread or an idle helper; never
                // a thread waiting on a different job's batch.
                if (waitingFor != noJob && waitingFor != job)
                    ++violations;
                if (runningJob != job)
                    ++helped;
                ++ran[(job * batches + b) * maxTasks + task];
                pause(1 + static_cast<unsigned>(task % 3));
            });
            waitingFor = noJob;
        }
        runningJob = noJob;
    });
    EXPECT_EQ(violations.load(), 0u);
    for (std::size_t job = 0; job < jobs; ++job) {
        for (std::size_t i = 0; i < batches * maxTasks; ++i) {
            EXPECT_EQ(ran[job * batches * maxTasks + i].load(),
                      i % maxTasks < tasksOf(job) ? 1u : 0u)
                << "job " << job << " task " << i;
        }
    }
    EXPECT_GT(helped.load(), 0u);
}

TEST(RunJobs, SlotsAreExclusiveWithinABatch)
{
    std::atomic<unsigned> clashes{ 0 };
    std::atomic<unsigned> out_of_range{ 0 };
    runJobs(4, { 0 }, [&](std::size_t, ForkJoin &fj) {
        const unsigned width = fj.width();
        EXPECT_EQ(width, 4u);
        std::vector<std::atomic<bool>> busy(width);
        for (int round = 0; round < 4; ++round) {
            fj.run(32, [&](std::size_t task, unsigned slot) {
                if (slot >= width) {
                    ++out_of_range;
                    return;
                }
                if (busy[slot].exchange(true))
                    ++clashes;
                pause(static_cast<unsigned>(task % 2));
                busy[slot].store(false);
            });
        }
    });
    EXPECT_EQ(clashes.load(), 0u);
    EXPECT_EQ(out_of_range.load(), 0u);
}

TEST(RunJobs, LowestFailingTaskIsRethrownAfterTheBatch)
{
    std::atomic<unsigned> running{ 0 };
    runJobs(4, { 0 }, [&](std::size_t, ForkJoin &fj) {
        try {
            fj.run(16, [&](std::size_t task, unsigned) {
                ++running;
                pause(2);
                --running;
                if (task == 2 || task == 5)
                    throw IoError("task " + formatU64(task));
            });
            ADD_FAILURE() << "the batch did not rethrow";
        } catch (const IoError &e) {
            EXPECT_STREQ(e.what(), "task 2");
        }
        // Every claimed task finished before the rethrow.
        EXPECT_EQ(running.load(), 0u);
    });
}

TEST(RunJobs, TaskExceptionFailsItsJobOnlyAndRetries)
{
    constexpr std::size_t jobs = 4;
    sim::RetryPolicy retry;
    retry.maxAttempts = 2;
    retry.baseDelayMs = 1;
    std::vector<sim::CellReport> results(jobs);
    std::vector<std::size_t> order = { 0, 1, 2, 3 };
    runJobs(4, order, [&](std::size_t job, ForkJoin &fj) {
        results[job] = sim::runWithRetry(
            retry, job, [&](std::size_t attempt) {
                fj.run(8, [&](std::size_t task, unsigned) {
                    pause(1);
                    // Job 1 recovers on its retry; job 3 never does.
                    const bool fail =
                        job == 3 || (job == 1 && attempt == 0);
                    if (task == 3 && fail)
                        throw IoError("mix task failed");
                });
            });
    });
    EXPECT_EQ(results[0].status, sim::CellStatus::Ok);
    EXPECT_EQ(results[1].status, sim::CellStatus::Recovered);
    EXPECT_EQ(results[1].attempts, 2u);
    EXPECT_EQ(results[1].errorKind, "io");
    EXPECT_EQ(results[2].status, sim::CellStatus::Ok);
    EXPECT_EQ(results[3].status, sim::CellStatus::Quarantined);
    EXPECT_EQ(results[3].error, "mix task failed");
}

TEST(RunJobs, LowestJobExceptionIsRethrownAfterAllJobs)
{
    std::atomic<unsigned> finished{ 0 };
    try {
        runJobs(3, { 2, 1, 0 }, [&](std::size_t job, ForkJoin &) {
            pause(5);
            ++finished;
            if (job != 0)
                throw IoError("job " + formatU64(job));
        });
        ADD_FAILURE() << "runJobs did not rethrow";
    } catch (const IoError &e) {
        EXPECT_STREQ(e.what(), "job 1");
    }
    EXPECT_EQ(finished.load(), 3u);
}

/** Ten Table V mixes at quarter scale, captured once per process. */
const sim::Experiment &
experiment()
{
    static const sim::Experiment e(sim::SystemConfig::tableIV(0.25));
    return e;
}

/**
 * A ForkJoin that calls @p hook(task) before every task of its
 * @p batch-th run() (0-based: the forecast's step index).
 */
class HookedForkJoin final : public ForkJoin
{
  public:
    HookedForkJoin(ForkJoin &inner, std::size_t batch,
                   std::function<void(std::size_t)> hook)
        : inner_(inner), batch_(batch), hook_(std::move(hook))
    {
    }

    unsigned width() const override { return inner_.width(); }

    void
    run(std::size_t n, const Body &body) override
    {
        const bool hooked = batches_++ == batch_;
        inner_.run(n, [&](std::size_t task, unsigned slot) {
            if (hooked)
                hook_(task);
            body(task, slot);
        });
    }

  private:
    ForkJoin &inner_;
    std::size_t batch_;
    std::function<void(std::size_t)> hook_;
    std::size_t batches_ = 0;
};

std::vector<std::uint8_t>
fileBytes(const std::string &path)
{
    return serial::readFileBytes(path);
}

/** Everything a forecast run leaves behind. */
struct RunOutput
{
    std::vector<ForecastPoint> series;
    std::vector<std::uint8_t> checkpoint;
    std::vector<std::uint8_t> metrics;
    std::vector<std::uint8_t> stats;
};

#ifdef __SANITIZE_THREAD__
/** A TSan build runs a forecast to the 0.6 floor in minutes. */
constexpr bool underTsan = true;
#else
constexpr bool underTsan = false;
#endif

struct TaskCase
{
    const char *name;
    PolicyKind policy;
    /** 0: stop after a few steps, near pristine; else the floor. */
    double capacityFloor;
};

void
PrintTo(const TaskCase &c, std::ostream *os)
{
    *os << c.name;
}

class MixTasks : public ::testing::TestWithParam<TaskCase>
{
  protected:
    void
    TearDown() override
    {
        for (unsigned jobs : { 1u, 2u, 4u, 8u }) {
            std::remove(path(jobs).c_str());
            std::remove((path(jobs) + ".tmp").c_str());
        }
    }

    /** Per-case, per-width checkpoint file (the cases run concurrently). */
    std::string
    path(unsigned jobs) const
    {
        return std::string("/tmp/hllc_test_mix_tasks_") + GetParam().name +
               "_" + formatU64(jobs) + ".ckpt";
    }

    hybrid::HybridLlcConfig
    llcConfig() const
    {
        return experiment().config().llcConfig(GetParam().policy);
    }

    ForecastConfig
    forecastConfig() const
    {
        ForecastConfig fc;
        if (GetParam().capacityFloor > 0.0)
            fc.capacityFloor = GetParam().capacityFloor;
        else
            fc.maxSteps = 4;
        return fc;
    }

    /** One run on a scheduler of @p jobs workers (one job, helpers). */
    RunOutput
    runOn(unsigned jobs, RunOptions options = {}) const
    {
        const sim::Experiment &e = experiment();
        const fault::EnduranceModel model = e.makeEndurance(llcConfig());
        ForecastEngine engine(model, llcConfig(), e.tracePtrs(),
                              e.config().timing, forecastConfig());
        options.checkpointPath = path(jobs);
        RunOutput out;
        runJobs(jobs, { 0 }, [&](std::size_t, ForkJoin &tasks) {
            options.tasks = &tasks;
            out.series = engine.run(options);
        });
        out.checkpoint = fileBytes(path(jobs));
        serial::Encoder metrics;
        engine.metrics().snapshot(metrics);
        out.metrics = metrics.bytes();
        serial::Encoder stats;
        engine.stats().snapshot(stats);
        out.stats = stats.bytes();
        return out;
    }
};

bool
sameBits(const std::vector<ForecastPoint> &a,
         const std::vector<ForecastPoint> &b)
{
    return a.size() == b.size() &&
           (a.empty() ||
            std::memcmp(a.data(), b.data(),
                        a.size() * sizeof(ForecastPoint)) == 0);
}

TEST_P(MixTasks, AnyWidthMatchesTheSerialLoop)
{
    RunOptions options;
    options.checkpointEvery = 1;
    const RunOutput serial = runOn(1, options);
    ASSERT_GE(serial.series.size(), 3u);
    if (GetParam().capacityFloor > 0.0) {
        EXPECT_LE(serial.series.back().capacity, GetParam().capacityFloor);
    }
    // A Set Dueling run forks no mix tasks, so every width above 1 runs
    // the same single job on the same path: one such width is enough.
    // Under TSan the rows run to the floor check the forked path at
    // width 4 alone, too; the short rows keep 2, 4 and 8.
    const bool forks =
        !hybrid::policyTable[static_cast<std::size_t>(GetParam().policy)]
             .usesSetDueling;
    const bool long_row = GetParam().capacityFloor > 0.0;
    const std::vector<unsigned> widths =
        forks && !(underTsan && long_row)
            ? std::vector<unsigned>{ 2u, 4u, 8u }
            : std::vector<unsigned>{ 4u };
    for (unsigned jobs : widths) {
        const RunOutput parallel = runOn(jobs, options);
        EXPECT_TRUE(sameBits(parallel.series, serial.series))
            << "series, jobs " << jobs;
        EXPECT_EQ(parallel.checkpoint, serial.checkpoint)
            << "checkpoint, jobs " << jobs;
        EXPECT_EQ(parallel.metrics, serial.metrics)
            << "export, jobs " << jobs;
        EXPECT_EQ(parallel.stats, serial.stats) << "stats, jobs " << jobs;
    }

    // A run stopped mid-way checkpoints the same bytes too, the LLC
    // counters (the last mix's full replay) included.
    options.stopAfterSteps = 2;
    const RunOutput serial_stop = runOn(1, options);
    const RunOutput parallel_stop = runOn(4, options);
    EXPECT_EQ(parallel_stop.checkpoint, serial_stop.checkpoint);
}

INSTANTIATE_TEST_SUITE_P(
    Policies, MixTasks,
    ::testing::Values(TaskCase{ "BH", PolicyKind::Bh, 0.0 },
                      TaskCase{ "BH_CP", PolicyKind::BhCp, 0.0 },
                      TaskCase{ "LHybrid", PolicyKind::LHybrid, 0.0 },
                      TaskCase{ "TAP", PolicyKind::Tap, 0.0 },
                      TaskCase{ "CP_SD", PolicyKind::CpSd, 0.0 },
                      TaskCase{ "BH_to60", PolicyKind::Bh, 0.6 },
                      TaskCase{ "BH_CP_to60", PolicyKind::BhCp, 0.6 },
                      TaskCase{ "LHybrid_to60", PolicyKind::LHybrid, 0.6 },
                      TaskCase{ "TAP_to60", PolicyKind::Tap, 0.6 },
                      TaskCase{ "CP_SD_to60", PolicyKind::CpSd, 0.6 }),
    [](const ::testing::TestParamInfo<TaskCase> &info) {
        return std::string(info.param.name);
    });

/** BH forecast runs driven by hand through one hooked batch. */
class MixTaskStops : public ::testing::Test
{
  protected:
    void
    TearDown() override
    {
        clearInterrupt();
        std::remove(path().c_str());
        std::remove((path() + ".tmp").c_str());
    }

    /** Per-test checkpoint file (the tests run concurrently). */
    static std::string
    path()
    {
        return std::string("/tmp/hllc_test_mix_task_stops_") +
               ::testing::UnitTest::GetInstance()
                   ->current_test_info()
                   ->name() +
               ".ckpt";
    }

    /**
     * Forecast BH on 4 workers with @p hook before every task of step
     * @p step's phase; returns the series (rethrows what run() throws).
     */
    static std::vector<ForecastPoint>
    run(RunOptions options, std::size_t step,
        std::function<void(std::size_t)> hook)
    {
        const sim::Experiment &e = experiment();
        const auto llc = e.config().llcConfig(PolicyKind::Bh);
        const fault::EnduranceModel model = e.makeEndurance(llc);
        ForecastConfig fc;
        fc.maxSteps = 6;
        ForecastEngine engine(model, llc, e.tracePtrs(), e.config().timing,
                              fc);
        std::vector<ForecastPoint> series;
        std::exception_ptr error;
        runJobs(4, { 0 }, [&](std::size_t, ForkJoin &tasks) {
            HookedForkJoin hooked(tasks, step, hook);
            options.tasks = &hooked;
            try {
                series = engine.run(options);
            } catch (...) {
                error = std::current_exception();
            }
        });
        if (error)
            std::rethrow_exception(error);
        return series;
    }

    static std::vector<ForecastPoint>
    reference()
    {
        return run({}, noJob, [](std::size_t) {});
    }

    /** The step index a checkpoint at path() resumes at. */
    static std::uint64_t
    checkpointStep()
    {
        const serial::Container c =
            serial::Container::load(path(), 0x484c434b, 2, 2);
        serial::Decoder meta = c.open("meta");
        for (int i = 0; i < 4; ++i)
            meta.u32();
        return meta.u64();
    }
};

TEST_F(MixTaskStops, ThrowingMixTaskRetriesToTheSameSeries)
{
    const std::vector<ForecastPoint> ref = reference();
    sim::RetryPolicy retry;
    retry.maxAttempts = 2;
    retry.baseDelayMs = 1;
    std::vector<ForecastPoint> series;
    const sim::CellReport rr =
        sim::runWithRetry(retry, 0, [&](std::size_t attempt) {
            RunOptions options;
            options.checkpointPath = path();
            options.resume = attempt > 0;
            series = run(options, attempt == 0 ? 2 : noJob,
                         [](std::size_t task) {
                             if (task == 4)
                                 throw IoError("mix task failed");
                         });
        });
    EXPECT_EQ(rr.status, sim::CellStatus::Recovered);
    EXPECT_EQ(rr.attempts, 2u);
    EXPECT_EQ(rr.error, "mix task failed");
    EXPECT_TRUE(sameBits(series, ref));
}

TEST_F(MixTaskStops, WatchdogCancelStopsAtTheNextStepBoundary)
{
    const std::vector<ForecastPoint> ref = reference();
    ASSERT_GE(ref.size(), 4u);
    RunOptions options;
    options.checkpointPath = path();
    options.stopAfterSteps = 2;
    run(options, noJob, [](std::size_t) {});
    ASSERT_EQ(checkpointStep(), 2u);

    // A deadline already passed stops the resumed run at its first
    // boundary, before step 2 runs, and leaves the checkpoint there.
    RunOptions resume;
    resume.checkpointPath = path();
    resume.resume = true;
    RunOptions expired = resume;
    expired.deadline = std::chrono::steady_clock::time_point::min();
    EXPECT_THROW(run(expired, noJob, [](std::size_t) {}),
                 DeadlineExceededError);
    EXPECT_EQ(checkpointStep(), 2u);

    EXPECT_TRUE(sameBits(run(resume, noJob, [](std::size_t) {}), ref));
}

TEST_F(MixTaskStops, InterruptStopsAtTheNextStepBoundary)
{
    const std::vector<ForecastPoint> ref = reference();
    ASSERT_GE(ref.size(), 4u);
    RunOptions options;
    options.checkpointPath = path();
    EXPECT_THROW(run(options, 1,
                     [](std::size_t) { requestInterrupt(SIGINT); }),
                 InterruptedError);
    clearInterrupt();
    EXPECT_EQ(checkpointStep(), 2u);

    RunOptions resume;
    resume.checkpointPath = path();
    resume.resume = true;
    EXPECT_TRUE(sameBits(run(resume, noJob, [](std::size_t) {}), ref));
}

} // namespace
