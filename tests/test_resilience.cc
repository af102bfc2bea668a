/**
 * @file
 * Self-healing grid tests: deterministic retry backoff, the
 * runWithRetry failure taxonomy, the hllc-failures-v1 report,
 * interruptible sleeps, and end-to-end recovery in the checkpointed
 * forecast grid (a recovered or resumed cell is byte-identical to a
 * fault-free run; a cell past its deadline stops with a checkpoint).
 */

#include <gtest/gtest.h>

#include <algorithm>
#include <chrono>
#include <csignal>
#include <cstdio>
#include <functional>
#include <limits>
#include <string>
#include <thread>
#include <unistd.h>
#include <vector>

#include "common/error.hh"
#include "common/failpoint.hh"
#include "common/interrupt.hh"
#include "common/serialize.hh"
#include "sim/grid.hh"
#include "sim/resilience.hh"

namespace
{

using namespace hllc;
using hybrid::PolicyKind;

// --------------------------------------------------------------------
// Backoff schedule.
// --------------------------------------------------------------------

TEST(GridRetryDelay, DeterministicExponentialAndBounded)
{
    sim::RetryPolicy policy;
    policy.baseDelayMs = 100;
    policy.maxDelayMs = 1000;
    const std::uint64_t expected[] = { 0,   100,  200,  400, 800,
                                       1000, 1000, 1000, 1000 };
    for (std::size_t retry = 0; retry <= 8; ++retry)
        EXPECT_EQ(sim::retryDelayMs(policy, retry), expected[retry]);
    // A shift past the width of the delay saturates at the ceiling
    // instead of wrapping to a short delay.
    EXPECT_EQ(sim::retryDelayMs(policy, 1000), 1000u);
}

// --------------------------------------------------------------------
// runWithRetry taxonomy.
// --------------------------------------------------------------------

sim::RetryPolicy
fastPolicy(std::size_t attempts)
{
    sim::RetryPolicy policy;
    policy.maxAttempts = attempts;
    policy.baseDelayMs = 1;
    policy.maxDelayMs = 2;
    return policy;
}

TEST(GridRetry, FirstTrySuccessIsOk)
{
    const auto result =
        sim::runWithRetry(fastPolicy(3), 0, [](std::size_t) {});
    EXPECT_EQ(result.status, sim::CellStatus::Ok);
    EXPECT_EQ(result.attempts, 1u);
    EXPECT_TRUE(result.error.empty());
}

TEST(GridRetry, TransientIoErrorRecoversAndKeepsDiagnosis)
{
    const auto result = sim::runWithRetry(
        fastPolicy(3), 5, [](std::size_t attempt) {
            if (attempt < 2) {
                throw IoError("injected fault at failpoint"
                              " 'serialize.write.fsync'");
            }
        });
    EXPECT_EQ(result.status, sim::CellStatus::Recovered);
    EXPECT_EQ(result.attempts, 3u);
    EXPECT_EQ(result.errorKind, "io");
    ASSERT_EQ(result.failpoints.size(), 1u);
    EXPECT_EQ(result.failpoints[0], "serialize.write.fsync");
}

TEST(GridRetry, PersistentFailureQuarantinesAfterBudget)
{
    std::size_t calls = 0;
    const auto result = sim::runWithRetry(
        fastPolicy(3), 0, [&](std::size_t) {
            ++calls;
            throw std::runtime_error("deterministic logic bug");
        });
    EXPECT_EQ(result.status, sim::CellStatus::Quarantined);
    EXPECT_EQ(result.attempts, 3u);
    EXPECT_EQ(calls, 3u);
    EXPECT_EQ(result.errorKind, "std");
    EXPECT_EQ(result.error, "deterministic logic bug");
}

TEST(GridRetry, DeadlineAndInterruptAreNeverRetried)
{
    std::size_t calls = 0;
    const auto timed = sim::runWithRetry(
        fastPolicy(5), 0, [&](std::size_t) {
            ++calls;
            throw DeadlineExceededError("watchdog fired");
        });
    EXPECT_EQ(timed.status, sim::CellStatus::TimedOut);
    EXPECT_EQ(timed.attempts, 1u);
    EXPECT_EQ(calls, 1u);
    EXPECT_EQ(timed.errorKind, "deadline");

    calls = 0;
    const auto stopped = sim::runWithRetry(
        fastPolicy(5), 0, [&](std::size_t) {
            ++calls;
            throw InterruptedError();
        });
    EXPECT_EQ(stopped.status, sim::CellStatus::Interrupted);
    EXPECT_EQ(calls, 1u);
    EXPECT_EQ(stopped.errorKind, "interrupt");
}

TEST(GridRetry, NonStdThrowKeepsCellIdentity)
{
    const auto result = sim::runWithRetry(
        fastPolicy(2), 7, [](std::size_t) { throw 42; });
    EXPECT_EQ(result.status, sim::CellStatus::Quarantined);
    EXPECT_EQ(result.attempts, 2u);
    EXPECT_EQ(result.errorKind, "non-std::exception");
    EXPECT_EQ(result.error, "non-std::exception thrown by cell 7");
}

// --------------------------------------------------------------------
// Failure report.
// --------------------------------------------------------------------

TEST(GridFailureReport, ExtractsQuotedFailpointNames)
{
    const auto names = sim::extractFailpointNames(
        "cell died: injected fault at failpoint 'serialize.read',"
        " then injected fault at failpoint 'trace.decode'");
    ASSERT_EQ(names.size(), 2u);
    EXPECT_EQ(names[0], "serialize.read");
    EXPECT_EQ(names[1], "trace.decode");
    EXPECT_TRUE(sim::extractFailpointNames("plain io error").empty());
}

TEST(GridFailureReport, JsonCarriesSchemaOutcomesAndCounts)
{
    std::vector<sim::CellReport> cells(3);
    cells[0].index = 0;
    cells[0].label = "BH";
    cells[1].index = 1;
    cells[1].label = "CP_SD";
    cells[1].attempts = 2;
    cells[1].status = sim::CellStatus::Recovered;
    cells[1].error = "injected fault at failpoint 'grid.cell.throw'";
    cells[1].errorKind = "io";
    cells[1].failpoints = { "grid.cell.throw" };
    cells[2].index = 2;
    cells[2].label = "CA \"quoted\"";
    cells[2].attempts = 3;
    cells[2].status = sim::CellStatus::Quarantined;
    cells[2].errorKind = "std";

    const std::string json = sim::failureReportToJson(cells);
    EXPECT_NE(json.find("\"schema\": \"hllc-failures-v1\""),
              std::string::npos);
    EXPECT_NE(json.find("\"outcome\": \"ok\""), std::string::npos);
    EXPECT_NE(json.find("\"outcome\": \"recovered\""),
              std::string::npos);
    EXPECT_NE(json.find("\"outcome\": \"quarantined\""),
              std::string::npos);
    EXPECT_NE(json.find("\"failpoints\": [\"grid.cell.throw\"]"),
              std::string::npos);
    EXPECT_NE(json.find("\"CA \\\"quoted\\\"\""), std::string::npos);
    EXPECT_NE(json.find("\"total\": 3"), std::string::npos);
    EXPECT_NE(json.find("\"ok\": 1"), std::string::npos);
    EXPECT_NE(json.find("\"recovered\": 1"), std::string::npos);
    EXPECT_NE(json.find("\"quarantined\": 1"), std::string::npos);
    EXPECT_NE(json.find("\"timed_out\": 0"), std::string::npos);
}

// --------------------------------------------------------------------
// Interruptible sleep.
// --------------------------------------------------------------------

class InterruptibleSleep : public ::testing::Test
{
  protected:
    void SetUp() override { clearInterrupt(); }
    void TearDown() override { clearInterrupt(); }
};

TEST_F(InterruptibleSleep, CompletesWhenNoInterruptIsPending)
{
    EXPECT_FALSE(interruptibleSleepMs(1));
}

TEST_F(InterruptibleSleep, WakesEarlyOnInterrupt)
{
    const auto start = std::chrono::steady_clock::now();
    std::thread poker([] {
        std::this_thread::sleep_for(std::chrono::milliseconds(50));
        requestInterrupt(SIGINT);
    });
    EXPECT_TRUE(interruptibleSleepMs(30'000));
    poker.join();
    const auto elapsed =
        std::chrono::duration_cast<std::chrono::milliseconds>(
            std::chrono::steady_clock::now() - start);
    EXPECT_LT(elapsed.count(), 10'000);
}

// --------------------------------------------------------------------
// End-to-end: self-healing forecast grid.
// --------------------------------------------------------------------

class ResilientGrid : public ::testing::Test
{
  protected:
    std::string dir_;

    void SetUp() override
    {
        clearInterrupt();
        failpoint::reset();
        dir_ = std::string("/tmp/hllc_test_resilience_") +
               ::testing::UnitTest::GetInstance()
                   ->current_test_info()
                   ->name();
    }

    void TearDown() override
    {
        clearInterrupt();
        failpoint::reset();
        for (std::size_t i = 0; i < entries().size(); ++i) {
            const std::string p = sim::checkpointCellPath(
                checkpoint(), i, entries()[i].label);
            std::remove(p.c_str());
            std::remove((p + ".tmp").c_str());
        }
        std::remove(failuresPath().c_str());
        std::remove((failuresPath() + ".tmp").c_str());
        ::rmdir(dir_.c_str());
    }

    std::string failuresPath() const { return dir_ + "/failures.json"; }

    sim::CheckpointOptions
    checkpoint(bool resume = false) const
    {
        sim::CheckpointOptions options;
        options.dir = dir_;
        options.resume = resume;
        return options;
    }

    static sim::ResilienceOptions
    resilience(std::size_t attempts, std::uint64_t timeout_ms = 0)
    {
        sim::ResilienceOptions options;
        options.retry.maxAttempts = attempts;
        options.retry.baseDelayMs = 1;
        options.retry.maxDelayMs = 5;
        options.cellTimeoutMs = timeout_ms;
        return options;
    }

    static const sim::Experiment &
    experiment()
    {
        static const sim::Experiment e = [] {
            sim::SystemConfig config = sim::SystemConfig::tableIV(0.5);
            config.refsPerCore = 30'000;
            config.jobs = 2;
            return sim::Experiment(config, 2);
        }();
        return e;
    }

    static const std::vector<sim::StudyEntry> &
    entries()
    {
        static const std::vector<sim::StudyEntry> e = {
            { "BH", experiment().config().llcConfig(PolicyKind::Bh) },
            { "CP_SD",
              experiment().config().llcConfig(PolicyKind::CpSd) },
        };
        return e;
    }

    /** Cells the grid quarantined or timed out. */
    static std::size_t
    failedCells(const sim::ForecastGridOutcome &outcome)
    {
        return static_cast<std::size_t>(
            std::count_if(outcome.reports.begin(), outcome.reports.end(),
                          std::mem_fn(&sim::CellReport::failed)));
    }

    static void
    expectSummariesIdentical(const std::vector<sim::ForecastSummary> &a,
                             const std::vector<sim::ForecastSummary> &b)
    {
        ASSERT_EQ(a.size(), b.size());
        for (std::size_t i = 0; i < a.size(); ++i) {
            EXPECT_EQ(a[i].label, b[i].label);
            EXPECT_EQ(a[i].lifetimeMonths, b[i].lifetimeMonths);
            EXPECT_EQ(a[i].initialIpc, b[i].initialIpc);
            ASSERT_EQ(a[i].series.size(), b[i].series.size());
            for (std::size_t t = 0; t < a[i].series.size(); ++t) {
                EXPECT_EQ(a[i].series[t].time, b[i].series[t].time);
                EXPECT_EQ(a[i].series[t].capacity,
                          b[i].series[t].capacity);
                EXPECT_EQ(a[i].series[t].meanIpc,
                          b[i].series[t].meanIpc);
            }
        }
    }
};

TEST_F(ResilientGrid, InjectedCellFaultRecoversByteIdentically)
{
    const auto plain =
        sim::runForecastGridCheckpointed(experiment(), entries()).summaries;

    // jobs=1 pins the failpoint hit order: cell 0 takes the injected
    // fault on its first attempt and must recover on its second. A
    // timeout past the clock's range must never fire.
    failpoint::configure("grid.cell.throw=nth:1");
    const auto outcome = sim::runForecastGridCheckpointed(
        experiment(), entries(), {}, {},
        resilience(3, std::numeric_limits<std::uint64_t>::max()), 1);
    EXPECT_TRUE(outcome.ok());
    ASSERT_EQ(outcome.reports.size(), 2u);
    EXPECT_EQ(outcome.reports[0].status, sim::CellStatus::Recovered);
    EXPECT_EQ(outcome.reports[0].attempts, 2u);
    EXPECT_EQ(outcome.reports[0].errorKind, "io");
    ASSERT_EQ(outcome.reports[0].failpoints.size(), 1u);
    EXPECT_EQ(outcome.reports[0].failpoints[0], "grid.cell.throw");
    EXPECT_EQ(outcome.reports[1].status, sim::CellStatus::Ok);
    expectSummariesIdentical(outcome.summaries, plain);
}

TEST_F(ResilientGrid, CheckpointSaveFaultRecoversViaResume)
{
    const auto plain =
        sim::runForecastGridCheckpointed(experiment(), entries()).summaries;

    // The first checkpoint save of the grid fails; the retry resumes
    // the cell (from nothing, the failed save landed no file) and the
    // grid still reproduces the fault-free results bit-for-bit.
    failpoint::configure("forecast.checkpoint.save=nth:1");
    const auto outcome = sim::runForecastGridCheckpointed(
        experiment(), entries(), {}, checkpoint(), resilience(2), 1);
    EXPECT_TRUE(outcome.ok());
    ASSERT_EQ(outcome.reports.size(), 2u);
    EXPECT_EQ(outcome.reports[0].status, sim::CellStatus::Recovered);
    ASSERT_EQ(outcome.reports[0].failpoints.size(), 1u);
    EXPECT_EQ(outcome.reports[0].failpoints[0],
              "forecast.checkpoint.save");
    expectSummariesIdentical(outcome.summaries, plain);
}

TEST_F(ResilientGrid, ExhaustedBudgetQuarantinesAndWritesReport)
{
    failpoint::configure("grid.cell.throw=every:1");
    auto options = resilience(2);
    options.failuresOut = failuresPath();
    const auto outcome = sim::runForecastGridCheckpointed(
        experiment(), entries(), {}, checkpoint(), options, 1);
    EXPECT_FALSE(outcome.ok());
    EXPECT_EQ(outcome.exitCode(), 1);
    EXPECT_TRUE(outcome.summaries.empty());
    ASSERT_EQ(failedCells(outcome), 2u);
    ASSERT_EQ(outcome.reports.size(), 2u);
    for (const auto &report : outcome.reports) {
        EXPECT_EQ(report.status, sim::CellStatus::Quarantined);
        EXPECT_EQ(report.attempts, 2u);
        EXPECT_FALSE(report.error.empty());
    }

    const auto bytes = serial::readFileBytes(failuresPath());
    const std::string json(bytes.begin(), bytes.end());
    EXPECT_NE(json.find("\"schema\": \"hllc-failures-v1\""),
              std::string::npos);
    EXPECT_NE(json.find("\"quarantined\": 2"), std::string::npos);
    EXPECT_NE(json.find("grid.cell.throw"), std::string::npos);
}

TEST_F(ResilientGrid, WatchdogCancelsStalledCellAndResumeCompletes)
{
    const std::vector<sim::StudyEntry> one = { entries()[0] };
    const auto plain =
        sim::runForecastGridCheckpointed(experiment(), one).summaries;

    // The stall site sleeps past the 200 ms deadline, so the cell
    // unwinds at its first step boundary with a final checkpoint in
    // place. Timeouts are never retried.
    failpoint::configure("grid.cell.stall=nth:1");
    const auto outcome = sim::runForecastGridCheckpointed(
        experiment(), one, {}, checkpoint(), resilience(3, 200), 1);
    EXPECT_FALSE(outcome.ok());
    ASSERT_EQ(failedCells(outcome), 1u);
    ASSERT_EQ(outcome.reports.size(), 1u);
    EXPECT_EQ(outcome.reports[0].status, sim::CellStatus::TimedOut);
    EXPECT_EQ(outcome.reports[0].attempts, 1u);
    EXPECT_EQ(outcome.reports[0].errorKind, "deadline");

    // With the chaos cleared, a resume finishes the cell from its
    // final checkpoint and matches the uninterrupted reference.
    failpoint::reset();
    const auto resumed = sim::runForecastGridCheckpointed(
        experiment(), one, {}, checkpoint(true), {}, 1);
    EXPECT_TRUE(resumed.ok());
    expectSummariesIdentical(resumed.summaries, plain);
}

} // namespace
