/**
 * @file
 * Self-healing grid machinery: bounded retry with deterministic
 * backoff, cell watchdogs, and the machine-readable `hllc-failures-v1`
 * report.
 *
 * A multi-epoch forecast campaign must not lose hours of grid time to
 * one transient I/O error or one stuck cell. This layer turns cell
 * failures into outcomes instead of aborts:
 *
 *  - runWithRetry(): re-runs a failing cell body up to a bounded number
 *    of attempts, sleeping an exponentially growing, deterministically
 *    jittered delay in between (interruptible — SIGINT/SIGTERM drains a
 *    retrying grid promptly). A cell that keeps failing is quarantined;
 *    the grid completes with the surviving cells.
 *  - GridWatchdog: a monotonic-clock monitor thread that flags cells
 *    exceeding a deadline; the flag is a cooperative cancellation token
 *    checked by ForecastEngine's step loop (forecast::RunOptions::
 *    cancel), so a cancelled cell still writes a final checkpoint.
 *  - writeFailureReport(): every cell's outcome (attempts, error kind,
 *    fired failpoints) as a `hllc-failures-v1` JSON document, emitted
 *    alongside the stats so partial results degrade gracefully and stay
 *    diagnosable.
 *
 * Determinism: retry *outcomes* are deterministic under a deterministic
 * fault schedule (common/failpoint.hh) because every attempt re-runs a
 * pure function of the cell configuration (resuming from a checkpoint
 * is byte-identical to never having failed). Only the watchdog depends
 * on wall clock, and it feeds the failure report and the cancellation
 * flag — never the simulation results.
 */

#ifndef HLLC_SIM_RESILIENCE_HH
#define HLLC_SIM_RESILIENCE_HH

#include <atomic>
#include <chrono>
#include <cstdint>
#include <functional>
#include <memory>
#include <string>
#include <thread>
#include <vector>

#include "common/sync.hh"

namespace hllc::sim
{

/** Bounded-retry knobs of one grid (CLI: --retries, --retry-delay-ms). */
struct RetryPolicy
{
    /** Total attempts per cell (1 = no retry). */
    std::size_t maxAttempts = 1;
    /** Delay before the first retry; doubles per further retry. */
    std::uint64_t baseDelayMs = 100;
    /** Backoff ceiling. */
    std::uint64_t maxDelayMs = 5000;
    /** Seed of the deterministic jitter (mixed with cell index). */
    std::uint64_t jitterSeed = 0;
};

/**
 * Backoff before retry number @p retry (1-based) of cell @p cell_index:
 * min(base * 2^(retry-1), max), plus-or-minus up to 25% deterministic
 * jitter drawn from mix64(jitterSeed, cell_index, retry) — identical
 * schedule for any jobs value, but desynchronised across cells so
 * retries of a shared failing resource do not stampede in lockstep.
 */
std::uint64_t retryDelayMs(const RetryPolicy &policy, std::size_t retry,
                           std::size_t cell_index);

/** Terminal state of one self-healing grid cell. */
enum class CellStatus
{
    Ok,          //!< first attempt succeeded
    Recovered,   //!< a retry succeeded after earlier failures
    Quarantined, //!< every attempt failed; cell excluded from results
    TimedOut,    //!< watchdog cancelled the cell (not retried)
    Interrupted, //!< SIGINT/SIGTERM unwound the cell
};

/** The schema string of @p status ("ok", "recovered", ...). */
const char *cellStatusName(CellStatus status);

/** One cell's row in the hllc-failures-v1 report. */
struct CellReport
{
    std::size_t index = 0;
    std::string label;
    /** Attempts actually made (>= 1). */
    std::size_t attempts = 1;
    CellStatus status = CellStatus::Ok;
    /** Last error text (empty when the cell succeeded first try). */
    std::string error;
    /** "io" | "deadline" | "interrupt" | "std" | "non-std::exception". */
    std::string errorKind;
    /** Failpoint names extracted from every attempt's error text. */
    std::vector<std::string> failpoints;

    bool succeeded() const
    {
        return status == CellStatus::Ok ||
               status == CellStatus::Recovered;
    }
};

/** Self-healing knobs of a checkpointed forecast grid. */
struct ResilienceOptions
{
    RetryPolicy retry;
    /** Watchdog deadline per cell attempt in ms; 0 disables. */
    std::uint64_t cellTimeoutMs = 0;
    /** hllc-failures-v1 report path (.json); empty disables. */
    std::string failuresOut;
};

/**
 * Result of runWithRetry(): the terminal status plus the diagnosis the
 * report needs. On success `error` holds the *last* failure (empty when
 * the first attempt succeeded).
 */
struct RetryResult
{
    CellStatus status = CellStatus::Ok;
    std::size_t attempts = 1;
    std::string error;
    std::string errorKind;
    std::vector<std::string> failpoints;
};

/**
 * Run @p body (called with the 0-based attempt number) under @p policy.
 * Failure taxonomy:
 *
 *  - InterruptedError unwinds immediately (status Interrupted): the
 *    user asked the grid to stop, retrying would fight them;
 *  - DeadlineExceededError quarantines immediately (status TimedOut):
 *    a cell that overran its watchdog once will do so again;
 *  - any other std::exception is retried after an interruptible
 *    backoff (IoError reported as kind "io", the rest as "std");
 *  - a non-std::exception throw is retried too, recorded with the
 *    explicit "non-std::exception" marker (satellite: the old
 *    catch (...) arm reported only "unknown error" with no identity).
 *
 * Failpoint names quoted in error messages ("... failpoint '<name>'")
 * are collected across attempts into RetryResult::failpoints.
 */
RetryResult runWithRetry(const RetryPolicy &policy,
                         std::size_t cell_index,
                         const std::function<void(std::size_t)> &body);

/** Failpoint names quoted in @p error ("... failpoint '<name>'"). */
std::vector<std::string> extractFailpointNames(const std::string &error);

/** The hllc-failures-v1 document for @p cells (all cells, not just bad). */
std::string failureReportToJson(const std::vector<CellReport> &cells);

/** Atomically write failureReportToJson() to @p path. */
void writeFailureReport(const std::string &path,
                        const std::vector<CellReport> &cells);

/**
 * Monotonic-clock watchdog over running grid cells. One monitor thread
 * wakes at a fraction of the deadline, compares each registered cell's
 * start against steady_clock::now(), and on overrun warns and sets the
 * cell's cancellation flag — which ForecastEngine::run polls at step
 * boundaries (cooperative: the cell checkpoints, then unwinds with
 * DeadlineExceededError). With timeout 0 the watchdog is inert and
 * starts no thread.
 */
class GridWatchdog
{
  public:
    explicit GridWatchdog(std::uint64_t timeout_ms);
    ~GridWatchdog();

    GridWatchdog(const GridWatchdog &) = delete;
    GridWatchdog &operator=(const GridWatchdog &) = delete;

    /**
     * RAII registration of one cell attempt: registers on construction,
     * deregisters on destruction. cancelFlag() stays valid for the
     * Scope's lifetime and is what forecast::RunOptions::cancel points
     * at.
     */
    class Scope
    {
      public:
        Scope(GridWatchdog &watchdog, std::size_t index,
              const std::string &label);
        ~Scope();

        Scope(const Scope &) = delete;
        Scope &operator=(const Scope &) = delete;

        const std::atomic<bool> *cancelFlag() const
        {
            return cancel_.get();
        }

      private:
        GridWatchdog &watchdog_;
        std::shared_ptr<std::atomic<bool>> cancel_;
    };

  private:
    struct Entry
    {
        std::size_t index = 0;
        std::string label;
        std::chrono::steady_clock::time_point deadline;
        std::shared_ptr<std::atomic<bool>> cancel;
        bool flagged = false;
    };

    std::shared_ptr<std::atomic<bool>> watch(std::size_t index,
                                             const std::string &label);
    void unwatch(const std::atomic<bool> *token);
    void monitorLoop();

    const std::uint64_t timeoutMs_;
    Mutex mutex_;
    CondVar wake_;
    std::vector<Entry> entries_ HLLC_GUARDED_BY(mutex_);
    bool stopping_ HLLC_GUARDED_BY(mutex_) = false;
    std::thread monitor_;
};

} // namespace hllc::sim

#endif // HLLC_SIM_RESILIENCE_HH
