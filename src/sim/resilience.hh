/**
 * @file
 * Self-healing grid machinery: bounded retry with deterministic
 * backoff, per-attempt cell deadlines, and the machine-readable
 * `hllc-failures-v1` report.
 *
 * A multi-epoch forecast campaign must not lose hours of grid time to
 * one transient I/O error or one stuck cell. This layer turns cell
 * failures into outcomes instead of aborts:
 *
 *  - runWithRetry(): re-runs a failing cell body up to a bounded number
 *    of attempts, sleeping an exponentially growing delay in between
 *    (interruptible — SIGINT/SIGTERM drains a retrying grid promptly).
 *    A cell that keeps failing is quarantined; the grid completes with
 *    the surviving cells.
 *  - ResilienceOptions::cellTimeoutMs: the grid gives every attempt a
 *    deadline (forecast::RunOptions::deadline) that ForecastEngine's
 *    step loop checks at each step boundary, so a cell past it still
 *    writes a final checkpoint before it unwinds.
 *  - writeFailureReport(): every cell's outcome (attempts, error kind,
 *    fired failpoints) as a `hllc-failures-v1` JSON document, emitted
 *    alongside the stats so partial results degrade gracefully and stay
 *    diagnosable.
 *
 * Determinism: retry *outcomes* are deterministic under a deterministic
 * fault schedule (common/failpoint.hh) because every attempt re-runs a
 * pure function of the cell configuration (resuming from a checkpoint
 * is byte-identical to never having failed). Only the deadline depends
 * on wall clock, and it decides whether a cell times out — never what a
 * finished cell computes.
 */

#ifndef HLLC_SIM_RESILIENCE_HH
#define HLLC_SIM_RESILIENCE_HH

#include <cstdint>
#include <functional>
#include <string>
#include <vector>

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
};

/**
 * Backoff before retry number @p retry (1-based):
 * min(base * 2^(retry-1), max), the same for every cell and jobs value.
 */
std::uint64_t retryDelayMs(const RetryPolicy &policy, std::size_t retry);

/** Terminal state of one self-healing grid cell. */
enum class CellStatus
{
    Ok,          //!< first attempt succeeded
    Recovered,   //!< a retry succeeded after earlier failures
    Quarantined, //!< every attempt failed; cell excluded from results
    TimedOut,    //!< an attempt passed its deadline (not retried)
    Interrupted, //!< SIGINT/SIGTERM unwound the cell
};

/** The schema string of @p status ("ok", "recovered", ...). */
const char *cellStatusName(CellStatus status);

/**
 * One cell's outcome: its row in the hllc-failures-v1 report, and what
 * runWithRetry() returns (which sets the index, not the label).
 */
struct CellReport
{
    std::size_t index = 0;
    std::string label;
    /** Attempts actually made (>= 1). */
    std::size_t attempts = 1;
    CellStatus status = CellStatus::Ok;
    /**
     * Last error text: empty when the first attempt succeeded, the
     * last failure's text when a retry did.
     */
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
    /** Quarantined or timed out (an interrupted cell did not fail). */
    bool failed() const
    {
        return status == CellStatus::Quarantined ||
               status == CellStatus::TimedOut;
    }
};

/** Self-healing knobs of a checkpointed forecast grid. */
struct ResilienceOptions
{
    RetryPolicy retry;
    /** Deadline of each cell attempt in ms; 0 disables. */
    std::uint64_t cellTimeoutMs = 0;
    /** hllc-failures-v1 report path (.json); empty disables. */
    std::string failuresOut;
};

/**
 * Run @p body (called with the 0-based attempt number) under @p policy
 * as cell @p cell_index. Failure taxonomy:
 *
 *  - InterruptedError unwinds immediately (status Interrupted): the
 *    user asked the grid to stop, retrying would fight them;
 *  - DeadlineExceededError quarantines immediately (status TimedOut):
 *    a cell that overran its deadline once will do so again;
 *  - any other std::exception is retried after an interruptible
 *    backoff (IoError reported as kind "io", the rest as "std");
 *  - a non-std::exception throw is retried too, recorded with the
 *    explicit "non-std::exception" marker and the cell index.
 *
 * Failpoint names quoted in error messages ("... failpoint '<name>'")
 * are collected across attempts into CellReport::failpoints.
 */
CellReport runWithRetry(const RetryPolicy &policy, std::size_t cell_index,
                        const std::function<void(std::size_t)> &body);

/** Failpoint names quoted in @p error ("... failpoint '<name>'"). */
std::vector<std::string> extractFailpointNames(const std::string &error);

/** The hllc-failures-v1 document for @p cells (all cells, not just bad). */
std::string failureReportToJson(const std::vector<CellReport> &cells);

/** Atomically write failureReportToJson() to @p path. */
void writeFailureReport(const std::string &path,
                        const std::vector<CellReport> &cells);

} // namespace hllc::sim

#endif // HLLC_SIM_RESILIENCE_HH
