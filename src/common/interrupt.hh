/**
 * @file
 * Cooperative SIGINT/SIGTERM handling for long-running grids.
 *
 * A checkpointing run must not die mid-write when the user (or the
 * batch scheduler) asks it to stop: installInterruptHandlers() turns the
 * first SIGINT/SIGTERM into a flag that long loops poll at safe
 * boundaries, where they write a final checkpoint and unwind with
 * InterruptedError. A second signal falls through to the default
 * disposition, so a hung run can still be killed.
 *
 * Thread safety: the flag and signal number are lock-free atomics (the
 * handler is async-signal-safe, and worker threads may poll
 * interruptRequested() concurrently), so no capability annotations are
 * needed here.
 */

#ifndef HLLC_COMMON_INTERRUPT_HH
#define HLLC_COMMON_INTERRUPT_HH

#include <cstdint>
#include <stdexcept>

namespace hllc
{

/**
 * Install the SIGINT/SIGTERM flag handlers (idempotent). Call before
 * starting a checkpointed run.
 */
void installInterruptHandlers();

/** Whether an interrupt (signal or requestInterrupt()) is pending. */
bool interruptRequested();

/** The signal number that set the flag (0 when none; tests may fake). */
int interruptSignal();

/**
 * Conventional exit code for the pending interrupt (128 + signal), or
 * 0 when no interrupt is pending.
 */
int interruptExitCode();

/** Set the flag programmatically (tests, embedding applications). */
void requestInterrupt(int signal_number);

/** Clear the flag (tests; a fresh run after handling a stop). */
void clearInterrupt();

/**
 * Sleep for @p ms milliseconds, waking early when an interrupt arrives
 * (checked at most 50 ms apart; requestInterrupt() wakes immediately).
 * Returns true when the sleep was cut short by a pending interrupt.
 * Retry/backoff delays must use this instead of plain sleeps so
 * SIGINT/SIGTERM drains a retrying grid promptly.
 */
bool interruptibleSleepMs(std::uint64_t ms);

/**
 * Thrown by checkpoint-aware loops after they persisted their state in
 * response to a pending interrupt. Carries no data: the checkpoint on
 * disk is the result.
 */
class InterruptedError : public std::runtime_error
{
  public:
    InterruptedError() : std::runtime_error("interrupted") {}
};

} // namespace hllc

#endif // HLLC_COMMON_INTERRUPT_HH
