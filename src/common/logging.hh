/**
 * @file
 * gem5-style status/error reporting: panic, fatal, warn, inform.
 *
 * panic() flags an internal simulator bug and aborts; fatal() flags a user
 * error (bad configuration) and exits cleanly; usageError() flags a bad
 * command line; warn()/inform() report conditions without stopping the
 * simulation.
 */

#ifndef HLLC_COMMON_LOGGING_HH
#define HLLC_COMMON_LOGGING_HH

#include <cstdarg>
#include <string>

namespace hllc
{

/** Verbosity levels accepted by setLogLevel(). */
enum class LogLevel { Quiet, Warn, Inform, Debug };

/**
 * Set the global verbosity threshold (default: Inform). The HLLC_LOG
 * environment variable ({quiet,warn,info,debug}) overrides @p level,
 * so users can surface e.g. grid heartbeats from a bench that lowers
 * its own verbosity.
 */
void setLogLevel(LogLevel level);

/** Current global verbosity threshold. */
LogLevel logLevel();

/**
 * Whether a message at @p level would currently be emitted. inform()
 * itself drops suppressed messages, but the call site still pays for
 * argument construction (std::string copies, timing math) before the
 * level is consulted — code emitting per-cell/per-step status should
 * gate that work behind this check.
 */
inline bool
logEnabled(LogLevel level)
{
    return logLevel() >= level;
}

/**
 * Report an internal invariant violation and abort().
 * Use for conditions that indicate a simulator bug.
 */
[[noreturn]] void panic(const char *fmt, ...)
    __attribute__((format(printf, 1, 2)));

/**
 * Report an unrecoverable user/configuration error and exit(1).
 */
[[noreturn]] void fatal(const char *fmt, ...)
    __attribute__((format(printf, 1, 2)));

/**
 * Report a bad command line: "error: <message>", then @p usage, then
 * exit(2), so a script can tell a bad invocation from a failed run (1).
 */
[[noreturn]] void usageError(const std::string &usage, const char *fmt, ...)
    __attribute__((format(printf, 2, 3)));

/** Report a suspicious-but-survivable condition on stderr. */
void warn(const char *fmt, ...) __attribute__((format(printf, 1, 2)));

/** Report normal operating status on stderr. */
void inform(const char *fmt, ...) __attribute__((format(printf, 1, 2)));

/** Verbose debugging output, only shown at LogLevel::Debug. */
void debugLog(const char *fmt, ...) __attribute__((format(printf, 1, 2)));

/** Backend for HLLC_ASSERT; do not call directly. */
[[noreturn]] void panicAssert(const char *cond, const char *file, int line,
                              const char *fmt, ...)
    __attribute__((format(printf, 4, 5)));

/**
 * panic() unless @p cond holds. A lightweight always-on assert used to
 * protect microarchitectural invariants in release builds. An optional
 * printf-style message may follow the condition.
 */
#define HLLC_ASSERT(cond, ...)                                              \
    do {                                                                    \
        if (!(cond)) {                                                      \
            ::hllc::panicAssert(#cond, __FILE__, __LINE__, "" __VA_ARGS__); \
        }                                                                   \
    } while (0)

} // namespace hllc

#endif // HLLC_COMMON_LOGGING_HH
