#include "common/logging.hh"

#include <atomic>
#include <cstdio>
#include <cstdlib>
#include <string_view>

namespace hllc
{

namespace
{

// Atomic because worker threads emit grid heartbeats (and their level
// checks) concurrently with the main thread; relaxed ordering suffices
// since the level gates only log volume, never correctness.
std::atomic<LogLevel> g_level{LogLevel::Inform};

/**
 * HLLC_LOG={quiet,warn,info,debug} overrides every programmatic
 * setLogLevel() call, so a user can surface the grid heartbeats of a
 * bench that defaults to Warn without recompiling.
 */
const LogLevel *
envLevel()
{
    static const LogLevel *override_level = []() -> const LogLevel * {
        static LogLevel parsed;
        const char *env = std::getenv("HLLC_LOG");
        if (env == nullptr)
            return nullptr;
        const std::string_view v(env);
        if (v == "quiet")
            parsed = LogLevel::Quiet;
        else if (v == "warn")
            parsed = LogLevel::Warn;
        else if (v == "info" || v == "inform")
            parsed = LogLevel::Inform;
        else if (v == "debug")
            parsed = LogLevel::Debug;
        else
            return nullptr;
        return &parsed;
    }();
    return override_level;
}

void
vreport(const char *tag, const char *fmt, std::va_list ap)
{
    std::fprintf(stderr, "%s: ", tag);
    std::vfprintf(stderr, fmt, ap);
    std::fprintf(stderr, "\n");
}

} // anonymous namespace

void
setLogLevel(LogLevel level)
{
    g_level.store(envLevel() != nullptr ? *envLevel() : level,
                  std::memory_order_relaxed);
}

LogLevel
logLevel()
{
    return g_level.load(std::memory_order_relaxed);
}

void
panic(const char *fmt, ...)
{
    std::va_list ap;
    va_start(ap, fmt);
    vreport("panic", fmt, ap);
    va_end(ap);
    std::abort();
}

void
fatal(const char *fmt, ...)
{
    std::va_list ap;
    va_start(ap, fmt);
    vreport("fatal", fmt, ap);
    va_end(ap);
    std::exit(1);
}

void
usageError(const std::string &usage, const char *fmt, ...)
{
    std::va_list ap;
    va_start(ap, fmt);
    vreport("error", fmt, ap);
    va_end(ap);
    std::fprintf(stderr, "%s\n", usage.c_str());
    std::exit(2);
}

void
warn(const char *fmt, ...)
{
    if (g_level.load(std::memory_order_relaxed) < LogLevel::Warn)
        return;
    std::va_list ap;
    va_start(ap, fmt);
    vreport("warn", fmt, ap);
    va_end(ap);
}

void
inform(const char *fmt, ...)
{
    if (g_level.load(std::memory_order_relaxed) <
        LogLevel::Inform)
        return;
    std::va_list ap;
    va_start(ap, fmt);
    vreport("info", fmt, ap);
    va_end(ap);
}

void
debugLog(const char *fmt, ...)
{
    if (g_level.load(std::memory_order_relaxed) <
        LogLevel::Debug)
        return;
    std::va_list ap;
    va_start(ap, fmt);
    vreport("debug", fmt, ap);
    va_end(ap);
}

void
panicAssert(const char *cond, const char *file, int line,
            const char *fmt, ...)
{
    std::fprintf(stderr, "panic: assertion '%s' failed at %s:%d",
                 cond, file, line);
    if (fmt && fmt[0] != '\0') {
        std::fprintf(stderr, ": ");
        std::va_list ap;
        va_start(ap, fmt);
        std::vfprintf(stderr, fmt, ap);
        va_end(ap);
    }
    std::fprintf(stderr, "\n");
    std::abort();
}

} // namespace hllc
