#include "sim/grid.hh"

#include <algorithm>
#include <cerrno>
#include <chrono>
#include <cstdint>
#include <cstring>
#include <numeric>
#include <string_view>
#include <sys/stat.h>

#include "common/argparse.hh"
#include "common/error.hh"
#include "common/failpoint.hh"
#include "common/interrupt.hh"
#include "common/logging.hh"
#include "common/numfmt.hh"

namespace hllc::sim
{

unsigned
resolveJobs(unsigned jobs)
{
    return jobs == 0 ? defaultJobs() : jobs;
}

BenchArgs
parseBenchArgs(int argc, char **argv, FlagGroups accepted, int first,
               const char *positional)
{
    BenchArgs a;
    std::string_view names = positional;
    while (names.starts_with(' '))
        names.remove_prefix(1);
    ArgParser cli(argv[0], std::string(names));
    // A flag of a group this binary does not take is known but refused.
    const auto offer = [&](bool FlagGroups::*group,
                           std::vector<Flag> flags) {
        if (accepted.*group)
            return cli.add(std::move(flags));
        for (const Flag &flag : flags)
            cli.refuse(flag.name, flag.alias);
    };
    // A path flag whose value must end in @p ext or @p alt.
    const auto path = [](std::string &out, std::string_view ext,
                         std::string_view alt) {
        return [&out, ext, alt](const char *value) {
            out = value;
            return out.ends_with(ext) || out.ends_with(alt);
        };
    };
    auto &retry = a.resilience.retry;
    offer(&FlagGroups::jobs,
          { { "--jobs", "-j", "N", "worker threads (default: HLLC_JOBS)",
              storeNumber(a.jobs, 1) } });
    offer(&FlagGroups::statsOut,
          { { "--stats-out", "", "FILE.{json,csv}",
              "write the hllc-stats-v1 export",
              path(a.statsOut, ".json", ".csv") } });
    offer(&FlagGroups::checkpoint,
          { { "--checkpoint-dir", "", "DIR", "checkpoint every cell here",
              storeText(a.checkpoint.dir) },
            { "--checkpoint-every", "", "N", "checkpoint every N steps",
              storeNumber(a.checkpoint.every, 1) },
            { "--resume", "", nullptr, "resume from the checkpoints",
              storeSwitch(a.checkpoint.resume) } });
    offer(&FlagGroups::resilience,
          { { "--retries", "", "0..100", "retries of a failing cell",
              [&retry](const char *value) { // N retries: N + 1 attempts
                  const auto n = parseU64(value, 0, 100);
                  if (n)
                      retry.maxAttempts = *n + 1;
                  return n.has_value();
              } },
            { "--retry-delay-ms", "", "MS", "base retry backoff",
              storeNumber(retry.baseDelayMs) },
            { "--cell-timeout-ms", "", "MS", "cancel a cell after MS",
              storeNumber(a.resilience.cellTimeoutMs, 1) },
            { "--failures-out", "", "FILE.json",
              "write the hllc-failures-v1 report",
              path(a.resilience.failuresOut, ".json", ".json") } });
    cli.parse(argc, argv, first);
    if (a.checkpoint.resume && !a.checkpoint.enabled())
        cli.fail("--resume requires --checkpoint-dir");
    a.usage = cli.usageLine();
    return a;
}

std::string
checkpointCellPath(const CheckpointOptions &checkpoint, std::size_t index,
                   const std::string &label)
{
    std::string safe = label;
    for (char &c : safe) {
        const bool ok = (c >= 'a' && c <= 'z') || (c >= 'A' && c <= 'Z') ||
                        (c >= '0' && c <= '9') || c == '.' || c == '-' ||
                        c == '_';
        if (!ok)
            c = '_';
    }
    return checkpoint.dir + "/cell" + formatU64(index) + "_" + safe +
           ".ckpt";
}

namespace
{

/**
 * The order a parallel forecast grid starts @p entries in: longest
 * expected cell first, by policyTable traits. Set Dueling cells come
 * first (their mixes cannot split into tasks), then the byte-disabled
 * ones (a byte lost makes a set stale, so more sets replay per phase),
 * then the rest, which split into mix tasks and fill the tail. Stable
 * within a rank.
 */
std::vector<std::size_t>
costOrder(const std::vector<StudyEntry> &entries)
{
    const auto rank = [&](std::size_t i) {
        const hybrid::PolicyTraits &traits = hybrid::policyTable
            [static_cast<std::size_t>(entries[i].llc.policy)];
        return traits.usesSetDueling ? 0 : traits.usesCompression ? 1 : 2;
    };
    std::vector<std::size_t> order(entries.size());
    std::iota(order.begin(), order.end(), std::size_t{ 0 });
    std::stable_sort(order.begin(), order.end(),
                     [&](std::size_t a, std::size_t b) {
                         return rank(a) < rank(b);
                     });
    return order;
}

/**
 * steady_clock::now() plus @p ms, or no deadline (max()) when that lies
 * past the clock's range: a huge --cell-timeout-ms must not wrap into
 * the past.
 */
std::chrono::steady_clock::time_point
deadlineAfterMs(std::uint64_t ms)
{
    using std::chrono::milliseconds;
    using std::chrono::steady_clock;
    const steady_clock::time_point now = steady_clock::now();
    const milliseconds headroom = std::chrono::duration_cast<milliseconds>(
        steady_clock::time_point::max() - now);
    if (ms >= static_cast<std::uint64_t>(headroom.count()))
        return steady_clock::time_point::max();
    return now + milliseconds(ms);
}

/** Per-cell result of the checkpointed grid (collected off-thread). */
struct CellOutcome
{
    ForecastSummary summary;
    CellReport report;
};

/**
 * Per-cell progress heartbeat on stderr (inform): long grids otherwise
 * run silent for hours. Wall-clock only ever reaches the log, never the
 * results, so stdout stays byte-identical for any jobs value.
 */
class CellHeartbeat
{
  public:
    CellHeartbeat(const char *kind, std::size_t index, std::size_t total,
                  const std::string &label)
        : enabled_(logEnabled(LogLevel::Inform))
    {
        // Everything below only feeds inform(); when that is suppressed,
        // skip the label copy and the clock read too (per-cell heartbeats
        // run inside tight grid loops).
        if (!enabled_)
            return;
        kind_ = kind;
        index_ = index;
        total_ = total;
        label_ = label;
        start_ = std::chrono::steady_clock::now();
        inform("%s cell %zu/%zu (%s) started", kind_, index_ + 1, total_,
               label_.c_str());
    }

    void done(const char *status)
    {
        if (!enabled_)
            return;
        const double seconds =
            std::chrono::duration<double>(
                std::chrono::steady_clock::now() - start_).count();
        inform("%s cell %zu/%zu (%s) %s after %.1fs", kind_, index_ + 1,
               total_, label_.c_str(), status, seconds);
    }

  private:
    bool enabled_;
    const char *kind_ = nullptr;
    std::size_t index_ = 0;
    std::size_t total_ = 0;
    std::string label_;
    std::chrono::steady_clock::time_point start_;
};

} // anonymous namespace

ForecastGridOutcome
runForecastGridCheckpointed(const Experiment &experiment,
                            const std::vector<StudyEntry> &entries,
                            const forecast::ForecastConfig &fc,
                            const CheckpointOptions &checkpoint,
                            const ResilienceOptions &resilience,
                            unsigned jobs)
{
    if (jobs == 0)
        jobs = experiment.config().jobs;
    if (checkpoint.enabled() &&
        ::mkdir(checkpoint.dir.c_str(), 0777) != 0 && errno != EEXIST) {
        const int err = errno;
        throw IoError("cannot create checkpoint directory '" +
                      checkpoint.dir + "': " + std::strerror(err));
    }

    // Longest cells first; serially, entry order (the reference path,
    // whose failpoint hit order the chaos tests pin).
    jobs = resolveJobs(jobs);
    std::vector<std::size_t> order(entries.size());
    std::iota(order.begin(), order.end(), std::size_t{ 0 });
    if (jobs > 1)
        order = costOrder(entries);

    std::vector<CellOutcome> cells(entries.size());
    runJobs(jobs, order, [&](std::size_t i, ForkJoin &tasks) {
        CellOutcome &out = cells[i];
        CellHeartbeat heartbeat("forecast", i, entries.size(),
                                entries[i].label);
        out.report = runWithRetry(
            resilience.retry, i, [&](std::size_t attempt) {
                forecast::RunOptions run_options;
                // The deadline covers the whole attempt, the chaos
                // sites included, so an injected stall overruns it
                // however fast the forecast itself is.
                if (resilience.cellTimeoutMs > 0)
                    run_options.deadline =
                        deadlineAfterMs(resilience.cellTimeoutMs);
                // Chaos sites inside the retry boundary: an injected
                // throw exercises per-cell quarantine/recovery, an
                // injected stall overruns the deadline.
                HLLC_FAILPOINT("grid.cell.throw");
                if (failpoint::shouldFail("grid.cell.stall")) {
                    const std::uint64_t stall =
                        resilience.cellTimeoutMs > 0
                            ? std::min<std::uint64_t>(
                                  resilience.cellTimeoutMs * 2, 5000)
                            : 100;
                    interruptibleSleepMs(stall);
                }
                if (checkpoint.enabled()) {
                    run_options.checkpointPath = checkpointCellPath(
                        checkpoint, i, entries[i].label);
                    run_options.checkpointEvery = checkpoint.every;
                    // A retry resumes from whatever the failed
                    // attempt managed to checkpoint (falling back to
                    // scratch when nothing valid landed) — both are
                    // byte-identical to never having failed.
                    run_options.resume =
                        checkpoint.resume || attempt > 0;
                }
                run_options.tasks = &tasks;
                out.summary = experiment.runForecast(
                    entries[i].llc, entries[i].label, fc,
                    run_options);
            });
        out.report.label = entries[i].label;
        heartbeat.done(cellStatusName(out.report.status));
    });

    ForecastGridOutcome outcome;
    for (CellOutcome &cell : cells) {
        if (cell.report.succeeded())
            outcome.summaries.push_back(std::move(cell.summary));
        else if (cell.report.status == CellStatus::Interrupted)
            outcome.interrupted = true;
        outcome.reports.push_back(std::move(cell.report));
    }
    if (!resilience.failuresOut.empty()) {
        // The report is diagnostics riding alongside the results: its
        // write retries under the same policy as the cells (write-site
        // chaos must not unwind a completed grid), and a persistent
        // failure degrades to a warning instead of discarding the run.
        const CellReport written = runWithRetry(
            resilience.retry, entries.size(), [&](std::size_t) {
                writeFailureReport(resilience.failuresOut,
                                   outcome.reports);
            });
        if (!written.succeeded()) {
            warn("cannot write failure report '%s': %s",
                 resilience.failuresOut.c_str(), written.error.c_str());
        }
    }
    return outcome;
}

std::vector<PhaseSummary>
runPhaseGrid(const Experiment &experiment,
             const std::vector<PhaseCell> &cells,
             unsigned jobs)
{
    if (jobs == 0)
        jobs = experiment.config().jobs;
    return runGrid(
        cells.size(),
        [&](std::size_t i) {
            const PhaseCell &cell = cells[i];
            CellHeartbeat heartbeat("phase", i, cells.size(), cell.label);
            PhaseSummary summary = experiment.runPhase(
                cell.llc, cell.label, cell.capacity,
                cell.mix == allMixes ? std::vector<const replay::LlcTrace *>{}
                                     : experiment.tracePtr(cell.mix));
            heartbeat.done("finished");
            return summary;
        },
        jobs);
}

} // namespace hllc::sim
