/**
 * @file
 * The three benchmark workloads. Each sets up (several times, timing
 * each set-up), runs its timed region repeatedly for Options::seconds,
 * checks every simulated output, and fills a Report. With
 * Options::trace set it additionally runs a traced pass of the same
 * work and reports per-layer metrics, coverage and trace overhead.
 */

#ifndef PERFBENCH_WORKLOADS_HH
#define PERFBENCH_WORKLOADS_HH

#include "common.hh"

namespace perfbench
{

/** Set-ups per run; setup_s is their median. */
inline constexpr int setupRepeats = 5;

void runForecastGrid(const Options &options, Report &report);
void runServeClosed(const Options &options, Report &report);
void runIngestReplay(const Options &options, Report &report);

} // namespace perfbench

#endif // PERFBENCH_WORKLOADS_HH
