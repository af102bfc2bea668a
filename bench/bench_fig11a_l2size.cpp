/**
 * @file
 * Figure 11a: L2-size sensitivity — private L2 doubled from 128 KB to
 * 256 KB (scaled), traces recaptured behind the larger filter.
 *
 * Paper reference: overall performance rises; the bigger L2 filters
 * writes so most policies gain 8-19% lifetime, while LHybrid LOSES 11%
 * (longer SRAM residency detects more loop-blocks -> more NVM writes).
 */

#include <cstdio>

#include "common/logging.hh"
#include "sim/grid.hh"

using namespace hllc;
using hybrid::PolicyKind;

int
main(int argc, char **argv)
{
    const auto args = sim::parseBenchArgs(argc, argv, sim::allFlagGroups);
    setLogLevel(LogLevel::Warn);
    sim::SystemConfig config = sim::SystemConfig::tableIV();
    config.jobs = args.jobs;
    config.privateCaches.l2Bytes *= 2;
    sim::printConfigHeader(config,
                           "Figure 11a: doubled L2 size sensitivity");
    const sim::Experiment experiment(config);

    const std::vector<sim::StudyEntry> entries = {
        sim::studyEntry(config, PolicyKind::Bh),
        sim::studyEntry(config, PolicyKind::BhCp),
        sim::studyEntry(config, PolicyKind::LHybrid),
        sim::studyEntry(config, PolicyKind::CpSd),
        sim::studyEntry(config, PolicyKind::CpSdTh, { .thPercent = 4.0 }),
        sim::studyEntry(config, PolicyKind::CpSdTh, { .thPercent = 8.0 }),
    };
    return sim::runAndPrintForecastStudy(experiment, entries, {},
                                         args.checkpoint, args.statsOut,
                                         args.resilience);
}
