/**
 * @file
 * Figure 11b: NVM latency sensitivity — NVM data-array read latency
 * raised 1.5x (load-use 32 -> 38 cycles before the +2 decompression).
 *
 * Paper reference: policies inserting aggressively into NVM lose a bit
 * more performance (CP_SD -0.7%, LHybrid -0.4%); no drastic change in
 * either performance or lifetime.
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
    // Data-array read 8 -> 12 cycles: load-use 32 -> 36 (+2 decomp).
    config.timing.llcNvmLoadUse = 38;
    sim::printConfigHeader(config,
                           "Figure 11b: 1.5x NVM read latency");
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
