/**
 * @file
 * Figure 10b: SRAM/NVM proportion sensitivity — the hybrid LLC with a
 * 3-way SRAM + 13-way NVM split instead of 4 + 12.
 *
 * Paper reference: BH/BH_CP barely change; LHybrid detects less read
 * reuse (2.2% lower performance, 14% longer lifetime); the CP_SD family
 * loses ~2.1-2.6% performance and gains 3-7% lifetime.
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
    config.sramWays = 3;
    config.nvmWays = 13;
    sim::printConfigHeader(
        config, "Figure 10b: 3w SRAM + 13w NVM proportion sensitivity");
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
