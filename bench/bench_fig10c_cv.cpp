/**
 * @file
 * Figure 10c: endurance-variability sensitivity — coefficient of
 * variation raised from 0.20 to 0.25 (same mean 1e10).
 *
 * Paper reference: frame-disabling caches suffer drastically (BH 2.7 ->
 * 1.6 months, LHybrid 53 -> 30), byte-disabling caches barely move
 * (CP_SD 45 -> 42), so the CP_SD family beats LHybrid on BOTH axes.
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
    config.endurance.cv = 0.25;
    sim::printConfigHeader(config,
                           "Figure 10c: endurance cv = 0.25 sensitivity");
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
