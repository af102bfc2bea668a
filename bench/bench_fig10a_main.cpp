/**
 * @file
 * Figures 1 and 10a — the headline result: performance evolution over
 * time (normalized IPC) and lifetime (months to 50% NVM capacity) of
 * BH, BH_CP, LHybrid, TAP, CP_SD, CP_SD_Th4 and CP_SD_Th8, between the
 * 16-way and 4-way SRAM bounds. Ten Table V mixes, endurance
 * mu = 1e10 / cv = 0.2.
 *
 * Paper reference (lifetime factors over BH): BH_CP 4.8x, CP_SD 16.8x,
 * LHybrid 19.7x, TAP 39x; CP_SD keeps ~97% of BH performance while
 * LHybrid loses 11.2% and TAP ~15%. CP_SD_Th4/Th8 trade 1.1%/1.9%
 * performance for 28%/44% more lifetime than CP_SD.
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
    sim::printConfigHeader(
        config, "Figures 1 / 10a: performance vs lifetime (main result)");

    std::printf("# Table III policies: BH (frame-dis., no compr., "
                "NVM-unaware) | BH_CP (byte-dis., compr., NVM-unaware) "
                "| LHybrid/TAP (frame-dis., NVM-aware) | CP_SD[,Th] "
                "(byte-dis., compr., NVM-aware)\n");

    const sim::Experiment experiment(config);

    const std::vector<sim::StudyEntry> entries = {
        sim::studyEntry(config, PolicyKind::Bh),
        sim::studyEntry(config, PolicyKind::BhCp),
        sim::studyEntry(config, PolicyKind::LHybrid),
        sim::studyEntry(config, PolicyKind::Tap),
        sim::studyEntry(config, PolicyKind::CpSd),
        sim::studyEntry(config, PolicyKind::CpSdTh, { .thPercent = 4.0 }),
        sim::studyEntry(config, PolicyKind::CpSdTh, { .thPercent = 8.0 }),
    };
    return sim::runAndPrintForecastStudy(experiment, entries, {},
                                         args.checkpoint, args.statsOut,
                                         args.resilience);
}
