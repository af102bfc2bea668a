/**
 * @file
 * Figure 11c: equal-storage comparison — the byte fault map costs
 * CP_SD ~8.6% more storage than LHybrid, so CP_SD/CP_SD_Th are re-run
 * with 11 and 10 NVM ways (+1.8% / -5.2% cost vs LHybrid's 12 ways).
 *
 * Paper reference: all CP_SD configurations lose some performance and
 * lifetime with fewer ways, but even the 10-way CP_SD_Th8 beats
 * LHybrid's IPC by ~6.4% over the first two years.
 */

#include <cstdio>

#include "common/logging.hh"
#include "common/numfmt.hh"
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
        config, "Figure 11c: equal-storage comparison (fault-map "
                "overhead)");
    const sim::Experiment experiment(config);

    hybrid::PolicyParams th8;
    th8.thPercent = 8.0;

    std::vector<sim::StudyEntry> entries = {
        { "BH", config.llcConfig(PolicyKind::Bh) },
        { "LHybrid-12w", config.llcConfig(PolicyKind::LHybrid) },
    };
    for (std::uint32_t nvm_ways : { 12u, 11u, 10u }) {
        auto cpsd = config.llcConfig(PolicyKind::CpSd);
        cpsd.nvmWays = nvm_ways;
        entries.push_back({ "CP_SD-" + formatU64(nvm_ways) + "w",
                            cpsd });
        auto th = config.llcConfig(PolicyKind::CpSdTh, th8);
        th.nvmWays = nvm_ways;
        entries.push_back({ "CP_SD_Th8-" + formatU64(nvm_ways) +
                                "w",
                            th });
    }
    return sim::runAndPrintForecastStudy(experiment, entries, {},
                                         args.checkpoint, args.statsOut,
                                         args.resilience);
}
