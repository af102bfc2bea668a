/**
 * @file
 * Figure 9: hits and NVM bytes written of CP_SD_Th for Th in
 * {0, 2, 4, 6, 8}% (Tw = 5%) at NVM capacities 100/90/80%, normalized
 * to BH at 100% capacity.
 *
 * Paper reference: increasing Th decreases both hits and bytes written,
 * with a much larger relative decrease in bytes written, especially at
 * lower capacities (e.g. Th 0->8 at 80% capacity: hits 0.925->0.916,
 * bytes 0.059->0.035).
 */

#include <cstdio>
#include <string>

#include "common/logging.hh"
#include "common/numfmt.hh"
#include "sim/grid.hh"

using namespace hllc;
using hybrid::PolicyKind;

namespace
{

constexpr double kCapacities[] = { 1.0, 0.9, 0.8 };
constexpr double kThValues[] = { 0.0, 2.0, 4.0, 6.0, 8.0 };

} // namespace

int
main(int argc, char **argv)
{
    const sim::BenchArgs args =
        sim::parseBenchArgs(argc, argv, { .jobs = true, .statsOut = true });
    setLogLevel(LogLevel::Warn);
    sim::SystemConfig config = sim::SystemConfig::tableIV();
    config.jobs = args.jobs;
    sim::printConfigHeader(
        config,
        "Figure 9: CP_SD_Th hits vs NVM bytes written (Tw = 5%)");
    const sim::Experiment experiment(config);

    // Cell 0 is the BH baseline; the capacity x Th sweep follows in
    // row-major order, so the printout below is byte-identical to the
    // historical serial loop for any --jobs value.
    std::vector<sim::PhaseCell> cells;
    cells.push_back({ "BH", config.llcConfig(PolicyKind::Bh), 1.0,
                      sim::allMixes });
    for (double capacity : kCapacities) {
        for (double th : kThValues) {
            hybrid::PolicyParams params;
            params.thPercent = th;
            params.twPercent = 5.0;
            // Th = 0 is plain CP_SD (max-hits winner).
            const auto policy = th == 0.0 ? PolicyKind::CpSd
                                          : PolicyKind::CpSdTh;
            cells.push_back(
                { "CP_SD_Th" + formatI64(static_cast<int>(th)) +
                      "_cap" +
                      formatI64(static_cast<int>(100.0 * capacity)),
                  config.llcConfig(policy, params), capacity,
                  sim::allMixes });
        }
    }
    const auto phases = sim::runPhaseGrid(experiment, cells);
    sim::exportPhaseStudy(args.statsOut,
                          "fig9-th-tradeoff", phases);

    const double bh_hits =
        static_cast<double>(phases[0].aggregate.demandHits);
    const double bh_bytes =
        static_cast<double>(phases[0].aggregate.nvmBytesWritten);

    std::printf("\n%8s %6s %12s %12s\n", "capacity", "Th",
                "norm.hits", "norm.bytes");
    std::size_t cell = 1;
    for (double capacity : kCapacities) {
        for (double th : kThValues) {
            const auto &phase = phases[cell++];
            std::printf("%7.0f%% %6.0f %12.4f %12.4f\n",
                        100.0 * capacity, th,
                        phase.aggregate.demandHits / bh_hits,
                        phase.aggregate.nvmBytesWritten / bh_bytes);
        }
    }
    return 0;
}
