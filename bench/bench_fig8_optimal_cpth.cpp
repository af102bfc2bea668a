/**
 * @file
 * Figure 8: distribution of the per-epoch optimal CPth (the candidate
 * with the most hits among the Set Dueling leader groups), (a) as the
 * NVM part loses capacity from 100% to 50%, and (b) per workload mix at
 * 100% capacity.
 *
 * Paper reference: at 100% capacity, CPth 58/64 win most epochs but
 * ~30% of epochs prefer smaller values; smaller CPth values win more
 * often as capacity shrinks, and the per-mix variation is large (up to
 * 96% small-CPth epochs for mix 5).
 */

#include <cstdio>
#include <map>
#include <string>

#include "common/logging.hh"
#include "common/numfmt.hh"
#include "compression/encoding.hh"
#include "sim/grid.hh"

using namespace hllc;
using hybrid::PolicyKind;

namespace
{

void
printDistribution(const char *row_label,
                  const std::vector<unsigned> &history)
{
    std::map<unsigned, unsigned> counts;
    for (unsigned winner : history)
        ++counts[winner];
    std::printf("%-10s", row_label);
    const double total = history.empty() ? 1.0 : history.size();
    for (unsigned c : compression::cpthCandidates())
        std::printf(" %6.1f%%", 100.0 * counts[c] / total);
    std::printf("   (%zu epochs)\n", history.size());
}

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
        config, "Figure 8: distribution of per-epoch optimal CPth");
    const sim::Experiment experiment(config);

    // One grid over both sub-figures: the capacity sweep (a) followed
    // by the per-mix cells (b), replayed in parallel and printed in
    // cell order.
    const std::vector<double> capacities = { 1.0, 0.9, 0.8,
                                             0.7, 0.6, 0.5 };
    const std::size_t num_mixes = experiment.traces().size();
    std::vector<sim::PhaseCell> cells;
    for (double capacity : capacities) {
        cells.push_back({ "CP_SD_cap" +
                              formatI64(static_cast<int>(
                                  100.0 * capacity)),
                          config.llcConfig(PolicyKind::CpSd), capacity,
                          sim::allMixes });
    }
    for (std::size_t mix = 0; mix < num_mixes; ++mix) {
        cells.push_back({ "CP_SD_mix" + formatU64(mix + 1),
                          config.llcConfig(PolicyKind::CpSd), 1.0, mix });
    }
    const auto phases = sim::runPhaseGrid(experiment, cells);
    sim::exportPhaseStudy(args.statsOut,
                          "fig8-optimal-cpth", phases);

    std::printf("\ncolumns: CPth =");
    for (unsigned c : compression::cpthCandidates())
        std::printf(" %u", c);
    std::printf("\n\n# (a) by NVM effective capacity, all mixes\n");

    for (std::size_t i = 0; i < capacities.size(); ++i) {
        char label[16];
        std::snprintf(label, sizeof(label), "%3.0f%%",
                      100.0 * capacities[i]);
        printDistribution(label, phases[i].winnerHistory);
    }

    std::printf("\n# (b) by mix, 100%% NVM capacity\n");
    for (std::size_t mix = 0; mix < num_mixes; ++mix) {
        char label[32];
        std::snprintf(label, sizeof(label), "mix %zu", mix + 1);
        printDistribution(label,
                          phases[capacities.size() + mix].winnerHistory);
    }
    return 0;
}
