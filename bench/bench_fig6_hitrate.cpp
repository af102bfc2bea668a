/**
 * @file
 * Figure 6: LLC hit rate of the CA and CA_RWR insertion policies for
 * each compression threshold CPth, plus the CP_SD adaptive line, all
 * normalized to the BH baseline. Ten Table V mixes, 100% NVM capacity.
 *
 * Paper reference: CA varies between 0.89 (CPth 30) and 0.99 (CPth 58);
 * CA_RWR slightly better at small CPth, marginally worse at large;
 * CP_SD matches the best CA_RWR.
 */

#include <cstdio>
#include <string>
#include <vector>

#include "common/logging.hh"
#include "common/numfmt.hh"
#include "compression/encoding.hh"
#include "sim/grid.hh"

using namespace hllc;
using hybrid::PolicyKind;

int
main(int argc, char **argv)
{
    const sim::BenchArgs args =
        sim::parseBenchArgs(argc, argv, { .statsOut = true });
    setLogLevel(LogLevel::Warn);
    const sim::SystemConfig config = sim::SystemConfig::tableIV();
    sim::printConfigHeader(config,
                           "Figure 6: normalized LLC hit rate vs CPth");
    const sim::Experiment experiment(config);

    std::vector<sim::PhaseSummary> summaries;
    const auto bh =
        experiment.runPhase(config.llcConfig(PolicyKind::Bh), "BH");
    const double bh_hits = bh.aggregate.hitRate;
    summaries.push_back(bh);
    std::printf("# BH hit rate: %.4f (normalization basis)\n\n",
                bh_hits);

    std::printf("%6s %12s %12s\n", "CPth", "CA", "CA_RWR");
    for (unsigned cpth : compression::cpthCandidates()) {
        hybrid::PolicyParams params;
        params.fixedCpth = cpth;
        const std::string suffix = "_cpth" + formatU64(cpth);
        const auto ca = experiment.runPhase(
            config.llcConfig(PolicyKind::Ca, params), "CA" + suffix);
        const auto rwr = experiment.runPhase(
            config.llcConfig(PolicyKind::CaRwr, params),
            "CA_RWR" + suffix);
        std::printf("%6u %12.4f %12.4f\n", cpth,
                    ca.aggregate.hitRate / bh_hits,
                    rwr.aggregate.hitRate / bh_hits);
        summaries.push_back(ca);
        summaries.push_back(rwr);
    }

    const auto cpsd =
        experiment.runPhase(config.llcConfig(PolicyKind::CpSd), "CP_SD");
    std::printf("\nCP_SD (Set Dueling): %.4f of BH  (paper: ~ best "
                "CA_RWR, ~0.97-1.0)\n",
                cpsd.aggregate.hitRate / bh_hits);
    summaries.push_back(cpsd);

    sim::exportPhaseStudy(args.statsOut, "fig6-hitrate", summaries);
    return 0;
}
