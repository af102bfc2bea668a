/**
 * @file
 * Figure 7: bytes written to the NVM part by CA and CA_RWR for each
 * CPth, plus the CP_SD adaptive line, normalized to BH. Ten Table V
 * mixes, 100% NVM capacity.
 *
 * Paper reference: CA varies between ~5% (CPth 30) and ~80% (CPth 64)
 * of BH; CA_RWR reduces bytes written substantially at high CPth
 * (up to 73% below CA at CPth 51); CP_SD writes ~16.6% of BH.
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
    sim::printConfigHeader(
        config, "Figure 7: normalized NVM bytes written vs CPth");
    const sim::Experiment experiment(config);

    std::vector<sim::PhaseSummary> summaries;
    const auto bh =
        experiment.runPhase(config.llcConfig(PolicyKind::Bh), "BH");
    const auto bh_bytes =
        static_cast<double>(bh.aggregate.nvmBytesWritten);
    summaries.push_back(bh);
    std::printf("# BH bytes written: %.0f (normalization basis)\n\n",
                bh_bytes);

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
                    ca.aggregate.nvmBytesWritten / bh_bytes,
                    rwr.aggregate.nvmBytesWritten / bh_bytes);
        summaries.push_back(ca);
        summaries.push_back(rwr);
    }

    const auto cpsd =
        experiment.runPhase(config.llcConfig(PolicyKind::CpSd), "CP_SD");
    std::printf("\nCP_SD (Set Dueling): %.4f of BH\n",
                cpsd.aggregate.nvmBytesWritten / bh_bytes);
    summaries.push_back(cpsd);

    sim::exportPhaseStudy(args.statsOut, "fig7-byteswritten", summaries);
    return 0;
}
