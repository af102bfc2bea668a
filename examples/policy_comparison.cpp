/**
 * @file
 * Policy comparison at full NVM capacity: replays the ten Table V mixes
 * against every insertion policy and prints hit rate, NVM write traffic
 * and IPC, normalized to the BH baseline (the paper's Sec. II-D
 * motivation study).
 *
 * Usage: policy_comparison [num_mixes 1..10]
 */

#include <cstdio>
#include <string>
#include <vector>

#include "common/argparse.hh"
#include "common/logging.hh"
#include "sim/experiment.hh"

using namespace hllc;
using hybrid::PolicyKind;

int
main(int argc, char **argv)
{
    setLogLevel(LogLevel::Warn);
    ArgParser cli(argv[0], "[num_mixes 1..10]", 0, 1);
    const std::vector<std::string> args = cli.parse(argc, argv);
    const auto num_mixes =
        args.empty() ? 10u : parseUnsigned(args[0].c_str(), 1, 10);
    if (!num_mixes)
        cli.fail("bad mix count '%s'", args[0].c_str());

    const sim::SystemConfig config = sim::SystemConfig::tableIV();
    sim::printConfigHeader(config, "policy comparison (100% NVM capacity)");
    const sim::Experiment experiment(config, *num_mixes);

    struct Row
    {
        const char *label;
        PolicyKind policy;
        unsigned cpth;      //!< fixed CPth for CA/CA_RWR rows
        unsigned sramWays;  //!< >0: all-SRAM bound with this many ways
    };
    const Row rows[] = {
        { "SRAM-16w", PolicyKind::SramOnly, 0, 16 },
        { "SRAM-4w", PolicyKind::SramOnly, 0, 4 },
        { "BH", PolicyKind::Bh, 0, 0 },
        { "BH_CP", PolicyKind::BhCp, 0, 0 },
        { "LHybrid", PolicyKind::LHybrid, 0, 0 },
        { "TAP", PolicyKind::Tap, 0, 0 },
        { "CA(30)", PolicyKind::Ca, 30, 0 },
        { "CA(58)", PolicyKind::Ca, 58, 0 },
        { "CA(64)", PolicyKind::Ca, 64, 0 },
        { "CA_RWR(30)", PolicyKind::CaRwr, 30, 0 },
        { "CA_RWR(58)", PolicyKind::CaRwr, 58, 0 },
        { "CP_SD", PolicyKind::CpSd, 0, 0 },
        { "CP_SD_Th4", PolicyKind::CpSdTh, 0, 0 },
    };

    // Reference: BH.
    const auto bh =
        experiment.runPhase(config.llcConfig(PolicyKind::Bh), "BH");

    std::printf("\n%-12s %9s %9s %12s %8s %8s %8s\n", "policy",
                "hit rate", "norm.hit", "NVM bytes", "norm.BW", "IPC",
                "norm.IPC");
    for (const Row &row : rows) {
        hybrid::PolicyParams params;
        if (row.policy == PolicyKind::CpSdTh)
            params.thPercent = 4.0;
        if (row.cpth != 0)
            params.fixedCpth = row.cpth;
        const auto llc = row.policy == PolicyKind::SramOnly
            ? config.llcConfigSramBound(row.sramWays)
            : config.llcConfig(row.policy, params);
        const auto res = experiment.runPhase(llc, row.label);
        const auto &agg = res.aggregate;
        const auto &ref = bh.aggregate;
        std::printf("%-12s %9.4f %9.3f %12llu %8.3f %8.3f %8.3f\n",
                    row.label, agg.hitRate,
                    ref.hitRate > 0 ? agg.hitRate / ref.hitRate : 0.0,
                    static_cast<unsigned long long>(agg.nvmBytesWritten),
                    ref.nvmBytesWritten > 0
                        ? static_cast<double>(agg.nvmBytesWritten) /
                          static_cast<double>(ref.nvmBytesWritten)
                        : 0.0,
                    agg.meanIpc,
                    ref.meanIpc > 0 ? agg.meanIpc / ref.meanIpc : 0.0);
    }
    return 0;
}
