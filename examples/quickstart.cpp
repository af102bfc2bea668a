/**
 * @file
 * Quickstart: build a Table IV system, run one workload mix against the
 * CP_SD hybrid LLC, and print the headline statistics.
 *
 * Usage: quickstart [policy]
 *   policy: BH | BH_CP | CA | CA_RWR | CP_SD | CP_SD_Th | LHybrid | TAP
 *           | SRAM (default CP_SD)
 */

#include <cstdio>
#include <iostream>
#include <string>
#include <vector>

#include "common/argparse.hh"
#include "common/logging.hh"
#include "sim/system.hh"

using namespace hllc;

int
main(int argc, char **argv)
{
    ArgParser cli(argv[0], "[policy]", 0, 1);
    const std::vector<std::string> args = cli.parse(argc, argv);
    const auto policy = args.empty() ? hybrid::PolicyKind::CpSd
                                     : hybrid::policyFromName(args[0]);
    if (!policy)
        cli.fail("unknown policy '%s'", args[0].c_str());

    // 1. A Table IV system (HLLC_SCALE-scaled), running mix 1.
    const sim::SystemConfig config = sim::SystemConfig::tableIV();
    const workload::MixSpec &mix = workload::tableVMixes().front();
    sim::System system(config, mix, *policy);

    // The LLC actually built: the SRAM bound makes every way SRAM.
    const hybrid::HybridLlcConfig &geometry = system.llc().config();
    std::printf("hllc quickstart: %s on %s (%u-set LLC, %uw SRAM + %uw "
                "NVM)\n",
                std::string(system.llc().policy().name()).c_str(),
                mix.name.c_str(), geometry.numSets, geometry.sramWays,
                geometry.nvmWays);

    // 2. Run the four cores.
    system.run(config.refsPerCore);

    // 3. Report.
    const hybrid::HybridLlc &llc = system.llc();
    std::printf("  LLC demand accesses : %llu\n",
                static_cast<unsigned long long>(llc.demandAccesses()));
    std::printf("  LLC hit rate        : %.4f\n", llc.hitRate());
    std::printf("  hits SRAM / NVM     : %llu / %llu\n",
                static_cast<unsigned long long>(
                    llc.stats().counterValue("gets_hits_sram") +
                    llc.stats().counterValue("getx_hits_sram")),
                static_cast<unsigned long long>(
                    llc.stats().counterValue("gets_hits_nvm") +
                    llc.stats().counterValue("getx_hits_nvm")));
    std::printf("  inserts SRAM / NVM  : %llu / %llu\n",
                static_cast<unsigned long long>(
                    llc.stats().counterValue("inserts_sram")),
                static_cast<unsigned long long>(
                    llc.stats().counterValue("inserts_nvm")));
    std::printf("  NVM bytes written   : %llu\n",
                static_cast<unsigned long long>(llc.nvmBytesWritten()));
    std::printf("  mean IPC            : %.3f\n", system.meanIpc());

    if (const auto *dueling = llc.dueling()) {
        std::printf("  Set Dueling winner  : CPth = %u after %llu "
                    "epochs\n",
                    dueling->winner(),
                    static_cast<unsigned long long>(
                        dueling->epochsCompleted()));
    }

    std::printf("\nFull LLC statistics:\n");
    llc.stats().dump(std::cout);
    return 0;
}
