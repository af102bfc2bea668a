/**
 * @file
 * Quickstart: capture one workload mix of a Table IV system, replay it
 * against the CP_SD hybrid LLC, and print the headline statistics.
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
#include "forecast/forecast.hh"
#include "hierarchy/hierarchy.hh"
#include "hybrid/llc_rig.hh"
#include "sim/config.hh"

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

    // 1. A Table IV system (HLLC_SCALE-scaled) and the LLC under test.
    const sim::SystemConfig config = sim::SystemConfig::tableIV();
    const workload::MixSpec &mix = workload::tableVMixes().front();
    const hybrid::LlcRig rig = hybrid::buildLlcRig(
        config.llcConfig(*policy), config.endurance, config.seed);
    const hybrid::HybridLlc &llc = *rig.llc;

    // The LLC actually built: the SRAM bound makes every way SRAM.
    const hybrid::HybridLlcConfig &geometry = llc.config();
    std::printf("hllc quickstart: %s on %s (%u-set LLC, %uw SRAM + %uw "
                "NVM)\n",
                std::string(llc.policy().name()).c_str(),
                mix.name.c_str(), geometry.numSets, geometry.sramWays,
                geometry.nvmWays);

    // 2. Run the four cores' private stacks once, recording the
    //    LLC-bound stream.
    const replay::LlcTrace trace =
        hierarchy::captureTrace(mix, config.llcBlocks(),
                                config.privateCaches, config.refsPerCore,
                                config.seed);

    // 3. Replay it against the LLC; the first 20% warms the LLC up and
    //    the statistics cover the rest.
    const forecast::PhaseAggregate result = forecast::replayAllTraces(
        { &trace }, *rig.llc, config.timing, 0.2);

    // 4. Report.
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
    std::printf("  mean IPC            : %.3f\n", result.meanIpc);

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
