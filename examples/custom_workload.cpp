/**
 * @file
 * Example: defining a custom application profile, and watching CP_SD
 * adapt its compression threshold to a mix with bimodal content.
 *
 * A MixSpec names stock profiles only, so the CP_SD run uses a stock
 * mix of zeusmp06 (mostly highly compressible blocks) and milc06
 * (incompressible blocks): it captures the mix behind the private
 * stacks, replays the trace against CP_SD and prints the Set Dueling
 * winner history, the runtime CPth adaptation of paper Sec. IV-C. The
 * custom profile then drives an AppModel directly, to show the working
 * sets it derives.
 */

#include <cstdio>
#include <map>

#include "common/logging.hh"
#include "forecast/forecast.hh"
#include "hierarchy/hierarchy.hh"
#include "hybrid/llc_rig.hh"
#include "sim/config.hh"

using namespace hllc;

int
main()
{
    setLogLevel(LogLevel::Warn);

    // The CP_SD run: a stock mix alternating a compressible and an
    // incompressible application (the custom profile is not in it).
    const sim::SystemConfig config = sim::SystemConfig::tableIV();
    workload::MixSpec mix{ "custom", { "zeusmp06", "milc06",
                                       "zeusmp06", "milc06" } };

    std::printf("Running a bimodal mix (compressible zeusmp06 + "
                "incompressible milc06) under CP_SD...\n");
    const replay::LlcTrace trace =
        hierarchy::captureTrace(mix, config.llcBlocks(),
                                config.privateCaches, config.refsPerCore,
                                config.seed);
    const hybrid::LlcRig rig = hybrid::buildLlcRig(
        config.llcConfig(hybrid::PolicyKind::CpSd), config.endurance,
        config.seed);
    const forecast::PhaseAggregate result = forecast::replayAllTraces(
        { &trace }, *rig.llc, config.timing, 0.2);

    const auto *dueling = rig.llc->dueling();
    std::printf("\nLLC hit rate %.4f | NVM bytes written %llu | "
                "mean IPC %.3f\n",
                result.hitRate,
                static_cast<unsigned long long>(result.nvmBytesWritten),
                result.meanIpc);

    std::map<unsigned, unsigned> winners;
    for (unsigned w : dueling->winnerHistory())
        ++winners[w];
    std::printf("\nSet Dueling winner distribution over %llu epochs:\n",
                static_cast<unsigned long long>(
                    dueling->epochsCompleted()));
    for (const auto &[cpth, count] : winners) {
        std::printf("  CPth %2u: %5.1f%%\n", cpth,
                    100.0 * count / dueling->winnerHistory().size());
    }
    std::printf("\ncurrent winner: CPth = %u\n", dueling->winner());

    // A custom app: small, very compressible loop working set plus a
    // large incompressible streaming footprint and a hot write set.
    workload::AppProfile custom;
    custom.name = "custom_bimodal";
    custom.pLoop = 0.55;
    custom.pStream = 0.35;
    custom.pRandom = 0.10;
    custom.loopFactor = 0.15;
    custom.footprintFactor = 3.0;
    custom.writeFraction = 0.2;
    custom.hcrFraction = 0.65;
    custom.lcrFraction = 0.05;   // bimodal: HCR or incompressible
    custom.memIntensity = 0.35;
    custom.baseCpi = 0.45;

    // A custom profile drives an AppModel directly:
    workload::AppModel app(custom, 0, config.llcBlocks(),
                           Xoshiro256StarStar(1));
    std::printf("\ncustom profile '%s': loop %llu blocks, write set "
                "%llu, footprint %llu\n", custom.name.c_str(),
                static_cast<unsigned long long>(app.loopBlocks()),
                static_cast<unsigned long long>(app.writeBlocks()),
                static_cast<unsigned long long>(app.footprintBlocks()));
    return 0;
}
