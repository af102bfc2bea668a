/**
 * @file
 * LLC energy comparison across insertion policies.
 *
 * TAP's original motivation is energy (25% reduction vs LRU, paper
 * Sec. I); this harness converts each policy's LLC event counters into
 * an energy breakdown: SRAM leakage dominates statically, NVM writes
 * dominate dynamically, and both compression (fewer bytes switched) and
 * conservative NVM insertion cut the write energy.
 */

#include <cstdio>

#include "common/logging.hh"
#include "hierarchy/energy.hh"
#include "hybrid/llc_rig.hh"
#include "sim/experiment.hh"
#include "sim/grid.hh"

using namespace hllc;
using hybrid::PolicyKind;

int
main(int argc, char **argv)
{
    sim::parseBenchArgs(argc, argv, {}); // takes no arguments
    setLogLevel(LogLevel::Warn);
    const sim::SystemConfig config = sim::SystemConfig::tableIV();
    sim::printConfigHeader(config, "LLC energy by insertion policy");
    const sim::Experiment experiment(config, 10);

    std::printf("\n%-10s %12s %12s %12s %12s %12s %10s\n", "policy",
                "SRAM dyn", "NVM read", "NVM write", "off-chip",
                "total (mJ)", "vs BH");

    double bh_total = 0.0;
    for (const PolicyKind policy :
         { PolicyKind::Bh, PolicyKind::BhCp, PolicyKind::LHybrid,
           PolicyKind::Tap, PolicyKind::CpSd }) {
        // Re-run the phase with a dedicated LLC so we can read its
        // counters (PhaseSummary only carries aggregates).
        const auto llc_config = config.llcConfig(policy);
        const hybrid::LlcRig rig =
            hybrid::buildLlcRig(llc_config, config.endurance, config.seed);
        hybrid::HybridLlc &llc = *rig.llc;
        const auto agg = forecast::replayAllTraces(
            experiment.tracePtrs(), llc, config.timing, 0.2);

        const auto energy = hierarchy::llcEnergy(
            llc.stats(), llc_config.sramWays, agg.measuredSeconds);
        if (policy == PolicyKind::Bh)
            bh_total = energy.total();

        std::printf("%-10s %12.3f %12.3f %12.3f %12.3f %12.3f %10.3f\n",
                    std::string(policyName(policy)).c_str(),
                    energy.sramDynamic / 1e6, energy.nvmRead / 1e6,
                    energy.nvmWrite / 1e6, energy.offChip / 1e6,
                    energy.total() / 1e6,
                    bh_total > 0 ? energy.total() / bh_total : 1.0);
    }
    std::printf("\n# (leakage omitted from columns; included in "
                "totals)\n");
    return 0;
}
