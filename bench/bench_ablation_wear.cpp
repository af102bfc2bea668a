/**
 * @file
 * Ablation: intra-frame wear leveling (paper Sec. III-B, after [24]).
 *
 * The paper's design pairs byte-disabling with a rotation counter that
 * spreads each frame's writes over its live bytes. This harness
 * forecasts CP_SD and BH_CP with leveling on (the paper's assumption)
 * and off (every write starts at the frame's first live byte). Without
 * leveling the frames' leading bytes wear out quickly; byte-disabling
 * and Fit-LRU soften the blow (worn frames keep serving compressed
 * blocks), but lifetime still drops substantially.
 */

#include <cstdio>

#include "common/logging.hh"
#include "sim/grid.hh"

using namespace hllc;
using fault::WearDistribution;
using hybrid::PolicyKind;

int
main(int argc, char **argv)
{
    const sim::BenchArgs args =
        sim::parseBenchArgs(argc, argv, { .jobs = true });
    setLogLevel(LogLevel::Warn);
    sim::SystemConfig config = sim::SystemConfig::tableIV();
    config.jobs = args.jobs;
    sim::printConfigHeader(config,
                           "Ablation: intra-frame wear leveling");
    const sim::Experiment experiment(config, 10);

    const std::vector<PolicyKind> policies = { PolicyKind::BhCp,
                                               PolicyKind::CpSd };
    const std::vector<WearDistribution> dists = {
        WearDistribution::Leveled, WearDistribution::FrontLoaded
    };

    // Forecast cells differ in ForecastConfig (not just geometry), so
    // this sweep uses the generic runGrid directly.
    const auto summaries = sim::runGrid(
        policies.size() * dists.size(),
        [&](std::size_t i) {
            const PolicyKind policy = policies[i / dists.size()];
            forecast::ForecastConfig fc;
            fc.wearDistribution = dists[i % dists.size()];
            return experiment.runForecast(
                config.llcConfig(policy),
                std::string(policyName(policy)), fc);
        },
        config.jobs);

    std::printf("\n%-10s %-12s %10s %10s %12s\n", "policy", "leveling",
                "months", "fs.months", "cap@end");
    std::size_t cell = 0;
    for (const PolicyKind policy : policies) {
        for (const WearDistribution dist : dists) {
            const auto &summary = summaries[cell++];
            std::printf("%-10s %-12s %10.3f %10.2f %12.4f\n",
                        std::string(policyName(policy)).c_str(),
                        dist == WearDistribution::Leveled
                            ? "rotation"
                            : "none",
                        summary.lifetimeMonths,
                        summary.lifetimeMonths *
                            config.fullScaleFactor(),
                        summary.series.empty()
                            ? 0.0
                            : summary.series.back().capacity);
        }
    }
    return 0;
}
