/**
 * @file
 * Lifetime forecast walkthrough (the paper's Fig. 1 methodology): runs
 * the forecasting procedure for a chosen policy and prints the temporal
 * evolution of NVM capacity and IPC until 50% capacity is lost.
 *
 * Usage: lifetime_forecast [policy] [num_mixes]
 */

#include <cstdio>
#include <cstdlib>

#include "common/logging.hh"
#include "sim/experiment.hh"

using namespace hllc;
using hybrid::PolicyKind;

int
main(int argc, char **argv)
{
    setLogLevel(LogLevel::Warn);
    const auto parsed =
        argc > 1 ? hybrid::policyFromName(argv[1]) : PolicyKind::CpSd;
    if (!parsed)
        fatal("unknown policy '%s'", argv[1]);
    const PolicyKind policy = *parsed;
    if (policy == PolicyKind::SramOnly)
        fatal("policy SRAM has no NVM part, so no lifetime to forecast");
    const std::size_t num_mixes =
        argc > 2 ? static_cast<std::size_t>(std::atoi(argv[2])) : 10;

    const sim::SystemConfig config = sim::SystemConfig::tableIV();
    sim::printConfigHeader(config, "lifetime forecast");
    const sim::Experiment experiment(config, num_mixes);

    const double upper = experiment.upperBoundIpc();
    std::printf("# 16w-SRAM upper-bound IPC: %.4f\n", upper);

    const auto summary = experiment.runForecast(
        config.llcConfig(policy), std::string(hybrid::policyName(policy)));

    std::printf("\n%8s %10s %10s %10s %12s\n", "months", "capacity",
                "IPC", "normIPC", "NVM MB/s");
    for (const auto &point : summary.series) {
        std::printf("%8.2f %10.4f %10.4f %10.4f %12.3f\n",
                    point.months(), point.capacity, point.meanIpc,
                    upper > 0 ? point.meanIpc / upper : 0.0,
                    point.nvmBytesPerSecond / 1e6);
    }
    std::printf("\n%s lifetime (50%% NVM capacity): %.2f months\n",
                summary.label.c_str(), summary.lifetimeMonths);
    return 0;
}
