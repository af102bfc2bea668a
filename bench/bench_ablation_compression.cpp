/**
 * @file
 * Ablation: compression-scheme sensitivity of the CP_SD design.
 *
 * The paper states its policies are orthogonal to the compression
 * mechanism (Sec. II-B). This harness swaps the modified BDI for FPC
 * and C-Pack (traces recaptured so block sizes reflect each scheme) and
 * compares compressibility, hit rate and NVM write traffic under CP_SD
 * and BH_CP.
 */

#include <cstdio>

#include "common/logging.hh"
#include "sim/grid.hh"

using namespace hllc;
using compression::Scheme;
using hybrid::PolicyKind;

int
main(int argc, char **argv)
{
    const sim::BenchArgs args =
        sim::parseBenchArgs(argc, argv, { .jobs = true });
    setLogLevel(LogLevel::Warn);

    std::printf("# Ablation: CP_SD under different compression schemes\n");
    std::printf("%-8s %10s %12s %12s %12s %12s\n", "scheme", "avg ECB",
                "BH bytes", "CPSD/BH hit", "CPSD/BH BW", "norm.IPC");

    for (const Scheme scheme :
         { Scheme::Bdi, Scheme::Fpc, Scheme::CPack }) {
        sim::SystemConfig config = sim::SystemConfig::tableIV();
        config.scheme = scheme;
        config.jobs = args.jobs;
        const sim::Experiment experiment(config, 10);

        // Both policy phases of this scheme replay in parallel.
        const auto phases = sim::runPhaseGrid(
            experiment,
            { { "BH", config.llcConfig(PolicyKind::Bh), 1.0,
                sim::allMixes },
              { "CP_SD", config.llcConfig(PolicyKind::CpSd), 1.0,
                sim::allMixes } });
        const auto &bh = phases[0];
        const auto &cpsd = phases[1];

        // Mean ECB over the captured Put events.
        std::uint64_t ecb_sum = 0, puts = 0;
        for (const auto &trace : experiment.traces()) {
            for (const auto &ev : trace.events()) {
                if (ev.type == hybrid::LlcEventType::PutClean ||
                    ev.type == hybrid::LlcEventType::PutDirty) {
                    ecb_sum += ev.ecbBytes;
                    ++puts;
                }
            }
        }

        std::printf("%-8s %10.1f %12llu %12.4f %12.4f %12.4f\n",
                    std::string(compression::schemeName(scheme)).c_str(),
                    puts ? static_cast<double>(ecb_sum) /
                               static_cast<double>(puts)
                         : 0.0,
                    static_cast<unsigned long long>(
                        bh.aggregate.nvmBytesWritten),
                    bh.aggregate.hitRate > 0
                        ? cpsd.aggregate.hitRate / bh.aggregate.hitRate
                        : 0.0,
                    bh.aggregate.nvmBytesWritten > 0
                        ? static_cast<double>(
                              cpsd.aggregate.nvmBytesWritten) /
                              static_cast<double>(
                                  bh.aggregate.nvmBytesWritten)
                        : 0.0,
                    bh.aggregate.meanIpc > 0
                        ? cpsd.aggregate.meanIpc / bh.aggregate.meanIpc
                        : 0.0);
    }

    std::printf("\n# (the policies only consume ECB sizes, so any scheme "
                "with similar coverage reproduces the paper's shape)\n");
    return 0;
}
