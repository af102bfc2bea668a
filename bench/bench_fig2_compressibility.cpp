/**
 * @file
 * Figure 2: block classification by compression ratio (HCR / LCR /
 * incompressible) for the twenty SPEC-like applications, measured by
 * running every application's block contents through the real BDI
 * compressor. Also prints the Table V mixes.
 *
 * Paper reference: on average 49% HCR, 29% LCR, 22% incompressible;
 * GemsFDTD/zeusmp almost fully compressible, xz17/milc incompressible.
 */

#include <cstdio>

#include "common/logging.hh"
#include "sim/config.hh"
#include "sim/grid.hh"
#include "workload/mixes.hh"
#include "workload/spec_profiles.hh"

using namespace hllc;
using namespace hllc::workload;
using compression::CompressClass;

int
main(int argc, char **argv)
{
    sim::parseBenchArgs(argc, argv, {}); // takes no arguments
    setLogLevel(LogLevel::Warn);
    const sim::SystemConfig config = sim::SystemConfig::tableIV();

    std::printf("# Figure 2: block classification by compression ratio\n");
    std::printf("%-14s %8s %8s %8s %10s\n", "app", "HCR", "LCR", "INC",
                "avg ECB");

    const int blocks_per_app = 4000;
    double hcr_sum = 0.0, lcr_sum = 0.0, inc_sum = 0.0;

    for (const AppProfile &profile : specProfiles()) {
        AppModel app(profile, 0, config.llcBlocks(),
                     Xoshiro256StarStar(config.seed));
        int hcr = 0, lcr = 0, inc = 0;
        std::uint64_t ecb_total = 0;
        for (Addr block = 0; block < blocks_per_app; ++block) {
            const unsigned ecb = app.ecbSizeOf(block);
            ecb_total += ecb;
            switch (compression::classify(ecb)) {
              case CompressClass::Hcr: ++hcr; break;
              case CompressClass::Lcr: ++lcr; break;
              default: ++inc; break;
            }
        }
        const double n = blocks_per_app;
        std::printf("%-14s %7.1f%% %7.1f%% %7.1f%% %10.1f\n",
                    profile.name.c_str(), 100.0 * hcr / n,
                    100.0 * lcr / n, 100.0 * inc / n, ecb_total / n);
        hcr_sum += hcr / n;
        lcr_sum += lcr / n;
        inc_sum += inc / n;
    }

    std::printf("%-14s %7.1f%% %7.1f%% %7.1f%%   (paper: 49%% / 29%% / "
                "22%%)\n", "average", 100.0 * hcr_sum / 20.0,
                100.0 * lcr_sum / 20.0, 100.0 * inc_sum / 20.0);

    std::printf("\n# Table V: multi-programmed mixes\n");
    for (const MixSpec &mix : tableVMixes()) {
        std::printf("%-8s %s %s %s %s\n", mix.name.c_str(),
                    mix.apps[0].c_str(), mix.apps[1].c_str(),
                    mix.apps[2].c_str(), mix.apps[3].c_str());
    }
    return 0;
}
