/**
 * @file
 * hllc_tracegen: capture an LLC trace of a Table V mix to a .hlt file.
 *
 * Usage: hllc_tracegen <mix 1..10> <output.hlt> [refs_per_core]
 *
 * The trace records the LLC-bound GetS/GetX/Put stream behind the
 * private L1/L2 stacks at the current HLLC_SCALE; it can then be
 * replayed against any LLC configuration with hllc_replay.
 */

#include <cstdio>
#include <string>

#include "check/manifest.hh"
#include "common/argparse.hh"
#include "common/error.hh"
#include "common/logging.hh"
#include "hierarchy/hierarchy.hh"
#include "sim/config.hh"
#include "workload/mixes.hh"

using namespace hllc;

namespace
{

int
usage(const char *prog)
{
    std::fprintf(stderr,
                 "usage: %s <mix 1..10> <output.hlt> [refs_per_core]\n",
                 prog);
    return 2;
}

} // namespace

int
main(int argc, char **argv)
{
    if (argc < 3)
        return usage(argv[0]);
    const auto mix_number = parseUnsigned(argv[1], 1, 10);
    if (!mix_number) {
        std::fprintf(stderr, "%s: bad mix number '%s'\n", argv[0],
                     argv[1]);
        return usage(argv[0]);
    }
    const std::string path = argv[2];

    const sim::SystemConfig config = sim::SystemConfig::tableIV();
    std::uint64_t refs = config.refsPerCore;
    if (argc > 3) {
        const auto parsed = parseU64(argv[3], 1);
        if (!parsed) {
            std::fprintf(stderr, "%s: bad refs_per_core '%s'\n", argv[0],
                         argv[3]);
            return usage(argv[0]);
        }
        refs = *parsed;
    }

    const auto &mix = workload::tableVMixes()[*mix_number - 1];
    inform("capturing %s: %llu refs/core at scale %.3g...",
           mix.name.c_str(), static_cast<unsigned long long>(refs),
           config.scale);

    const replay::LlcTrace trace = hierarchy::captureTrace(
        mix, config.llcBlocks(), config.privateCaches, refs,
        config.seed + static_cast<std::uint64_t>(*mix_number) - 1,
        config.scheme);
    try {
        trace.save(path);
        // Sidecar manifest: replay tools verify size/CRC32/event count
        // before trusting the trace (see src/check/manifest.hh).
        check::TraceManifest manifest = check::computeManifest(path, trace);
        manifest.hasSeed = true;
        manifest.seed =
            config.seed + static_cast<std::uint64_t>(*mix_number) - 1;
        check::saveManifest(path, manifest);
    } catch (const IoError &e) {
        fatal("%s", e.what());
    }

    std::printf("%s: %zu LLC events (%s) written\n", path.c_str(),
                trace.size(), mix.name.c_str());
    return 0;
}
