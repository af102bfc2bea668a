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
#include <vector>

#include "check/manifest.hh"
#include "common/argparse.hh"
#include "common/error.hh"
#include "common/logging.hh"
#include "hierarchy/hierarchy.hh"
#include "sim/config.hh"
#include "workload/mixes.hh"

using namespace hllc;

int
main(int argc, char **argv)
{
    ArgParser cli(argv[0], "<mix 1..10> <output.hlt> [refs_per_core]", 2,
                  3);
    const std::vector<std::string> args = cli.parse(argc, argv);
    const auto mix_number = parseUnsigned(args[0].c_str(), 1, 10);
    if (!mix_number)
        cli.fail("bad mix number '%s'", args[0].c_str());
    const std::string &path = args[1];

    const sim::SystemConfig config = sim::SystemConfig::tableIV();
    std::uint64_t refs = config.refsPerCore;
    if (args.size() > 2) {
        const auto parsed = parseU64(args[2].c_str(), 1);
        if (!parsed)
            cli.fail("bad refs_per_core '%s'", args[2].c_str());
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
