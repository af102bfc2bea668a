/**
 * @file
 * hllc_check: simulator self-validation driver.
 *
 * Usage:
 *   hllc_check --gen <out.hlt> [--events N] [--seed S] [--sets N]
 *   hllc_check --diff golden --trace <t.hlt> [--policy LIST] [--mode M]
 *   hllc_check --diff rerun --trace <t.hlt> [--policy P]
 *   hllc_check --diff jobs --trace <t.hlt> [--jobs N]
 *   hllc_check --diff resume --trace <t.hlt> [--dir D]
 *   hllc_check --oracle --trace <t.hlt> [--policy P]
 *   hllc_check --roundtrip [--blocks N] [--seed S]
 *   hllc_check --fuzz [--budget SEC] [--seed S] [--iterations N]
 *              [--corpus DIR] [--out <repro.hlt>]
 *
 * Geometry options (--sets/--sram/--nvm) apply to every replayed
 * configuration; --inject-lru-bug plants a deliberate off-by-one in the
 * golden model's LRU scan to mutation-test the checkers themselves.
 *
 * Exit codes: 0 = all checks passed, 1 = a divergence/failure was found
 * (fuzz failures leave a shrunken reproducer plus manifest at --out),
 * 2 = usage error.
 */

#include <algorithm>
#include <cstdio>
#include <cstring>
#include <filesystem>
#include <sstream>
#include <string>
#include <vector>

#include "check/differential.hh"
#include "check/golden_compress.hh"
#include "check/manifest.hh"
#include "check/oracle.hh"
#include "check/trace_fuzz.hh"
#include "common/argparse.hh"
#include "common/error.hh"
#include "common/logging.hh"
#include "common/numfmt.hh"
#include "common/rng.hh"
#include "compression/compressor.hh"

using namespace hllc;
using check::DegenerateMode;
using hybrid::PolicyKind;

namespace
{

int
usage(const char *prog)
{
    std::fprintf(
        stderr,
        "usage: %s <action> [options]\n"
        "actions:\n"
        "  --gen <out.hlt>       generate a fuzz-grammar trace + manifest\n"
        "  --diff golden         fast LLC vs. golden shadow model\n"
        "  --diff rerun          same configuration replayed twice\n"
        "  --diff jobs           replay grid at --jobs N vs. jobs=1\n"
        "  --diff resume         forecast straight-through vs. resumed\n"
        "  --oracle              per-set policy hits <= Belady/OPT bound\n"
        "  --roundtrip           compressor round-trip sweeps\n"
        "  --fuzz                fuzz campaign with ddmin shrinking\n"
        "options:\n"
        "  --trace <t.hlt>       input trace (diff/oracle)\n"
        "  --policy <P[,P...]>   policies (default: all nine)\n"
        "  --mode <M>            pristine|compression-off|sram-only|all\n"
        "  --sets/--sram/--nvm   LLC geometry (default 64/4/12)\n"
        "  --events N            events per generated trace\n"
        "  --seed S --jobs N --budget SEC --iterations N --blocks N\n"
        "  --corpus DIR          regression corpus replayed before fuzzing\n"
        "  --out <repro.hlt>     where a shrunken reproducer is written\n"
        "  --dir D               checkpoint directory (diff resume)\n"
        "  --inject-lru-bug      mutation-test the golden model's LRU\n",
        prog);
    return 2;
}

std::vector<PolicyKind>
parsePolicyList(const std::string &arg)
{
    std::vector<PolicyKind> policies;
    std::stringstream stream(arg);
    std::string token;
    while (std::getline(stream, token, ',')) {
        const auto kind = hybrid::policyFromName(token);
        if (!kind)
            fatal("unknown policy '%s'", token.c_str());
        policies.push_back(*kind);
    }
    if (policies.empty())
        fatal("empty policy list '%s'", arg.c_str());
    return policies;
}

std::vector<PolicyKind>
allPolicies()
{
    return { PolicyKind::Bh,      PolicyKind::BhCp, PolicyKind::Ca,
             PolicyKind::CaRwr,   PolicyKind::CpSd, PolicyKind::CpSdTh,
             PolicyKind::LHybrid, PolicyKind::Tap,  PolicyKind::SramOnly };
}

std::vector<DegenerateMode>
parseModes(const std::string &arg)
{
    if (arg == "all") {
        return { DegenerateMode::Pristine, DegenerateMode::CompressionOff,
                 DegenerateMode::SramOnly };
    }
    if (arg == "pristine")
        return { DegenerateMode::Pristine };
    if (arg == "compression-off")
        return { DegenerateMode::CompressionOff };
    if (arg == "sram-only")
        return { DegenerateMode::SramOnly };
    fatal("unknown mode '%s' (pristine|compression-off|sram-only|all)",
          arg.c_str());
}

struct Options
{
    std::string action;   // gen | diff | oracle | roundtrip | fuzz
    std::string diffKind; // golden | rerun | jobs | resume
    std::string genPath;
    std::string tracePath;
    std::vector<PolicyKind> policies = allPolicies();
    std::vector<DegenerateMode> modes = parseModes("all");
    std::uint32_t sets = 64;
    std::uint32_t sram = 4;
    std::uint32_t nvm = 12;
    std::uint64_t seed = 1;
    std::uint64_t events = 100'000;
    unsigned jobs = 4;
    double budgetSeconds = 60.0;
    std::uint64_t iterations = 0;
    std::uint64_t blocks = 2000;
    std::string corpusDir;
    std::string outPath = "hllc_check_reproducer.hlt";
    std::string checkpointDir = ".";
    bool injectLruBug = false;
};

/** One LLC configuration per policy at the tool's geometry. */
hybrid::HybridLlcConfig
llcConfigFor(const Options &opt, PolicyKind policy)
{
    hybrid::HybridLlcConfig llc;
    llc.numSets = opt.sets;
    llc.sramWays = opt.sram;
    llc.nvmWays = opt.nvm;
    llc.policy = policy;
    llc.replacement = hybrid::ReplacementKind::Lru;
    // Short epochs relative to typical check traces, so Set Dueling
    // actually flips CPth inside the run.
    llc.epochCycles = 20'000;
    return llc;
}

replay::LlcTrace
loadTrace(const Options &opt)
{
    if (opt.tracePath.empty())
        fatal("--trace <file.hlt> is required for this action");
    replay::LlcTrace trace;
    try {
        trace = replay::LlcTrace::load(opt.tracePath);
    } catch (const IoError &e) {
        fatal("%s", e.what());
    }
    if (const auto mismatch = check::verifyManifest(opt.tracePath, trace))
        fatal("%s", mismatch->c_str());
    return trace;
}

int
runGen(const Options &opt)
{
    const replay::LlcTrace trace =
        check::generateTrace(opt.seed, opt.events, opt.sets);
    try {
        trace.save(opt.genPath);
        check::TraceManifest manifest =
            check::computeManifest(opt.genPath, trace);
        manifest.hasSeed = true;
        manifest.seed = opt.seed;
        check::saveManifest(opt.genPath, manifest);
    } catch (const IoError &e) {
        fatal("%s", e.what());
    }
    std::printf("%s: %zu events (seed %llu, %u sets) + manifest\n",
                opt.genPath.c_str(), trace.size(),
                static_cast<unsigned long long>(opt.seed), opt.sets);
    return 0;
}

int
runDiffGolden(const Options &opt)
{
    const replay::LlcTrace trace = loadTrace(opt);
    const check::GoldenOptions golden{ opt.injectLruBug };
    int failures = 0;
    for (PolicyKind policy : opt.policies) {
        const hybrid::HybridLlcConfig llc = llcConfigFor(opt, policy);
        for (DegenerateMode mode : opt.modes) {
            const check::GoldenDiffResult diff =
                check::diffGolden(trace, llc, mode, golden);
            const std::string_view policy_name = hybrid::policyName(policy);
            if (diff.ok()) {
                std::printf("ok   %-8s %-15s (%llu events)\n",
                            std::string(policy_name).c_str(),
                            std::string(check::degenerateModeName(mode))
                                .c_str(),
                            static_cast<unsigned long long>(
                                diff.eventsCompared));
                continue;
            }
            ++failures;
            std::printf("FAIL %-8s %-15s\n%s\n",
                        std::string(policy_name).c_str(),
                        std::string(check::degenerateModeName(mode))
                            .c_str(),
                        diff.divergence->description.c_str());
        }
    }
    if (failures > 0) {
        std::fprintf(stderr, "%d golden divergence(s) found\n", failures);
        return 1;
    }
    return 0;
}

int
runDiffRerun(const Options &opt)
{
    const replay::LlcTrace trace = loadTrace(opt);
    int failures = 0;
    for (PolicyKind policy : opt.policies) {
        const hybrid::HybridLlcConfig llc = llcConfigFor(opt, policy);
        if (const auto why = check::diffRerun(trace, llc)) {
            ++failures;
            std::printf("FAIL rerun: %s\n", why->c_str());
        }
    }
    if (failures > 0)
        return 1;
    std::printf("ok   rerun deterministic for %zu policies\n",
                opt.policies.size());
    return 0;
}

int
runDiffJobs(const Options &opt)
{
    const replay::LlcTrace trace = loadTrace(opt);
    std::vector<hybrid::HybridLlcConfig> configs;
    for (PolicyKind policy : opt.policies)
        configs.push_back(llcConfigFor(opt, policy));
    if (const auto why = check::diffJobs(trace, configs, opt.jobs)) {
        std::printf("FAIL jobs: %s\n", why->c_str());
        return 1;
    }
    std::printf("ok   grid identical at jobs=1 and jobs=%u "
                "(%zu cells)\n",
                opt.jobs, configs.size());
    return 0;
}

int
runDiffResume(const Options &opt)
{
    const replay::LlcTrace trace = loadTrace(opt);
    const hybrid::HybridLlcConfig llc =
        llcConfigFor(opt, opt.policies.front());
    if (const auto why =
            check::diffResume(trace, llc, opt.checkpointDir)) {
        std::printf("FAIL resume: %s\n", why->c_str());
        return 1;
    }
    std::printf("ok   resumed forecast identical to straight-through\n");
    return 0;
}

int
runOracle(const Options &opt)
{
    const replay::LlcTrace trace = loadTrace(opt);
    int failures = 0;
    for (PolicyKind policy : opt.policies) {
        const hybrid::HybridLlcConfig llc = llcConfigFor(opt, policy);
        if (const auto why = check::checkPolicyAgainstOracle(trace, llc)) {
            ++failures;
            std::printf("FAIL oracle: %s\n", why->c_str());
        }
    }
    if (failures > 0)
        return 1;
    std::printf("ok   %zu policies within the Belady/OPT bound\n",
                opt.policies.size());
    return 0;
}

int
runRoundtrip(const Options &opt)
{
    const auto fpc =
        compression::BlockCompressor::create(compression::Scheme::Fpc);
    const auto cpack =
        compression::BlockCompressor::create(compression::Scheme::CPack);

    int failures = 0;
    const auto checkBlock = [&](const std::string &name,
                                const BlockData &data) {
        if (const auto why = check::verifyBdiBlock(data)) {
            ++failures;
            std::printf("FAIL bdi/%s: %s\n", name.c_str(), why->c_str());
        }
        if (const auto why = check::verifyCompressorBlock(*fpc, data)) {
            ++failures;
            std::printf("FAIL fpc/%s: %s\n", name.c_str(), why->c_str());
        }
        if (const auto why = check::verifyCompressorBlock(*cpack, data)) {
            ++failures;
            std::printf("FAIL cpack/%s: %s\n", name.c_str(),
                        why->c_str());
        }
    };

    const std::vector<check::NamedBlock> boundary =
        check::boundaryBlocks();
    for (const check::NamedBlock &nb : boundary)
        checkBlock(nb.name, nb.data);

    // Random sweep: raw byte soup and structured base+delta blocks.
    Xoshiro256StarStar rng(opt.seed);
    for (std::uint64_t i = 0; i < opt.blocks; ++i) {
        BlockData data{};
        if (rng.nextBool(0.5)) {
            for (std::uint8_t &b : data)
                b = static_cast<std::uint8_t>(rng.nextBounded(256));
        } else {
            const std::uint64_t base = rng.next();
            const unsigned k = 1u << (1 + rng.nextBounded(3)); // 2/4/8
            const unsigned spread = 1 + rng.nextBounded(16);
            for (std::size_t v = 0; v < blockBytes / k; ++v) {
                const std::uint64_t value =
                    base + rng.nextBounded(spread) - spread / 2;
                for (unsigned b = 0; b < k; ++b) {
                    data[v * k + b] =
                        static_cast<std::uint8_t>(value >> (8 * b));
                }
            }
        }
        checkBlock("random-" + formatU64(i), data);
        if (failures > 8)
            break; // enough context to debug; stop the spam
    }

    if (failures > 0) {
        std::fprintf(stderr, "%d round-trip failure(s)\n", failures);
        return 1;
    }
    std::printf("ok   %zu boundary + %llu random blocks round-trip "
                "(BDI ref-decode, FPC, C-Pack)\n",
                boundary.size(),
                static_cast<unsigned long long>(opt.blocks));
    return 0;
}

/** Replay every corpus trace through the full differential grid. */
int
runCorpus(const Options &opt, const check::GoldenOptions &golden)
{
    std::vector<std::filesystem::path> paths;
    std::error_code ec;
    for (const auto &entry :
         std::filesystem::directory_iterator(opt.corpusDir, ec)) {
        if (entry.path().extension() == ".hlt")
            paths.push_back(entry.path());
    }
    if (ec)
        fatal("cannot list corpus '%s': %s", opt.corpusDir.c_str(),
              ec.message().c_str());
    std::sort(paths.begin(), paths.end());

    int failures = 0;
    for (const auto &path : paths) {
        replay::LlcTrace trace;
        try {
            trace = replay::LlcTrace::load(path.string());
        } catch (const IoError &e) {
            fatal("%s", e.what());
        }
        if (const auto bad = check::verifyManifest(path.string(), trace))
            fatal("%s", bad->c_str());
        for (PolicyKind policy : opt.policies) {
            const hybrid::HybridLlcConfig llc = llcConfigFor(opt, policy);
            for (DegenerateMode mode : opt.modes) {
                const auto diff =
                    check::diffGolden(trace, llc, mode, golden);
                if (diff.ok())
                    continue;
                ++failures;
                std::printf("FAIL corpus %s\n%s\n",
                            path.string().c_str(),
                            diff.divergence->description.c_str());
            }
        }
    }
    std::printf("corpus: %zu trace(s) replayed, %d failure(s)\n",
                paths.size(), failures);
    return failures > 0 ? 1 : 0;
}

int
runFuzz(const Options &opt)
{
    const check::GoldenOptions golden{ opt.injectLruBug };
    if (!opt.corpusDir.empty()) {
        const int rc = runCorpus(opt, golden);
        if (rc != 0)
            return rc;
    }

    check::FuzzConfig config;
    config.seed = opt.seed;
    config.budgetSeconds = opt.budgetSeconds;
    config.maxIterations = opt.iterations;
    config.numSets = opt.sets;
    config.sramWays = opt.sram;
    config.nvmWays = opt.nvm;

    const check::FuzzReport report = check::fuzz(config, golden);
    if (report.ok()) {
        std::printf("ok   fuzz: %zu iterations, %zu replays, no "
                    "divergence\n",
                    report.iterations, report.tracesReplayed);
        return 0;
    }

    const check::FuzzFailure &failure = *report.failure;
    std::printf("FAIL fuzz (iteration %zu, %s): shrunk %zu -> %zu "
                "events\n%s\n",
                failure.iteration,
                std::string(check::degenerateModeName(failure.mode))
                    .c_str(),
                failure.originalEvents, failure.reproducer.size(),
                failure.description.c_str());
    try {
        failure.reproducer.save(opt.outPath);
        check::TraceManifest manifest =
            check::computeManifest(opt.outPath, failure.reproducer);
        check::saveManifest(opt.outPath, manifest);
        std::printf("reproducer written to %s (+ manifest)\n",
                    opt.outPath.c_str());
    } catch (const IoError &e) {
        std::fprintf(stderr, "cannot save reproducer: %s\n", e.what());
    }
    return 1;
}

} // namespace

int
main(int argc, char **argv)
{
    Options opt;
    const auto need = [&](int i) -> const char * {
        if (i + 1 >= argc)
            fatal("%s expects a value", argv[i]);
        return argv[i + 1];
    };
    const auto setAction = [&](const std::string &action) {
        if (!opt.action.empty())
            fatal("conflicting actions --%s and --%s",
                  opt.action.c_str(), action.c_str());
        opt.action = action;
    };

    for (int i = 1; i < argc; ++i) {
        const std::string arg = argv[i];
        if (arg == "--gen") {
            setAction("gen");
            opt.genPath = need(i);
            ++i;
        } else if (arg == "--diff") {
            setAction("diff");
            opt.diffKind = need(i);
            ++i;
            if (opt.diffKind != "golden" && opt.diffKind != "rerun" &&
                opt.diffKind != "jobs" && opt.diffKind != "resume") {
                fatal("unknown diff kind '%s' "
                      "(golden|rerun|jobs|resume)",
                      opt.diffKind.c_str());
            }
        } else if (arg == "--oracle") {
            setAction("oracle");
        } else if (arg == "--roundtrip") {
            setAction("roundtrip");
        } else if (arg == "--fuzz") {
            setAction("fuzz");
        } else if (arg == "--trace") {
            opt.tracePath = need(i);
            ++i;
        } else if (arg == "--policy") {
            opt.policies = parsePolicyList(need(i));
            ++i;
        } else if (arg == "--mode") {
            opt.modes = parseModes(need(i));
            ++i;
        } else if (arg == "--corpus") {
            opt.corpusDir = need(i);
            ++i;
        } else if (arg == "--out") {
            opt.outPath = need(i);
            ++i;
        } else if (arg == "--dir") {
            opt.checkpointDir = need(i);
            ++i;
        } else if (arg == "--inject-lru-bug") {
            opt.injectLruBug = true;
        } else if (arg == "--sets" || arg == "--sram" || arg == "--nvm" ||
                   arg == "--jobs") {
            const auto v = parseUnsigned(need(i), arg == "--sets" ? 1 : 0);
            if (!v)
                fatal("bad value '%s' for %s", argv[i + 1], arg.c_str());
            ++i;
            if (arg == "--sets")
                opt.sets = *v;
            else if (arg == "--sram")
                opt.sram = *v;
            else if (arg == "--nvm")
                opt.nvm = *v;
            else
                opt.jobs = *v;
        } else if (arg == "--seed" || arg == "--events" ||
                   arg == "--iterations" || arg == "--blocks") {
            const auto v = parseU64(need(i));
            if (!v)
                fatal("bad value '%s' for %s", argv[i + 1], arg.c_str());
            ++i;
            if (arg == "--seed")
                opt.seed = *v;
            else if (arg == "--events")
                opt.events = *v;
            else if (arg == "--iterations")
                opt.iterations = *v;
            else
                opt.blocks = *v;
        } else if (arg == "--budget") {
            const auto v = parseDouble(need(i));
            if (!v || *v <= 0.0)
                fatal("bad value '%s' for --budget", argv[i + 1]);
            opt.budgetSeconds = *v;
            ++i;
        } else {
            std::fprintf(stderr, "%s: unknown argument '%s'\n", argv[0],
                         arg.c_str());
            return usage(argv[0]);
        }
    }
    if (opt.action.empty())
        return usage(argv[0]);
    if ((opt.sets & (opt.sets - 1)) != 0)
        fatal("--sets must be a power of two");

    if (opt.action == "gen")
        return runGen(opt);
    if (opt.action == "oracle")
        return runOracle(opt);
    if (opt.action == "roundtrip")
        return runRoundtrip(opt);
    if (opt.action == "fuzz")
        return runFuzz(opt);
    if (opt.diffKind == "golden")
        return runDiffGolden(opt);
    if (opt.diffKind == "rerun")
        return runDiffRerun(opt);
    if (opt.diffKind == "jobs")
        return runDiffJobs(opt);
    return runDiffResume(opt);
}
