/**
 * @file
 * hllc_check: simulator self-validation driver.
 *
 * Geometry options (--sets/--sram/--nvm) apply to every replayed
 * configuration. --sets must be a power of two, and at least 32 when a
 * replayed policy uses Set Dueling (--fuzz replays all nine);
 * --sram + --nvm must be at least 1, and --diff resume needs --nvm of
 * at least 1. --inject-lru-bug plants a deliberate off-by-one in the
 * golden model's LRU scan to mutation-test the checkers themselves.
 *
 * Exit codes: 0 = all checks passed, 1 = a divergence/failure was found
 * or an input failed to load (fuzz failures leave a shrunken reproducer
 * plus manifest at --out), 2 = usage error: an unknown, repeated or
 * conflicting option, an option the chosen action does not read, a bad
 * value, a missing --trace or --corpus directory, or a geometry the LLC
 * cannot run.
 */

#include <algorithm>
#include <cerrno>
#include <cstdio>
#include <cstring>
#include <filesystem>
#include <string>
#include <vector>

#include <sys/stat.h>

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
#include "hybrid/insertion_policy.hh"
#include "hybrid/set_dueling.hh"

using namespace hllc;
using check::DegenerateMode;
using hybrid::PolicyKind;

namespace
{

std::vector<PolicyKind>
allPolicies()
{
    return { PolicyKind::Bh,      PolicyKind::BhCp, PolicyKind::Ca,
             PolicyKind::CaRwr,   PolicyKind::CpSd, PolicyKind::CpSdTh,
             PolicyKind::LHybrid, PolicyKind::Tap,  PolicyKind::SramOnly };
}

/** The degenerate modes @p arg names; empty for an unknown name. */
std::vector<DegenerateMode>
parseModes(std::string_view arg)
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
    return {};
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

/**
 * Reject a geometry the LLC would abort on, before any rig is built:
 * zero ways, fewer sets than dueling slots under a Set Dueling policy,
 * or a resume diff without NVM ways to forecast.
 */
void
checkReplayGeometry(const ArgParser &cli, const Options &opt)
{
    if (opt.sram + opt.nvm == 0)
        cli.fail("--sram %u --nvm %u leaves the LLC without ways", opt.sram,
                 opt.nvm);
    if (opt.diffKind == "resume" && opt.nvm == 0)
        cli.fail("--diff resume forecasts the NVM part; --nvm must be at "
                 "least 1");
    // The fuzz campaign replays every policy; a resume diff only the
    // first one listed.
    std::vector<PolicyKind> replayed = opt.policies;
    if (opt.action == "fuzz")
        replayed = allPolicies();
    else if (opt.diffKind == "resume")
        replayed.resize(1);
    for (PolicyKind policy : replayed) {
        if (hybrid::policyTable[static_cast<std::size_t>(policy)]
                .usesSetDueling &&
            opt.sets < hybrid::duelingSlots) {
            cli.fail("--sets %u is below the %u sets Set Dueling needs "
                     "(policy %s)",
                     opt.sets, hybrid::duelingSlots,
                     std::string(hybrid::policyName(policy)).c_str());
        }
    }
}

/** One LLC configuration per policy at the tool's geometry. */
hybrid::HybridLlcConfig
llcConfigFor(const Options &opt, PolicyKind policy)
{
    hybrid::HybridLlcConfig llc;
    llc.numSets = opt.sets;
    llc.sramWays = opt.sram;
    llc.nvmWays = opt.nvm;
    llc.policy = policy;
    // Short epochs relative to typical check traces, so Set Dueling
    // actually flips CPth inside the run.
    llc.epochCycles = 20'000;
    return llc;
}

replay::LlcTrace
loadTrace(const Options &opt)
{
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
    ArgParser cli(argv[0]);
    cli.add({
        { "--gen", "", "OUT.hlt", "generate a fuzz-grammar trace + manifest",
          cli.action(opt.action, "gen", storeText(opt.genPath)) },
        { "--diff", "", "golden|rerun|jobs|resume",
          "LLC vs. golden shadow / rerun / jobs=N / resumed forecast",
          cli.action(opt.action, "diff",
                     [&](const char *kind) {
                         opt.diffKind = kind;
                         return opt.diffKind == "golden" ||
                                opt.diffKind == "rerun" ||
                                opt.diffKind == "jobs" ||
                                opt.diffKind == "resume";
                     }) },
        { "--oracle", "", nullptr, "per-set policy hits <= Belady/OPT bound",
          cli.action(opt.action, "oracle") },
        { "--roundtrip", "", nullptr, "compressor round-trip sweeps",
          cli.action(opt.action, "roundtrip") },
        { "--fuzz", "", nullptr, "fuzz campaign with ddmin shrinking",
          cli.action(opt.action, "fuzz") },
        { "--trace", "", "T.hlt", "input trace", storeText(opt.tracePath),
          "diff/oracle" },
        { "--policy", "", "P[,P...]", "policies (default: all nine)",
          [&](const char *list) {
              std::string unknown;
              auto policies = hybrid::parsePolicyList(list, unknown);
              if (!policies)
                  cli.fail("unknown policy '%s'", unknown.c_str());
              opt.policies = std::move(*policies);
              return true;
          },
          "diff/oracle/fuzz" },
        { "--mode", "", "pristine|compression-off|sram-only|all",
          "degenerate modes of the golden diff (default all)",
          [&](const char *mode) {
              opt.modes = parseModes(mode);
              return !opt.modes.empty();
          },
          "diff golden/fuzz" },
        { "--sets", "", "N",
          "LLC sets (default 64): a power of two, >= 32 under Set Dueling",
          storeNumber(opt.sets, 1), "gen/diff/oracle/fuzz" },
        { "--sram", "", "N", "SRAM ways (default 4)", storeNumber(opt.sram),
          "diff/oracle/fuzz" },
        { "--nvm", "", "N", "NVM ways (default 12)", storeNumber(opt.nvm),
          "diff/oracle/fuzz" },
        { "--events", "", "N", "events per generated trace",
          storeNumber(opt.events), "gen" },
        { "--seed", "", "S", "generator / round-trip / fuzz seed",
          storeNumber(opt.seed), "gen/roundtrip/fuzz" },
        { "--jobs", "", "N", "workers of the second run (default 4)",
          storeNumber(opt.jobs), "diff jobs" },
        { "--budget", "", "SEC", "time budget (default 60)",
          [&](const char *value) {
              const auto v = parseDouble(value);
              opt.budgetSeconds = v.value_or(0.0);
              return opt.budgetSeconds > 0.0;
          },
          "fuzz" },
        { "--iterations", "", "N", "iterations (default: budget)",
          storeNumber(opt.iterations), "fuzz" },
        { "--blocks", "", "N", "random blocks (default 2000)",
          storeNumber(opt.blocks), "roundtrip" },
        { "--corpus", "", "DIR", "regression corpus replayed before fuzzing",
          storeText(opt.corpusDir), "fuzz" },
        { "--out", "", "REPRO.hlt", "where a shrunken reproducer is written",
          storeText(opt.outPath), "fuzz" },
        { "--dir", "", "D", "checkpoint directory",
          storeText(opt.checkpointDir), "diff resume" },
        { "--inject-lru-bug", "", nullptr,
          "mutation-test the golden model's LRU",
          storeSwitch(opt.injectLruBug), "diff golden/fuzz" },
    });
    cli.parse(argc, argv);
    if (opt.action.empty())
        cli.fail("no action given");
    if ((opt.sets & (opt.sets - 1)) != 0)
        cli.fail("--sets must be a power of two");
    if ((opt.action == "diff" || opt.action == "oracle") &&
        opt.tracePath.empty())
        cli.fail("--trace <file.hlt> is required for this action");
    if (opt.action != "gen" && opt.action != "roundtrip")
        checkReplayGeometry(cli, opt);
    if (opt.action == "fuzz" && !opt.corpusDir.empty() &&
        !std::filesystem::is_directory(opt.corpusDir))
        cli.fail("corpus directory '%s' does not exist",
                 opt.corpusDir.c_str());
    if (opt.diffKind == "resume") {
        // A missing checkpoint directory is created, the way the grid
        // creates its own; one that cannot be is a usage error, not a
        // divergence of the resume net.
        const char *dir = opt.checkpointDir.c_str();
        if (::mkdir(dir, 0777) != 0 && errno != EEXIST)
            cli.fail("cannot create checkpoint directory '%s': %s", dir,
                     std::strerror(errno));
        if (!std::filesystem::is_directory(opt.checkpointDir))
            cli.fail("checkpoint directory '%s' is not a directory", dir);
    }

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
