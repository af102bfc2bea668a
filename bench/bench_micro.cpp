/**
 * @file
 * Hot-path performance harness with a machine-readable trajectory.
 *
 * Replays one captured LLC trace against the fig10a policy grid (BH,
 * BH_CP, LHybrid, TAP, CP_SD, CP_SD_Th4, CP_SD_Th8) and against the
 * brute-force golden shadow model, timing each, plus a per-compressor
 * (BDI / FPC / C-Pack) block-compression sweep, and writes the results
 * as a "hllc-bench-v1" JSON document (BENCH_micro.json by default) so
 * CI can track the events/sec trajectory across commits.
 *
 * Two properties make the numbers trustworthy:
 *  - the golden reference is measured in the same run on the same trace
 *    and host, so speedup_vs_reference is not a stale constant;
 *  - every policy's replay is differentially checked against the golden
 *    model (decision streams, outcomes, final tag stores) before its
 *    timing is reported — a fast-but-wrong LLC fails the run.
 *
 * The document deliberately carries no wall-clock dates or hostnames:
 * timings vary run to run, but the schema keys are stable and the
 * provenance (compiler, build type, SIMD) is what comparisons need.
 */

#include <chrono>
#include <cmath>
#include <cstdio>
#include <string>
#include <thread>
#include <vector>

#include "check/differential.hh"
#include "common/argparse.hh"
#include "common/logging.hh"
#include "common/numfmt.hh"
#include "common/serialize.hh"
#include "compression/compressor.hh"
#include "hierarchy/hierarchy.hh"
#include "hybrid/llc_rig.hh"
#include "replay/replayer.hh"
#include "workload/block_synth.hh"
#include "workload/mixes.hh"

using namespace hllc;
using hybrid::PolicyKind;

namespace
{

/** One fig10a grid entry. */
struct PolicyEntry
{
    const char *name;
    PolicyKind kind;
    hybrid::PolicyParams params;
};

std::vector<PolicyEntry>
fig10aGrid()
{
    hybrid::PolicyParams th4;
    th4.thPercent = 4.0;
    hybrid::PolicyParams th8;
    th8.thPercent = 8.0;
    return {
        { "BH", PolicyKind::Bh, {} },
        { "BH_CP", PolicyKind::BhCp, {} },
        { "LHybrid", PolicyKind::LHybrid, {} },
        { "TAP", PolicyKind::Tap, {} },
        { "CP_SD", PolicyKind::CpSd, {} },
        { "CP_SD_Th4", PolicyKind::CpSdTh, th4 },
        { "CP_SD_Th8", PolicyKind::CpSdTh, th8 },
    };
}

/** Bench geometry: the Table IV LLC at scale 1. */
hybrid::HybridLlcConfig
benchLlcConfig(const PolicyEntry &entry)
{
    hybrid::HybridLlcConfig config;
    config.numSets = 128;
    config.sramWays = 4;
    config.nvmWays = 12;
    config.policy = entry.kind;
    config.params = entry.params;
    return config;
}

double
seconds(std::chrono::steady_clock::duration d)
{
    return std::chrono::duration<double>(d).count();
}

/**
 * Best-of-N wall time of @p body, in seconds. Each repetition first
 * builds fresh state with @p prepare, outside the timed region, and
 * hands it to @p body.
 */
template <typename Prepare, typename Body>
double
bestOf(unsigned repeats, const Prepare &prepare, const Body &body)
{
    double best = 0.0;
    for (unsigned r = 0; r < repeats; ++r) {
        auto state = prepare();
        const auto t0 = std::chrono::steady_clock::now();
        body(state);
        const double s = seconds(std::chrono::steady_clock::now() - t0);
        if (r == 0 || s < best)
            best = s;
    }
    return best;
}

struct Timing
{
    double eventsPerSec = 0.0;
    double nsPerAccess = 0.0;
};

Timing
timingFrom(double secs, std::uint64_t events)
{
    Timing t;
    if (secs > 0.0 && events > 0) {
        t.eventsPerSec = static_cast<double>(events) / secs;
        t.nsPerAccess = secs * 1e9 / static_cast<double>(events);
    }
    return t;
}

struct PolicyResult
{
    std::string name;
    Timing timing;
    bool identical = false;
    std::uint64_t eventsCompared = 0;
};

struct CompressorResult
{
    std::string name;
    Timing timing; //!< blocks/sec, ns/block
};

/**
 * Replay timing of one policy. Every repetition replays into a fresh
 * pristine LLC whose construction (fault map, endurance draws) is not
 * timed.
 */
Timing
timePolicy(const replay::LlcTrace &trace,
           const hybrid::HybridLlcConfig &config, unsigned repeats)
{
    const replay::TraceReplayer replayer(0.2);
    const double secs = bestOf(
        repeats, [&] { return hybrid::buildPristineRig(config); },
        [&](const hybrid::LlcRig &rig) { replayer.replay(trace, *rig.llc); });
    return timingFrom(secs, trace.size());
}

/** Replay timing of the golden shadow model over the same trace. */
Timing
timeGolden(const replay::LlcTrace &trace,
           const hybrid::HybridLlcConfig &config)
{
    std::uint64_t sink = 0;
    const double secs = bestOf(
        1, [&] { return check::GoldenLlc(config); },
        [&](check::GoldenLlc &golden) {
            for (const auto &ev : trace.events())
                sink += static_cast<std::uint64_t>(golden.handle(ev, nullptr));
        });
    // Keep the accumulated outcome observable so the loop cannot be
    // optimised away.
    if (sink == ~std::uint64_t{0})
        std::fputc(' ', stderr);
    return timingFrom(secs, trace.size());
}

/** Per-compressor throughput over a synthesized block corpus. */
CompressorResult
timeCompressor(compression::Scheme scheme, unsigned repeats)
{
    const auto compressor = compression::BlockCompressor::create(scheme);

    // One block per encoding class plus incompressible fill: exercises
    // every path of the scheme, not just its fastest exit.
    std::vector<BlockData> corpus;
    for (const auto &info : compression::ceTable())
        corpus.push_back(workload::synthesizeBlock(info.ce, 1));
    for (std::uint64_t s = 2; s < 10; ++s) {
        corpus.push_back(workload::synthesizeBlock(
            compression::Ce::Uncompressed, s));
    }

    constexpr unsigned rounds = 20'000;
    unsigned sink = 0;
    const double secs = bestOf(
        repeats, [] { return 0; },
        [&](int) {
            for (unsigned r = 0; r < rounds; ++r) {
                for (const BlockData &block : corpus)
                    sink += compressor->ecbSize(block);
            }
        });
    if (sink == 0xffffffffu)
        std::fputc(' ', stderr);

    CompressorResult result;
    result.name = compression::schemeName(scheme);
    result.timing = timingFrom(
        secs, static_cast<std::uint64_t>(rounds) * corpus.size());
    return result;
}

void
appendTiming(std::string &json, const Timing &t, const char *rate_key,
             const char *per_key)
{
    json += "\"";
    json += rate_key;
    json += "\": " + formatFixed(t.eventsPerSec, 1) + ", \"";
    json += per_key;
    json += "\": " + formatFixed(t.nsPerAccess, 3);
}

} // namespace

int
main(int argc, char **argv)
{
    std::string out = "BENCH_micro.json";
    std::uint64_t refs_per_core = 100'000;
    unsigned repeats = 3;
    bool skip_identity = false;

    ArgParser cli(argv[0]);
    cli.add({
        { "--out", "", "FILE",
          "hllc-bench-v1 report (default BENCH_micro.json)",
          storeText(out) },
        { "--events", "", "N",
          "references per core in the captured trace (default 100000)",
          storeNumber(refs_per_core) },
        { "--repeats", "", "N", "best-of repeats per timing (default 3)",
          storeNumber(repeats) },
        { "--skip-identity", "", nullptr, "skip the golden identity check",
          storeSwitch(skip_identity) },
    });
    cli.parse(argc, argv);
    if (repeats == 0)
        repeats = 1;

    setLogLevel(LogLevel::Warn);

    // One capture feeds every measurement: identical event streams make
    // the per-policy numbers and the golden reference comparable.
    const replay::LlcTrace trace = hierarchy::captureTrace(
        workload::tableVMixes()[0], 2048,
        hierarchy::PrivateCacheConfig{ 2048, 4, 8192, 16 },
        refs_per_core, 1);
    std::fprintf(stderr, "captured %zu events (%s)\n", trace.size(),
                 trace.meta().mixName.c_str());

    // Reference: the brute-force golden shadow model, measured in this
    // run, on this host, over this trace.
    const Timing reference =
        timeGolden(trace, benchLlcConfig(fig10aGrid()[4] /* CP_SD */));
    std::fprintf(stderr, "golden reference: %.0f events/s\n",
                 reference.eventsPerSec);

    std::vector<PolicyResult> policies;
    bool all_identical = true;
    for (const PolicyEntry &entry : fig10aGrid()) {
        const hybrid::HybridLlcConfig config = benchLlcConfig(entry);

        PolicyResult result;
        result.name = entry.name;
        if (!skip_identity) {
            const check::GoldenDiffResult diff = check::diffGolden(
                trace, config, check::DegenerateMode::Pristine);
            result.identical = diff.ok();
            result.eventsCompared = diff.eventsCompared;
            if (!diff.ok()) {
                all_identical = false;
                std::fprintf(stderr,
                             "FAIL %s diverged from golden: %s\n",
                             entry.name,
                             diff.divergence->description.c_str());
            }
        }
        result.timing = timePolicy(trace, config, repeats);
        std::fprintf(stderr, "%-10s %12.0f events/s  %8.2f ns/access\n",
                     entry.name, result.timing.eventsPerSec,
                     result.timing.nsPerAccess);
        policies.push_back(std::move(result));
    }

    std::vector<CompressorResult> compressors;
    for (const auto scheme :
         { compression::Scheme::Bdi, compression::Scheme::Fpc,
           compression::Scheme::CPack }) {
        compressors.push_back(timeCompressor(scheme, repeats));
    }

    double min_rate = 0.0, sum_log = 0.0;
    for (const PolicyResult &p : policies) {
        if (min_rate == 0.0 || p.timing.eventsPerSec < min_rate)
            min_rate = p.timing.eventsPerSec;
        sum_log += std::log(p.timing.eventsPerSec);
    }
    const double geomean =
        policies.empty()
            ? 0.0
            : std::exp(sum_log / static_cast<double>(policies.size()));

    std::string json;
    json += "{\n";
    json += "  \"schema\": \"hllc-bench-v1\",\n";
    json += "  \"host\": {\n";
    json += "    \"compiler\": \"" + jsonEscape(__VERSION__) + "\",\n";
#ifdef NDEBUG
    json += "    \"build_type\": \"Release\",\n";
#else
    json += "    \"build_type\": \"Debug\",\n";
#endif
#ifdef __SSE2__
    json += "    \"simd\": true,\n";
#else
    json += "    \"simd\": false,\n";
#endif
    json += "    \"hardware_concurrency\": " +
            formatU64(std::thread::hardware_concurrency()) + "\n";
    json += "  },\n";
    json += "  \"workload\": {\n";
    json += "    \"mix\": \"" +
            jsonEscape(trace.meta().mixName) + "\",\n";
    json += "    \"events\": " + formatU64(trace.size()) + ",\n";
    json += "    \"num_sets\": 128, \"sram_ways\": 4, \"nvm_ways\": 12,\n";
    json += "    \"warmup_fraction\": 0.2, \"repeats\": " +
            formatU64(repeats) + "\n";
    json += "  },\n";
    json += "  \"reference\": {\n";
    json += "    \"model\": \"golden-shadow\",\n    ";
    appendTiming(json, reference, "events_per_sec", "ns_per_access");
    json += "\n  },\n";
    json += "  \"policies\": [\n";
    for (std::size_t i = 0; i < policies.size(); ++i) {
        const PolicyResult &p = policies[i];
        json += "    { \"name\": \"" + p.name + "\", ";
        appendTiming(json, p.timing, "events_per_sec", "ns_per_access");
        json += ", \"speedup_vs_reference\": " +
                formatFixed(reference.eventsPerSec > 0.0
                                ? p.timing.eventsPerSec /
                                      reference.eventsPerSec
                                : 0.0,
                            2);
        if (!skip_identity) {
            json += std::string(", \"identical_to_reference\": ") +
                    (p.identical ? "true" : "false");
            json += ", \"events_compared\": " +
                    formatU64(p.eventsCompared);
        }
        json += i + 1 < policies.size() ? " },\n" : " }\n";
    }
    json += "  ],\n";
    json += "  \"compressors\": [\n";
    for (std::size_t i = 0; i < compressors.size(); ++i) {
        const CompressorResult &c = compressors[i];
        json += "    { \"name\": \"" + jsonEscape(c.name) + "\", ";
        appendTiming(json, c.timing, "blocks_per_sec", "ns_per_block");
        json += i + 1 < compressors.size() ? " },\n" : " }\n";
    }
    json += "  ],\n";
    json += "  \"summary\": {\n";
    json += "    \"min_events_per_sec\": " + formatFixed(min_rate, 1) +
            ",\n";
    json += "    \"geomean_events_per_sec\": " + formatFixed(geomean, 1) +
            ",\n";
    json += "    \"speedup_vs_reference\": " +
            formatFixed(reference.eventsPerSec > 0.0
                            ? geomean / reference.eventsPerSec
                            : 0.0,
                        2) +
            ",\n";
    json += std::string("    \"all_identical_to_reference\": ") +
            (!skip_identity ? (all_identical ? "true" : "false")
                            : "null") +
            "\n";
    json += "  }\n";
    json += "}\n";

    serial::writeFileAtomic(out, json.data(), json.size());
    std::fprintf(stderr, "wrote %s\n", out.c_str());

    return all_identical ? 0 : 1;
}
