/**
 * @file
 * hllc_ingest: convert external traces and generate scenario-library
 * workloads as verified .hlt traces with sidecar manifests.
 *
 * Converted and generated traces flow through the exact pipeline the
 * rest of the tooling trusts: atomic .hlt write, seed-stamped
 * manifest, and (optionally) an hllc-ingest-v1 JSON conversion report
 * for machine consumption. Exit codes: 0 = success, 1 = failure
 * (malformed input, I/O, a scenario that stops emitting), 2 = usage
 * error (checked before any work: an unknown, repeated or malformed
 * flag, two actions, a flag the action does not read, a missing --out,
 * bad --hcr/--lcr fractions).
 */

#include <chrono>
#include <cstdio>
#include <string>

#include "common/argparse.hh"
#include "common/error.hh"
#include "common/logging.hh"
#include "common/numfmt.hh"
#include "common/serialize.hh"
#include "ingest/champsim.hh"
#include "ingest/scenarios.hh"

using namespace hllc;

namespace
{

struct Options
{
    std::string action;
    std::string input;      //!< convert input / scenario name /
                            //!< fixture output
    std::string out;
    std::string report;
    std::string mixName = "champsim";
    std::uint64_t seed = 1;
    double hcr = 0.4;
    double lcr = 0.3;
    std::uint64_t events = 100'000;
    std::uint64_t maxEvents = 0;
    std::uint64_t records = 4096;
    unsigned sets = 128;
    unsigned ways = 16;
    bool dropPrefetch = false;
};

/** JSON escaping for the few path/name strings the report carries. */
std::string
jsonString(const std::string &s)
{
    std::string out = "\"";
    for (const char c : s) {
        if (c == '"' || c == '\\') {
            out += '\\';
            out += c;
        } else if (static_cast<unsigned char>(c) < 0x20) {
            out += ' ';
        } else {
            out += c;
        }
    }
    return out + "\"";
}

/** Elapsed seconds of the conversion (report timing only). */
double
elapsedSince(std::chrono::steady_clock::time_point start)
{
    const auto now = std::chrono::steady_clock::now();
    return std::chrono::duration<double>(now - start).count();
}

void
writeReport(const Options &opt, const ingest::ConvertStats &stats,
            double duration_s)
{
    if (opt.report.empty())
        return;
    const double events_per_sec =
        duration_s > 0.0
            ? static_cast<double>(stats.events) / duration_s
            : 0.0;
    std::string json = "{\n  \"schema\": \"hllc-ingest-v1\",\n";
    json += "  \"action\": " + jsonString(opt.action) + ",\n";
    json += "  \"input\": {\n";
    json += "    \"name\": " + jsonString(opt.input) + ",\n";
    json += "    \"container\": " +
            jsonString(std::string(
                ingest::containerKindName(stats.container))) + ",\n";
    json += "    \"bytes_in\": " + formatU64(stats.bytesIn) + "\n  },\n";
    json += "  \"records\": {\n";
    json += "    \"total\": " + formatU64(stats.records) + ",\n";
    json += "    \"loads\": " + formatU64(stats.loads) + ",\n";
    json += "    \"rfos\": " + formatU64(stats.rfos) + ",\n";
    json += "    \"prefetches\": " + formatU64(stats.prefetches) + ",\n";
    json += "    \"writebacks\": " + formatU64(stats.writebacks) + ",\n";
    json += "    \"dropped\": " + formatU64(stats.dropped) + "\n  },\n";
    json += "  \"trace\": {\n";
    json += "    \"path\": " + jsonString(opt.out) + ",\n";
    json += "    \"events\": " + formatU64(stats.events) + ",\n";
    json += "    \"distinct_blocks\": " +
            formatU64(stats.distinctBlocks) + ",\n";
    json += "    \"seed\": " + formatU64(opt.seed) + ",\n";
    json += "    \"hcr\": " + formatDouble(opt.hcr) + ",\n";
    json += "    \"lcr\": " + formatDouble(opt.lcr) + "\n  },\n";
    json += "  \"timing\": {\n";
    json += "    \"duration_s\": " + formatDouble(duration_s) + ",\n";
    json += "    \"events_per_sec\": " + formatDouble(events_per_sec) +
            "\n  }\n}\n";
    serial::writeFileAtomic(opt.report, json.data(), json.size());
}

int
runConvert(const Options &opt)
{
    const auto start = std::chrono::steady_clock::now();
    ingest::ConvertOptions conv;
    conv.seed = opt.seed;
    conv.hcrFraction = opt.hcr;
    conv.lcrFraction = opt.lcr;
    conv.maxEvents = opt.maxEvents;
    conv.dropPrefetches = opt.dropPrefetch;
    conv.mixName = opt.mixName;
    const ingest::ConvertStats stats =
        ingest::convertChampSimFile(opt.input, opt.out, conv);
    writeReport(opt, stats, elapsedSince(start));
    std::printf("%s: %s records (%s) -> %s events + manifest\n",
                opt.input.c_str(), formatU64(stats.records).c_str(),
                std::string(
                    ingest::containerKindName(stats.container)).c_str(),
                formatU64(stats.events).c_str());
    return 0;
}

int
runScenario(const Options &opt)
{
    const auto start = std::chrono::steady_clock::now();
    ingest::ScenarioOptions gen;
    gen.events = opt.events;
    gen.seed = opt.seed;
    gen.numSets = opt.sets;
    gen.totalWays = opt.ways;
    gen.hcrFraction = opt.hcr;
    gen.lcrFraction = opt.lcr;
    const replay::LlcTrace trace =
        ingest::generateScenario(opt.input, gen);
    ingest::writeTraceWithManifest(opt.out, trace, opt.seed);

    ingest::ConvertStats stats;
    stats.events = trace.size();
    writeReport(opt, stats, elapsedSince(start));
    std::printf("%s: %s events (seed %s) -> %s + manifest\n",
                opt.input.c_str(), formatU64(trace.size()).c_str(),
                formatU64(opt.seed).c_str(), opt.out.c_str());
    return 0;
}

int
runListScenarios()
{
    for (const ingest::ScenarioInfo &info : ingest::scenarioCatalog()) {
        std::printf("%-16s %s\n", std::string(info.name).c_str(),
                    std::string(info.summary).c_str());
    }
    return 0;
}

int
runGenFixture(const Options &opt)
{
    const std::vector<std::uint8_t> bytes =
        ingest::synthesizeChampSimFixture(opt.records, opt.seed);
    serial::writeFileAtomic(opt.input, bytes.data(), bytes.size());
    std::printf("%s: %s CRC2 records (%s bytes, seed %s)\n",
                opt.input.c_str(), formatU64(opt.records).c_str(),
                formatU64(bytes.size()).c_str(),
                formatU64(opt.seed).c_str());
    return 0;
}

} // namespace

int
main(int argc, char **argv)
{
    Options opt;
    ArgParser cli(argv[0]);
    // Any number; checkClassFractions() owns the range rule.
    const auto fraction = [](double &out) {
        return [&out](const char *value) {
            const auto v = parseDouble(value);
            out = v.value_or(out);
            return v.has_value();
        };
    };
    cli.add({
        { "--convert", "", "IN",
          "ChampSim CRC2 stream (raw/.gz/.xz) -> .hlt + manifest",
          cli.action(opt.action, "convert", storeText(opt.input)) },
        { "--scenario", "", "NAME", "generate a scenario-library trace",
          cli.action(opt.action, "scenario", storeText(opt.input)) },
        { "--list-scenarios", "", nullptr, "print the scenario catalog",
          cli.action(opt.action, "list-scenarios") },
        { "--gen-fixture", "", "OUT", "write a synthetic CRC2 fixture stream",
          cli.action(opt.action, "gen-fixture", storeText(opt.input)) },
        { "--out", "", "T.hlt", "output trace", storeText(opt.out),
          "convert/scenario" },
        { "--report", "", "R.json", "write the hllc-ingest-v1 report",
          storeText(opt.report), "convert/scenario" },
        { "--mix", "", "NAME", "mix name recorded in the trace",
          storeText(opt.mixName), "convert" },
        { "--drop-prefetch", "", nullptr, "do not emit prefetches as events",
          storeSwitch(opt.dropPrefetch), "convert" },
        { "--seed", "", "S", "synthesis/generation seed (default 1)",
          storeNumber(opt.seed), "convert/scenario/gen-fixture" },
        { "--events", "", "N", "events (default 100000)",
          storeNumber(opt.events), "scenario" },
        { "--max-events", "", "N", "cap converted events (default: all)",
          storeNumber(opt.maxEvents), "convert" },
        { "--records", "", "N", "fixture records (default 4096)",
          storeNumber(opt.records), "gen-fixture" },
        { "--sets", "", "N", "sets scenarios target (default 128)",
          storeNumber(opt.sets, 1), "scenario" },
        { "--ways", "", "N", "ways scenarios target (default 16)",
          storeNumber(opt.ways, 1), "scenario" },
        { "--hcr", "", "F", "high-compressibility fraction (default 0.4)",
          fraction(opt.hcr), "convert/scenario" },
        { "--lcr", "", "F", "low-compressibility fraction (default 0.3)",
          fraction(opt.lcr), "convert/scenario" },
    });
    cli.parse(argc, argv);
    if (opt.action.empty())
        cli.fail("no action given");
    if (opt.action == "convert" || opt.action == "scenario") {
        if (opt.out.empty())
            cli.fail("--out <trace.hlt> is required for --%s",
                     opt.action.c_str());
        try {
            ingest::checkClassFractions(opt.hcr, opt.lcr);
        } catch (const IoError &e) {
            cli.fail("%s", e.what());
        }
    }

    try {
        if (opt.action == "convert")
            return runConvert(opt);
        if (opt.action == "scenario")
            return runScenario(opt);
        if (opt.action == "gen-fixture")
            return runGenFixture(opt);
    } catch (const IoError &e) {
        fatal("%s", e.what());
    }
    return runListScenarios();
}
