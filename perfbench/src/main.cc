/**
 * @file
 * perfbench: run one benchmark workload and print its raw measurements
 * as one JSON line (run.py turns them into the benchmark's metrics).
 *
 * Usage:
 *   perfbench --workload forecast-grid|serve-closed|ingest-replay
 *             --run-dir DIR [--seed N] [--seconds S] [--trace 0|1]
 *             [--jobs N] [--serve-bin PATH] [--loadgen-bin PATH]
 *             [--reference FILE] [--perturb]
 *
 * --reference names the recorded digests file ("workload seed output
 * digest" lines); outputs of a seed listed there must match it, other
 * seeds are checked run against run. --perturb alters one simulated
 * output before it is checked, to prove the gate fires; forecast-grid
 * and ingest-replay refuse it on a seed without recorded digests, where
 * a deterministic change would go unnoticed.
 */

#include <cstdio>
#include <cstdlib>
#include <exception>
#include <fstream>
#include <sstream>
#include <string>
#include <thread>

#include "common/logging.hh"
#include "workloads.hh"

using namespace perfbench;

namespace
{

[[noreturn]] void
usage(const char *why)
{
    std::fprintf(stderr, "perfbench: %s\n", why);
    std::exit(2);
}

std::map<std::string, std::string>
loadReference(const std::string &path, const std::string &workload,
              std::uint64_t seed)
{
    std::map<std::string, std::string> out;
    std::ifstream in(path);
    std::string line;
    while (std::getline(in, line)) {
        if (line.empty() || line[0] == '#')
            continue;
        std::istringstream fields(line);
        std::string w, key, digest;
        std::uint64_t s = 0;
        if ((fields >> w >> s >> key >> digest) && w == workload &&
            s == seed) {
            out[key] = digest;
        }
    }
    return out;
}

/** `"key": value` pairs of @p m, comma-separated, in key order. */
template <typename Map, typename Render>
std::string
jsonObject(const Map &m, Render render)
{
    std::string out = "{";
    for (const auto &[key, value] : m) {
        if (out.size() > 1)
            out += ", ";
        out += jsonQuote(key);
        out += ": ";
        out += render(value);
    }
    return out + "}";
}

std::string
renderReport(const Options &options, const Report &r)
{
    std::string failures = "[";
    for (const std::string &why : r.failures) {
        if (failures.size() > 1)
            failures += ", ";
        failures += jsonQuote(why);
    }
    failures += "]";
    const auto number_list = [](const std::vector<double> &values) {
        std::string out = "[";
        for (double v : values) {
            if (out.size() > 1)
                out += ",";
            out += jsonNumber(v);
        }
        return out + "]";
    };
    return "{\"workload\": " + jsonQuote(options.workload) +
           ", \"seed\": " + std::to_string(options.seed) +
           ", \"attempted\": " + std::to_string(r.attempted) +
           ", \"failed\": " + std::to_string(r.failed) +
           ", \"failures\": " + failures +
           ", \"outputs\": " + jsonObject(r.outputs, jsonQuote) +
           ", \"samples\": " + jsonObject(r.samples, number_list) +
           ", \"scalars\": " + jsonObject(r.scalars, jsonNumber) +
           ", \"layers\": " + jsonObject(r.layers, jsonNumber) + "}";
}

} // anonymous namespace

int
main(int argc, char **argv)
{
    Options options;
    options.jobs = std::max(1u, std::thread::hardware_concurrency());
    std::string reference;
    for (int i = 1; i < argc; ++i) {
        const std::string arg = argv[i];
        const auto value = [&]() -> std::string {
            if (i + 1 >= argc)
                usage(("missing value for " + arg).c_str());
            return argv[++i];
        };
        if (arg == "--workload") {
            options.workload = value();
        } else if (arg == "--seed") {
            options.seed = std::strtoull(value().c_str(), nullptr, 10);
        } else if (arg == "--seconds") {
            options.seconds = std::strtod(value().c_str(), nullptr);
        } else if (arg == "--trace") {
            options.trace = value() == "1";
        } else if (arg == "--jobs") {
            options.jobs = static_cast<unsigned>(
                std::max(1L, std::strtol(value().c_str(), nullptr, 10)));
        } else if (arg == "--run-dir") {
            options.runDir = value();
        } else if (arg == "--serve-bin") {
            options.serveBin = value();
        } else if (arg == "--loadgen-bin") {
            options.loadgenBin = value();
        } else if (arg == "--reference") {
            reference = value();
        } else if (arg == "--perturb") {
            options.perturb = true;
        } else {
            usage(("unknown argument " + arg).c_str());
        }
    }
    if (options.runDir.empty())
        usage("--run-dir is required");

    hllc::setLogLevel(hllc::LogLevel::Warn);
    Report report;
    if (!reference.empty()) {
        report.reference =
            loadReference(reference, options.workload, options.seed);
    }
    if (options.perturb && report.reference.empty() &&
        options.workload != "serve-closed") {
        usage("--perturb needs recorded digests for this seed");
    }
    try {
        makeDirs(options.runDir);
        if (options.workload == "forecast-grid")
            runForecastGrid(options, report);
        else if (options.workload == "serve-closed")
            runServeClosed(options, report);
        else if (options.workload == "ingest-replay")
            runIngestReplay(options, report);
        else
            usage(("unknown workload " + options.workload).c_str());
    } catch (const std::exception &e) {
        std::fprintf(stderr, "perfbench: %s: %s\n",
                     options.workload.c_str(), e.what());
        return 1;
    }
    std::printf("%s\n", renderReport(options, report).c_str());
    return 0;
}
