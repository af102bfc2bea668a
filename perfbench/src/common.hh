/**
 * @file
 * Shared plumbing of the perfbench program: command-line options, clocks,
 * CPU and memory readings, output digests, and the report every workload
 * fills in and main() prints as one JSON line.
 */

#ifndef PERFBENCH_COMMON_HH
#define PERFBENCH_COMMON_HH

#include <chrono>
#include <cstdint>
#include <map>
#include <string>
#include <vector>

#include "replay/llc_trace.hh"

namespace perfbench
{

using Clock = std::chrono::steady_clock;

/** Seconds elapsed since @p start. */
inline double
secondsSince(Clock::time_point start)
{
    return std::chrono::duration<double>(Clock::now() - start).count();
}

/** Parsed command line (see main.cc for the flags). */
struct Options
{
    std::string workload;
    std::uint64_t seed = 42;
    double seconds = 10.0;
    bool trace = false;
    /** Flip one simulated output before it is checked (gate self-test). */
    bool perturb = false;
    /** Scratch directory for checkpoints, exports, traces and sockets. */
    std::string runDir;
    /** The hllc-serve daemon binary (serve-closed only). */
    std::string serveBin;
    /** The hllc_loadgen client binary (serve-closed only). */
    std::string loadgenBin;
    /** Worker threads and connections: the host's hardware threads. */
    unsigned jobs = 1;
};

/** What one workload run measured and checked. */
struct Report
{
    std::uint64_t attempted = 0;
    std::uint64_t failed = 0;
    /** One line per failed operation (first few only). */
    std::vector<std::string> failures;
    /** Digest of every simulated output, checked against references. */
    std::map<std::string, std::string> outputs;
    /** Raw samples per end-to-end quantity (medians taken by run.py). */
    std::map<std::string, std::vector<double>> samples;
    /** Scalar end-to-end readings (peak memory). */
    std::map<std::string, double> scalars;
    /** Per-layer metrics of a traced run. */
    std::map<std::string, double> layers;
    /** Recorded reference digests of this workload and seed, if any. */
    std::map<std::string, std::string> reference;

    /** Count one operation; a non-empty @p why marks it failed. */
    void op(const std::string &why = {});

    /**
     * Check output @p key's @p digest: against the recorded reference
     * when one exists, else against the first digest seen for @p key in
     * this run. Returns "" on a match, else a description.
     */
    std::string check(const std::string &key, const std::string &digest);
};

/** User + system CPU seconds of this process so far (all threads). */
double processCpuSeconds();

/** Peak resident set of this process, MiB. */
double processPeakRssMb();

/** 64-bit FNV-1a digest of @p bytes, as 16 hex digits. */
std::string digestBytes(const void *bytes, std::size_t size);

inline std::string
digestString(const std::string &s)
{
    return digestBytes(s.data(), s.size());
}

/** Digest of a trace's events and metadata (identity of inputs). */
std::string digestTrace(const hllc::replay::LlcTrace &trace);

/** Digest of a file's bytes. */
std::string digestFile(const std::string &path);

/** Median of @p values (0 when empty). */
double median(std::vector<double> values);

/** Where a traced run writes its spans: beside the run directory. */
std::string spansPath(const Options &options);

/** Create @p dir (and parents); throws on failure. */
void makeDirs(const std::string &dir);

/** JSON string literal of @p s. */
std::string jsonQuote(const std::string &s);

/** JSON number with full precision (finite values only). */
std::string jsonNumber(double v);

} // namespace perfbench

#endif // PERFBENCH_COMMON_HH
