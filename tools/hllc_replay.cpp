/**
 * @file
 * hllc_replay: replay a captured .hlt trace against one or more LLC
 * insertion policies and print hit rate, NVM write traffic, IPC and the
 * LLC's full statistics.
 *
 * Usage: hllc_replay <trace.hlt> [policy[,policy...]] [cpth] [--jobs N]
 *                    [--stats-out <file>.{json,csv}]
 *
 * The policy list and CPth are positional and come before any flag;
 * any other argument, an unknown policy name and a bad CPth are usage
 * errors (exit 2).
 *
 * Several comma-separated policies form a grid replayed in parallel
 * (sim::runGrid); results print in the order given on the command line
 * and are byte-identical for every --jobs value. With --stats-out the
 * measured window of every policy cell is additionally sampled at 20
 * interval boundaries (per-interval IPC, hit rate, NVM writes/bytes and
 * the Set Dueling CPth winner) and exported in the hllc-stats-v1
 * schema.
 */

#include <cstdio>
#include <iostream>
#include <memory>
#include <sstream>

#include "check/manifest.hh"
#include "common/argparse.hh"
#include "common/error.hh"
#include "common/logging.hh"
#include "common/metrics.hh"
#include "common/stats.hh"
#include "forecast/forecast.hh"
#include "hierarchy/timing.hh"
#include "hybrid/llc_rig.hh"
#include "sim/grid.hh"

using namespace hllc;
using hybrid::PolicyKind;

namespace
{

/** Everything one grid cell reports, pre-formatted off-thread. */
struct ReplayResult
{
    std::string policyName;
    forecast::PhaseAggregate aggregate;
    std::string statsDump;
    /** Per-interval series (only filled under --stats-out). */
    metrics::MetricRegistry registry;
    std::vector<std::pair<std::string, std::uint64_t>> counters;
};

/** Measured-window intervals sampled per cell under --stats-out. */
constexpr std::size_t statsIntervals = 20;

/**
 * The trace's private-level activity summed over cores, for the
 * per-interval IPC estimate: intervals slice the LLC event stream, not
 * per-core windows, so the interval IPC is that of one virtual core
 * carrying the whole mix (baseCPI weighted by instruction count).
 */
struct AggregateMeta
{
    std::uint64_t instructions = 0;
    std::uint64_t refs = 0;
    std::uint64_t l1Hits = 0;
    std::uint64_t l2Hits = 0;
    double baseCpi = 0.4;
};

AggregateMeta
aggregateMeta(const replay::LlcTrace &trace)
{
    AggregateMeta meta;
    double cpi_weight = 0.0;
    for (const replay::CoreMeta &m : trace.meta().cores) {
        if (m.refs == 0)
            continue;
        meta.instructions += m.instructions;
        meta.refs += m.refs;
        meta.l1Hits += m.l1Hits;
        meta.l2Hits += m.l2Hits;
        cpi_weight += m.baseCpi * static_cast<double>(m.instructions);
    }
    if (meta.instructions > 0)
        meta.baseCpi =
            cpi_weight / static_cast<double>(meta.instructions);
    return meta;
}

/** Cumulative state at the previous interval boundary (deltas). */
struct IntervalState
{
    std::uint64_t events = 0;
    std::uint64_t accesses = 0;
    std::uint64_t hits = 0;
    std::uint64_t hitsSram = 0;
    std::uint64_t hitsNvm = 0;
    std::uint64_t nvmWrites = 0;
    std::uint64_t nvmBytes = 0;
};

} // namespace

int
main(int argc, char **argv)
{
    // The policy list and CPth are positional only before the first
    // flag; from there on every argument is a flag or a flag's value.
    int first_flag = 1;
    while (first_flag < argc && first_flag < 4 &&
           argv[first_flag][0] != '-')
        ++first_flag;
    const sim::BenchArgs args = sim::parseBenchArgs(
        argc, argv, { .jobs = true, .statsOut = true }, first_flag,
        " <trace.hlt> [policy[,policy...]] [cpth]");
    if (first_flag == 1)
        usageError(args.usage, "missing <trace.hlt>");
    std::vector<PolicyKind> policies{ PolicyKind::CpSd };
    if (first_flag > 2) {
        std::string unknown;
        auto parsed = hybrid::parsePolicyList(argv[2], unknown);
        if (!parsed)
            usageError(args.usage, "unknown policy '%s'", unknown.c_str());
        policies = std::move(*parsed);
    }
    hybrid::PolicyParams params;
    if (first_flag > 3) {
        // CPth is a byte threshold within a 64-byte block.
        const auto cpth = parseUnsigned(argv[3], 1, 64);
        if (!cpth)
            usageError(args.usage,
                       "bad cpth '%s' (expected an integer in 1..64)",
                       argv[3]);
        params.fixedCpth = *cpth;
    }
    replay::LlcTrace trace;
    try {
        trace = replay::LlcTrace::load(argv[1]);
    } catch (const IoError &e) {
        fatal("%s", e.what());
    }
    // A present-but-mismatching sidecar manifest means the trace on disk
    // is not the one that was captured; refuse to replay it.
    if (const auto mismatch = check::verifyManifest(argv[1], trace))
        fatal("%s", mismatch->c_str());

    const sim::SystemConfig config = sim::SystemConfig::tableIV();

    const auto results = sim::runGrid(
        policies.size(),
        [&](std::size_t i) {
            const PolicyKind policy = policies[i];
            const hybrid::LlcRig rig = hybrid::buildLlcRig(
                config.llcConfig(policy, params), config.endurance,
                config.seed);
            hybrid::HybridLlc &llc = *rig.llc;

            ReplayResult result;

            // Per-interval sampling: pure function of trace + LLC state
            // (deterministic for every --jobs value). The snapshot's
            // cumulative counts delta into interval values; the SRAM/NVM
            // hit split and the CPth winner read the live LLC, which is
            // safe because the callback fires synchronously mid-replay.
            replay::TraceReplayer::IntervalCallback on_interval;
            const double warmup_fraction = 0.2;
            if (!args.statsOut.empty()) {
                const std::size_t warmup_end = static_cast<std::size_t>(
                    warmup_fraction *
                    static_cast<double>(trace.size()));
                const double total_measured =
                    static_cast<double>(trace.size() - warmup_end);
                const AggregateMeta meta = aggregateMeta(trace);
                const double measured_frac = 1.0 - warmup_fraction;
                auto prev = std::make_shared<IntervalState>();
                on_interval =
                    [&llc, &config, meta, total_measured, measured_frac,
                     prev, &result](
                        const replay::IntervalSnapshot &snap) {
                    const StatGroup &s = llc.stats();
                    IntervalState now;
                    now.events = snap.measuredEvents;
                    now.accesses = snap.demandAccesses;
                    now.hits = snap.demandHits;
                    now.hitsSram = s.counterValue("gets_hits_sram") +
                                   s.counterValue("getx_hits_sram");
                    now.hitsNvm = s.counterValue("gets_hits_nvm") +
                                  s.counterValue("getx_hits_nvm");
                    now.nvmWrites = snap.nvmWrites;
                    now.nvmBytes = snap.nvmBytesWritten;

                    // Virtual-core activity for this event slice.
                    const double frac = total_measured > 0.0
                        ? static_cast<double>(now.events - prev->events) /
                          total_measured
                        : 0.0;
                    hierarchy::CoreActivity a;
                    a.instructions = static_cast<std::uint64_t>(
                        static_cast<double>(meta.instructions) *
                        measured_frac * frac);
                    a.refs = static_cast<std::uint64_t>(
                        static_cast<double>(meta.refs) * measured_frac *
                        frac);
                    a.l1Hits = static_cast<std::uint64_t>(
                        static_cast<double>(meta.l1Hits) *
                        measured_frac * frac);
                    a.l2Hits = static_cast<std::uint64_t>(
                        static_cast<double>(meta.l2Hits) *
                        measured_frac * frac);
                    a.llcHitsSram = now.hitsSram - prev->hitsSram;
                    a.llcHitsNvm = now.hitsNvm - prev->hitsNvm;
                    const std::uint64_t d_acc =
                        now.accesses - prev->accesses;
                    const std::uint64_t d_hits = now.hits - prev->hits;
                    a.llcMisses = d_acc - d_hits;
                    a.nvmWrites = now.nvmWrites - prev->nvmWrites;
                    a.baseCpi = meta.baseCpi;

                    metrics::MetricRegistry &reg = result.registry;
                    reg.series("interval").append(
                        static_cast<double>(snap.interval));
                    reg.series("mean_ipc").append(
                        hierarchy::coreIpc(a, config.timing));
                    reg.series("hit_rate").append(
                        d_acc == 0 ? 0.0
                                   : static_cast<double>(d_hits) /
                                     static_cast<double>(d_acc));
                    reg.series("nvm_writes").append(static_cast<double>(
                        now.nvmWrites - prev->nvmWrites));
                    reg.series("nvm_bytes_written")
                        .append(static_cast<double>(now.nvmBytes -
                                                    prev->nvmBytes));
                    reg.series("cpth_winner")
                        .append(llc.dueling()
                                    ? static_cast<double>(
                                          llc.dueling()->winner())
                                    : -1.0);
                    *prev = now;
                };
            }

            result.aggregate = forecast::replayAllTraces(
                { &trace }, llc, config.timing, warmup_fraction,
                on_interval, statsIntervals);
            result.policyName = std::string(llc.policy().name());
            for (const auto &[name, c] : llc.stats().counters())
                result.counters.emplace_back(name, c.value());
            std::ostringstream stats;
            llc.stats().dump(stats);
            result.statsDump = stats.str();
            return result;
        },
        args.jobs);

    std::printf("trace %s (%s): %zu events\n", argv[1],
                trace.meta().mixName.c_str(), trace.size());
    for (const auto &result : results) {
        std::printf("policy %s | hit rate %.4f | NVM bytes %llu | "
                    "mean IPC %.4f\n",
                    result.policyName.c_str(), result.aggregate.hitRate,
                    static_cast<unsigned long long>(
                        result.aggregate.nvmBytesWritten),
                    result.aggregate.meanIpc);
        std::printf("\nLLC statistics:\n%s", result.statsDump.c_str());
    }

    if (!args.statsOut.empty()) {
        std::vector<metrics::CellExport> cells;
        for (const auto &result : results) {
            metrics::CellExport cell;
            cell.label = result.policyName;
            cell.metrics = &result.registry;
            cell.counters = result.counters;
            cell.scalars = {
                { "hit_rate", result.aggregate.hitRate },
                { "mean_ipc", result.aggregate.meanIpc },
                { "nvm_bytes_written",
                  static_cast<double>(
                      result.aggregate.nvmBytesWritten) },
            };
            cells.push_back(std::move(cell));
        }
        try {
            metrics::writeStatsFile(args.statsOut, cells, "hllc-replay");
        } catch (const IoError &e) {
            fatal("%s", e.what());
        }
        inform("wrote stats to '%s'", args.statsOut.c_str());
    }
    return 0;
}
