/**
 * @file
 * hllc_replay: replay a captured .hlt trace against one or more LLC
 * insertion policies and print hit rate, NVM write traffic, IPC and the
 * LLC's full statistics.
 *
 * Usage: hllc_replay <trace.hlt> [policy[,policy...]] [cpth] [--jobs N]
 *                    [--stats-out <file>.{json,csv}]
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
#include <cstring>
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
#include "sim/grid.hh"

using namespace hllc;
using hybrid::PolicyKind;

namespace
{

std::vector<PolicyKind>
parsePolicyList(const char *arg)
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
        fatal("empty policy list '%s'", arg);
    return policies;
}

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
    if (argc < 2) {
        std::fprintf(stderr,
                     "usage: %s <trace.hlt> [policy[,policy...]] [cpth] "
                     "[--jobs N] [--stats-out <file>.{json,csv}]\n",
                     argv[0]);
        return 2;
    }
    const unsigned jobs = sim::parseJobsArg(argc, argv);
    const std::string stats_out = sim::parseStatsOutArg(argc, argv);
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
    const std::vector<PolicyKind> policies =
        argc > 2 && argv[2][0] != '-' ? parsePolicyList(argv[2])
                                      : std::vector<PolicyKind>{
                                            PolicyKind::CpSd };

    const sim::SystemConfig config = sim::SystemConfig::tableIV();
    hybrid::PolicyParams params;
    if (argc > 3 && argv[3][0] != '-') {
        // CPth is a byte threshold within a 64-byte block.
        const auto cpth = parseUnsigned(argv[3], 1, 64);
        if (!cpth) {
            std::fprintf(stderr,
                         "%s: bad cpth '%s' (expected an integer in "
                         "1..64)\n"
                         "usage: %s <trace.hlt> [policy[,policy...]] "
                         "[cpth] [--jobs N]\n",
                         argv[0], argv[3], argv[0]);
            return 2;
        }
        params.fixedCpth = *cpth;
    }

    const auto results = sim::runGrid(
        policies.size(),
        [&](std::size_t i) {
            const PolicyKind policy = policies[i];
            const auto llc_config = policy == PolicyKind::SramOnly
                ? config.llcConfigSramBound(config.sramWays +
                                            config.nvmWays)
                : config.llcConfig(policy, params);

            std::unique_ptr<fault::EnduranceModel> endurance;
            std::unique_ptr<fault::FaultMap> map;
            if (llc_config.nvmWays > 0) {
                // Same fabric for every policy cell (fair comparison):
                // keyed on the master seed only.
                endurance = std::make_unique<fault::EnduranceModel>(
                    config.nvmGeometry(), config.endurance,
                    Xoshiro256StarStar(config.seed));
                map = std::make_unique<fault::FaultMap>(
                    *endurance, hybrid::InsertionPolicy::create(
                                    llc_config.policy, llc_config.params)
                                    ->granularity());
            }
            hybrid::HybridLlc llc(llc_config, map.get());

            ReplayResult result;

            // Per-interval sampling: pure function of trace + LLC state
            // (deterministic for every --jobs value). The snapshot's
            // cumulative counts delta into interval values; the SRAM/NVM
            // hit split and the CPth winner read the live LLC, which is
            // safe because the callback fires synchronously mid-replay.
            replay::TraceReplayer::IntervalCallback on_interval;
            const double warmup_fraction = 0.2;
            if (!stats_out.empty()) {
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
        jobs);

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

    if (!stats_out.empty()) {
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
            metrics::writeStatsFile(stats_out, cells, "hllc-replay");
        } catch (const IoError &e) {
            fatal("%s", e.what());
        }
        inform("wrote stats to '%s'", stats_out.c_str());
    }

    // Wall-clock attribution (replacement dominates replays) when
    // HLLC_TIMERS=1; stderr keeps stdout byte-identical.
    const std::string timers = metrics::PhaseTimers::report();
    if (!timers.empty())
        std::fputs(timers.c_str(), stderr);
    return 0;
}
