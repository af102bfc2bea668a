#include "sim/experiment.hh"

#include <algorithm>
#include <cstdio>
#include <functional>

#include "common/error.hh"
#include "common/interrupt.hh"
#include "common/logging.hh"
#include "common/metrics.hh"
#include "common/numfmt.hh"
#include "common/thread_pool.hh"
#include "hierarchy/hierarchy.hh"
#include "hybrid/llc_rig.hh"
#include "sim/grid.hh"
#include "workload/mixes.hh"

namespace hllc::sim
{

using forecast::ForecastEngine;
using hybrid::PolicyKind;
using replay::LlcTrace;

Experiment::Experiment(SystemConfig config, std::size_t num_mixes)
    : config_(config)
{
    const auto &mixes = workload::tableVMixes();
    HLLC_ASSERT(num_mixes >= 1 && num_mixes <= mixes.size());

    const unsigned jobs = resolveJobs(config_.jobs);
    inform("capturing %zu mixes (%llu refs/core, %u jobs)...",
           num_mixes,
           static_cast<unsigned long long>(config_.refsPerCore), jobs);

    // Every mix captures into its own pre-sized slot with a child seed
    // keyed on (master seed, mix index): the traces are bit-identical
    // for any jobs value. Captures share no mutable state (workload
    // tables are immutable after first use).
    traces_.resize(num_mixes);
    parallelFor(jobs, num_mixes, [&](std::size_t i) {
        traces_[i] = hierarchy::captureTrace(
            mixes[i], config_.llcBlocks(), config_.privateCaches,
            config_.refsPerCore, childSeed(config_.seed, i),
            config_.scheme);
    });
}

Experiment::Experiment(SystemConfig config,
                       std::vector<replay::LlcTrace> traces)
    : config_(config), traces_(std::move(traces))
{
    HLLC_ASSERT(!traces_.empty());
}

std::vector<const LlcTrace *>
Experiment::tracePtrs() const
{
    std::vector<const LlcTrace *> ptrs;
    ptrs.reserve(traces_.size());
    for (const auto &t : traces_)
        ptrs.push_back(&t);
    return ptrs;
}

std::vector<const LlcTrace *>
Experiment::tracePtr(std::size_t mix) const
{
    return { &traces_.at(mix) };
}

fault::EnduranceModel
Experiment::makeEndurance(const hybrid::HybridLlcConfig &llc) const
{
    return hybrid::drawFabric(llc, config_.endurance, config_.seed);
}

ForecastSummary
Experiment::runForecast(const hybrid::HybridLlcConfig &llc,
                        std::string label,
                        forecast::ForecastConfig fc,
                        const forecast::RunOptions &run_options) const
{
    const fault::EnduranceModel endurance = makeEndurance(llc);
    ForecastEngine engine(endurance, llc, tracePtrs(), config_.timing,
                          fc);

    ForecastSummary summary;
    summary.label = std::move(label);
    summary.series = engine.run(run_options);
    summary.lifetimeMonths =
        ForecastEngine::lifetimeMonths(summary.series, fc.capacityFloor);
    summary.initialIpc = ForecastEngine::initialIpc(summary.series);
    summary.metrics = engine.metrics();
    for (const auto &[name, c] : engine.stats().counters())
        summary.counters.emplace_back(name, c.value());
    return summary;
}

PhaseSummary
Experiment::runPhase(const hybrid::HybridLlcConfig &llc, std::string label,
                     double capacity,
                     std::vector<const LlcTrace *> traces) const
{
    HLLC_ASSERT(capacity > 0.0 && capacity <= 1.0);
    if (traces.empty())
        traces = tracePtrs();

    const hybrid::LlcRig rig =
        hybrid::buildLlcRig(llc, config_.endurance, config_.seed);
    if (rig.map && capacity < 1.0)
        degradeUniform(*rig.map, capacity, config_.seed ^ 0xdeadULL);

    hybrid::HybridLlc &cache = *rig.llc;
    PhaseSummary summary;
    summary.label = std::move(label);
    summary.aggregate =
        forecast::replayAllTraces(traces, cache, config_.timing, 0.2);
    if (cache.dueling() != nullptr) {
        summary.winnerHistory = cache.dueling()->winnerHistory();
        metrics::TimeSeries &winners =
            summary.metrics.series("cpth_winner_history");
        for (unsigned w : summary.winnerHistory)
            winners.append(static_cast<double>(w));
    }
    for (const auto &[name, c] : cache.stats().counters())
        summary.counters.emplace_back(name, c.value());
    return summary;
}

double
Experiment::upperBoundIpc() const
{
    return sramBoundIpc(config_.sramWays + config_.nvmWays);
}

double
Experiment::sramBoundIpc(std::uint32_t ways) const
{
    const std::lock_guard<std::mutex> lock(sramBoundsMutex_);
    const auto it = sramBoundIpc_.find(ways);
    if (it != sramBoundIpc_.end())
        return it->second;
    hybrid::HybridLlc cache(config_.llcConfigSramBound(ways), nullptr);
    const double ipc = forecast::replayAllTraces(
        tracePtrs(), cache, config_.timing, 0.2).meanIpc;
    sramBoundIpc_.emplace(ways, ipc);
    return ipc;
}

void
degradeUniform(fault::FaultMap &map, double capacity, std::uint64_t seed)
{
    Xoshiro256StarStar rng(seed);
    const auto &geom = map.geometry();
    const auto frames = geom.numFrames();
    while (map.effectiveCapacity() > capacity) {
        const auto frame =
            static_cast<std::uint32_t>(rng.nextBounded(frames));
        const auto byte =
            static_cast<unsigned>(rng.nextBounded(geom.frameBytes));
        map.killByte(frame, byte);
    }
}

StudyEntry
studyEntry(const SystemConfig &config, PolicyKind kind,
           const hybrid::PolicyParams &params)
{
    std::string label(hybrid::policyName(kind));
    if (kind == PolicyKind::CpSdTh)
        label += formatDouble(params.thPercent);
    return { std::move(label), config.llcConfig(kind, params) };
}

void
printConfigHeader(const SystemConfig &config, const std::string &experiment)
{
    std::printf("# %s\n", experiment.c_str());
    std::printf("# Table IV system: 4 cores @3.5GHz | "
                "L1 %zuKB/%uw | L2 %zuKB/%uw | "
                "LLC %u sets x (%uw SRAM + %uw NVM) x 64B | "
                "endurance mu=%.2g cv=%.2f | scale=%.3g\n",
                config.privateCaches.l1Bytes / 1024,
                config.privateCaches.l1Ways,
                config.privateCaches.l2Bytes / 1024,
                config.privateCaches.l2Ways,
                config.llcSets, config.sramWays, config.nvmWays,
                config.endurance.meanWrites, config.endurance.cv,
                config.scale);
    std::printf("# latencies: LLC SRAM %llu | LLC NVM %llu (+decomp) | "
                "NVM write %llu | mem %llu cycles\n",
                static_cast<unsigned long long>(
                    config.timing.llcSramLoadUse),
                static_cast<unsigned long long>(
                    config.timing.llcNvmLoadUse),
                static_cast<unsigned long long>(
                    config.timing.nvmWriteLatency),
                static_cast<unsigned long long>(config.timing.memLatency));
}

std::string
fmt(double value, int decimals)
{
    // std::to_chars, not snprintf: %f honours the process locale, and a
    // de_DE decimal comma would corrupt machine-read bench output.
    return formatFixed(value, decimals);
}

bool
ForecastGridOutcome::ok() const
{
    return !interrupted && std::none_of(reports.begin(), reports.end(),
                                        std::mem_fn(&CellReport::failed));
}

int
ForecastGridOutcome::exitCode() const
{
    if (interrupted) {
        const int code = interruptExitCode();
        return code != 0 ? code : 130;
    }
    return ok() ? 0 : 1;
}

namespace
{

/** Build the stats-file cells of a forecast study (metrics borrowed). */
std::vector<metrics::CellExport>
forecastExportCells(const std::vector<ForecastSummary> &summaries,
                    const SystemConfig &config, double upper)
{
    std::vector<metrics::CellExport> cells;
    cells.reserve(summaries.size());
    for (const ForecastSummary &summary : summaries) {
        metrics::CellExport cell;
        cell.label = summary.label;
        cell.metrics = &summary.metrics;
        cell.counters = summary.counters;
        cell.scalars = {
            { "lifetime_months", summary.lifetimeMonths },
            { "lifetime_months_full_scale",
              summary.lifetimeMonths * config.fullScaleFactor() },
            { "initial_ipc", summary.initialIpc },
            { "initial_ipc_normalized",
              upper > 0 ? summary.initialIpc / upper : 0.0 },
        };
        cells.push_back(std::move(cell));
    }
    return cells;
}

} // anonymous namespace

void
exportPhaseStudy(const std::string &stats_out,
                 const std::string &experiment_name,
                 const std::vector<PhaseSummary> &summaries)
{
    if (stats_out.empty())
        return;
    std::vector<metrics::CellExport> cells;
    cells.reserve(summaries.size());
    for (const PhaseSummary &summary : summaries) {
        metrics::CellExport cell;
        cell.label = summary.label;
        cell.metrics = &summary.metrics;
        cell.counters = summary.counters;
        const forecast::PhaseAggregate &agg = summary.aggregate;
        cell.scalars = {
            { "mean_ipc", agg.meanIpc },
            { "hit_rate", agg.hitRate },
            { "demand_accesses",
              static_cast<double>(agg.demandAccesses) },
            { "demand_hits", static_cast<double>(agg.demandHits) },
            { "nvm_bytes_written",
              static_cast<double>(agg.nvmBytesWritten) },
            { "measured_seconds", agg.measuredSeconds },
        };
        cells.push_back(std::move(cell));
    }
    metrics::writeStatsFile(stats_out, cells, experiment_name);
    inform("wrote stats to '%s'", stats_out.c_str());
}

int
runAndPrintForecastStudy(const Experiment &experiment,
                         const std::vector<StudyEntry> &entries,
                         const forecast::ForecastConfig &fc,
                         const CheckpointOptions &checkpoint,
                         const std::string &stats_out,
                         const ResilienceOptions &resilience)
{
    const SystemConfig &config = experiment.config();
    const double upper = experiment.upperBoundIpc();
    const double lower = experiment.sramBoundIpc(config.sramWays);

    std::printf("# 16w-SRAM upper bound IPC %.4f (norm 1.000); "
                "%uw-SRAM lower bound IPC %.4f (norm %.3f)\n",
                upper, config.sramWays, lower,
                upper > 0 ? lower / upper : 0.0);
    std::printf("# months are simulated at scale %.3g; full-scale "
                "equivalent = months x %.3g\n",
                config.scale, config.fullScaleFactor());

    if (checkpoint.enabled()) {
        installInterruptHandlers();
        inform("checkpointing to '%s' every %zu step(s)%s",
               checkpoint.dir.c_str(), checkpoint.every,
               checkpoint.resume ? ", resuming" : "");
    }
    inform("forecasting %zu policies (%u jobs)...", entries.size(),
           resolveJobs(config.jobs));
    if (resilience.retry.maxAttempts > 1 || resilience.cellTimeoutMs > 0)
        installInterruptHandlers(); // retry sleeps must stay drainable
    ForecastGridOutcome outcome;
    try {
        outcome = runForecastGridCheckpointed(experiment, entries, fc,
                                              checkpoint, resilience);
    } catch (const IoError &e) {
        std::fprintf(stderr, "error: %s\n", e.what());
        return 1;
    }

    if (outcome.interrupted) {
        // A partial grid is not the study: skip the result tables, keep
        // the checkpoints, and tell the user how to pick the run up.
        std::fprintf(stderr,
                     "interrupted by signal %d; checkpoints are under "
                     "'%s' -- rerun with --resume to continue\n",
                     interruptSignal(), checkpoint.dir.c_str());
        return outcome.exitCode();
    }
    const std::vector<ForecastSummary> &summaries = outcome.summaries;

    std::printf("\n# time series (one row per forecast point)\n");
    std::printf("%-12s %10s %10s %10s %10s\n", "policy", "months",
                "fs.months", "capacity", "norm.IPC");
    for (const auto &summary : summaries) {
        for (const auto &point : summary.series) {
            std::printf("%-12s %10.3f %10.2f %10.4f %10.4f\n",
                        summary.label.c_str(), point.months(),
                        point.months() * config.fullScaleFactor(),
                        point.capacity,
                        upper > 0 ? point.meanIpc / upper : 0.0);
        }
    }

    const double bh_lifetime =
        summaries.empty() ? 0.0 : summaries.front().lifetimeMonths;
    std::printf("\n# summary (lifetime = months to 50%% NVM capacity)\n");
    std::printf("%-12s %10s %10s %10s %10s %10s\n", "policy",
                "init.IPC", "norm.IPC", "months", "fs.months",
                "x-factor");
    for (const auto &summary : summaries) {
        std::printf("%-12s %10.4f %10.4f %10.3f %10.2f %10.2f\n",
                    summary.label.c_str(), summary.initialIpc,
                    upper > 0 ? summary.initialIpc / upper : 0.0,
                    summary.lifetimeMonths,
                    summary.lifetimeMonths * config.fullScaleFactor(),
                    bh_lifetime > 0
                        ? summary.lifetimeMonths / bh_lifetime
                        : 0.0);
    }

    if (!stats_out.empty()) {
        metrics::writeStatsFile(
            stats_out, forecastExportCells(summaries, config, upper),
            "forecast-study");
        inform("wrote stats to '%s'", stats_out.c_str());
    }

    for (const CellReport &report : outcome.reports) {
        if (report.status == CellStatus::Recovered) {
            std::fprintf(stderr,
                         "warning: cell %zu (%s) recovered after %zu "
                         "attempts\n",
                         report.index, report.label.c_str(),
                         report.attempts);
        }
    }
    for (const CellReport &report : outcome.reports) {
        if (report.failed()) {
            std::fprintf(stderr, "error: cell %zu (%s) failed: %s\n",
                         report.index, report.label.c_str(),
                         report.error.c_str());
        }
    }
    if (!resilience.failuresOut.empty()) {
        inform("wrote failure report to '%s'",
               resilience.failuresOut.c_str());
    }
    return outcome.exitCode();
}

} // namespace hllc::sim
