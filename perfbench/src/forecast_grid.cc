/**
 * @file
 * forecast-grid: the Fig. 10a study. Seven policies are forecast over
 * the ten Table V mixes until 50% NVM capacity, on a grid of
 * Options::jobs workers, with per-step checkpoints and the hllc-stats-v1
 * export. Set-up is the trace capture of the ten mixes plus the 16-way
 * SRAM normalisation replay.
 *
 * The timed region is sim::runAndPrintForecastStudy itself, the path of
 * bench_fig10a (checkpointed grid with retry, watchdog and failpoint
 * checks, printed tables, export). The traced run rebuilds each cell
 * from public calls with spans and checks that the rebuild writes the
 * same checkpoints and export byte for byte.
 */

#include <fcntl.h>
#include <unistd.h>

#include <cstdio>
#include <memory>

#include "common/metrics.hh"
#include "common/rng.hh"
#include "common/serialize.hh"
#include "common/thread_pool.hh"
#include "forecast/aging.hh"
#include "hierarchy/hierarchy.hh"
#include "llc_layer.hh"
#include "sim/grid.hh"
#include "trace.hh"
#include "workload/mixes.hh"
#include "workloads.hh"

namespace perfbench
{

namespace
{

using namespace hllc;

/** Forecast steps between checkpoints. */
constexpr std::size_t checkpointEvery = 1;
/** The ForecastEngine checkpoint container identity (forecast.cc). */
constexpr std::uint32_t checkpointMagic = 0x484c434b;
constexpr std::uint32_t checkpointVersion = 2;
/** ForecastEngine's series shapes (forecast.cc). */
constexpr std::size_t frameLiveBuckets = 16;
constexpr double frameLiveBucketBytes = 4.0;
constexpr std::size_t agingStepBuckets = 16;
constexpr double agingStepBucketMonths = 1.0;

sim::SystemConfig
gridConfig(const Options &options)
{
    // Full Table IV scale, as bench_fig10a runs it: smaller geometry or
    // fewer references per core change the forecast step counts and
    // inflate the per-step checkpoint share of the study.
    sim::SystemConfig config = sim::SystemConfig::tableIV(1.0);
    config.seed = options.seed;
    config.jobs = options.jobs;
    return config;
}

std::vector<sim::StudyEntry>
fig10aEntries(const sim::SystemConfig &config)
{
    using hybrid::PolicyKind;
    hybrid::PolicyParams th4;
    th4.thPercent = 4.0;
    hybrid::PolicyParams th8;
    th8.thPercent = 8.0;
    return {
        { "BH", config.llcConfig(PolicyKind::Bh) },
        { "BH_CP", config.llcConfig(PolicyKind::BhCp) },
        { "LHybrid", config.llcConfig(PolicyKind::LHybrid) },
        { "TAP", config.llcConfig(PolicyKind::Tap) },
        { "CP_SD", config.llcConfig(PolicyKind::CpSd) },
        { "CP_SD_Th4", config.llcConfig(PolicyKind::CpSdTh, th4) },
        { "CP_SD_Th8", config.llcConfig(PolicyKind::CpSdTh, th8) },
    };
}

/**
 * The stats-file cells of a forecast study, for the traced rebuild's
 * export (sim/experiment.cc keeps its own private). The rebuild's export
 * is checked byte-identical to the library's.
 */
std::vector<metrics::CellExport>
exportCells(const std::vector<sim::ForecastSummary> &summaries,
            const sim::SystemConfig &config, double upper)
{
    std::vector<metrics::CellExport> cells;
    for (const sim::ForecastSummary &summary : summaries) {
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

/** Capture the ten mixes as sim::Experiment does, one span per mix. */
std::unique_ptr<sim::Experiment>
captureTraced(const sim::SystemConfig &config, Tracer &tracer,
              std::uint64_t parent, Report &report)
{
    const auto &mixes = workload::tableVMixes();
    std::vector<replay::LlcTrace> traces(mixes.size());
    parallelFor(config.jobs, mixes.size(), [&](std::size_t i) {
        Scope span(tracer, "capture", parent, i + 1);
        traces[i] = hierarchy::captureTrace(
            mixes[i], config.llcBlocks(), config.privateCaches,
            config.refsPerCore, childSeed(config.seed, i), config.scheme);
    });
    for (const replay::LlcTrace &t : traces) {
        report.layers["capture.events"] += static_cast<double>(t.size());
    }
    return std::make_unique<sim::Experiment>(config, std::move(traces));
}

std::string
tracesDigest(const sim::Experiment &experiment)
{
    std::string all;
    for (const replay::LlcTrace &t : experiment.traces())
        all += digestTrace(t);
    return digestString(all);
}

/** Per-cell extras the traced reconstruction returns. */
struct TracedCell
{
    sim::ForecastSummary summary;
    LlcCounts counts;
    std::uint64_t predictSteps = 0;
    std::uint64_t checkpointBytes = 0;
};

/**
 * ForecastEngine::run (fresh start, periodic checkpoints, series on)
 * rebuilt from public calls with a span around every layer. Must
 * return exactly what Experiment::runForecast returns.
 */
TracedCell
forecastTraced(const sim::Experiment &experiment,
               const sim::StudyEntry &entry,
               const forecast::ForecastConfig &fc,
               const std::string &checkpoint_path, Tracer &tracer,
               std::uint64_t parent, std::uint64_t op)
{
    const hybrid::HybridLlcConfig &cfg = entry.llc;
    TracedCell out;

    // ForecastConfig::wearDistribution stays at the default (Leveled),
    // which is what experimentRig's fault map uses.
    const Rig rig = experimentRig(experiment, cfg, 1.0, tracer, parent, op);
    fault::FaultMap *map = rig.map.get();
    hybrid::HybridLlc *llc = rig.llc.get();
    const fault::EnduranceModel &endurance = *rig.endurance;

    StatGroup stats("forecast");
    stats.counter("simulate_phases");
    stats.counter("predict_phases");
    stats.histogram("aging_step_months", agingStepBuckets,
                    agingStepBucketMonths);
    metrics::MetricRegistry series_metrics;
    std::vector<forecast::ForecastPoint> series;
    Seconds now = 0.0;
    const auto traces = experiment.tracePtrs();
    const hierarchy::TimingParams &timing = experiment.config().timing;

    for (std::size_t step = 0; step < fc.maxSteps; ++step) {
        if (step != 0 && step % checkpointEvery == 0) {
            Scope span(tracer, "checkpoint.save", parent, op);
            serial::Container container;
            serial::Encoder &meta = container.add("meta");
            meta.u32(cfg.numSets);
            meta.u32(cfg.sramWays);
            meta.u32(cfg.nvmWays);
            meta.u32(static_cast<std::uint32_t>(cfg.policy));
            meta.u64(step);
            meta.f64(now);
            serial::Encoder &seri = container.add("seri");
            seri.u64(series.size());
            for (const forecast::ForecastPoint &p : series) {
                seri.f64(p.time);
                seri.f64(p.capacity);
                seri.f64(p.meanIpc);
                seri.f64(p.hitRate);
                seri.f64(p.nvmBytesPerSecond);
            }
            if (cfg.nvmWays > 0)
                map->snapshot(container.add("fmap"));
            if (llc->dueling() != nullptr)
                llc->dueling()->snapshot(container.add("duel"));
            stats.snapshot(container.add("stat"));
            llc->stats().snapshot(container.add("lstat"));
            series_metrics.snapshot(container.add("mtrc"));
            const std::vector<std::uint8_t> bytes =
                container.encode(checkpointMagic, checkpointVersion);
            serial::writeFileAtomic(checkpoint_path, bytes.data(),
                                    bytes.size());
            out.checkpointBytes += bytes.size();
        }

        map->discardPending();
        const forecast::PhaseAggregate agg =
            replayTraced(traces, *llc, timing, fc.warmupFraction, tracer,
                         parent, op, out.counts);
        const Seconds window_seconds =
            agg.measuredSeconds / (1.0 - fc.warmupFraction);
        forecast::ForecastPoint point;
        point.time = now;
        point.capacity = cfg.nvmWays == 0 ? 1.0 : map->effectiveCapacity();
        point.meanIpc = agg.meanIpc;
        point.hitRate = agg.hitRate;
        point.nvmBytesPerSecond = agg.measuredSeconds <= 0.0
            ? 0.0
            : static_cast<double>(agg.nvmBytesWritten) / agg.measuredSeconds;
        series.push_back(point);
        ++stats.counter("simulate_phases");

        {
            Scope span(tracer, "forecast.sample", parent, op);
            metrics::MetricRegistry &m = series_metrics;
            m.series("step").append(static_cast<double>(step));
            m.series("time_months").append(point.months());
            m.series("capacity").append(point.capacity);
            m.series("mean_ipc").append(point.meanIpc);
            m.series("hit_rate").append(point.hitRate);
            m.series("nvm_bytes_per_second").append(point.nvmBytesPerSecond);
            m.series("nvm_bytes_written")
                .append(static_cast<double>(agg.nvmBytesWritten));
            m.series("cpth_winner")
                .append(llc->dueling() != nullptr
                            ? static_cast<double>(llc->dueling()->winner())
                            : -1.0);
            if (cfg.nvmWays == 0) {
                m.series("live_frame_fraction").append(1.0);
            } else {
                const std::uint32_t frames = map->geometry().numFrames();
                m.series("live_frame_fraction")
                    .append(frames == 0
                                ? 1.0
                                : 1.0 - static_cast<double>(
                                            map->deadFrames()) /
                                            static_cast<double>(frames));
                std::vector<std::uint64_t> row(frameLiveBuckets, 0);
                for (std::uint32_t f = 0; f < frames; ++f) {
                    std::size_t bucket = static_cast<std::size_t>(
                        static_cast<double>(map->liveBytes(f)) /
                        frameLiveBucketBytes);
                    if (bucket >= frameLiveBuckets)
                        bucket = frameLiveBuckets - 1;
                    ++row[bucket];
                }
                m.histogramSeries("frame_live_bytes", frameLiveBuckets,
                                  frameLiveBucketBytes)
                    .appendRow(std::move(row));
            }
        }

        if (point.capacity <= fc.capacityFloor || now >= fc.maxTime ||
            cfg.nvmWays == 0 || window_seconds <= 0.0) {
            break;
        }
        Seconds delta = 0.0;
        {
            Scope span(tracer, "predict.choose", parent, op);
            delta = forecast::chooseAgingStep(*map, endurance,
                                              window_seconds, fc.aging);
        }
        delta = std::min(delta, fc.maxTime - now);
        if (delta <= 0.0)
            break;
        {
            Scope span(tracer, "predict.age", parent, op);
            map->age(delta / window_seconds);
        }
        ++stats.counter("predict_phases");
        ++out.predictSteps;
        stats.histogram("aging_step_months", agingStepBuckets,
                        agingStepBucketMonths)
            .sample(delta / secondsPerMonth);
        now += delta;
    }

    sim::ForecastSummary &summary = out.summary;
    summary.label = entry.label;
    summary.series = series;
    summary.lifetimeMonths = forecast::ForecastEngine::lifetimeMonths(
        series, fc.capacityFloor);
    summary.initialIpc = forecast::ForecastEngine::initialIpc(series);
    summary.metrics = std::move(series_metrics);
    for (const auto &[name, c] : stats.counters())
        summary.counters.emplace_back(name, c.value());
    return out;
}

/** The timed study: sim::runAndPrintForecastStudy, the Fig. 10a path. */
struct StudyRun
{
    double wall = 0.0;
    double cpu = 0.0;
};

/** Checkpoint directory of the timed study. */
sim::CheckpointOptions
studyCheckpoint(const std::string &dir)
{
    sim::CheckpointOptions checkpoint;
    checkpoint.dir = dir + "/ckpt";
    checkpoint.every = checkpointEvery;
    return checkpoint;
}

/**
 * Run sim::runAndPrintForecastStudy with its tables going to
 * DIR/study.txt and its export to DIR/stats.json. @p perturb lowers the
 * capacity floor, so every lifetime and series changes.
 */
StudyRun
runStudy(const sim::Experiment &experiment,
         const std::vector<sim::StudyEntry> &entries, const std::string &dir,
         bool perturb)
{
    forecast::ForecastConfig fc;
    if (perturb)
        fc.capacityFloor -= 0.01;
    const std::string tables = dir + "/study.txt";

    std::fflush(stdout);
    const int saved = ::dup(STDOUT_FILENO);
    const int fd = ::open(tables.c_str(), O_WRONLY | O_CREAT | O_TRUNC,
                          0644);
    if (saved < 0 || fd < 0)
        throw std::runtime_error("cannot redirect stdout to " + tables);
    ::dup2(fd, STDOUT_FILENO);
    ::close(fd);

    StudyRun run;
    const double cpu0 = processCpuSeconds();
    const auto t0 = Clock::now();
    const int rc = sim::runAndPrintForecastStudy(
        experiment, entries, fc, studyCheckpoint(dir), dir + "/stats.json",
        {});
    std::fflush(stdout);
    run.wall = secondsSince(t0);
    run.cpu = processCpuSeconds() - cpu0;

    ::dup2(saved, STDOUT_FILENO);
    ::close(saved);
    if (rc != 0)
        throw std::runtime_error("forecast study failed");
    return run;
}

/**
 * Check every output of one study: one op per cell (its checkpoint),
 * one for the export and one for the printed tables.
 */
void
checkStudy(const std::vector<sim::StudyEntry> &entries,
           const std::string &dir, Report &report)
{
    const sim::CheckpointOptions checkpoint = studyCheckpoint(dir);
    for (std::size_t i = 0; i < entries.size(); ++i) {
        report.op(report.check(
            "checkpoint." + entries[i].label,
            digestFile(sim::checkpointCellPath(checkpoint, i,
                                               entries[i].label))));
    }
    report.op(report.check("export", digestFile(dir + "/stats.json")));
    report.op(report.check("study_tables", digestFile(dir + "/study.txt")));
}

} // anonymous namespace

void
runForecastGrid(const Options &options, Report &report)
{
    const sim::SystemConfig config = gridConfig(options);
    const std::vector<sim::StudyEntry> entries = fig10aEntries(config);
    const std::string dir = options.runDir;
    Tracer setup_tracer(options.trace);

    // Set-up: capture the mixes and warm the normalisation replay,
    // repeated; the last experiment is kept. A traced run captures
    // through the span-instrumented path after one library capture.
    std::unique_ptr<sim::Experiment> experiment;
    std::vector<double> setups;
    for (int k = 0; k < setupRepeats; ++k) {
        const auto t0 = Clock::now();
        if (options.trace && k > 0) {
            report.layers["capture.events"] = 0.0;
            Scope root(setup_tracer, "setup", 0);
            experiment = captureTraced(config, setup_tracer, root.id(),
                                       report);
        } else {
            experiment = std::make_unique<sim::Experiment>(config);
        }
        experiment->upperBoundIpc();
        setups.push_back(secondsSince(t0));
        report.op(report.check("traces", tracesDigest(*experiment)));
    }
    report.samples["setup_s"] = setups;

    // Timed region: whole studies until the time budget is spent. An
    // operation's latency here is one study's.
    std::vector<double> untraced_walls;
    const auto budget0 = Clock::now();
    do {
        const StudyRun run =
            runStudy(*experiment, entries, dir, options.perturb);
        checkStudy(entries, dir, report);
        untraced_walls.push_back(run.wall);
        report.samples["wall_s"].push_back(run.wall);
        report.samples["cpu_s"].push_back(run.cpu);
        report.samples["ops_per_s"].push_back(
            static_cast<double>(entries.size()) / run.wall);
        report.samples["op_ms"].push_back(run.wall * 1e3);
    } while (secondsSince(budget0) < options.seconds);
    report.scalars["peak_rss_mb"] = processPeakRssMb();

    if (!options.trace)
        return;

    // The last timed study's checkpoints and export are the reference
    // the traced rebuild must reproduce byte for byte.
    std::vector<std::string> reference_ckpt;
    for (std::size_t i = 0; i < entries.size(); ++i) {
        reference_ckpt.push_back(digestFile(sim::checkpointCellPath(
            studyCheckpoint(dir), i, entries[i].label)));
    }
    const std::string reference_export = digestFile(dir + "/stats.json");

    // Traced passes of the same study.
    Tracer tracer(true);
    const forecast::ForecastConfig fc; // series on, as the study runs it
    sim::CheckpointOptions traced_ckpt;
    traced_ckpt.dir = dir + "/ckpt-traced";
    makeDirs(traced_ckpt.dir);
    std::vector<double> traced_walls, makespans, idles, export_s;
    std::map<std::string, std::vector<double>> cell_s;
    LlcCounts counts;
    std::uint64_t predict_steps = 0, checkpoint_bytes = 0;
    int reps = 0;
    const auto traced0 = Clock::now();
    do {
        ++reps;
        std::vector<TracedCell> cells;
        std::vector<double> cell_seconds(entries.size());
        const auto t0 = Clock::now();
        {
            Scope root(tracer, "forecast-grid", 0);
            const double upper = experiment->upperBoundIpc();
            hybrid::HybridLlc lower(
                config.llcConfigSramBound(config.sramWays), nullptr);
            LlcCounts bound_counts;
            replayTraced(experiment->tracePtrs(), lower, config.timing, 0.2,
                         tracer, root.id(), 0, bound_counts);
            const auto g0 = Clock::now();
            {
                Scope grid(tracer, "grid", root.id());
                cells = sim::runGrid(
                    entries.size(),
                    [&](std::size_t i) {
                        const auto c0 = Clock::now();
                        Scope cell(tracer, "grid.cell", grid.id(), i + 1);
                        TracedCell out = forecastTraced(
                            *experiment, entries[i], fc,
                            sim::checkpointCellPath(traced_ckpt, i,
                                                    entries[i].label),
                            tracer, cell.id(), i + 1);
                        cell_seconds[i] = secondsSince(c0);
                        return out;
                    },
                    options.jobs);
            }
            const double makespan = secondsSince(g0);
            std::vector<sim::ForecastSummary> summaries;
            for (TracedCell &c : cells)
                summaries.push_back(c.summary);
            const auto e0 = Clock::now();
            {
                Scope span(tracer, "export", root.id());
                metrics::writeStatsFile(
                    dir + "/stats-traced.json",
                    exportCells(summaries, config, upper),
                    "forecast-study");
            }
            export_s.push_back(secondsSince(e0));
            makespans.push_back(makespan);
            double busy = 0.0;
            for (std::size_t i = 0; i < entries.size(); ++i) {
                busy += cell_seconds[i];
                cell_s[entries[i].label].push_back(cell_seconds[i]);
            }
            idles.push_back(options.jobs * makespan - busy);
        }
        traced_walls.push_back(secondsSince(t0));

        // Identity: the rebuild writes the library's checkpoints and
        // export.
        for (std::size_t i = 0; i < entries.size(); ++i) {
            report.op(digestFile(sim::checkpointCellPath(
                          traced_ckpt, i, entries[i].label)) ==
                              reference_ckpt[i]
                          ? std::string()
                          : "traced checkpoint differs: " + entries[i].label);
        }
        report.op(digestFile(dir + "/stats-traced.json") == reference_export
                      ? std::string()
                      : "traced export differs from the library export");
        if (reps == 1) {
            for (const TracedCell &c : cells) {
                counts.add(c.counts);
                predict_steps += c.predictSteps;
                checkpoint_bytes += c.checkpointBytes;
            }
        }
    } while (secondsSince(traced0) < options.seconds);

    // Sampled handle() loop on every policy and mix, checked against
    // TraceReplayer::replay on an identical fresh LLC.
    HandleSamples handle;
    Tracer off(false);
    for (const sim::StudyEntry &entry : entries) {
        for (const replay::LlcTrace &trace : experiment->traces()) {
            const bool same = sampledMatchesReplayer(
                trace,
                [&] {
                    return experimentRig(*experiment, entry.llc, 1.0, off,
                                         0, 0);
                },
                0.2, handle);
            report.op(same ? std::string()
                           : "sampled handle() loop diverged: " +
                                 entry.label);
        }
    }

    // Layer metrics: per traced pass (self times divided by passes).
    const double n = static_cast<double>(reps);
    std::map<std::string, double> self = tracer.selfSeconds();
    const auto self_s = [&](const char *name) {
        const auto it = self.find(name);
        return it == self.end() ? 0.0 : it->second / n;
    };
    auto &layers = report.layers;
    std::vector<double> captures = setup_tracer.durations("capture");
    double capture_s = 0.0;
    for (double d : captures)
        capture_s += d;
    layers["capture.s"] = capture_s / (setupRepeats - 1);
    layers["replay.s"] = self_s("replay");
    layers["replay.events"] = static_cast<double>(counts.events);
    layers["replay.ns_per_event"] =
        counts.events == 0 ? 0.0
                           : self_s("replay") * 1e9 /
                                 static_cast<double>(counts.events);
    counts.report(layers);
    handle.report(layers);
    layers["rig.ms"] =
        self_s("rig") * 1e3 / static_cast<double>(entries.size());
    layers["predict.choose_s"] = self_s("predict.choose");
    layers["predict.age_s"] = self_s("predict.age");
    layers["predict.steps"] = static_cast<double>(predict_steps);
    layers["forecast.sample_s"] = self_s("forecast.sample");
    for (const auto &[label, v] : cell_s)
        layers["grid.cell_s." + label] = median(v);
    layers["grid.makespan_s"] = median(makespans);
    layers["grid.idle_s"] = median(idles);
    layers["checkpoint.save_s"] = self_s("checkpoint.save");
    layers["checkpoint.bytes"] = static_cast<double>(checkpoint_bytes);
    layers["export.s"] = median(export_s);
    // Idle grid workers are the grid layer's (grid.idle_s); time outside
    // every span and container self time count against coverage.
    double capacity = 0.0;
    for (std::size_t i = 0; i < traced_walls.size(); ++i) {
        capacity += traced_walls[i] + (options.jobs - 1.0) * makespans[i];
        self["grid.idle"] += idles[i];
    }
    layers["coverage"] = coverage(
        self, { "forecast-grid", "grid", "grid.cell" }, capacity);
    layers["trace_overhead"] = median(traced_walls) / median(untraced_walls);
    tracer.write(spansPath(options));
}

} // namespace perfbench
