/**
 * @file
 * ingest-replay: a seeded ChampSim CRC2 record stream (synthesized in
 * set-up) is converted through src/ingest — record decode, payload
 * synthesis, atomic .hlt plus manifest — and the converted trace is then
 * replayed under the seven Fig. 10a policies at NVM capacity 1.0 and
 * 0.5 (sim::degradeUniform) on a runGrid of Options::jobs workers. No
 * trace capture, forecast or serving is involved.
 *
 * The stream is miss- and insert-heavy, so the LLC spends its time on
 * insertion, Fit-LRU victim search and the SRAM fallback of degraded
 * frames rather than on hits.
 */

#include <memory>
#include <sstream>

#include "check/differential.hh"
#include "check/manifest.hh"
#include "common/numfmt.hh"
#include "common/thread_pool.hh"
#include "ingest/byte_source.hh"
#include "ingest/champsim.hh"
#include "ingest/payload_synth.hh"
#include "llc_layer.hh"
#include "sim/grid.hh"
#include "trace.hh"
#include "workloads.hh"

namespace perfbench
{

namespace
{

using namespace hllc;

/** CRC2 records in the synthesized stream. */
constexpr std::uint64_t ingestRecords = 1'000'000;
/** Payload-synthesis knobs (ingest::ConvertOptions defaults). */
constexpr double hcrFraction = 0.4;
constexpr double lcrFraction = 0.3;

sim::SystemConfig
ingestConfig(const Options &options)
{
    sim::SystemConfig config = sim::SystemConfig::tableIV(1.0);
    config.seed = options.seed;
    config.jobs = options.jobs;
    return config;
}

ingest::ConvertOptions
convertOptions(const Options &options)
{
    ingest::ConvertOptions convert;
    convert.seed = options.seed;
    convert.hcrFraction = hcrFraction;
    convert.lcrFraction = lcrFraction;
    return convert;
}

/** The 14 replay cells: seven policies at capacity 1.0, then at 0.5. */
std::vector<sim::PhaseCell>
phaseCells(const sim::SystemConfig &config)
{
    using hybrid::PolicyKind;
    hybrid::PolicyParams th4;
    th4.thPercent = 4.0;
    hybrid::PolicyParams th8;
    th8.thPercent = 8.0;
    const std::vector<std::pair<std::string, hybrid::HybridLlcConfig>>
        policies = {
            { "BH", config.llcConfig(PolicyKind::Bh) },
            { "BH_CP", config.llcConfig(PolicyKind::BhCp) },
            { "LHybrid", config.llcConfig(PolicyKind::LHybrid) },
            { "TAP", config.llcConfig(PolicyKind::Tap) },
            { "CP_SD", config.llcConfig(PolicyKind::CpSd) },
            { "CP_SD_Th4", config.llcConfig(PolicyKind::CpSdTh, th4) },
            { "CP_SD_Th8", config.llcConfig(PolicyKind::CpSdTh, th8) },
        };
    std::vector<sim::PhaseCell> cells;
    for (const double capacity : { 1.0, 0.5 }) {
        for (const auto &[label, llc] : policies) {
            sim::PhaseCell cell;
            cell.label = label + "@" + formatFixed(capacity, 1);
            cell.llc = llc;
            cell.capacity = capacity;
            cells.push_back(cell);
        }
    }
    return cells;
}

/** Exact text of one phase summary (every simulated value). */
std::string
summaryText(const sim::PhaseSummary &s)
{
    std::ostringstream out;
    const forecast::PhaseAggregate &a = s.aggregate;
    out << s.label << ' ' << jsonNumber(a.meanIpc) << ' '
        << jsonNumber(a.hitRate) << ' ' << a.demandHits << ' '
        << a.demandAccesses << ' ' << a.nvmBytesWritten << ' '
        << jsonNumber(a.measuredSeconds) << " winners";
    for (unsigned w : s.winnerHistory)
        out << ' ' << w;
    for (const auto &[name, value] : s.counters)
        out << ' ' << name << '=' << value;
    return out.str();
}

/** One timed pass: conversion, write, then the replay grid. */
struct IngestRun
{
    double wall = 0.0;
    double cpu = 0.0;
    std::vector<double> cellSeconds;
    std::vector<sim::PhaseSummary> summaries;
    ingest::ConvertStats stats;
};

IngestRun
runIngest(const std::vector<std::uint8_t> &stream,
          const sim::SystemConfig &config, const std::string &hlt,
          const Options &options)
{
    const std::vector<sim::PhaseCell> cells = phaseCells(config);
    ingest::MemorySource source(stream); // the copy is not timed
    IngestRun run;
    run.cellSeconds.resize(cells.size());
    const double cpu0 = processCpuSeconds();
    const auto t0 = Clock::now();

    replay::LlcTrace trace =
        ingest::convertChampSim(source, convertOptions(options), &run.stats);
    if (options.perturb) {
        hybrid::LlcEvent first = trace.events().front();
        first.ecbBytes = first.ecbBytes == 64 ? 63 : first.ecbBytes + 1;
        replay::LlcTrace altered;
        altered.reserve(trace.size());
        altered.append(first);
        for (std::size_t i = 1; i < trace.size(); ++i)
            altered.append(trace.events()[i]);
        altered.meta() = trace.meta();
        trace = std::move(altered);
    }
    ingest::writeTraceWithManifest(hlt, trace, options.seed);
    std::vector<replay::LlcTrace> traces;
    traces.push_back(std::move(trace));
    const sim::Experiment experiment(config, std::move(traces));
    run.summaries = sim::runGrid(
        cells.size(),
        [&](std::size_t i) {
            const auto c0 = Clock::now();
            sim::PhaseSummary summary = experiment.runPhase(
                cells[i].llc, cells[i].label, cells[i].capacity);
            run.cellSeconds[i] = secondsSince(c0);
            return summary;
        },
        options.jobs);

    run.wall = secondsSince(t0);
    run.cpu = processCpuSeconds() - cpu0;
    return run;
}

/** One op per replay cell, one for the converted trace + manifest. */
void
checkIngest(const IngestRun &run, const std::string &hlt, Report &report)
{
    for (const sim::PhaseSummary &s : run.summaries) {
        report.op(report.check("cell." + s.label,
                               digestString(summaryText(s))));
    }
    const std::string trace_why = report.check("hlt", digestFile(hlt));
    const std::string manifest_why = report.check(
        "manifest", digestFile(check::manifestPathFor(hlt)));
    report.op(trace_why.empty() ? manifest_why : trace_why);
}

/**
 * ingest::convertChampSim split into its two passes, one span each:
 * record decode (MemorySource, whole records in ~64 KiB chunks), then
 * payload synthesis and capture metadata. Must produce the converter's trace exactly.
 */
replay::LlcTrace
convertTraced(const std::vector<std::uint8_t> &stream,
              const Options &options, Tracer &tracer, std::uint64_t parent)
{
    const ingest::ConvertOptions convert = convertOptions(options);
    std::vector<hybrid::LlcEvent> events;
    {
        Scope span(tracer, "ingest.decode", parent);
        ingest::MemorySource source(stream);
        std::vector<std::uint8_t> buf(ingest::champSimRecordBytes * 2731);
        std::uint64_t index = 0;
        for (;;) {
            const std::size_t got = source.read(buf.data(), buf.size());
            if (got == 0)
                break;
            if (got % ingest::champSimRecordBytes != 0)
                throw std::runtime_error("stream not record-aligned");
            for (std::size_t pos = 0; pos < got;
                 pos += ingest::champSimRecordBytes) {
                const ingest::ChampSimRecord rec =
                    ingest::decodeChampSimRecord(buf.data() + pos, index++);
                hybrid::LlcEvent event{};
                event.blockNum = rec.addr >> blockOffsetBits;
                event.core = rec.cpu;
                event.type =
                    rec.type == ingest::ChampSimType::Rfo
                        ? hybrid::LlcEventType::GetX
                    : rec.type == ingest::ChampSimType::Writeback
                        ? hybrid::LlcEventType::PutDirty
                        : hybrid::LlcEventType::GetS;
                events.push_back(event);
            }
        }
    }
    replay::LlcTrace trace;
    {
        Scope span(tracer, "ingest.synth", parent);
        ingest::PayloadSynth synth(
            workload::ContentMix::fromClassFractions(convert.hcrFraction,
                                                     convert.lcrFraction),
            convert.seed);
        trace.reserve(events.size());
        for (hybrid::LlcEvent &event : events) {
            event.ecbBytes = synth.ecbOf(event.blockNum);
            trace.append(event);
        }
        ingest::synthesizeCaptureMeta(trace, convert.mixName);
    }
    return trace;
}

/** Experiment::runPhase rebuilt from public calls, with spans. */
sim::PhaseSummary
phaseTraced(const sim::Experiment &experiment, const sim::PhaseCell &cell,
            Tracer &tracer, std::uint64_t parent, std::uint64_t op,
            LlcCounts &counts)
{
    const sim::SystemConfig &config = experiment.config();
    const Rig rig =
        experimentRig(experiment, cell.llc, cell.capacity, tracer, parent, op);
    hybrid::HybridLlc *cache = rig.llc.get();
    sim::PhaseSummary summary;
    summary.label = cell.label;
    summary.aggregate = replayTraced(experiment.tracePtrs(), *cache,
                                     config.timing, 0.2, tracer, parent, op,
                                     counts);
    if (cache->dueling() != nullptr) {
        summary.winnerHistory = cache->dueling()->winnerHistory();
        metrics::TimeSeries &winners =
            summary.metrics.series("cpth_winner_history");
        for (unsigned w : summary.winnerHistory)
            winners.append(static_cast<double>(w));
    }
    for (const auto &[name, c] : cache->stats().counters())
        summary.counters.emplace_back(name, c.value());
    return summary;
}

} // anonymous namespace

void
runIngestReplay(const Options &options, Report &report)
{
    const sim::SystemConfig config = ingestConfig(options);
    const std::string hlt = options.runDir + "/ingest.hlt";

    // Set-up: synthesize the CRC2 stream (the input fixture), repeated.
    std::vector<std::uint8_t> stream;
    std::vector<double> setups;
    for (int k = 0; k < setupRepeats; ++k) {
        const auto t0 = Clock::now();
        stream = ingest::synthesizeChampSimFixture(ingestRecords,
                                                   options.seed);
        setups.push_back(secondsSince(t0));
    }
    report.samples["setup_s"] = setups;

    // Timed region.
    std::vector<double> walls;
    IngestRun last;
    const auto budget0 = Clock::now();
    do {
        last = runIngest(stream, config, hlt, options);
        checkIngest(last, hlt, report);
        walls.push_back(last.wall);
        report.samples["wall_s"].push_back(last.wall);
        report.samples["cpu_s"].push_back(last.cpu);
        report.samples["ops_per_s"].push_back(
            static_cast<double>(last.summaries.size()) / last.wall);
        for (double s : last.cellSeconds)
            report.samples["op_ms"].push_back(s * 1e3);
    } while (secondsSince(budget0) < options.seconds);
    report.scalars["peak_rss_mb"] = processPeakRssMb();

    // Outside the timed region: the .hlt reloads against its manifest,
    // and the golden shadow agrees with the fast LLC on the converted
    // stream (pristine NVM) under every policy.
    const replay::LlcTrace loaded = replay::LlcTrace::load(hlt);
    const auto manifest = check::verifyManifest(hlt, loaded);
    report.op(manifest ? "manifest: " + *manifest : std::string());
    std::vector<sim::PhaseCell> pristine;
    for (const sim::PhaseCell &cell : phaseCells(config)) {
        if (cell.capacity == 1.0)
            pristine.push_back(cell);
    }
    std::vector<std::string> golden(pristine.size());
    parallelFor(options.jobs, pristine.size(), [&](std::size_t i) {
        const check::GoldenDiffResult diff = check::diffGolden(
            loaded, pristine[i].llc, check::DegenerateMode::Pristine);
        if (!diff.ok()) {
            golden[i] = "golden shadow diverged under " + pristine[i].label +
                        ": " + diff.divergence->description;
        }
    });
    for (const std::string &why : golden)
        report.op(why);

    if (!options.trace)
        return;

    // Traced passes of the same work.
    Tracer tracer(true);
    const std::vector<sim::PhaseCell> cells = phaseCells(config);
    const std::string reference_trace = digestTrace(loaded);
    std::vector<double> traced_walls, makespans, idles;
    std::map<std::string, std::vector<double>> cell_s;
    LlcCounts counts;
    int reps = 0;
    const auto traced0 = Clock::now();
    do {
        ++reps;
        std::vector<double> cell_seconds(cells.size());
        std::vector<sim::PhaseSummary> summaries;
        std::vector<LlcCounts> cell_counts(cells.size());
        const auto t0 = Clock::now();
        {
            Scope root(tracer, "ingest-replay", 0);
            replay::LlcTrace trace =
                convertTraced(stream, options, tracer, root.id());
            report.op(digestTrace(trace) == reference_trace
                          ? std::string()
                          : "traced conversion differs from the converter");
            {
                Scope span(tracer, "ingest.write", root.id());
                ingest::writeTraceWithManifest(hlt + ".traced", trace,
                                               options.seed);
            }
            std::vector<replay::LlcTrace> traces;
            traces.push_back(std::move(trace));
            const sim::Experiment experiment(config, std::move(traces));
            const auto g0 = Clock::now();
            {
                Scope grid(tracer, "grid", root.id());
                summaries = sim::runGrid(
                    cells.size(),
                    [&](std::size_t i) {
                        const auto c0 = Clock::now();
                        Scope cell(tracer, "grid.cell", grid.id(), i + 1);
                        sim::PhaseSummary s =
                            phaseTraced(experiment, cells[i], tracer,
                                        cell.id(), i + 1, cell_counts[i]);
                        cell_seconds[i] = secondsSince(c0);
                        return s;
                    },
                    options.jobs);
            }
            const double makespan = secondsSince(g0);
            makespans.push_back(makespan);
            double busy = 0.0;
            for (std::size_t i = 0; i < cells.size(); ++i) {
                busy += cell_seconds[i];
                cell_s[cells[i].label].push_back(cell_seconds[i]);
            }
            idles.push_back(options.jobs * makespan - busy);
        }
        traced_walls.push_back(secondsSince(t0));
        for (std::size_t i = 0; i < cells.size(); ++i) {
            report.op(summaryText(summaries[i]) ==
                              summaryText(last.summaries[i])
                          ? std::string()
                          : "traced replay cell differs: " + cells[i].label);
            if (reps == 1)
                counts.add(cell_counts[i]);
        }
    } while (secondsSince(traced0) < options.seconds);

    // Sampled handle() loop per cell against TraceReplayer::replay.
    HandleSamples handle;
    {
        std::vector<replay::LlcTrace> traces{ loaded };
        const sim::Experiment experiment(config, std::move(traces));
        Tracer off(false);
        for (const sim::PhaseCell &cell : cells) {
            const bool same = sampledMatchesReplayer(
                loaded,
                [&] {
                    return experimentRig(experiment, cell.llc, cell.capacity,
                                         off, 0, 0);
                },
                0.2, handle);
            report.op(same ? std::string()
                           : "sampled handle() loop diverged: " + cell.label);
        }
    }

    const double n = static_cast<double>(reps);
    std::map<std::string, double> self = tracer.selfSeconds();
    const auto self_s = [&](const char *name) {
        const auto it = self.find(name);
        return it == self.end() ? 0.0 : it->second / n;
    };
    auto &layers = report.layers;
    layers["ingest.decode_s"] = self_s("ingest.decode");
    layers["ingest.synth_s"] = self_s("ingest.synth");
    layers["ingest.write_s"] = self_s("ingest.write");
    layers["ingest.records"] = static_cast<double>(last.stats.records);
    layers["ingest.distinct_blocks"] =
        static_cast<double>(last.stats.distinctBlocks);
    layers["degrade.s"] = self_s("degrade");
    layers["replay.s"] = self_s("replay");
    layers["replay.events"] = static_cast<double>(counts.events);
    layers["replay.ns_per_event"] =
        counts.events == 0 ? 0.0
                           : self_s("replay") * 1e9 /
                                 static_cast<double>(counts.events);
    counts.report(layers);
    handle.report(layers);
    layers["rig.ms"] =
        self_s("rig") * 1e3 / static_cast<double>(cells.size());
    // A policy's cell time is its two cells (capacity 1.0 and 0.5).
    for (std::size_t i = 0; i < cells.size(); ++i) {
        const std::string policy =
            cells[i].label.substr(0, cells[i].label.find('@'));
        layers["grid.cell_s." + policy] += median(cell_s[cells[i].label]);
    }
    layers["grid.makespan_s"] = median(makespans);
    layers["grid.idle_s"] = median(idles);
    // Idle grid workers are the grid layer's (grid.idle_s); time outside
    // every span and container self time count against coverage.
    double capacity = 0.0;
    for (std::size_t i = 0; i < traced_walls.size(); ++i) {
        capacity += traced_walls[i] + (options.jobs - 1.0) * makespans[i];
        self["grid.idle"] += idles[i];
    }
    layers["coverage"] = coverage(
        self, { "ingest-replay", "grid", "grid.cell" }, capacity);
    layers["trace_overhead"] = median(traced_walls) / median(walls);
    tracer.write(spansPath(options));
}

} // namespace perfbench
