#include "check/differential.hh"

#include <memory>
#include <sstream>

#include "check/rig.hh"
#include "common/logging.hh"
#include "common/rng.hh"
#include "common/serialize.hh"
#include "forecast/forecast.hh"
#include "hierarchy/timing.hh"
#include "sim/grid.hh"

namespace hllc::check
{

namespace
{

using hybrid::HybridLlc;
using hybrid::HybridLlcConfig;
using hybrid::LlcEvent;
using replay::LlcTrace;

std::string
eventToString(std::size_t index, const LlcEvent &event)
{
    static constexpr const char *names[] = { "GetS", "GetX", "PutClean",
                                             "PutDirty" };
    std::ostringstream out;
    out << "event " << index << ": "
        << names[static_cast<unsigned>(event.type)] << " blk=0x" << std::hex
        << event.blockNum << std::dec
        << " ecb=" << unsigned{event.ecbBytes}
        << " core=" << unsigned{event.core};
    return out.str();
}

/** End-of-trace tag-store and counter comparison (fast vs golden). */
std::optional<std::string>
compareFinalState(const HybridLlc &fast, const GoldenLlc &golden)
{
    const HybridLlcConfig &cfg = fast.config();
    for (std::uint32_t set = 0; set < cfg.numSets; ++set) {
        for (std::uint32_t w = 0; w < cfg.totalWays(); ++w) {
            const HybridLlc::LineView f = fast.lineView(set, w);
            const GoldenLlc::WayView g = golden.way(set, w);
            if (f.valid != g.valid ||
                (f.valid && (f.blockNum != g.blockNum ||
                             f.dirty != g.dirty ||
                             f.ecbBytes != g.ecbBytes ||
                             f.reuse != g.reuse || f.hits != g.hits))) {
                std::ostringstream out;
                out << "final tag store: set " << set << " way " << w
                    << " fast={valid=" << f.valid << " blk=0x" << std::hex
                    << f.blockNum << std::dec
                    << " dirty=" << f.dirty
                    << " ecb=" << unsigned{f.ecbBytes}
                    << " reuse=" << static_cast<unsigned>(f.reuse)
                    << " hits=" << f.hits
                    << "} golden={valid=" << g.valid << " blk=0x"
                    << std::hex << g.blockNum << std::dec
                    << " dirty=" << g.dirty << " ecb=" << g.ecbBytes
                    << " reuse=" << static_cast<unsigned>(g.reuse)
                    << " hits=" << g.hits << "}";
                return out.str();
            }
        }
    }

    const auto counter = [&](const char *name) {
        return fast.stats().counterValue(name);
    };
    const struct { const char *name; std::uint64_t fast, golden; } totals[] =
    {
        { "demand accesses", fast.demandAccesses(),
          golden.demandAccesses() },
        { "demand hits", fast.demandHits(), golden.demandHits() },
        { "nvm bytes written", fast.nvmBytesWritten(),
          golden.nvmBytesWritten() },
        { "dirty writebacks", counter("writebacks_dirty"),
          golden.writebacks() },
    };
    for (const auto &t : totals) {
        if (t.fast != t.golden) {
            std::ostringstream out;
            out << "final counters: " << t.name << " fast=" << t.fast
                << " golden=" << t.golden;
            return out.str();
        }
    }
    return std::nullopt;
}

/** Shared per-cell summary for rerun/jobs equivalence checks. */
struct ReplaySummary
{
    std::uint64_t demandAccesses = 0;
    std::uint64_t demandHits = 0;
    std::uint64_t nvmBytesWritten = 0;
    std::uint64_t writebacks = 0;

    bool operator==(const ReplaySummary &) const = default;
};

ReplaySummary
replayOnce(const LlcTrace &trace, const HybridLlcConfig &config,
           std::vector<DecisionRecord> *decisions)
{
    FastRig rig = makeFastRig(config);
    std::vector<DecisionRecord> scratch;
    RecordingProbe probe(decisions ? *decisions : scratch);
    if (decisions)
        rig.llc->setProbe(&probe);
    for (const LlcEvent &event : trace.events()) {
        const hybrid::AccessOutcome outcome = rig.llc->handle(event);
        if (decisions)
            appendOutcome(*decisions, outcome);
    }
    return { rig.llc->demandAccesses(), rig.llc->demandHits(),
             rig.llc->nvmBytesWritten(),
             rig.llc->stats().counterValue("writebacks_dirty") };
}

} // anonymous namespace

std::string_view
degenerateModeName(DegenerateMode mode)
{
    switch (mode) {
      case DegenerateMode::Pristine:
        return "pristine";
      case DegenerateMode::CompressionOff:
        return "compression-off";
      case DegenerateMode::SramOnly:
        return "sram-only";
    }
    return "?";
}

HybridLlcConfig
degenerateConfig(HybridLlcConfig config, DegenerateMode mode)
{
    if (mode == DegenerateMode::SramOnly) {
        config.sramWays = config.totalWays();
        config.nvmWays = 0;
    }
    return config;
}

LlcEvent
degenerateEvent(LlcEvent event, DegenerateMode mode)
{
    if (mode == DegenerateMode::CompressionOff &&
        (event.type == hybrid::LlcEventType::PutClean ||
         event.type == hybrid::LlcEventType::PutDirty)) {
        event.ecbBytes = blockBytes;
    }
    return event;
}

GoldenDiffResult
diffGolden(const LlcTrace &trace, HybridLlcConfig config,
           DegenerateMode mode, GoldenOptions golden_options)
{
    config = degenerateConfig(config, mode);
    FastRig rig = makeFastRig(config);
    GoldenLlc golden(config, golden_options);

    std::vector<DecisionRecord> fast_records;
    std::vector<DecisionRecord> golden_records;
    RecordingProbe probe(fast_records);
    rig.llc->setProbe(&probe);

    GoldenDiffResult result;
    for (std::size_t i = 0; i < trace.events().size(); ++i) {
        const LlcEvent event = degenerateEvent(trace.events()[i], mode);

        fast_records.clear();
        appendOutcome(fast_records, rig.llc->handle(event));
        golden_records.clear();
        appendOutcome(golden_records, golden.handle(event, &golden_records));

        ++result.eventsCompared;
        if (fast_records != golden_records) {
            const std::uint32_t set = rig.llc->setOf(event.blockNum);
            std::ostringstream out;
            out << eventToString(i, event) << " (mode "
                << degenerateModeName(mode) << ")\n"
                << "set=" << set << " cpth fast=" << rig.llc->cpthForSet(set)
                << " golden=" << golden.cpthForSet(set) << "\n"
                << "fast decisions:\n" << toString(fast_records)
                << "golden decisions:\n" << toString(golden_records);
            result.divergence = { i, event, out.str() };
            return result;
        }
    }

    if (auto mismatch = compareFinalState(*rig.llc, golden)) {
        result.divergence = { trace.events().size(), LlcEvent{},
                              std::move(*mismatch) };
    }
    return result;
}

std::optional<std::string>
diffRerun(const LlcTrace &trace, const HybridLlcConfig &config)
{
    std::vector<DecisionRecord> first;
    std::vector<DecisionRecord> second;
    const ReplaySummary a = replayOnce(trace, config, &first);
    const ReplaySummary b = replayOnce(trace, config, &second);

    if (first != second) {
        // Locate the first differing record for the report.
        std::size_t at = 0;
        while (at < first.size() && at < second.size() &&
               first[at] == second[at]) {
            ++at;
        }
        std::ostringstream out;
        out << "rerun decision streams diverge at record " << at << ":\n"
            << "  run 1: "
            << (at < first.size() ? toString(first[at])
                                  : std::string("(stream ended)"))
            << "\n  run 2: "
            << (at < second.size() ? toString(second[at])
                                   : std::string("(stream ended)"));
        return out.str();
    }
    if (!(a == b)) {
        std::ostringstream out;
        out << "rerun summaries diverge: accesses " << a.demandAccesses
            << "/" << b.demandAccesses << ", hits " << a.demandHits << "/"
            << b.demandHits << ", nvm bytes " << a.nvmBytesWritten << "/"
            << b.nvmBytesWritten << ", writebacks " << a.writebacks << "/"
            << b.writebacks;
        return out.str();
    }
    return std::nullopt;
}

std::optional<std::string>
diffJobs(const LlcTrace &trace,
         const std::vector<HybridLlcConfig> &configs, unsigned jobs)
{
    const auto cell = [&](std::size_t i) {
        return replayOnce(trace, configs[i], nullptr);
    };
    const std::vector<ReplaySummary> serial =
        sim::runGrid(configs.size(), cell, 1);
    const std::vector<ReplaySummary> parallel =
        sim::runGrid(configs.size(), cell, jobs);

    for (std::size_t i = 0; i < configs.size(); ++i) {
        if (!(serial[i] == parallel[i])) {
            std::ostringstream out;
            out << "grid cell " << i << " differs between jobs=1 and jobs="
                << jobs << ": hits " << serial[i].demandHits << "/"
                << parallel[i].demandHits << ", nvm bytes "
                << serial[i].nvmBytesWritten << "/"
                << parallel[i].nvmBytesWritten;
            return out.str();
        }
    }
    return std::nullopt;
}

std::optional<std::string>
diffResume(const LlcTrace &trace, const HybridLlcConfig &config,
           const std::string &checkpoint_dir)
{
    HLLC_ASSERT(config.nvmWays > 0,
                "resume diff forecasts the NVM part; nvmWays must be > 0");
    // A short forecast over a deliberately weak endurance fabric, so
    // capacity actually moves within a handful of steps.
    const fault::NvmGeometry geom{ config.numSets, config.nvmWays,
                                   blockBytes };
    forecast::ForecastConfig fc;
    fc.maxSteps = 4;
    fc.warmupFraction = 0.0;

    const auto run = [&](const forecast::RunOptions &options) {
        const fault::EnduranceModel model(geom, { 1e8, 0.2 },
                                          Xoshiro256StarStar(3));
        forecast::ForecastEngine engine(model, config, { &trace },
                                        hierarchy::TimingParams{}, fc);
        return engine.run(options);
    };

    const std::vector<forecast::ForecastPoint> reference = run({});

    const std::string path = checkpoint_dir + "/resume_diff.ckpt";
    forecast::RunOptions stop;
    stop.checkpointPath = path;
    stop.stopAfterSteps = 1;
    std::vector<forecast::ForecastPoint> stopped;
    try {
        stopped = run(stop);
    } catch (const IoError &e) {
        return "stop run could not write its checkpoint: " +
               std::string(e.what());
    }

    // The stop run saves its checkpoint when it reaches the step
    // boundary; if the forecast ended before that (e.g. a trace with no
    // timing metadata yields a zero-length window), resuming would
    // silently test nothing.
    if (stopped.size() >= reference.size()) {
        std::ostringstream out;
        out << "stop run finished all " << stopped.size()
            << " steps before the stopAfterSteps boundary; the resume "
               "path was never exercised";
        return out.str();
    }
    try {
        serial::readFileBytes(path);
    } catch (const IoError &e) {
        std::ostringstream out;
        out << "stop run wrote no checkpoint: " << e.what();
        return out.str();
    }

    forecast::RunOptions resume;
    resume.checkpointPath = path;
    resume.resume = true;
    const std::vector<forecast::ForecastPoint> resumed = run(resume);

    if (resumed.size() != reference.size()) {
        std::ostringstream out;
        out << "resumed series has " << resumed.size()
            << " points, uninterrupted run has " << reference.size();
        return out.str();
    }
    for (std::size_t i = 0; i < reference.size(); ++i) {
        const forecast::ForecastPoint &a = reference[i];
        const forecast::ForecastPoint &b = resumed[i];
        if (a.time != b.time || a.capacity != b.capacity ||
            a.meanIpc != b.meanIpc || a.hitRate != b.hitRate ||
            a.nvmBytesPerSecond != b.nvmBytesPerSecond) {
            std::ostringstream out;
            out << "resumed series diverges at step " << i << ": capacity "
                << a.capacity << "/" << b.capacity << ", IPC " << a.meanIpc
                << "/" << b.meanIpc << ", hit rate " << a.hitRate << "/"
                << b.hitRate;
            return out.str();
        }
    }
    return std::nullopt;
}

} // namespace hllc::check
