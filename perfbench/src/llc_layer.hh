/**
 * @file
 * The replay and LLC layers as the traced run sees them: replay of a
 * set of traces with one span per TraceReplayer::replay call, exact LLC
 * event counts, and a sampled HybridLlc::handle loop that times one in
 * every N events by outcome.
 *
 * Both paths must reproduce the library exactly: replayTraced() returns
 * the same PhaseAggregate as forecast::replayAllTraces, and the sampled
 * loop leaves the LLC with the same stats as TraceReplayer::replay.
 * The workloads check both, so traced numbers describe the same program.
 */

#ifndef PERFBENCH_LLC_LAYER_HH
#define PERFBENCH_LLC_LAYER_HH

#include <array>
#include <functional>
#include <map>
#include <memory>
#include <string>
#include <vector>

#include "forecast/forecast.hh"
#include "hybrid/hybrid_llc.hh"
#include "sim/experiment.hh"
#include "trace.hh"

namespace perfbench
{

/** Exact measured-window LLC counts, summed over replays. */
struct LlcCounts
{
    std::uint64_t gets = 0, getx = 0, puts = 0, hits = 0, insertsNvm = 0,
                  insertsSram = 0, evictions = 0, migrations = 0,
                  bypasses = 0, nvmFallbackSram = 0, inplaceUpdates = 0,
                  events = 0;

    /** Add @p llc's current (measured-window) counters. */
    void add(const hllc::hybrid::HybridLlc &llc);
    void add(const LlcCounts &other);
    /** Emit as llc.* layer metrics. */
    void report(std::map<std::string, double> &layers) const;
};

/**
 * forecast::replayAllTraces with a "replay" span around every
 * TraceReplayer::replay call (parent @p parent, operation @p op) and
 * the replayed LLC's counters accumulated into @p counts.
 */
hllc::forecast::PhaseAggregate
replayTraced(const std::vector<const hllc::replay::LlcTrace *> &traces,
             hllc::hybrid::HybridLlc &llc,
             const hllc::hierarchy::TimingParams &timing,
             double warmup_fraction, Tracer &tracer, std::uint64_t parent,
             std::uint64_t op, LlcCounts &counts);

/** Event classes the sampled loop times. */
enum class EventClass { GetsHit, GetsMiss, GetxHit, GetxMiss, PutPresent,
                        PutInsert, Count };

/** Sampled handle() timings, per event class. */
struct HandleSamples
{
    std::array<double, static_cast<std::size_t>(EventClass::Count)> ns{};
    std::array<std::uint64_t, static_cast<std::size_t>(EventClass::Count)>
        count{};

    /** Emit mean ns per class as llc.ns.* layer metrics. */
    void report(std::map<std::string, double> &layers) const;
};

/** An LLC with the endurance fabric and fault map behind it. */
struct Rig
{
    std::unique_ptr<hllc::fault::EnduranceModel> endurance;
    std::unique_ptr<hllc::fault::FaultMap> map;
    std::unique_ptr<hllc::hybrid::HybridLlc> llc;
};

/**
 * The rig Experiment::runPhase and ForecastEngine::run build for @p llc:
 * the experiment's endurance fabric, a fresh fault map degraded to
 * @p capacity (sim::degradeUniform) and the LLC. One "rig" span, with a
 * "degrade" child span when @p capacity < 1.
 */
Rig experimentRig(const hllc::sim::Experiment &experiment,
                  const hllc::hybrid::HybridLlcConfig &llc, double capacity,
                  Tracer &tracer, std::uint64_t parent, std::uint64_t op);

/**
 * Replay @p trace with TraceReplayer::replay on one rig from
 * @p make_rig, and on another through HybridLlc::handle exactly as the
 * replayer drives it (reset, stats reset at the warm-up boundary) while
 * timing one event in 16 into @p samples. True when both leave the LLC
 * with identical stats.
 */
bool sampledMatchesReplayer(const hllc::replay::LlcTrace &trace,
                            const std::function<Rig()> &make_rig,
                            double warmup_fraction, HandleSamples &samples);

} // namespace perfbench

#endif // PERFBENCH_LLC_LAYER_HH
