#include "forecast/forecast.hh"

#include <algorithm>
#include <chrono>
#include <memory>

#include "common/error.hh"
#include "common/failpoint.hh"
#include "common/numfmt.hh"
#include "common/interrupt.hh"
#include "common/logging.hh"
#include "common/serialize.hh"
#include "hybrid/llc_rig.hh"

namespace hllc::forecast
{

namespace
{

/**
 * Checkpoint container identity ("HLCK"). Version 2 added the "stat"
 * (engine stats), "lstat" (LLC stats) and "mtrc" (metric series) chunks
 * so a resumed run dumps/exports exactly what an uninterrupted one
 * would. v1 checkpoints are rejected by the version range check and the
 * run restarts from scratch — the documented fallback for any
 * unreadable checkpoint.
 */
constexpr std::uint32_t checkpointMagic = 0x484c434b;
constexpr std::uint32_t checkpointVersion = 2;

/** Shape of the per-frame live-byte histogram series (64 B frames). */
constexpr std::size_t frameLiveBuckets = 16;
constexpr double frameLiveBucketBytes = 4.0;

/** Shape of the engine's aging-step-length histogram. */
constexpr std::size_t agingStepBuckets = 16;
constexpr double agingStepBucketMonths = 1.0;

} // anonymous namespace

using hierarchy::CoreActivity;
using hierarchy::coreCycles;
using hierarchy::coreIpc;
using replay::LlcTrace;
using replay::TraceReplayer;
using replay::traceCores;

namespace
{

/**
 * Folds per-trace replay results into a PhaseAggregate: the timing-model
 * IPC of every active core (mean over mixes and cores) and the measured
 * window. replayAllTraces and the memoised forecast phase share it.
 */
class PhaseFold
{
  public:
    PhaseFold(const hierarchy::TimingParams &timing,
              double warmup_fraction)
        : timing_(timing), measuredFrac_(1.0 - warmup_fraction)
    {
    }

    void
    add(const LlcTrace &trace, const replay::ReplayResult &res)
    {
        double trace_cycles = 0.0;
        for (std::size_t c = 0; c < traceCores; ++c) {
            const replay::CoreMeta &m = trace.meta().cores[c];
            if (m.refs == 0)
                continue;
            CoreActivity a;
            // Capture-wide private-level counts scaled to the measured
            // window; LLC outcomes are exact for that window.
            a.instructions = static_cast<std::uint64_t>(
                static_cast<double>(m.instructions) * measuredFrac_);
            a.refs = static_cast<std::uint64_t>(
                static_cast<double>(m.refs) * measuredFrac_);
            a.l1Hits = static_cast<std::uint64_t>(
                static_cast<double>(m.l1Hits) * measuredFrac_);
            a.l2Hits = static_cast<std::uint64_t>(
                static_cast<double>(m.l2Hits) * measuredFrac_);
            a.llcHitsSram = res.cores[c].llcHitsSram;
            a.llcHitsNvm = res.cores[c].llcHitsNvm;
            a.llcMisses = res.cores[c].llcMisses;
            a.nvmWrites = res.cores[c].nvmWrites;
            a.baseCpi = m.baseCpi;

            ipcSum_ += coreIpc(a, timing_);
            ++ipcCount_;
            trace_cycles += coreCycles(a, timing_);
        }
        // Cores run in parallel: the window lasts about the mean core
        // time; mixes are time-multiplexed onto the same LLC, so their
        // windows add up.
        agg_.measuredSeconds += cyclesToSeconds(static_cast<Cycle>(
            trace_cycles / static_cast<double>(traceCores)));

        agg_.demandHits += res.demandHits;
        agg_.demandAccesses += res.demandAccesses;
        agg_.nvmBytesWritten += res.nvmBytesWritten;
    }

    PhaseAggregate
    finish() const
    {
        PhaseAggregate agg = agg_;
        agg.meanIpc = ipcCount_ == 0
            ? 0.0
            : ipcSum_ / static_cast<double>(ipcCount_);
        agg.hitRate = agg.demandAccesses == 0
            ? 0.0
            : static_cast<double>(agg.demandHits) /
              static_cast<double>(agg.demandAccesses);
        return agg;
    }

  private:
    const hierarchy::TimingParams &timing_;
    double measuredFrac_;
    PhaseAggregate agg_;
    double ipcSum_ = 0.0;
    std::size_t ipcCount_ = 0;
};

} // anonymous namespace

PhaseAggregate
replayAllTraces(const std::vector<const LlcTrace *> &traces,
                hybrid::HybridLlc &llc,
                const hierarchy::TimingParams &timing,
                double warmup_fraction,
                const replay::TraceReplayer::IntervalCallback &on_interval,
                std::size_t num_intervals)
{
    const TraceReplayer replayer(warmup_fraction);
    PhaseFold fold(timing, warmup_fraction);
    for (const LlcTrace *trace : traces)
        fold.add(*trace,
                 replayer.replay(*trace, llc, on_interval, num_intervals));
    return fold.finish();
}

/**
 * Per-(mix, set) results of one run(), for an LLC with NVM ways and no
 * Set Dueling, and the LLCs its mix tasks replay on. A set's outcome
 * for one mix is a function of the set's events and its NVM frames'
 * live-byte counts alone (see replay/replayer.hh), so a mix replays
 * only the sets whose frame capacities changed since that set was last
 * replayed; every other set contributes its cached tally and its
 * cached wear. The fault map is read-only while a phase replays, so the
 * mixes of a phase are independent: each runs as a task on its own LLC
 * and records into its own pending wear, and the phase folds the wear
 * into the map in mix order (integer-valued sums: any order, same
 * bits).
 */
class SetMemo
{
  public:
    /**
     * @param mixes mixes that go through the memo (all but the last)
     * @param llc the engine's LLC: slot 0's lane, and the LLC whose
     *        counters a phase leaves as the last mix's full replay
     * @param width slots of the fork-join the phases run on
     */
    SetMemo(std::size_t mixes, hybrid::HybridLlc &llc,
            fault::FaultMap &map, unsigned width)
        : sets_(llc.config().numSets), ways_(llc.config().nvmWays),
          mixes_(mixes), lastWear_(map.geometry().numFrames()),
          llc_(llc), map_(map), lanes_(width)
    {
        const std::size_t frames = static_cast<std::size_t>(sets_) * ways_;
        for (Mix &mix : mixes_) {
            // No live-byte count reaches 0xff: every set starts stale.
            mix.key.assign(frames, 0xff);
            mix.wear = fault::PendingWear(frames);
            mix.filter.replaySet.assign(sets_, 0);
        }
    }

    /**
     * Replay every trace of @p traces as one batch of @p tasks: the last
     * in full, the others through the memo. Returns the results in mix
     * order and adds the phase's wear to the map's pending wear in mix
     * order.
     */
    std::vector<replay::ReplayResult>
    replayPhase(const std::vector<const LlcTrace *> &traces,
                const TraceReplayer &replayer, ForkJoin &tasks)
    {
        const std::size_t last = traces.size() - 1;
        std::vector<replay::ReplayResult> results(traces.size());
        serial::Encoder last_stats;
        // Task 0 is the last mix's full replay, the longest task: it is
        // claimed first, so it does not trail the batch.
        tasks.run(traces.size(), [&](std::size_t task, unsigned slot) {
            hybrid::HybridLlc &llc = lane(slot);
            if (task == 0) {
                lastWear_.clear();
                llc.setWearSink(&lastWear_);
                results[last] = replayer.replay(*traces[last], llc);
                llc.stats().snapshot(last_stats);
            } else {
                const std::size_t m = task - 1;
                results[m] = replayMix(m, *traces[m], replayer, llc);
            }
        });
        for (const Mix &mix : mixes_)
            map_.pending().add(mix.wear);
        map_.pending().add(lastWear_);
        // The engine's LLC ends the phase with the last mix's counters,
        // as if it had replayed that mix last.
        serial::Decoder dec(last_stats.bytes());
        llc_.stats().restore(dec);
        return results;
    }

  private:
    struct Mix
    {
        /** Live bytes of every NVM frame when its set was last replayed. */
        std::vector<std::uint8_t> key;
        /** Per frame: the wear of the mix's last replay of its set. */
        fault::PendingWear wear;
        /** Which sets replay; its tallies are the per-set cache. */
        replay::SetFilter filter;
    };

    /** The LLC of fork-join slot @p slot, built on first use. */
    hybrid::HybridLlc &
    lane(unsigned slot)
    {
        if (slot == 0)
            return llc_;
        if (!lanes_[slot]) {
            lanes_[slot] =
                std::make_unique<hybrid::HybridLlc>(llc_.config(), &map_);
        }
        return *lanes_[slot];
    }

    /**
     * Replay mix @p mix_index of @p trace against @p llc, re-simulating
     * only its stale sets; returns the full-trace result and leaves the
     * whole trace's wear in the mix's accumulator.
     */
    replay::ReplayResult
    replayMix(std::size_t mix_index, const LlcTrace &trace,
              const TraceReplayer &replayer, hybrid::HybridLlc &llc)
    {
        Mix &mix = mixes_[mix_index];
        for (std::uint32_t s = 0; s < sets_; ++s) {
            const std::size_t f0 = static_cast<std::size_t>(s) * ways_;
            bool stale = false;
            for (std::size_t f = f0; f < f0 + ways_; ++f) {
                const auto live = static_cast<std::uint8_t>(
                    map_.liveBytes(static_cast<std::uint32_t>(f)));
                stale = stale || mix.key[f] != live;
                mix.key[f] = live;
            }
            mix.filter.replaySet[s] = stale ? 1 : 0;
            // A stale set's frames record this replay's wear afresh.
            if (stale)
                mix.wear.clear(f0, f0 + ways_);
        }

        llc.setWearSink(&mix.wear);
        replay::ReplayResult res =
            replayer.replay(trace, llc, nullptr, 0, &mix.filter);
        for (std::uint32_t s = 0; s < sets_; ++s) {
            if (mix.filter.replaySet[s] == 0)
                replay::addTally(res, mix.filter.tallies[s]);
        }
        return res;
    }

    std::uint32_t sets_;
    std::uint32_t ways_;
    std::vector<Mix> mixes_;
    /** The last mix's wear (it replays in full every phase). */
    fault::PendingWear lastWear_;
    hybrid::HybridLlc &llc_;
    fault::FaultMap &map_;
    /** Per slot but 0: a lane LLC over the same map, or null. */
    std::vector<std::unique_ptr<hybrid::HybridLlc>> lanes_;
};

ForecastEngine::ForecastEngine(const fault::EnduranceModel &endurance,
                               const hybrid::HybridLlcConfig &llc_config,
                               std::vector<const LlcTrace *> traces,
                               const hierarchy::TimingParams &timing,
                               const ForecastConfig &config)
    : endurance_(endurance), llcConfig_(llc_config),
      traces_(std::move(traces)), timing_(timing), config_(config),
      stats_("forecast")
{
    // Pre-register so lookups of legitimately-zero counters resolve.
    stats_.counter("simulate_phases");
    stats_.counter("predict_phases");
    stats_.histogram("aging_step_months", agingStepBuckets,
                     agingStepBucketMonths);

    HLLC_ASSERT(!traces_.empty(), "forecast needs at least one trace");
    if (llcConfig_.nvmWays > 0) {
        HLLC_ASSERT(endurance_.geometry().numSets == llcConfig_.numSets &&
                    endurance_.geometry().numNvmWays == llcConfig_.nvmWays,
                    "endurance geometry does not match LLC config");
    }
}

ForecastPoint
ForecastEngine::simulatePhase(hybrid::HybridLlc &llc,
                              fault::FaultMap &map, SetMemo *memo,
                              ForkJoin &tasks, Seconds now,
                              Seconds &window_seconds,
                              PhaseAggregate &agg_out)
{
    if (memo == nullptr) {
        agg_out = replayAllTraces(traces_, llc, timing_,
                                  config_.warmupFraction);
    } else {
        const TraceReplayer replayer(config_.warmupFraction);
        const std::vector<replay::ReplayResult> results =
            memo->replayPhase(traces_, replayer, tasks);
        PhaseFold fold(timing_, config_.warmupFraction);
        for (std::size_t m = 0; m < traces_.size(); ++m)
            fold.add(*traces_[m], results[m]);
        agg_out = fold.finish();
    }
    const PhaseAggregate &agg = agg_out;

    // Pending wear covers the full replay (incl. warm-up); scale the
    // measured span accordingly so rates stay consistent.
    window_seconds =
        agg.measuredSeconds / (1.0 - config_.warmupFraction);

    ForecastPoint point;
    point.time = now;
    point.capacity =
        llcConfig_.nvmWays == 0 ? 1.0 : map.effectiveCapacity();
    point.meanIpc = agg.meanIpc;
    point.hitRate = agg.hitRate;
    point.nvmBytesPerSecond = agg.measuredSeconds <= 0.0
        ? 0.0
        : static_cast<double>(agg.nvmBytesWritten) / agg.measuredSeconds;
    return point;
}

void
ForecastEngine::samplePoint(std::size_t step, const ForecastPoint &point,
                            const PhaseAggregate &agg,
                            const hybrid::HybridLlc &llc,
                            const fault::FaultMap &map)
{
    // Every value sampled here is a pure function of the replayed trace
    // and simulation state — never of wall clock or checkpoint cadence —
    // so a resumed run's export stays byte-identical to an uninterrupted
    // one.
    metrics_.series("step").append(static_cast<double>(step));
    metrics_.series("time_months").append(point.months());
    metrics_.series("capacity").append(point.capacity);
    metrics_.series("mean_ipc").append(point.meanIpc);
    metrics_.series("hit_rate").append(point.hitRate);
    metrics_.series("nvm_bytes_per_second")
        .append(point.nvmBytesPerSecond);
    metrics_.series("nvm_bytes_written")
        .append(static_cast<double>(agg.nvmBytesWritten));
    metrics_.series("cpth_winner")
        .append(llc.dueling() != nullptr
                    ? static_cast<double>(llc.dueling()->winner())
                    : -1.0);

    if (llcConfig_.nvmWays == 0) {
        metrics_.series("live_frame_fraction").append(1.0);
        return;
    }

    const std::uint32_t frames = map.geometry().numFrames();
    metrics_.series("live_frame_fraction")
        .append(frames == 0
                    ? 1.0
                    : 1.0 - static_cast<double>(map.deadFrames()) /
                                static_cast<double>(frames));

    // Wear-histogram snapshot: how many frames retain how many live
    // bytes (the shape behind the capacity curve, fig 10 style).
    std::vector<std::uint64_t> row(frameLiveBuckets, 0);
    for (std::uint32_t f = 0; f < frames; ++f) {
        const unsigned live = map.liveBytes(f);
        std::size_t bucket = static_cast<std::size_t>(
            static_cast<double>(live) / frameLiveBucketBytes);
        if (bucket >= frameLiveBuckets)
            bucket = frameLiveBuckets - 1;
        ++row[bucket];
    }
    metrics_
        .histogramSeries("frame_live_bytes", frameLiveBuckets,
                         frameLiveBucketBytes)
        .appendRow(std::move(row));
}

void
ForecastEngine::saveCheckpoint(const std::string &path, std::size_t step,
                               Seconds now,
                               const std::vector<ForecastPoint> &series,
                               const fault::FaultMap &map,
                               const hybrid::HybridLlc &llc) const
{
    HLLC_FAILPOINT("forecast.checkpoint.save");

    serial::Container container;

    serial::Encoder &meta = container.add("meta");
    meta.u32(llcConfig_.numSets);
    meta.u32(llcConfig_.sramWays);
    meta.u32(llcConfig_.nvmWays);
    meta.u32(static_cast<std::uint32_t>(llcConfig_.policy));
    meta.u64(step);
    meta.f64(now);

    serial::Encoder &seri = container.add("seri");
    seri.u64(series.size());
    for (const ForecastPoint &p : series) {
        seri.f64(p.time);
        seri.f64(p.capacity);
        seri.f64(p.meanIpc);
        seri.f64(p.hitRate);
        seri.f64(p.nvmBytesPerSecond);
    }

    if (llcConfig_.nvmWays > 0)
        map.snapshot(container.add("fmap"));
    if (llc.dueling() != nullptr)
        llc.dueling()->snapshot(container.add("duel"));

    // v2: stats and metric series ride along so a resumed run dumps and
    // exports exactly what an uninterrupted one would.
    stats_.snapshot(container.add("stat"));
    llc.stats().snapshot(container.add("lstat"));
    metrics_.snapshot(container.add("mtrc"));

    container.save(path, checkpointMagic, checkpointVersion);
}

std::size_t
ForecastEngine::loadCheckpoint(const std::string &path,
                               fault::FaultMap &map,
                               hybrid::HybridLlc &llc,
                               std::vector<ForecastPoint> &series,
                               Seconds &now)
{
    HLLC_FAILPOINT("forecast.checkpoint.load");
    const serial::Container container = serial::Container::load(
        path, checkpointMagic, checkpointVersion, checkpointVersion);

    serial::Decoder meta = container.open("meta");
    const std::uint32_t num_sets = meta.u32();
    const std::uint32_t sram_ways = meta.u32();
    const std::uint32_t nvm_ways = meta.u32();
    const std::uint32_t policy = meta.u32();
    if (num_sets != llcConfig_.numSets ||
        sram_ways != llcConfig_.sramWays ||
        nvm_ways != llcConfig_.nvmWays ||
        policy != static_cast<std::uint32_t>(llcConfig_.policy)) {
        throw IoError("checkpoint '" + path +
                      "' was taken for a different LLC configuration");
    }
    const std::uint64_t step = meta.u64();
    if (step > config_.maxSteps)
        throw IoError("checkpoint step index out of range");
    const Seconds saved_now = meta.f64();

    serial::Decoder seri = container.open("seri");
    const std::uint64_t count = seri.u64();
    if (count > config_.maxSteps || count * 40 > seri.remaining())
        throw IoError("checkpoint series count is implausible");
    std::vector<ForecastPoint> restored;
    restored.reserve(static_cast<std::size_t>(count));
    for (std::uint64_t i = 0; i < count; ++i) {
        ForecastPoint p;
        p.time = seri.f64();
        p.capacity = seri.f64();
        p.meanIpc = seri.f64();
        p.hitRate = seri.f64();
        p.nvmBytesPerSecond = seri.f64();
        restored.push_back(p);
    }

    // Mutations last: a throw above leaves the caller's state untouched,
    // and the subsystem restores below validate before they mutate.
    if (llcConfig_.nvmWays > 0) {
        serial::Decoder fmap = container.open("fmap");
        map.restore(fmap);
    }
    if (llc.dueling() != nullptr) {
        serial::Decoder duel = container.open("duel");
        llc.dueling()->restore(duel);
    }
    serial::Decoder stat = container.open("stat");
    stats_.restore(stat);
    serial::Decoder lstat = container.open("lstat");
    llc.stats().restore(lstat);
    serial::Decoder mtrc = container.open("mtrc");
    metrics_.restore(mtrc);
    series = std::move(restored);
    now = saved_now;
    return static_cast<std::size_t>(step);
}

std::vector<ForecastPoint>
ForecastEngine::run(const RunOptions &options)
{
    const auto make_rig = [&] {
        return hybrid::buildLlcRig(llcConfig_, endurance_,
                                   config_.wearDistribution);
    };
    hybrid::LlcRig rig = make_rig();

    std::vector<ForecastPoint> series;
    Seconds now = 0.0;
    std::size_t step0 = 0;

    // Start from clean observability state; a successful resume
    // overwrites it with the checkpointed series.
    metrics_.clear();
    stats_.resetAll();

    const bool checkpointing = !options.checkpointPath.empty();
    if (checkpointing && options.resume) {
        try {
            step0 = loadCheckpoint(options.checkpointPath, *rig.map,
                                   *rig.llc, series, now);
            debugLog("resumed '%s' at step %zu (t = %.3f months)",
                     options.checkpointPath.c_str(), step0,
                     now / secondsPerMonth);
        } catch (const IoError &e) {
            // A missing/corrupt/mismatched checkpoint must not kill the
            // run — and must not leave half-restored state behind.
            warn("cannot resume from '%s' (%s); restarting from scratch",
                 options.checkpointPath.c_str(), e.what());
            rig = make_rig();
            series.clear();
            metrics_.clear();
            stats_.resetAll();
            now = 0.0;
            step0 = 0;
        }
    }

    // The memo is not checkpointed: a resumed run starts with every set
    // stale, which gives the same bits as a warm memo.
    ForkJoin &tasks =
        options.tasks != nullptr ? *options.tasks : inlineForkJoin();
    std::unique_ptr<SetMemo> memo;
    if (llcConfig_.nvmWays > 0 && rig.llc->dueling() == nullptr) {
        memo = std::make_unique<SetMemo>(traces_.size() - 1, *rig.llc,
                                         *rig.map, tasks.width());
    }

    const std::size_t every = std::max<std::size_t>(
        options.checkpointEvery, 1);
    std::size_t executed = 0;

    for (std::size_t step = step0; step < config_.maxSteps; ++step) {
        // One stop path: a pending interrupt (checkpointed runs only),
        // a passed deadline or the step budget persists the state at
        // this boundary, then unwinds or returns.
        enum class Stop { None, Interrupt, Deadline, Budget };
        Stop stop = Stop::None;
        if (checkpointing && interruptRequested())
            stop = Stop::Interrupt;
        else if (std::chrono::steady_clock::now() >= options.deadline)
            stop = Stop::Deadline;
        else if (options.stopAfterSteps > 0 &&
                 executed >= options.stopAfterSteps)
            stop = Stop::Budget;
        if (stop != Stop::None) {
            if (checkpointing) {
                // The final save of an unwinding run is best-effort;
                // the budget stop's save is the run's result.
                try {
                    saveCheckpoint(options.checkpointPath, step, now,
                                   series, *rig.map, *rig.llc);
                } catch (const IoError &e) {
                    if (stop == Stop::Budget)
                        throw;
                    warn("final checkpoint '%s' failed: %s",
                         options.checkpointPath.c_str(), e.what());
                }
            }
            if (stop == Stop::Interrupt)
                throw InterruptedError();
            if (stop == Stop::Deadline) {
                throw DeadlineExceededError(
                    "forecast run passed its deadline at step " +
                    formatU64(step));
            }
            return series;
        }
        // A failing periodic save propagates: the user asked for crash
        // safety this run cannot deliver, which is a cell failure, not
        // a warning to scroll past.
        if (checkpointing && step != step0 && (step - step0) % every == 0) {
            saveCheckpoint(options.checkpointPath, step, now, series,
                           *rig.map, *rig.llc);
        }
        ++executed;

        rig.map->discardPending();
        Seconds window_seconds = 0.0;
        PhaseAggregate agg;
        series.push_back(
            simulatePhase(*rig.llc, *rig.map, memo.get(), tasks, now,
                          window_seconds, agg));
        ++stats_.counter("simulate_phases");
        samplePoint(step, series.back(), agg, *rig.llc, *rig.map);

        const ForecastPoint &point = series.back();
        if (point.capacity <= config_.capacityFloor ||
            now >= config_.maxTime || llcConfig_.nvmWays == 0 ||
            window_seconds <= 0.0) {
            break;
        }

        // Prediction phase: jump to the next interesting wear state.
        Seconds delta = chooseAgingStep(*rig.map, endurance_,
                                        window_seconds, config_.aging);
        delta = std::min(delta, config_.maxTime - now);
        if (delta <= 0.0)
            break;
        rig.map->age(delta / window_seconds);
        ++stats_.counter("predict_phases");
        stats_.histogram("aging_step_months", agingStepBuckets,
                         agingStepBucketMonths)
            .sample(delta / secondsPerMonth);
        now += delta;
    }
    return series;
}

double
ForecastEngine::lifetimeMonths(const std::vector<ForecastPoint> &series,
                               double capacity_floor)
{
    for (std::size_t i = 0; i < series.size(); ++i) {
        if (series[i].capacity > capacity_floor)
            continue;
        if (i == 0)
            return 0.0;
        const ForecastPoint &a = series[i - 1];
        const ForecastPoint &b = series[i];
        const double span = a.capacity - b.capacity;
        const double frac =
            span <= 0.0 ? 1.0 : (a.capacity - capacity_floor) / span;
        return a.months() + frac * (b.months() - a.months());
    }
    return series.empty() ? 0.0 : series.back().months();
}

double
ForecastEngine::initialIpc(const std::vector<ForecastPoint> &series)
{
    return series.empty() ? 0.0 : series.front().meanIpc;
}

} // namespace hllc::forecast
