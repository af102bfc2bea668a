/**
 * @file
 * The forecasting procedure (paper Sec. V-A, after [15]): alternate
 * simulation phases (trace replay against the current fault-map state)
 * with prediction phases (analytic wear application over a time jump)
 * to obtain the temporal evolution of performance and NVM capacity,
 * until the NVM part loses half its capacity (or a horizon is reached).
 *
 * Without Set Dueling, a simulation phase re-simulates only the LLC sets
 * whose NVM frame capacities changed since that set was last replayed;
 * the other sets reuse their cached tallies and pending wear (SetMemo,
 * DESIGN.md §6). The last mix of a phase always replays in full, so
 * the LLC's counters after a phase are those of a full replay. The
 * mixes of such a phase are independent given the fault map, so they
 * run as fork-join tasks (RunOptions::tasks), each on its own LLC and
 * into its own pending wear, folded into the map in mix order. Every
 * output is bit-identical to replaying every set of every mix in turn.
 */

#ifndef HLLC_FORECAST_FORECAST_HH
#define HLLC_FORECAST_FORECAST_HH

#include <chrono>
#include <string>
#include <vector>

#include "common/metrics.hh"
#include "common/stats.hh"
#include "common/thread_pool.hh"
#include "fault/endurance.hh"
#include "forecast/aging.hh"
#include "hierarchy/timing.hh"
#include "hybrid/hybrid_llc.hh"
#include "replay/llc_trace.hh"
#include "replay/replayer.hh"

namespace hllc::forecast
{

/** Forecast controls. */
struct ForecastConfig
{
    /** Stop once NVM effective capacity falls to this fraction. */
    double capacityFloor = 0.5;
    /** Hard horizon. */
    Seconds maxTime = 120.0 * secondsPerMonth;
    /** Safety valve on the simulate/predict loop. */
    std::size_t maxSteps = 400;
    /** Warm-up fraction of each replayed trace. */
    double warmupFraction = 0.2;
    AgingStepConfig aging;
    /** Intra-frame wear model (ablation; the paper assumes Leveled). */
    fault::WearDistribution wearDistribution =
        fault::WearDistribution::Leveled;
};

/**
 * Crash-safety controls of one engine run. With a checkpoint path set,
 * the simulate/predict loop persists its complete state (fault map,
 * Set Dueling, time, step index, accumulated series) to that file at
 * every checkpoint boundary via the atomic CRC-checked container of
 * common/serialize.hh, and a pending SIGINT/SIGTERM triggers a final
 * checkpoint before the run unwinds with InterruptedError. Resuming
 * from a checkpoint is byte-identical to never having stopped; a
 * corrupt or mismatched checkpoint is rejected by CRC/validation and
 * the run restarts from scratch with a warning.
 */
struct RunOptions
{
    /** Checkpoint file; empty disables checkpointing. */
    std::string checkpointPath;
    /** Steps between checkpoints (minimum 1). */
    std::size_t checkpointEvery = 1;
    /** Restore from checkpointPath when it holds a valid snapshot. */
    bool resume = false;
    /**
     * Stop (with a checkpoint) after this many simulation phases in
     * this invocation; 0 = run to completion. Used by kill/resume
     * tests and time-budgeted batch runs.
     */
    std::size_t stopAfterSteps = 0;
    /**
     * Time limit of this invocation (the grid's --cell-timeout-ms);
     * max() means none. A step boundary reached at or after it writes
     * a final checkpoint (when checkpointing) and unwinds with
     * DeadlineExceededError, exactly like the interrupt path but
     * per-run instead of process-wide.
     */
    std::chrono::steady_clock::time_point deadline =
        std::chrono::steady_clock::time_point::max();
    /**
     * Runs the mix tasks of a simulation phase of an LLC with NVM ways
     * and no Set Dueling (the forecast grid hands its scheduler's);
     * null runs them inline in mix order. Any width gives the same
     * bits.
     */
    ForkJoin *tasks = nullptr;
};

/** One sample of the forecast output. */
struct ForecastPoint
{
    Seconds time = 0.0;
    double capacity = 1.0;      //!< NVM live-byte fraction
    double meanIpc = 0.0;       //!< arithmetic mean over mixes and cores
    double hitRate = 0.0;       //!< LLC demand hit rate over all mixes
    double nvmBytesPerSecond = 0.0;

    double months() const { return time / secondsPerMonth; }
};

/** Aggregate of one simulation phase over a set of traces. */
struct PhaseAggregate
{
    double meanIpc = 0.0;
    double hitRate = 0.0;
    std::uint64_t demandHits = 0;
    std::uint64_t demandAccesses = 0;
    std::uint64_t nvmBytesWritten = 0;
    /** Post-warm-up wall-clock span the phase represents. */
    Seconds measuredSeconds = 0.0;
};

/**
 * Replay every trace in @p traces against @p llc and aggregate hit rate,
 * NVM bytes written and the timing-model IPC (mean over mixes and
 * cores). Wear is recorded in the LLC's fault map as a side effect.
 *
 * With @p on_interval set, each trace's measured window is split into
 * @p num_intervals ranges and the callback fires at every boundary (see
 * replay::TraceReplayer::replay) — the observability hook behind
 * per-interval series exports.
 */
PhaseAggregate
replayAllTraces(const std::vector<const replay::LlcTrace *> &traces,
                hybrid::HybridLlc &llc,
                const hierarchy::TimingParams &timing,
                double warmup_fraction,
                const replay::TraceReplayer::IntervalCallback
                    &on_interval = nullptr,
                std::size_t num_intervals = 0);

/** Per-(mix, set) replay memo of one ForecastEngine::run(). */
class SetMemo;

class ForecastEngine
{
  public:
    /**
     * @param endurance shared per-byte limits (same fabric across the
     *        policies being compared)
     * @param llc_config LLC geometry + policy under forecast
     * @param traces the workload's captured mixes (all replayed each
     *        simulation phase)
     * @param timing latency model for the IPC estimate
     */
    ForecastEngine(const fault::EnduranceModel &endurance,
                   const hybrid::HybridLlcConfig &llc_config,
                   std::vector<const replay::LlcTrace *> traces,
                   const hierarchy::TimingParams &timing,
                   const ForecastConfig &config);

    /** Run the simulate/predict loop; returns the time series. */
    std::vector<ForecastPoint> run() { return run(RunOptions{}); }

    /**
     * Run with crash-safety options. Returns the full time series (on
     * resume: restored points plus newly simulated ones). Throws
     * InterruptedError after writing a final checkpoint when a
     * SIGINT/SIGTERM flag is pending at a step boundary.
     */
    std::vector<ForecastPoint> run(const RunOptions &options);

    /**
     * Months at which @p series crosses @p capacity_floor (linear
     * interpolation); the horizon of the series if it never does.
     */
    static double lifetimeMonths(const std::vector<ForecastPoint> &series,
                                 double capacity_floor);

    /** Mean IPC of the series' first point (fresh-cache performance). */
    static double initialIpc(const std::vector<ForecastPoint> &series);

    /**
     * Per-step time series sampled by run() (step index, capacity, IPC,
     * hit rate, NVM write traffic, CPth winner, live-frame fraction and
     * the per-frame live-byte histogram). Snapshot/restored through the
     * checkpoint, so a resumed run exports the same series as an
     * uninterrupted one. Valid after run() returns or throws.
     */
    const metrics::MetricRegistry &metrics() const { return metrics_; }

    /** Engine-level stats (phase counts, aging-step histogram). */
    const StatGroup &stats() const { return stats_; }

  private:
    /**
     * One simulation phase; returns the sampled point (capacity at t).
     * With @p memo set, the mixes run as @p tasks and re-simulate only
     * the sets whose NVM frames changed since their last replay (same
     * bits as a full replay).
     */
    ForecastPoint simulatePhase(hybrid::HybridLlc &llc,
                                fault::FaultMap &map, SetMemo *memo,
                                ForkJoin &tasks, Seconds now,
                                Seconds &window_seconds,
                                PhaseAggregate &agg_out);

    /** Append one forecast step's observability samples to metrics_. */
    void samplePoint(std::size_t step, const ForecastPoint &point,
                     const PhaseAggregate &agg,
                     const hybrid::HybridLlc &llc,
                     const fault::FaultMap &map);

    /** Persist the loop state at a step boundary (atomic container). */
    void saveCheckpoint(const std::string &path, std::size_t step,
                        Seconds now,
                        const std::vector<ForecastPoint> &series,
                        const fault::FaultMap &map,
                        const hybrid::HybridLlc &llc) const;

    /**
     * Restore loop state from @p path; returns the step index to resume
     * at. Throws IoError on corruption or configuration mismatch — the
     * caller rebuilds fresh state in that case. Restores metrics_ and
     * stats_ along with the simulation state.
     */
    std::size_t loadCheckpoint(const std::string &path,
                               fault::FaultMap &map,
                               hybrid::HybridLlc &llc,
                               std::vector<ForecastPoint> &series,
                               Seconds &now);

    const fault::EnduranceModel &endurance_;
    hybrid::HybridLlcConfig llcConfig_;
    std::vector<const replay::LlcTrace *> traces_;
    hierarchy::TimingParams timing_;
    ForecastConfig config_;
    metrics::MetricRegistry metrics_;
    StatGroup stats_;
};

} // namespace hllc::forecast

#endif // HLLC_FORECAST_FORECAST_HH
