/**
 * @file
 * Shared experiment plumbing for the bench harnesses: one-time trace
 * capture of the Table V mixes, forecast wrappers, single-phase replay
 * studies (with optionally pre-degraded NVM capacity), and uniform
 * printing of configuration headers and result rows.
 */

#ifndef HLLC_SIM_EXPERIMENT_HH
#define HLLC_SIM_EXPERIMENT_HH

#include <map>
#include <mutex>
#include <string>
#include <vector>

#include "common/metrics.hh"
#include "forecast/forecast.hh"
#include "sim/config.hh"
#include "sim/resilience.hh"

namespace hllc::sim
{

/** Result of a policy forecast, ready for printing. */
struct ForecastSummary
{
    std::string label;
    std::vector<forecast::ForecastPoint> series;
    double lifetimeMonths = 0.0;  //!< months to 50% NVM capacity
    double initialIpc = 0.0;
    /** Per-step observability series (see ForecastEngine::metrics()). */
    metrics::MetricRegistry metrics;
    /** Engine counters (phase counts), in name order. */
    std::vector<std::pair<std::string, std::uint64_t>> counters;
};

/**
 * Crash-safety knobs of a checkpointed forecast grid (CLI surface:
 * --checkpoint-dir DIR, --checkpoint-every N, --resume; parsed by
 * sim::parseBenchArgs). With a directory set, every grid cell
 * checkpoints its forecast state to "DIR/cell<i>_<label>.ckpt" and a
 * SIGINT/SIGTERM is turned into a final checkpoint plus a clean
 * non-zero exit instead of lost work.
 */
struct CheckpointOptions
{
    std::string dir;          //!< empty disables checkpointing
    std::size_t every = 1;    //!< forecast steps between checkpoints
    bool resume = false;      //!< restore cells from existing checkpoints

    bool enabled() const { return !dir.empty(); }
};

/** Everything a checkpointed forecast grid produced. */
struct ForecastGridOutcome
{
    /** Successful cells, in entry order (failed cells are absent). */
    std::vector<ForecastSummary> summaries;
    /**
     * Per-cell reports in entry order (every cell, including clean
     * ones): attempts, outcome, error, fired failpoints — the rows of
     * the hllc-failures-v1 report.
     */
    std::vector<CellReport> reports;
    /** True when a SIGINT/SIGTERM stopped the grid mid-run. */
    bool interrupted = false;

    /** No cell failed and no signal stopped the grid. */
    bool ok() const;
    /** 0 on success, 1 on cell failures, 128+signal when interrupted. */
    int exitCode() const;
};

/** Result of a single (no-aging) replay phase. */
struct PhaseSummary
{
    std::string label;
    forecast::PhaseAggregate aggregate;
    /** Per-epoch max-hits CPth winners (Set Dueling policies only). */
    std::vector<unsigned> winnerHistory;
    /**
     * Observability export: the winner history as the series
     * "cpth_winner_history" (one sample per dueling epoch).
     */
    metrics::MetricRegistry metrics;
    /** The replayed LLC's counters, in name order. */
    std::vector<std::pair<std::string, std::uint64_t>> counters;
};

class Experiment
{
  public:
    /**
     * Capture the LLC traces of the first @p num_mixes Table V mixes at
     * @p config's scale (logged, as capture dominates start-up time).
     * Mixes capture in parallel on config.jobs workers; every mix draws
     * its workload stream from childSeed(config.seed, mix index), so the
     * traces are bit-identical regardless of the jobs value.
     */
    explicit Experiment(SystemConfig config, std::size_t num_mixes = 10);

    /**
     * Adopt pre-captured traces instead of capturing (trace-cache
     * workflows, e.g. tools/hllc_torture reloading .hlt files across
     * process respawns). The traces must have been captured under the
     * same @p config for results to be comparable.
     */
    Experiment(SystemConfig config,
               std::vector<replay::LlcTrace> traces);

    const SystemConfig &config() const { return config_; }
    const std::vector<replay::LlcTrace> &traces() const { return traces_; }
    std::vector<const replay::LlcTrace *> tracePtrs() const;
    /** Traces restricted to one mix (per-mix studies, Fig. 8b). */
    std::vector<const replay::LlcTrace *> tracePtr(std::size_t mix) const;

    /** Deterministic endurance fabric for @p llc geometry. */
    fault::EnduranceModel
    makeEndurance(const hybrid::HybridLlcConfig &llc) const;

    /**
     * Forecast @p llc until 50% NVM capacity. @p run_options carries the
     * crash-safety knobs (checkpoint path/cadence/resume); the default
     * runs unchecked. Throws InterruptedError (after writing a final
     * checkpoint) when a termination signal arrives at a step boundary
     * of a checkpointed run.
     */
    ForecastSummary
    runForecast(const hybrid::HybridLlcConfig &llc, std::string label,
                forecast::ForecastConfig fc = {},
                const forecast::RunOptions &run_options = {}) const;

    /**
     * One replay phase at a fixed NVM capacity (no aging): the Fig. 6/7/9
     * hit-rate and bytes-written studies.
     *
     * @param capacity target NVM effective capacity in (0, 1]; bytes are
     *        disabled uniformly at random to reach it (what intra-frame
     *        wear leveling converges to)
     * @param traces defaults to all mixes when empty
     */
    PhaseSummary
    runPhase(const hybrid::HybridLlcConfig &llc, std::string label,
             double capacity = 1.0,
             std::vector<const replay::LlcTrace *> traces = {}) const;

    /**
     * Mean IPC of the 16-way SRAM upper bound (normalisation basis):
     * sramBoundIpc() of all sramWays + nvmWays ways.
     */
    double upperBoundIpc() const;

    /**
     * Mean IPC over every mix of an all-SRAM LLC with @p ways ways (the
     * bounds of the forecast studies). Replayed once per way count on
     * first use; safe to call from parallel grid cells.
     */
    double sramBoundIpc(std::uint32_t ways) const;

  private:
    SystemConfig config_;
    std::vector<replay::LlcTrace> traces_;
    mutable std::mutex sramBoundsMutex_;
    mutable std::map<std::uint32_t, double> sramBoundIpc_;
};

/**
 * Disable uniformly-random live bytes of @p map until its effective
 * capacity is at most @p capacity. Deterministic in @p seed.
 */
void degradeUniform(fault::FaultMap &map, double capacity,
                    std::uint64_t seed);

/** Print the Table IV configuration banner for a bench binary. */
void printConfigHeader(const SystemConfig &config,
                       const std::string &experiment);

/** A labelled LLC configuration entering a forecast study. */
struct StudyEntry
{
    std::string label;
    hybrid::HybridLlcConfig llc;
};

/**
 * The entry of policy @p kind with @p params at @p config's geometry,
 * labelled with its policyTable name plus, for CP_SD_Th, the Th percent
 * ("CP_SD_Th4").
 */
StudyEntry studyEntry(const SystemConfig &config, hybrid::PolicyKind kind,
                      const hybrid::PolicyParams &params = {});

/**
 * Run the Fig. 1 / Fig. 10-11 methodology: forecast every entry until
 * 50% NVM capacity, print each IPC/capacity time series (normalised to
 * the 16-way SRAM upper bound) and a summary table with lifetimes in
 * simulated and full-scale months plus the x-factor over the first
 * entry (conventionally BH).
 *
 * With @p checkpoint enabled, interrupt handlers are installed and every
 * cell checkpoints at its cadence; an interrupt suppresses the result
 * tables (the partial grid would not be the study) and the process
 * should exit with the returned code. Cells that throw are reported to
 * stderr per cell while the remaining cells complete.
 *
 * With @p stats_out set, the full study (per-cell scalar summary,
 * engine counters, and every per-step series including the wear
 * histogram) is additionally written to that .json/.csv file in the
 * "hllc-stats-v1" schema. Exported values are pure functions of the
 * simulated state, so a resumed run writes a byte-identical file to an
 * uninterrupted one. Nothing is exported on interrupt.
 *
 * With @p resilience configured (CLI: sim::parseBenchArgs), failing
 * cells retry with deterministic backoff and quarantine after their
 * attempt budget, a cell attempt that passes its deadline stops at its
 * next step boundary, and the per-cell hllc-failures-v1 report lands
 * at resilience.failuresOut — see sim/resilience.hh.
 *
 * @return the process exit code: 0 clean, 1 if any cell failed or the
 *         checkpoint directory cannot be created (reported on stderr),
 *         128+signal when interrupted (see ForecastGridOutcome).
 */
int runAndPrintForecastStudy(const Experiment &experiment,
                             const std::vector<StudyEntry> &entries,
                             const forecast::ForecastConfig &fc = {},
                             const CheckpointOptions &checkpoint = {},
                             const std::string &stats_out = {},
                             const ResilienceOptions &resilience = {});

/**
 * Write a "hllc-stats-v1" stats file for a replay-phase study (the
 * Fig. 6-9 benches): per-cell hit rate, mean IPC, NVM write traffic
 * and the CPth winner-history series. No-op when @p stats_out is empty.
 */
void exportPhaseStudy(const std::string &stats_out,
                      const std::string &experiment_name,
                      const std::vector<PhaseSummary> &summaries);

/**
 * Format a number with fixed decimals. Locale-independent
 * (std::to_chars): a de_DE setlocale() cannot turn the decimal point
 * into a comma in bench output.
 */
std::string fmt(double value, int decimals = 3);

} // namespace hllc::sim

#endif // HLLC_SIM_EXPERIMENT_HH
