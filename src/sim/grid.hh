/**
 * @file
 * Parallel experiment grids.
 *
 * The paper's evaluation is an embarrassingly parallel policy×mix grid:
 * every bench driver forecasts or replays a handful of independent LLC
 * configurations over the captured mixes. Both grids run on runJobs()
 * (common/thread_pool.hh): runGrid() through parallelFor (index order),
 * the forecast grid directly (longest cell first, mix tasks helped by
 * idle workers). Either keeps the results — and therefore every stats
 * dump — byte-identical to the serial run:
 *
 *  - results are collected into pre-sized slots in entry order, so
 *    output ordering never depends on dispatch or completion order;
 *  - any cell randomness is keyed on the cell index, derived with
 *    childStream(seed, mix, policy) (see common/rng.hh), never from
 *    thread id or submission order;
 *  - jobs == 1 runs the cells inline in entry order (the serial
 *    reference path).
 *
 * The jobs knob resolves, in order: explicit argument > --jobs N on the
 * command line (parseBenchArgs) > HLLC_JOBS environment variable >
 * hardware_concurrency.
 */

#ifndef HLLC_SIM_GRID_HH
#define HLLC_SIM_GRID_HH

#include <cstddef>
#include <string>
#include <type_traits>
#include <vector>

#include "common/thread_pool.hh"
#include "sim/experiment.hh"

namespace hllc::sim
{

/** Resolve a jobs knob: 0 means "auto" (HLLC_JOBS, else hardware). */
unsigned resolveJobs(unsigned jobs);

/** The flag groups one bench/tool command line accepts. */
struct FlagGroups
{
    bool jobs = false;       //!< --jobs N / -j N
    bool statsOut = false;   //!< --stats-out FILE.{json,csv}
    bool checkpoint = false; //!< --checkpoint-dir/-every, --resume
    bool resilience = false; //!< --retr*, --cell-timeout-ms, --failures-out
};

/** Every flag group: what the Fig. 10/11 forecast benches accept. */
inline constexpr FlagGroups allFlagGroups{ true, true, true, true };

/** A bench/tool command line, parsed once by parseBenchArgs(). */
struct BenchArgs
{
    unsigned jobs = 0;            //!< 0 = auto (see resolveJobs)
    std::string statsOut;         //!< stats export path; "" = none
    CheckpointOptions checkpoint; //!< crash safety; off by default
    ResilienceOptions resilience; //!< retry/deadline; off by default
    std::string usage;            //!< "usage: prog <positional> [flags]"
};

/**
 * Parse argv[first, argc) as flags of the @p accepted groups; argv[1,
 * first) are the positionals @p positional describes in the usage line.
 * One client of hllc::ArgParser (common/argparse.hh). Each of these is
 * a usage error (usageError(): message, usage text, exit 2) reported
 * before any simulation starts: an unknown flag, a flag of a group not
 * accepted, a stray positional, a missing value, a repeated flag, a
 * malformed or out-of-range value (a --stats-out path must end in .json
 * or .csv, a --failures-out path in .json), and --resume without
 * --checkpoint-dir. --retries counts *retries*, so
 * N=2 means up to three attempts per cell.
 */
BenchArgs parseBenchArgs(int argc, char **argv, FlagGroups accepted,
                         int first = 1, const char *positional = "");

/**
 * Checkpoint file of grid cell @p index labelled @p label under the
 * options' directory ("DIR/cell<i>_<label>.ckpt", label sanitised to
 * filename-safe characters).
 */
std::string checkpointCellPath(const CheckpointOptions &checkpoint,
                               std::size_t index,
                               const std::string &label);

/**
 * Evaluate @p cell(0) .. @p cell(cells - 1) on @p jobs workers and
 * return the results in cell-index order. The cell callable must not
 * depend on shared mutable state; randomness must be keyed on the cell
 * index (childStream), so the returned vector is identical for any
 * jobs value.
 */
template <typename Fn>
auto
runGrid(std::size_t cells, Fn &&cell, unsigned jobs = 0)
    -> std::vector<std::invoke_result_t<Fn &, std::size_t>>
{
    using Result = std::invoke_result_t<Fn &, std::size_t>;
    std::vector<Result> results(cells);
    parallelFor(resolveJobs(jobs), cells,
                [&](std::size_t i) { results[i] = cell(i); });
    return results;
}

/** Sentinel mix index: replay all captured mixes in a phase cell. */
inline constexpr std::size_t allMixes = static_cast<std::size_t>(-1);

/** One cell of a policy×mix (or policy×capacity) replay-phase grid. */
struct PhaseCell
{
    std::string label;
    hybrid::HybridLlcConfig llc;
    double capacity = 1.0;        //!< NVM effective capacity in (0, 1]
    std::size_t mix = allMixes;   //!< one mix index, or all mixes
};

/**
 * Forecast every entry of @p entries (each over all captured mixes) on
 * @p jobs workers: runJobs() starts the longest expected cells first
 * (entry order when serial), and a cell without Set Dueling runs the mixes of each
 * simulation phase as tasks that idle workers help with. With crash
 * containment: every cell checkpoints under @p checkpoint (when
 * enabled), a throwing cell (or mix task) is reported as failed while
 * the other cells complete, and a pending SIGINT/SIGTERM (see
 * common/interrupt.hh) marks the outcome interrupted after each running
 * cell has written its final checkpoint at a step boundary. Results
 * keep entry order, so the output stays byte-identical for any jobs
 * value.
 *
 * @p resilience adds self-healing on top (see sim/resilience.hh):
 * failing cells retry up to their attempt budget (resuming from their
 * checkpoint when checkpointing is on, which is byte-identical to never
 * having failed), an attempt that passes its cellTimeoutMs deadline
 * stops at its next step boundary, and every cell's outcome is
 * recorded in ForecastGridOutcome::reports (written to
 * resilience.failuresOut as hllc-failures-v1 when set). Throws IoError
 * when the checkpoint directory cannot be created.
 */
ForecastGridOutcome
runForecastGridCheckpointed(const Experiment &experiment,
                            const std::vector<StudyEntry> &entries,
                            const forecast::ForecastConfig &fc = {},
                            const CheckpointOptions &checkpoint = {},
                            const ResilienceOptions &resilience = {},
                            unsigned jobs = 0);

/**
 * Replay every phase cell of @p cells in parallel; results are in cell
 * order, identical to calling Experiment::runPhase serially.
 */
std::vector<PhaseSummary>
runPhaseGrid(const Experiment &experiment,
             const std::vector<PhaseCell> &cells,
             unsigned jobs = 0);

} // namespace hllc::sim

#endif // HLLC_SIM_GRID_HH
