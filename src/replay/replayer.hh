/**
 * @file
 * Fast trace-driven LLC simulation (the HyCSim analogue, paper Sec. V-A).
 *
 * Replays a captured LLC trace against a HybridLlc instance, with an
 * optional warm-up prefix excluded from statistics, and returns per-core
 * outcome counts plus an LLC stats snapshot. The replayer never touches
 * the fault map's wear directly: the LLC records byte writes against it,
 * and the forecast layer decides how to age them.
 *
 * A replay can be restricted to a subset of the LLC's sets (SetFilter):
 * the events of the other sets are skipped, and the measured window is
 * tallied per set. Without Set Dueling the sets of one replay never
 * interact (the replay starts from an empty LLC, reuse tags are keyed
 * per block, Fit-LRU compares stamps within a set), so a set's tally
 * and wear depend only on its own events and its frames' capacities.
 * The forecast's memo replays only the sets whose frames changed and
 * reuses the tallies of the rest.
 */

#ifndef HLLC_REPLAY_REPLAYER_HH
#define HLLC_REPLAY_REPLAYER_HH

#include <array>
#include <cstdint>
#include <functional>
#include <vector>

#include "hybrid/hybrid_llc.hh"
#include "replay/llc_trace.hh"

namespace hllc::replay
{

/** Measured-window outcome counts of one core. */
struct CoreOutcome
{
    std::uint64_t llcHitsSram = 0;
    std::uint64_t llcHitsNvm = 0;
    std::uint64_t llcMisses = 0;
    std::uint64_t nvmWrites = 0;   //!< NVM block writes from this core

    bool operator==(const CoreOutcome &) const = default;
};

/** Result of replaying one trace against one LLC configuration. */
struct ReplayResult
{
    std::array<CoreOutcome, traceCores> cores;
    std::uint64_t measuredEvents = 0;  //!< events after warm-up
    std::uint64_t demandAccesses = 0;  //!< GetS + GetX after warm-up
    std::uint64_t demandHits = 0;
    std::uint64_t nvmBytesWritten = 0; //!< post-warm-up NVM byte writes
    double hitRate = 0.0;

    /** Fraction of the trace treated as warm-up. */
    double warmupFraction = 0.0;
};

/** Measured-window tallies of one LLC set. */
struct SetTally
{
    std::array<CoreOutcome, traceCores> cores;
    std::uint64_t measuredEvents = 0;
    std::uint64_t nvmBytesWritten = 0;

    bool operator==(const SetTally &) const = default;
};

/** Add @p tally to @p result (demand counts, bytes, hit rate). */
void addTally(ReplayResult &result, const SetTally &tally);

/**
 * Restricts one replay to some LLC sets; only for an LLC without Set
 * Dueling (the duel couples sets through its winner).
 */
struct SetFilter
{
    /** Per set: nonzero = replay the set's events, zero = skip them. */
    std::vector<std::uint8_t> replaySet;
    /** Out: per-set tallies of the replayed sets (others untouched). */
    std::vector<SetTally> tallies;
};

/**
 * Cumulative measured-window state at one interval boundary of a replay
 * (observability export: per-interval IPC/hit-rate/NVM-write series).
 * All values count from the end of warm-up up to the boundary, so the
 * caller derives per-interval values by differencing consecutive
 * snapshots. Purely a function of the trace and the LLC configuration —
 * never of wall clock — so emitted series are deterministic.
 */
struct IntervalSnapshot
{
    std::size_t interval = 0;          //!< 0-based interval index
    std::uint64_t measuredEvents = 0;  //!< events since warm-up end
    std::uint64_t demandAccesses = 0;
    std::uint64_t demandHits = 0;
    std::uint64_t nvmWrites = 0;
    std::uint64_t nvmBytesWritten = 0;
};

class TraceReplayer
{
  public:
    /** Observer invoked at each interval boundary during replay(). */
    using IntervalCallback = std::function<void(const IntervalSnapshot &)>;

    /**
     * @param warmup_fraction prefix of the trace replayed but excluded
     *        from the returned statistics
     */
    explicit TraceReplayer(double warmup_fraction = 0.2);

    /**
     * Replay @p trace against @p llc. Resets the LLC's contents and stats
     * first (dueling state and fault-map wear persist). Wear recorded in
     * the fault map covers the whole replay including warm-up.
     *
     * When @p on_interval is set, the measured window is split into
     * @p num_intervals equal event ranges and the callback fires once at
     * the end of each with cumulative counts (the last snapshot equals
     * the replay totals).
     *
     * When @p sets is set, only the events of the sets it selects are
     * replayed (the warm-up boundary stays at the same event index), the
     * result covers those events only, and each replayed set's tally is
     * rewritten in @p sets->tallies (sized to the LLC's sets on demand).
     */
    ReplayResult replay(const LlcTrace &trace, hybrid::HybridLlc &llc,
                        const IntervalCallback &on_interval = nullptr,
                        std::size_t num_intervals = 0,
                        SetFilter *sets = nullptr) const;

  private:
    double warmupFraction_;
};

} // namespace hllc::replay

#endif // HLLC_REPLAY_REPLAYER_HH
