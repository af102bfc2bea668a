/**
 * @file
 * Set Dueling machinery for runtime CPth selection (paper Sec. IV-C/D).
 *
 * Each candidate CPth value owns a leader group of floor(numSets/32)
 * sample sets (sets whose index modulo 32 equals the candidate's rank);
 * all remaining sets — including any trailing partial stripe when
 * numSets is not a multiple of 32, so every leader group has the same
 * size — follow the winning candidate. Leader groups accumulate LLC hits and
 * NVM bytes written; at every epoch boundary (2M cycles by default) the
 * winner is recomputed:
 *
 *  - CP_SD (th == 0): the candidate with the most hits wins.
 *  - CP_SD_Th: starting from the max-hits candidate i, the smallest
 *    candidate j satisfying  H(j) > H(i)*(1 - Th/100)  and
 *    W(j) < W(i)*(1 - Tw/100)  wins (Eq. (1)); if none qualifies, i wins.
 */

#ifndef HLLC_HYBRID_SET_DUELING_HH
#define HLLC_HYBRID_SET_DUELING_HH

#include <cstdint>
#include <vector>

#include "common/types.hh"

namespace hllc::serial
{
class Encoder;
class Decoder;
} // namespace hllc::serial

namespace hllc::hybrid
{

/**
 * Sets are striped over 32 dueling slots (paper: groups of N/32 sets),
 * so an LLC with Set Dueling needs at least this many sets.
 */
inline constexpr std::uint32_t duelingSlots = 32;

class SetDueling
{
  public:
    /**
     * @param num_sets LLC sets (leader groups are sets mod 32 within
     *        the full stripes; a trailing partial stripe follows)
     * @param candidates CPth values to duel, ascending
     * @param epoch_cycles epoch length
     * @param th_percent hits we are willing to sacrifice (Th); 0 = CP_SD
     * @param tw_percent minimum NVM-bytes-written reduction (Tw)
     */
    SetDueling(std::uint32_t num_sets,
               std::vector<unsigned> candidates,
               Cycle epoch_cycles,
               double th_percent,
               double tw_percent);

    /**
     * Leader-group index of @p set, or -1 for follower sets. The mapping
     * is fixed at construction, so it is precomputed into a flat per-set
     * table: cpthForSet()/recordHit()/recordNvmBytes() run for every
     * demand access and must be one load plus one branch.
     */
    int leaderGroup(std::uint32_t set) const { return groupOf_[set]; }

    /** CPth this set applies right now. */
    unsigned
    cpthForSet(std::uint32_t set) const
    {
        const int group = groupOf_[set];
        return group < 0 ? winner_
                         : candidates_[static_cast<std::size_t>(group)];
    }

    /** Currently winning CPth (what follower sets use). */
    unsigned winner() const { return winner_; }

    /** Record an LLC hit in @p set (leaders only accumulate). */
    void
    recordHit(std::uint32_t set)
    {
        const int group = groupOf_[set];
        if (group >= 0)
            ++hits_[static_cast<std::size_t>(group)];
    }

    /** Record @p bytes written to the NVM part in @p set. */
    void
    recordNvmBytes(std::uint32_t set, unsigned bytes)
    {
        const int group = groupOf_[set];
        if (group >= 0)
            bytes_[static_cast<std::size_t>(group)] += bytes;
    }

    /**
     * Advance the epoch clock by @p cycles; recomputes the winner at each
     * epoch boundary. @return true if an epoch boundary was crossed.
     */
    bool
    tick(Cycle cycles)
    {
        clock_ += cycles;
        if (clock_ < epochCycles_)
            return false;
        do {
            clock_ -= epochCycles_;
            closeEpoch();
        } while (clock_ >= epochCycles_);
        return true;
    }

    /** Epochs completed so far. */
    std::uint64_t epochsCompleted() const { return epochs_; }

    const std::vector<unsigned> &candidates() const { return candidates_; }

    /** Per-candidate hits of the current (unfinished) epoch. */
    const std::vector<std::uint64_t> &epochHits() const { return hits_; }
    /** Per-candidate NVM bytes written of the current epoch. */
    const std::vector<std::uint64_t> &epochBytes() const { return bytes_; }

    /** Force an epoch boundary immediately (tests / epoch studies). */
    void closeEpoch();

    /**
     * Per-epoch winners (epochs with no hits are skipped): the basis of
     * the paper's optimal-CPth distribution study (Fig. 8).
     */
    const std::vector<unsigned> &winnerHistory() const
    {
        return winnerHistory_;
    }

    /**
     * Serialise the mutable dueling state (winner, epoch clock, current
     * epoch's per-candidate accumulators, winner history). Candidates
     * and thresholds are configuration and are not stored.
     */
    void snapshot(serial::Encoder &enc) const;

    /**
     * Restore state written by snapshot() into an instance configured
     * with the same candidate list; throws IoError on mismatch.
     */
    void restore(serial::Decoder &dec);

  private:
    std::vector<unsigned> candidates_;
    Cycle epochCycles_;
    double th_;
    double tw_;

    /** Per-set leader-group index (-1 = follower), fixed at construction. */
    std::vector<std::int8_t> groupOf_;

    unsigned winner_;
    Cycle clock_ = 0;
    std::uint64_t epochs_ = 0;
    std::vector<std::uint64_t> hits_;
    std::vector<std::uint64_t> bytes_;
    std::vector<unsigned> winnerHistory_;
};

} // namespace hllc::hybrid

#endif // HLLC_HYBRID_SET_DUELING_HH
