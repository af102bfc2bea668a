/**
 * @file
 * True-LRU recency tracking shared by the private caches and the LLC.
 *
 * Recency is kept as a monotonically increasing per-line timestamp; with
 * at most 16 ways a victim scan is cheaper and simpler than maintaining
 * linked stacks, and it makes constrained victim searches (Fit-LRU over
 * frames with enough effective capacity, paper Sec. III-B1) trivial.
 *
 * The victim scans are templates over the eligibility predicate so the
 * per-access replacement path never goes through a std::function (the
 * predicate inlines into the scan loop). lruWay() picks the private
 * caches' victims on the capture path and mruWay() LHybrid's SRAM
 * loop-block on the replay path; the hybrid LLC's own Fit-LRU victim
 * search (HybridLlc::victimWay) reads stamp() in its single scan.
 */

#ifndef HLLC_CACHE_LRU_HH
#define HLLC_CACHE_LRU_HH

#include <cstdint>
#include <vector>

#include "common/logging.hh"

namespace hllc::cache
{

class LruState
{
  public:
    LruState(std::uint32_t num_sets, std::uint32_t num_ways)
        : numSets_(num_sets), numWays_(num_ways),
          stamps_(static_cast<std::size_t>(num_sets) * num_ways, 0)
    {
        HLLC_ASSERT(num_sets > 0 && num_ways > 0);
    }

    /** Mark (set, way) most recently used. */
    void
    touch(std::uint32_t set, std::uint32_t way)
    {
        HLLC_ASSERT(set < numSets_ && way < numWays_);
        stamps_[static_cast<std::size_t>(set) * numWays_ + way] = ++clock_;
    }

    /** Timestamp of (set, way); larger = more recent. 0 = never used. */
    std::uint64_t
    stamp(std::uint32_t set, std::uint32_t way) const
    {
        HLLC_ASSERT(set < numSets_ && way < numWays_);
        return stamps_[static_cast<std::size_t>(set) * numWays_ + way];
    }

    /**
     * Least recently used way of @p set among ways in [begin, end) that
     * satisfy @p eligible. Returns -1 when no way is eligible.
     */
    template <typename Pred>
    int
    lruWay(std::uint32_t set, std::uint32_t begin, std::uint32_t end,
           const Pred &eligible) const
    {
        HLLC_ASSERT(set < numSets_ && begin <= end && end <= numWays_);
        const std::uint64_t *row =
            stamps_.data() + static_cast<std::size_t>(set) * numWays_;
        int best = -1;
        std::uint64_t best_stamp = 0;
        for (std::uint32_t w = begin; w < end; ++w) {
            if (!eligible(w))
                continue;
            const std::uint64_t s = row[w];
            if (best == -1 || s < best_stamp) {
                best = static_cast<int>(w);
                best_stamp = s;
            }
        }
        return best;
    }

    /**
     * Most recently used way of @p set among ways in [begin, end) that
     * satisfy @p eligible. Returns -1 when no way is eligible.
     */
    template <typename Pred>
    int
    mruWay(std::uint32_t set, std::uint32_t begin, std::uint32_t end,
           const Pred &eligible) const
    {
        HLLC_ASSERT(set < numSets_ && begin <= end && end <= numWays_);
        const std::uint64_t *row =
            stamps_.data() + static_cast<std::size_t>(set) * numWays_;
        int best = -1;
        std::uint64_t best_stamp = 0;
        for (std::uint32_t w = begin; w < end; ++w) {
            if (!eligible(w))
                continue;
            const std::uint64_t s = row[w];
            if (best == -1 || s > best_stamp) {
                best = static_cast<int>(w);
                best_stamp = s;
            }
        }
        return best;
    }

    std::uint32_t numSets() const { return numSets_; }
    std::uint32_t numWays() const { return numWays_; }

  private:
    std::uint32_t numSets_;
    std::uint32_t numWays_;
    std::uint64_t clock_ = 0;
    std::vector<std::uint64_t> stamps_;
};

} // namespace hllc::cache

#endif // HLLC_CACHE_LRU_HH
