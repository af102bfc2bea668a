/**
 * @file
 * Generic set-associative cache used for the private L1/L2 levels.
 *
 * Functional model with true LRU replacement: lookups, fills, and
 * invalidations report what happened (including the evicted victim) so the
 * hierarchy layer can drive the non-inclusive LLC protocol. A per-line
 * 32-bit metadata word carries level-specific block state (e.g. the
 * LHybrid LB/NLB tag that travels with blocks, paper Sec. II-C).
 */

#ifndef HLLC_CACHE_SET_ASSOC_HH
#define HLLC_CACHE_SET_ASSOC_HH

#include <cstdint>
#include <optional>
#include <vector>

#include "cache/lru.hh"
#include "common/types.hh"

namespace hllc::cache
{

/** A victim produced by a fill. */
struct Victim
{
    Addr blockNum;        //!< block number of the evicted line
    bool dirty;           //!< needs writeback / Put-dirty
    std::uint32_t meta;   //!< level-specific metadata that travelled along
};

class SetAssocCache
{
  public:
    /**
     * @param size_bytes total data capacity
     * @param num_ways associativity; sets = size / (ways * 64)
     */
    SetAssocCache(std::size_t size_bytes, std::uint32_t num_ways);

    std::uint32_t numSets() const { return numSets_; }
    std::uint32_t numWays() const { return numWays_; }

    /** Whether @p block currently resides in the cache. */
    bool contains(Addr block) const;

    /**
     * Look up @p block; on hit updates recency and, when @p is_write,
     * marks the line dirty.
     * @return true on hit
     */
    bool access(Addr block, bool is_write);

    /**
     * Insert @p block (assumed absent), evicting the LRU line if the set
     * is full.
     * @return the victim, if one was evicted
     */
    std::optional<Victim> fill(Addr block, bool dirty, std::uint32_t meta);

    /** Remove @p block if present. @return its dirtiness, if present. */
    std::optional<bool> invalidate(Addr block);

    /** Metadata word of @p block; nullopt when absent. */
    std::optional<std::uint32_t> meta(Addr block) const;

    /** Set the metadata word of @p block (must be present). */
    void setMeta(Addr block, std::uint32_t meta);

    /** Mark @p block dirty (must be present). */
    void setDirty(Addr block);

  private:
    struct Line
    {
        Addr blockNum = 0;
        bool valid = false;
        bool dirty = false;
        std::uint32_t meta = 0;
    };

    std::uint32_t setOf(Addr block) const
    {
        return static_cast<std::uint32_t>(block) & (numSets_ - 1);
    }

    Line &line(std::uint32_t set, std::uint32_t way)
    {
        return lines_[static_cast<std::size_t>(set) * numWays_ + way];
    }
    const Line &line(std::uint32_t set, std::uint32_t way) const
    {
        return lines_[static_cast<std::size_t>(set) * numWays_ + way];
    }

    /** Way holding @p block in its set, or -1. */
    int findWay(Addr block) const;

    std::uint32_t numSets_;
    std::uint32_t numWays_;
    std::vector<Line> lines_;
    LruState lru_;
};

} // namespace hllc::cache

#endif // HLLC_CACHE_SET_ASSOC_HH
