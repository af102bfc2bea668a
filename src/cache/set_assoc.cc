#include "cache/set_assoc.hh"

#include <bit>

#include "common/logging.hh"

namespace hllc::cache
{

SetAssocCache::SetAssocCache(std::size_t size_bytes,
                             std::uint32_t num_ways)
    : numSets_(static_cast<std::uint32_t>(
          size_bytes / (static_cast<std::size_t>(num_ways) * blockBytes))),
      numWays_(num_ways),
      lines_(static_cast<std::size_t>(numSets_) * num_ways),
      lru_(numSets_ ? numSets_ : 1, num_ways)
{
    HLLC_ASSERT(numSets_ > 0, "cache smaller than one set");
    HLLC_ASSERT(std::has_single_bit(numSets_),
                "set count %u must be a power of two", numSets_);
}

int
SetAssocCache::findWay(Addr block) const
{
    const std::uint32_t set = setOf(block);
    for (std::uint32_t w = 0; w < numWays_; ++w) {
        const Line &l = line(set, w);
        if (l.valid && l.blockNum == block)
            return static_cast<int>(w);
    }
    return -1;
}

bool
SetAssocCache::contains(Addr block) const
{
    return findWay(block) >= 0;
}

bool
SetAssocCache::access(Addr block, bool is_write)
{
    const std::uint32_t set = setOf(block);
    const int way = findWay(block);
    if (way < 0)
        return false;
    Line &l = line(set, static_cast<std::uint32_t>(way));
    if (is_write)
        l.dirty = true;
    lru_.touch(set, static_cast<std::uint32_t>(way));
    return true;
}

std::optional<Victim>
SetAssocCache::fill(Addr block, bool dirty, std::uint32_t meta)
{
    HLLC_ASSERT(findWay(block) < 0, "double fill of block %llu",
                static_cast<unsigned long long>(block));
    const std::uint32_t set = setOf(block);

    // Prefer an invalid way; otherwise evict the LRU line.
    int way = -1;
    for (std::uint32_t w = 0; w < numWays_; ++w) {
        if (!line(set, w).valid) {
            way = static_cast<int>(w);
            break;
        }
    }

    std::optional<Victim> victim;
    if (way < 0) {
        way = lru_.lruWay(set, 0, numWays_,
                          [](std::uint32_t) { return true; });
        HLLC_ASSERT(way >= 0);
        Line &v = line(set, static_cast<std::uint32_t>(way));
        victim = Victim{ v.blockNum, v.dirty, v.meta };
    }

    Line &l = line(set, static_cast<std::uint32_t>(way));
    l.blockNum = block;
    l.valid = true;
    l.dirty = dirty;
    l.meta = meta;
    lru_.touch(set, static_cast<std::uint32_t>(way));
    return victim;
}

std::optional<bool>
SetAssocCache::invalidate(Addr block)
{
    const int way = findWay(block);
    if (way < 0)
        return std::nullopt;
    Line &l = line(setOf(block), static_cast<std::uint32_t>(way));
    const bool dirty = l.dirty;
    l.valid = false;
    l.dirty = false;
    return dirty;
}

std::optional<std::uint32_t>
SetAssocCache::meta(Addr block) const
{
    const int way = findWay(block);
    if (way < 0)
        return std::nullopt;
    return line(setOf(block), static_cast<std::uint32_t>(way)).meta;
}

void
SetAssocCache::setMeta(Addr block, std::uint32_t meta)
{
    const int way = findWay(block);
    HLLC_ASSERT(way >= 0, "setMeta on absent block");
    line(setOf(block), static_cast<std::uint32_t>(way)).meta = meta;
}

void
SetAssocCache::setDirty(Addr block)
{
    const int way = findWay(block);
    HLLC_ASSERT(way >= 0, "setDirty on absent block");
    line(setOf(block), static_cast<std::uint32_t>(way)).dirty = true;
}

} // namespace hllc::cache
