/**
 * @file
 * Reuse tags of blocks outside the LLC.
 *
 * The paper tags blocks (in both L2 and LLC) with their reuse class; the
 * tag travels with the block and is reset when the block re-enters the
 * hierarchy from main memory. While a block is resident, HybridLlc keeps
 * its tag (class plus the LLC hit count that TAP's thrashing
 * classification needs) in the line itself. This tracker holds the tags
 * of blocks that have left the LLC with a non-default tag, keyed by
 * block number: a fill take()s the block's tag out with one probe, and
 * an eviction, a GetX invalidate-on-hit, a bypass or an aged-out line
 * spill()s it back. The event path never reads a tag without removing
 * or replacing it, and hits on resident blocks never probe here.
 *
 * The store is a flat open-addressing table (linear probing,
 * backward-shift deletion) rather than std::unordered_map: take(),
 * spill() and onMemoryFetch() sit on the miss/insert path, so each must
 * be one multiplicative hash, one probe run over a contiguous array and
 * no node allocation. Behaviour is fully deterministic (probe order
 * depends only on the key sequence), which the rerun-differential checks
 * rely on.
 */

#ifndef HLLC_HYBRID_REUSE_TRACKER_HH
#define HLLC_HYBRID_REUSE_TRACKER_HH

#include <cstdint>
#include <vector>

#include "common/logging.hh"
#include "common/types.hh"
#include "hybrid/types.hh"

namespace hllc::hybrid
{

/**
 * One block's reuse tag: its class and the LLC hits it accumulated
 * since its last memory fetch (saturating at 0xffff).
 */
struct ReuseState
{
    ReuseClass reuse = ReuseClass::None;
    std::uint16_t hits = 0;

    bool operator==(const ReuseState &) const = default;
};

class ReuseTracker
{
  public:
    ReuseTracker() : slots_(initialSlots) {}

    /** Tag of @p block (default if not tracked); introspection only. */
    ReuseState
    stateOf(Addr block) const
    {
        const std::size_t i = indexOf(block);
        return i == npos ? ReuseState{} : slots_[i].state;
    }

    /** Whether @p block has a tracked tag. */
    bool contains(Addr block) const { return indexOf(block) != npos; }

    /**
     * The block is entering the LLC: remove and return its tag (default
     * if not tracked); the line carries it from here on.
     */
    ReuseState
    take(Addr block)
    {
        const std::size_t i = indexOf(block);
        if (i == npos)
            return {};
        const ReuseState state = slots_[i].state;
        eraseAt(i);
        return state;
    }

    /**
     * The block left the LLC (or bypassed it) carrying @p state. Only a
     * non-default tag is stored; @p block must not be tracked already.
     */
    void
    spill(Addr block, ReuseState state)
    {
        if (state != ReuseState{})
            insertNew(block, state);
    }

    /**
     * The block missed the whole hierarchy and is being refetched from
     * memory: its reuse history is discarded (blocks enter L2 as
     * non-reused / NLB).
     */
    void
    onMemoryFetch(Addr block)
    {
        const std::size_t i = indexOf(block);
        if (i != npos)
            eraseAt(i);
    }

    /** Number of blocks currently tracked. */
    std::size_t size() const { return size_; }

    /** Drop all state (fresh replay). */
    void
    clear()
    {
        slots_.assign(initialSlots, Slot{});
        shift_ = initialShift;
        size_ = 0;
    }

  private:
    struct Slot
    {
        Addr key = 0;
        ReuseState state;
        std::uint8_t used = 0;
    };

    static constexpr std::size_t initialSlots = 1024;
    static constexpr unsigned initialShift = 64 - 10;
    static_assert(initialSlots == std::size_t{1} << (64 - initialShift));
    static constexpr std::size_t npos = ~std::size_t{0};

    /**
     * Home slot of @p key: Fibonacci hashing (one multiply, top bits),
     * which spreads consecutive block numbers evenly.
     */
    std::size_t
    homeOf(Addr key) const
    {
        return static_cast<std::size_t>(
            (key * 0x9e3779b97f4a7c15ull) >> shift_);
    }

    /** Slot index holding @p key, or npos. */
    std::size_t
    indexOf(Addr key) const
    {
        const std::size_t mask = slots_.size() - 1;
        std::size_t i = homeOf(key);
        while (slots_[i].used) {
            if (slots_[i].key == key)
                return i;
            i = (i + 1) & mask;
        }
        return npos;
    }

    void
    insertNew(Addr key, ReuseState state)
    {
        // Keep the table at most a quarter full: most lookups are for
        // untracked blocks, and they then stop at an empty home slot.
        if ((size_ + 1) * 4 > slots_.size())
            grow();
        const std::size_t mask = slots_.size() - 1;
        std::size_t i = homeOf(key);
        while (slots_[i].used) {
            HLLC_ASSERT(slots_[i].key != key,
                        "block spilled while already tracked");
            i = (i + 1) & mask;
        }
        slots_[i] = Slot{ key, state, 1 };
        ++size_;
    }

    /**
     * Backward-shift deletion (Knuth 6.4 Algorithm R): followers of the
     * probe run whose home slot lies at or before the hole slide back so
     * lookups never need tombstones.
     */
    void
    eraseAt(std::size_t hole)
    {
        const std::size_t mask = slots_.size() - 1;
        std::size_t i = hole;
        std::size_t j = hole;
        while (true) {
            j = (j + 1) & mask;
            if (!slots_[j].used)
                break;
            const std::size_t home = homeOf(slots_[j].key);
            // Move slots_[j] into the hole unless its home position lies
            // cyclically within (i, j] (it would then probe past i).
            const bool home_in_range = i <= j ? (home > i && home <= j)
                                              : (home > i || home <= j);
            if (!home_in_range) {
                slots_[i] = slots_[j];
                i = j;
            }
        }
        slots_[i] = Slot{};
        --size_;
    }

    void
    grow()
    {
        std::vector<Slot> old = std::move(slots_);
        slots_.assign(old.size() * 2, Slot{});
        --shift_;
        const std::size_t mask = slots_.size() - 1;
        for (const Slot &s : old) {
            if (!s.used)
                continue;
            std::size_t i = homeOf(s.key);
            while (slots_[i].used)
                i = (i + 1) & mask;
            slots_[i] = s;
        }
    }

    std::vector<Slot> slots_;
    unsigned shift_ = initialShift; //!< 64 - log2(slots_.size())
    std::size_t size_ = 0;
};

} // namespace hllc::hybrid

#endif // HLLC_HYBRID_REUSE_TRACKER_HH
