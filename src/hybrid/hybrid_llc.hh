/**
 * @file
 * The shared hybrid NVM-SRAM last-level cache (paper Sec. III/IV).
 *
 * The LLC is non-inclusive (mostly exclusive): it observes GetS/GetX
 * requests from the private L2s and Put (clean/dirty) messages carrying
 * L2 victims; blocks fetched from memory bypass it on the way in. GetX
 * hits return the block and invalidate the LLC copy (invalidate-on-hit,
 * Sec. III-A).
 *
 * Ways [0, sramWays) are SRAM; ways [sramWays, sramWays + nvmWays) are
 * NVM frames backed by a FaultMap. Compression-enabled policies store the
 * ECB in NVM frames (Fit-LRU victim search over frames with enough
 * effective capacity); SRAM always stores blocks uncompressed. Every
 * byte deposited in an NVM frame is recorded against the fault map for
 * the forecast's aging phases.
 *
 * Implementation notes for the replay hot path: the tag store is kept as
 * structure-of-arrays (tags / valid / dirty / ecb / rrpv in separate
 * flat vectors) so the per-access findWay() scan touches one contiguous
 * tag row instead of striding over 24-byte line records; every stats
 * counter the event paths bump is resolved to a Counter pointer once at
 * construction (std::map nodes are pointer-stable) so no per-event
 * string-keyed map lookups remain; and the InsertionPolicy is held by
 * value, so its traits are member bools and choosePart() is an inline
 * switch.
 */

#ifndef HLLC_HYBRID_HYBRID_LLC_HH
#define HLLC_HYBRID_HYBRID_LLC_HH

#include <memory>
#include <optional>

#include "cache/lru.hh"
#include "common/stats.hh"
#include "fault/fault_map.hh"
#include "hybrid/insertion_policy.hh"
#include "hybrid/reuse_tracker.hh"
#include "hybrid/set_dueling.hh"
#include "hybrid/types.hh"

namespace hllc::hybrid
{

/**
 * Replacement algorithm used inside each part. The paper uses (Fit-)LRU;
 * SRRIP (2-bit re-reference interval prediction) is provided as a
 * scan-resistant alternative for ablations. Fit constraints (frame
 * effective capacity) apply to both.
 */
enum class ReplacementKind : std::uint8_t { Lru, Srrip };

/**
 * Observer of the LLC's per-event structural decisions (which resident
 * was evicted, where a block landed, what was bypassed). The golden-model
 * differential checker in src/check records this stream from both the
 * fast LLC and its shadow reimplementation and compares them event by
 * event; a null probe costs one pointer test per decision.
 *
 * Calls are emitted in program order within one handle() dispatch, so
 * two implementations agree iff their decision sequences are identical.
 */
class LlcProbe
{
  public:
    virtual ~LlcProbe() = default;

    /** A resident was evicted; @p writeback = it left dirty. */
    virtual void onEvict(std::uint32_t set, std::uint32_t way, Addr block,
                         bool writeback, bool nvm)
    {
        (void)set; (void)way; (void)block; (void)writeback; (void)nvm;
    }
    /** A block was deposited into (set, way) occupying @p stored bytes. */
    virtual void onFill(std::uint32_t set, std::uint32_t way, Addr block,
                        bool dirty, unsigned stored, bool nvm)
    {
        (void)set; (void)way; (void)block; (void)dirty; (void)stored;
        (void)nvm;
    }
    /** An SRAM way was freed for a migration (the block stays cached). */
    virtual void onMigrateFree(std::uint32_t set, std::uint32_t way,
                               Addr block)
    {
        (void)set; (void)way; (void)block;
    }
    /** A resident outgrew its frame on a dirty Put and is relocating. */
    virtual void onRelocate(std::uint32_t set, std::uint32_t way,
                            Addr block)
    {
        (void)set; (void)way; (void)block;
    }
    /** A dirty Put rewrote a resident copy in place. */
    virtual void onInplaceUpdate(std::uint32_t set, std::uint32_t way,
                                 Addr block, unsigned stored, bool nvm)
    {
        (void)set; (void)way; (void)block; (void)stored; (void)nvm;
    }
    /** An insertion bypassed the LLC entirely (no frame fits). */
    virtual void onBypass(Addr block, bool dirty)
    {
        (void)block; (void)dirty;
    }
};

/** Static configuration of one hybrid LLC instance. */
struct HybridLlcConfig
{
    std::uint32_t numSets = 2048;   //!< power of two
    std::uint32_t sramWays = 4;
    std::uint32_t nvmWays = 12;
    PolicyKind policy = PolicyKind::CpSd;
    ReplacementKind replacement = ReplacementKind::Lru;
    PolicyParams params;            //!< policy tunables
    Cycle epochCycles = 2'000'000;  //!< Set Dueling epoch (Sec. IV-C)
    /**
     * Cycles charged per LLC event when the caller paces epochs through
     * handle(); the trace replayer sets this from capture metadata.
     */
    Cycle cyclesPerEvent = 20;

    std::uint32_t totalWays() const { return sramWays + nvmWays; }
};

class HybridLlc
{
  public:
    /**
     * @param config geometry and policy selection
     * @param fault_map NVM fault map; must cover (numSets x nvmWays)
     *        frames and use the policy's disabling granularity. May be
     *        null only when nvmWays == 0.
     */
    HybridLlc(const HybridLlcConfig &config, fault::FaultMap *fault_map);

    /** @name LLC-side protocol events (Sec. III-A) */
    ///@{
    /** Read request from an L2 miss. */
    AccessOutcome onGetS(Addr block);
    /** Write-permission request; invalidates the LLC copy on hit. */
    AccessOutcome onGetX(Addr block);
    /**
     * L2 victim arriving at the LLC.
     * @param ecb_bytes compressed size of the block's contents
     */
    void onPut(Addr block, bool dirty, unsigned ecb_bytes);
    ///@}

    /** Dispatch one trace event and advance the epoch clock. */
    AccessOutcome handle(const LlcEvent &event);

    /** Advance the Set Dueling epoch clock by @p cycles. */
    void tick(Cycle cycles);

    /** @name Introspection */
    ///@{
    const HybridLlcConfig &config() const { return config_; }
    const InsertionPolicy &policy() const { return policy_; }
    bool contains(Addr block) const;
    /** Part holding @p block, if resident. */
    std::optional<Part> partOf(Addr block) const;
    /** CPth currently in force for @p set. */
    unsigned cpthForSet(std::uint32_t set) const;
    /** Set index of @p block. */
    std::uint32_t setOf(Addr block) const
    {
        return static_cast<std::uint32_t>(block) & (config_.numSets - 1);
    }
    const SetDueling *dueling() const { return dueling_.get(); }
    SetDueling *dueling() { return dueling_.get(); }
    const ReuseTracker &tracker() const { return tracker_; }
    const fault::FaultMap *faultMap() const { return faultMap_; }
    /** Read-only view of one tag-array entry (invariant checkers). */
    struct LineView
    {
        Addr blockNum = 0;
        bool valid = false;
        bool dirty = false;
        std::uint8_t ecbBytes = 0;
    };
    LineView lineView(std::uint32_t set, std::uint32_t way) const
    {
        const std::size_t i = index(set, way);
        return { tags_[i], valid_[i] != 0, dirty_[i] != 0, ecb_[i] };
    }
    ///@}

    /** Attach (or detach with nullptr) a decision-stream observer. */
    void setProbe(LlcProbe *probe) { probe_ = probe; }

    /** @name Stats */
    ///@{
    StatGroup &stats() { return stats_; }
    const StatGroup &stats() const { return stats_; }
    /** GetS + GetX hits. */
    std::uint64_t demandHits() const;
    /** GetS + GetX requests. */
    std::uint64_t demandAccesses() const;
    /** demandHits / demandAccesses. */
    double hitRate() const;
    /** NVM block writes so far (cached counter; replayer hot path). */
    std::uint64_t nvmWrites() const { return ctr_.nvmWrites->value(); }
    /** Total bytes deposited into NVM frames. */
    std::uint64_t nvmBytesWritten() const
    {
        return ctr_.nvmBytesWritten->value();
    }
    void resetStats() { stats_.resetAll(); }
    ///@}

    /**
     * Invalidate resident NVM blocks whose frame no longer has the
     * capacity to hold them (called after the fault map aged).
     */
    void revalidateAgainstFaultMap();

    /** Drop all cached contents and reuse state (fresh replay). */
    void reset();

  private:
    /** SRRIP maximum RRPV (2-bit counters). */
    static constexpr std::uint8_t maxRrpv = 3;

    std::size_t index(std::uint32_t set, std::uint32_t way) const
    {
        return static_cast<std::size_t>(set) * ways_ + way;
    }

    bool isNvmWay(std::uint32_t way) const
    {
        return way >= config_.sramWays;
    }

    /** Fault-map frame index of an NVM way. */
    std::uint32_t
    frameOf(std::uint32_t set, std::uint32_t way) const
    {
        return set * config_.nvmWays + (way - config_.sramWays);
    }

    /** Effective capacity of (set, way): 64 for SRAM, live bytes for NVM. */
    unsigned frameCapacity(std::uint32_t set, std::uint32_t way) const;

    /** Bytes a block of ECB size @p ecb occupies in @p way. */
    unsigned
    storedSize(std::uint32_t way, unsigned ecb) const
    {
        // SRAM stores blocks uncompressed; NVM stores the ECB when the
        // policy compresses, raw frames otherwise.
        if (isNvmWay(way) && policy_.usesCompression())
            return ecb;
        return blockBytes;
    }

    int findWay(std::uint32_t set, Addr block) const;

    /**
     * Victim way for an incoming block needing @p ecb bytes among ways
     * [begin, end): an invalid way with enough capacity if one exists,
     * else the LRU valid way with enough capacity ((Fit-)LRU). -1 when
     * nothing fits.
     */
    int victimWay(std::uint32_t set, std::uint32_t begin,
                  std::uint32_t end, unsigned ecb);

    /** Evict the resident of (set, way); dirty residents write back. */
    void evict(std::uint32_t set, std::uint32_t way);

    /** Deposit a block into (set, way), recording NVM wear. */
    void writeLine(std::uint32_t set, std::uint32_t way, Addr block,
                   bool dirty, unsigned ecb);

    /**
     * Migrate the resident of SRAM way (set, way) into the NVM part.
     * Falls back to a plain eviction when no NVM frame fits.
     */
    void migrateToNvm(std::uint32_t set, std::uint32_t way);

    /** The main insertion path (policy steering + replacement). */
    void insert(Addr block, bool dirty, unsigned ecb);

    /**
     * Every per-event counter, resolved once at construction. The
     * pointees live in stats_'s std::map, whose nodes are
     * pointer-stable across resetAll() and (in-place) restore().
     */
    struct HotCounters
    {
        Counter *agedOut, *bypasses, *evictionsNvm, *evictionsSram,
            *gets, *getsHitsNvm, *getsHitsSram, *getsMisses,
            *getx, *getxHitsNvm, *getxHitsSram, *getxMisses,
            *inplaceUpdates,
            *insNoneClean, *insNoneDirty, *insReadClean, *insReadDirty,
            *insWriteClean, *insWriteDirty,
            *insertNvmFallbackSram, *insertsNvm, *insertsSram,
            *invalidateOnGetx, *migrationsToNvm,
            *nvmBytesNoneClean, *nvmBytesNoneDirty, *nvmBytesRead,
            *nvmBytesWriteReuse, *nvmBytesWritten, *nvmWrites,
            *putsClean, *putsDirty, *putsPresent, *writebacksDirty;
    };

    HybridLlcConfig config_;
    InsertionPolicy policy_;
    fault::FaultMap *faultMap_;
    LlcProbe *probe_ = nullptr;

    /** Tag store, structure-of-arrays (one entry per set x way). */
    std::uint32_t ways_; //!< cached totalWays()
    std::vector<Addr> tags_;
    std::vector<std::uint8_t> valid_;
    std::vector<std::uint8_t> dirty_;
    std::vector<std::uint8_t> ecb_;  //!< 64 when incompressible
    std::vector<std::uint8_t> rrpv_; //!< SRRIP prediction (0 = imminent)

    cache::LruState lru_;
    ReuseTracker tracker_;
    std::unique_ptr<SetDueling> dueling_;
    StatGroup stats_;
    HotCounters ctr_;
};

} // namespace hllc::hybrid

#endif // HLLC_HYBRID_HYBRID_LLC_HH
