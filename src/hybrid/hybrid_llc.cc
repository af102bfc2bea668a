#include "hybrid/hybrid_llc.hh"

#include <algorithm>

#include "common/logging.hh"
#include "compression/encoding.hh"

namespace hllc::hybrid
{

namespace
{

/**
 * Every counter the LLC can ever bump. Pre-registering them in the
 * constructor means a counter that legitimately stays at zero (e.g. no
 * bypasses this run) still exists, so StatGroup::counterValue can treat
 * an unknown name as the error it is instead of silently returning 0.
 */
constexpr const char *llcCounterNames[] = {
    "aged_out",
    "bypasses",
    "evictions_nvm",
    "evictions_sram",
    "gets",
    "gets_hits_nvm",
    "gets_hits_sram",
    "gets_misses",
    "getx",
    "getx_hits_nvm",
    "getx_hits_sram",
    "getx_misses",
    "inplace_updates",
    "ins_none_clean",
    "ins_none_dirty",
    "ins_read_clean",
    "ins_read_dirty",
    "ins_write_clean",
    "ins_write_dirty",
    "insert_nvm_fallback_sram",
    "inserts_nvm",
    "inserts_sram",
    "invalidate_on_getx",
    "migrations_to_nvm",
    "nvm_bytes_none_clean",
    "nvm_bytes_none_dirty",
    "nvm_bytes_read",
    "nvm_bytes_write_reuse",
    "nvm_bytes_written",
    "nvm_writes",
    "puts_clean",
    "puts_dirty",
    "puts_present",
    "writebacks_dirty",
};

} // namespace

HybridLlc::HybridLlc(const HybridLlcConfig &config,
                     fault::FaultMap *fault_map)
    : config_(config),
      policy_(config.policy, config.params),
      faultMap_(fault_map),
      ways_(config.totalWays()),
      tags_(static_cast<std::size_t>(config.numSets) *
            config.totalWays(), 0),
      valid_(tags_.size(), 0),
      dirty_(tags_.size(), 0),
      ecb_(tags_.size(), 0),
      rrpv_(tags_.size(), 0),
      lru_(config.numSets, config.totalWays()),
      stats_(std::string("llc_") + std::string(policy_.name()))
{
    HLLC_ASSERT(config.numSets > 0 &&
                (config.numSets & (config.numSets - 1)) == 0,
                "numSets must be a power of two");
    HLLC_ASSERT(config.totalWays() > 0);

    if (config.nvmWays > 0) {
        HLLC_ASSERT(faultMap_ != nullptr,
                    "NVM ways require a fault map");
        HLLC_ASSERT(faultMap_->geometry().numSets == config.numSets &&
                    faultMap_->geometry().numNvmWays == config.nvmWays,
                    "fault-map geometry mismatch");
        HLLC_ASSERT(faultMap_->granularity() == policy_.granularity(),
                    "policy %s needs %s disabling",
                    std::string(policy_.name()).c_str(),
                    policy_.usesCompression() ? "byte" : "frame");
    }

    if (policy_.usesSetDueling()) {
        dueling_ = std::make_unique<SetDueling>(
            config.numSets, compression::cpthCandidates(),
            config.epochCycles, policy_.thPercent(),
            policy_.twPercent());
    }

    for (const char *name : llcCounterNames)
        stats_.counter(name);

    ctr_.agedOut = &stats_.counter("aged_out");
    ctr_.bypasses = &stats_.counter("bypasses");
    ctr_.evictionsNvm = &stats_.counter("evictions_nvm");
    ctr_.evictionsSram = &stats_.counter("evictions_sram");
    ctr_.gets = &stats_.counter("gets");
    ctr_.getsHitsNvm = &stats_.counter("gets_hits_nvm");
    ctr_.getsHitsSram = &stats_.counter("gets_hits_sram");
    ctr_.getsMisses = &stats_.counter("gets_misses");
    ctr_.getx = &stats_.counter("getx");
    ctr_.getxHitsNvm = &stats_.counter("getx_hits_nvm");
    ctr_.getxHitsSram = &stats_.counter("getx_hits_sram");
    ctr_.getxMisses = &stats_.counter("getx_misses");
    ctr_.inplaceUpdates = &stats_.counter("inplace_updates");
    ctr_.insNoneClean = &stats_.counter("ins_none_clean");
    ctr_.insNoneDirty = &stats_.counter("ins_none_dirty");
    ctr_.insReadClean = &stats_.counter("ins_read_clean");
    ctr_.insReadDirty = &stats_.counter("ins_read_dirty");
    ctr_.insWriteClean = &stats_.counter("ins_write_clean");
    ctr_.insWriteDirty = &stats_.counter("ins_write_dirty");
    ctr_.insertNvmFallbackSram =
        &stats_.counter("insert_nvm_fallback_sram");
    ctr_.insertsNvm = &stats_.counter("inserts_nvm");
    ctr_.insertsSram = &stats_.counter("inserts_sram");
    ctr_.invalidateOnGetx = &stats_.counter("invalidate_on_getx");
    ctr_.migrationsToNvm = &stats_.counter("migrations_to_nvm");
    ctr_.nvmBytesNoneClean = &stats_.counter("nvm_bytes_none_clean");
    ctr_.nvmBytesNoneDirty = &stats_.counter("nvm_bytes_none_dirty");
    ctr_.nvmBytesRead = &stats_.counter("nvm_bytes_read");
    ctr_.nvmBytesWriteReuse = &stats_.counter("nvm_bytes_write_reuse");
    ctr_.nvmBytesWritten = &stats_.counter("nvm_bytes_written");
    ctr_.nvmWrites = &stats_.counter("nvm_writes");
    ctr_.putsClean = &stats_.counter("puts_clean");
    ctr_.putsDirty = &stats_.counter("puts_dirty");
    ctr_.putsPresent = &stats_.counter("puts_present");
    ctr_.writebacksDirty = &stats_.counter("writebacks_dirty");
}

unsigned
HybridLlc::frameCapacity(std::uint32_t set, std::uint32_t way) const
{
    if (!isNvmWay(way))
        return blockBytes;
    return faultMap_->frameCapacity(frameOf(set, way));
}

int
HybridLlc::findWay(std::uint32_t set, Addr block) const
{
    const std::size_t base = index(set, 0);
    const Addr *tags = tags_.data() + base;
    const std::uint8_t *valid = valid_.data() + base;
    for (std::uint32_t w = 0; w < ways_; ++w) {
        if (valid[w] && tags[w] == block)
            return static_cast<int>(w);
    }
    return -1;
}

int
HybridLlc::victimWay(std::uint32_t set, std::uint32_t begin,
                     std::uint32_t end, unsigned ecb)
{
    // Empty frames with enough capacity first...
    for (std::uint32_t w = begin; w < end; ++w) {
        if (!valid_[index(set, w)] &&
            frameCapacity(set, w) >= storedSize(w, ecb)) {
            return static_cast<int>(w);
        }
    }

    const auto fits = [&](std::uint32_t w) {
        return valid_[index(set, w)] != 0 &&
               frameCapacity(set, w) >= storedSize(w, ecb);
    };

    if (config_.replacement == ReplacementKind::Srrip) {
        // SRRIP: evict the first fitting line predicted re-referenced
        // in the distant future; age everyone until one exists.
        bool any_fits = false;
        for (std::uint32_t w = begin; w < end; ++w)
            any_fits = any_fits || fits(w);
        if (!any_fits)
            return -1;
        for (unsigned round = 0; round <= maxRrpv; ++round) {
            for (std::uint32_t w = begin; w < end; ++w) {
                if (fits(w) && rrpv_[index(set, w)] >= maxRrpv)
                    return static_cast<int>(w);
            }
            for (std::uint32_t w = begin; w < end; ++w) {
                const std::size_t i = index(set, w);
                if (valid_[i] && rrpv_[i] < maxRrpv)
                    ++rrpv_[i];
            }
        }
        panic("SRRIP victim scan did not converge");
    }

    // ...then the LRU line among frames the block fits in (Fit-LRU).
    return lru_.lruWay(set, begin, end, fits);
}

void
HybridLlc::evict(std::uint32_t set, std::uint32_t way)
{
    const std::size_t i = index(set, way);
    if (!valid_[i])
        return;
    ++*(isNvmWay(way) ? ctr_.evictionsNvm : ctr_.evictionsSram);
    if (dirty_[i])
        ++*ctr_.writebacksDirty;
    if (probe_)
        probe_->onEvict(set, way, tags_[i], dirty_[i] != 0,
                        isNvmWay(way));
    valid_[i] = 0;
    dirty_[i] = 0;
}

void
HybridLlc::writeLine(std::uint32_t set, std::uint32_t way, Addr block,
                     bool dirty, unsigned ecb)
{
    // Byte attribution for the write-traffic breakdown studies.
    if (isNvmWay(way)) {
        Counter *bucket;
        switch (tracker_.classOf(block)) {
          case ReuseClass::None:
            bucket = dirty ? ctr_.nvmBytesNoneDirty
                           : ctr_.nvmBytesNoneClean;
            break;
          case ReuseClass::Read:
            bucket = ctr_.nvmBytesRead;
            break;
          default:
            bucket = ctr_.nvmBytesWriteReuse;
            break;
        }
        *bucket += storedSize(way, ecb);
    }
    const std::size_t i = index(set, way);
    HLLC_ASSERT(!valid_[i], "writeLine over a live resident");

    const unsigned stored = storedSize(way, ecb);
    HLLC_ASSERT(frameCapacity(set, way) >= stored,
                "block (%u B) does not fit frame (%u B)",
                stored, frameCapacity(set, way));

    tags_[i] = block;
    valid_[i] = 1;
    dirty_[i] = dirty ? 1 : 0;
    ecb_[i] = static_cast<std::uint8_t>(ecb);
    rrpv_[i] = maxRrpv - 1; // SRRIP long re-reference insertion
    lru_.touch(set, way);

    if (isNvmWay(way)) {
        faultMap_->recordWrite(frameOf(set, way), stored);
        ++*ctr_.nvmWrites;
        *ctr_.nvmBytesWritten += stored;
        ++*ctr_.insertsNvm;
        if (dueling_)
            dueling_->recordNvmBytes(set, stored);
    } else {
        ++*ctr_.insertsSram;
    }
    if (probe_)
        probe_->onFill(set, way, block, dirty, stored, isNvmWay(way));
}

void
HybridLlc::migrateToNvm(std::uint32_t set, std::uint32_t way)
{
    const std::size_t i = index(set, way);
    HLLC_ASSERT(valid_[i] && !isNvmWay(way));

    const Addr block = tags_[i];
    const bool dirty = dirty_[i] != 0;
    const unsigned ecb = ecb_[i];

    const int nvm_way = config_.nvmWays == 0
        ? -1
        : victimWay(set, config_.sramWays, ways_, ecb);
    if (nvm_way < 0) {
        // No NVM frame can take it: plain eviction.
        evict(set, way);
        return;
    }

    // Free the SRAM way without writeback (the block stays in the LLC).
    valid_[i] = 0;
    dirty_[i] = 0;
    ++*ctr_.evictionsSram;
    if (probe_)
        probe_->onMigrateFree(set, way, block);

    evict(set, static_cast<std::uint32_t>(nvm_way));
    writeLine(set, static_cast<std::uint32_t>(nvm_way), block, dirty, ecb);
    ++*ctr_.migrationsToNvm;
}

void
HybridLlc::insert(Addr block, bool dirty, unsigned ecb)
{
    const std::uint32_t set = setOf(block);
    const unsigned cpth = dueling_ ? dueling_->cpthForSet(set)
                                   : config_.params.fixedCpth;
    const InsertContext ctx{
        block, dirty, ecb, tracker_.classOf(block),
        tracker_.hitsOf(block), set, cpth,
    };

    // Insertion-mix accounting (motivation studies / debugging).
    switch (ctx.reuse) {
      case ReuseClass::None:
        ++*(dirty ? ctr_.insNoneDirty : ctr_.insNoneClean);
        break;
      case ReuseClass::Read:
        ++*(dirty ? ctr_.insReadDirty : ctr_.insReadClean);
        break;
      case ReuseClass::Write:
        ++*(dirty ? ctr_.insWriteDirty : ctr_.insWriteClean);
        break;
    }

    if (policy_.globalReplacement()) {
        // BH / BH_CP / SRAM bounds: one (Fit-)LRU across all ways.
        const int way = victimWay(set, 0, ways_, ecb);
        if (way < 0) {
            // Every live frame is too small: bypass the LLC.
            ++*ctr_.bypasses;
            if (dirty)
                ++*ctr_.writebacksDirty;
            if (probe_)
                probe_->onBypass(block, dirty);
            return;
        }
        evict(set, static_cast<std::uint32_t>(way));
        writeLine(set, static_cast<std::uint32_t>(way), block, dirty, ecb);
        return;
    }

    Part part = policy_.choosePart(ctx);

    if (part == Part::Nvm) {
        const int way = config_.nvmWays == 0
            ? -1
            : victimWay(set, config_.sramWays, ways_, ecb);
        if (way >= 0) {
            evict(set, static_cast<std::uint32_t>(way));
            writeLine(set, static_cast<std::uint32_t>(way), block, dirty,
                      ecb);
            return;
        }
        // Doesn't fit in any NVM frame of the set: fall back to SRAM
        // (paper Sec. IV-B).
        ++*ctr_.insertNvmFallbackSram;
        part = Part::Sram;
    }

    if (config_.sramWays == 0) {
        ++*ctr_.bypasses;
        if (dirty)
            ++*ctr_.writebacksDirty;
        if (probe_)
            probe_->onBypass(block, dirty);
        return;
    }

    // SRAM insertion. Look for an empty way first.
    int way = -1;
    for (std::uint32_t w = 0; w < config_.sramWays; ++w) {
        if (!valid_[index(set, w)]) {
            way = static_cast<int>(w);
            break;
        }
    }

    if (way < 0) {
        if (policy_.lhybridSramReplacement()) {
            // LHybrid: migrate the MRU loop-block to NVM to free a frame;
            // otherwise evict the LRU (paper Sec. II-C).
            const int lb_way =
                lru_.mruWay(set, 0, config_.sramWays,
                            [&](std::uint32_t w) {
                                const std::size_t i = index(set, w);
                                return valid_[i] != 0 && !dirty_[i] &&
                                       tracker_.classOf(tags_[i]) ==
                                           ReuseClass::Read;
                            });
            if (lb_way >= 0) {
                migrateToNvm(set, static_cast<std::uint32_t>(lb_way));
                way = lb_way;
            } else {
                way = lru_.lruWay(set, 0, config_.sramWays,
                                  [](std::uint32_t) { return true; });
            }
        } else {
            way = lru_.lruWay(set, 0, config_.sramWays,
                              [](std::uint32_t) { return true; });
            HLLC_ASSERT(way >= 0);
            const std::size_t vi =
                index(set, static_cast<std::uint32_t>(way));
            if (policy_.migrateReadReuseOnSramEviction() && valid_[vi] &&
                tracker_.classOf(tags_[vi]) == ReuseClass::Read) {
                // CA_RWR: a read-reused SRAM victim moves to NVM instead
                // of leaving the LLC (paper Sec. IV-B).
                migrateToNvm(set, static_cast<std::uint32_t>(way));
            }
        }
    }

    HLLC_ASSERT(way >= 0);
    evict(set, static_cast<std::uint32_t>(way));
    writeLine(set, static_cast<std::uint32_t>(way), block, dirty, ecb);
}

AccessOutcome
HybridLlc::onGetS(Addr block)
{
    const std::uint32_t set = setOf(block);
    const int way = findWay(set, block);
    ++*ctr_.gets;

    if (way < 0) {
        // Miss: the block is fetched from memory straight into L2 and its
        // reuse history restarts (Sec. III-A).
        tracker_.onMemoryFetch(block);
        ++*ctr_.getsMisses;
        return AccessOutcome::Miss;
    }

    const std::size_t i = index(set, static_cast<std::uint32_t>(way));
    tracker_.onLlcHit(block, /*getx=*/false, dirty_[i] != 0);
    rrpv_[i] = 0;
    lru_.touch(set, static_cast<std::uint32_t>(way));
    if (dueling_)
        dueling_->recordHit(set);

    if (isNvmWay(static_cast<std::uint32_t>(way))) {
        ++*ctr_.getsHitsNvm;
        return AccessOutcome::HitNvm;
    }
    ++*ctr_.getsHitsSram;
    return AccessOutcome::HitSram;
}

AccessOutcome
HybridLlc::onGetX(Addr block)
{
    const std::uint32_t set = setOf(block);
    const int way = findWay(set, block);
    ++*ctr_.getx;

    if (way < 0) {
        tracker_.onMemoryFetch(block);
        ++*ctr_.getxMisses;
        return AccessOutcome::Miss;
    }

    const std::size_t i = index(set, static_cast<std::uint32_t>(way));
    tracker_.onLlcHit(block, /*getx=*/true, dirty_[i] != 0);
    if (dueling_)
        dueling_->recordHit(set);

    // Invalidate-on-hit: ownership moves to the private levels; the dirty
    // block will be Put back on L2 eviction (Sec. III-A).
    const bool nvm = isNvmWay(static_cast<std::uint32_t>(way));
    valid_[i] = 0;
    dirty_[i] = 0;
    ++*ctr_.invalidateOnGetx;

    if (nvm) {
        ++*ctr_.getxHitsNvm;
        return AccessOutcome::HitNvm;
    }
    ++*ctr_.getxHitsSram;
    return AccessOutcome::HitSram;
}

void
HybridLlc::onPut(Addr block, bool dirty, unsigned ecb_bytes)
{
    HLLC_ASSERT(ecb_bytes >= 2 && ecb_bytes <= blockBytes,
                "implausible ECB size %u", ecb_bytes);
    ++*(dirty ? ctr_.putsDirty : ctr_.putsClean);

    const std::uint32_t set = setOf(block);
    const int way = findWay(set, block);

    if (way >= 0) {
        // Already resident (the usual case for clean L2 victims whose
        // copy survived in the LLC): no write needed.
        ++*ctr_.putsPresent;
        const auto uway = static_cast<std::uint32_t>(way);
        const std::size_t i = index(set, uway);
        rrpv_[i] = 0;
        lru_.touch(set, uway);
        if (!dirty)
            return;
        // A dirty Put over a (stale) resident copy rewrites it in place
        // when the frame still fits the new contents.
        const unsigned stored = storedSize(uway, ecb_bytes);
        if (frameCapacity(set, uway) >= stored) {
            dirty_[i] = 1;
            ecb_[i] = static_cast<std::uint8_t>(ecb_bytes);
            if (isNvmWay(uway)) {
                faultMap_->recordWrite(frameOf(set, uway), stored);
                ++*ctr_.nvmWrites;
                *ctr_.nvmBytesWritten += stored;
                if (dueling_)
                    dueling_->recordNvmBytes(set, stored);
            }
            ++*ctr_.inplaceUpdates;
            if (probe_)
                probe_->onInplaceUpdate(set, uway, block, stored,
                                        isNvmWay(uway));
            return;
        }
        // Grew past the frame's capacity: relocate.
        if (probe_)
            probe_->onRelocate(set, uway, block);
        valid_[i] = 0;
        dirty_[i] = 0;
    }

    insert(block, dirty, ecb_bytes);
}

AccessOutcome
HybridLlc::handle(const LlcEvent &event)
{
    tick(config_.cyclesPerEvent);
    switch (event.type) {
      case LlcEventType::GetS:
        return onGetS(event.blockNum);
      case LlcEventType::GetX:
        return onGetX(event.blockNum);
      case LlcEventType::PutClean:
        onPut(event.blockNum, false, event.ecbBytes);
        return AccessOutcome::Miss;
      case LlcEventType::PutDirty:
        onPut(event.blockNum, true, event.ecbBytes);
        return AccessOutcome::Miss;
    }
    panic("unknown LLC event type");
}

void
HybridLlc::tick(Cycle cycles)
{
    if (dueling_)
        dueling_->tick(cycles);
}

bool
HybridLlc::contains(Addr block) const
{
    return findWay(setOf(block), block) >= 0;
}

std::optional<Part>
HybridLlc::partOf(Addr block) const
{
    const int way = findWay(setOf(block), block);
    if (way < 0)
        return std::nullopt;
    return isNvmWay(static_cast<std::uint32_t>(way)) ? Part::Nvm
                                                     : Part::Sram;
}

unsigned
HybridLlc::cpthForSet(std::uint32_t set) const
{
    return dueling_ ? dueling_->cpthForSet(set) : config_.params.fixedCpth;
}

std::uint64_t
HybridLlc::demandHits() const
{
    return ctr_.getsHitsSram->value() + ctr_.getsHitsNvm->value() +
           ctr_.getxHitsSram->value() + ctr_.getxHitsNvm->value();
}

std::uint64_t
HybridLlc::demandAccesses() const
{
    return ctr_.gets->value() + ctr_.getx->value();
}

double
HybridLlc::hitRate() const
{
    const std::uint64_t accesses = demandAccesses();
    return accesses == 0
        ? 0.0
        : static_cast<double>(demandHits()) /
          static_cast<double>(accesses);
}

void
HybridLlc::revalidateAgainstFaultMap()
{
    if (config_.nvmWays == 0)
        return;
    for (std::uint32_t set = 0; set < config_.numSets; ++set) {
        for (std::uint32_t w = config_.sramWays; w < ways_; ++w) {
            const std::size_t i = index(set, w);
            if (!valid_[i])
                continue;
            const unsigned stored = storedSize(w, ecb_[i]);
            if (frameCapacity(set, w) < stored) {
                valid_[i] = 0;
                dirty_[i] = 0;
                ++*ctr_.agedOut;
            }
        }
    }
}

void
HybridLlc::reset()
{
    std::fill(valid_.begin(), valid_.end(), 0);
    std::fill(dirty_.begin(), dirty_.end(), 0);
    tracker_.clear();
}

} // namespace hllc::hybrid
