#include "hybrid/hybrid_llc.hh"

#include <algorithm>

#include "common/logging.hh"
#include "compression/encoding.hh"

namespace hllc::hybrid
{

namespace
{

/** reuse_ byte of a read-reused resident (LHybrid's loop-block). */
constexpr auto readReuse = static_cast<std::uint8_t>(ReuseClass::Read);

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
      reuse_(tags_.size(), 0),
      hits_(tags_.size(), 0),
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

    setWearSink(nullptr);

    if (policy_.usesSetDueling()) {
        dueling_ = std::make_unique<SetDueling>(
            config.numSets, compression::cpthCandidates(),
            config.epochCycles, policy_.thPercent(),
            policy_.twPercent());
    }

    // Resolving every counter here also registers it, so one that
    // legitimately stays at zero (e.g. no bypasses this run) still
    // exists and StatGroup::counterValue can treat an unknown name as
    // the error it is instead of silently returning 0.
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
    // Tags first: the valid byte is read only on a tag match (an
    // invalidated line keeps its stale tag), so a miss costs one load
    // and one compare per way.
    for (std::uint32_t w = 0; w < ways_; ++w) {
        if (tags[w] == block && valid[w])
            return static_cast<int>(w);
    }
    return -1;
}

int
HybridLlc::victimWay(std::uint32_t set, std::uint32_t begin,
                     std::uint32_t end, unsigned ecb) const
{
    // Fit-LRU in one scan, SRAM ways then NVM frames: the first empty
    // way with enough capacity wins outright; otherwise the least
    // recently used fitting line (first way on a stamp tie, as
    // LruState::lruWay). A valid line was touched when filled, so its
    // stamp lies below the initial ~0.
    const std::uint8_t *valid = valid_.data() + index(set, 0);
    int best = -1;
    std::uint64_t best_stamp = ~std::uint64_t{0};
    const auto older = [&](std::uint32_t w) {
        const std::uint64_t stamp = lru_.stamp(set, w);
        const bool is_older = stamp < best_stamp;
        best = is_older ? static_cast<int>(w) : best;
        best_stamp = is_older ? stamp : best_stamp;
    };
    // SRAM ways hold a raw block and always fit.
    const std::uint32_t sram_end = std::min(end, config_.sramWays);
    for (std::uint32_t w = begin; w < sram_end; ++w) {
        if (!valid[w])
            return static_cast<int>(w);
        older(w);
    }
    const std::uint32_t nvm_begin = std::max(begin, config_.sramWays);
    if (nvm_begin < end) {
        const unsigned stored = storedSize(nvm_begin, ecb);
        const std::uint32_t frame0 = frameOf(set, nvm_begin);
        for (std::uint32_t w = nvm_begin; w < end; ++w) {
            if (faultMap_->frameCapacity(frame0 + (w - nvm_begin)) < stored)
                continue;
            if (!valid[w])
                return static_cast<int>(w);
            older(w);
        }
    }
    return best;
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
    tracker_.spill(tags_[i], lineState(i));
    valid_[i] = 0;
    dirty_[i] = 0;
}

void
HybridLlc::writeLine(std::uint32_t set, std::uint32_t way, Addr block,
                     bool dirty, unsigned ecb, ReuseState state)
{
    const std::size_t i = index(set, way);
    HLLC_ASSERT(!valid_[i], "writeLine over a live resident");

    const bool nvm = isNvmWay(way);
    const unsigned stored = storedSize(way, ecb);
    const unsigned capacity = frameCapacity(set, way);
    HLLC_ASSERT(capacity >= stored,
                "block (%u B) does not fit frame (%u B)", stored,
                capacity);

    // Byte attribution for the write-traffic breakdown studies.
    if (nvm) {
        Counter *bucket;
        switch (state.reuse) {
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
        *bucket += stored;
    }

    tags_[i] = block;
    valid_[i] = 1;
    dirty_[i] = dirty ? 1 : 0;
    ecb_[i] = static_cast<std::uint8_t>(ecb);
    reuse_[i] = static_cast<std::uint8_t>(state.reuse);
    hits_[i] = state.hits;
    lru_.touch(set, way);

    if (nvm) {
        wear_->add(frameOf(set, way), stored, 1.0);
        ++*ctr_.nvmWrites;
        *ctr_.nvmBytesWritten += stored;
        ++*ctr_.insertsNvm;
        if (dueling_)
            dueling_->recordNvmBytes(set, stored);
    } else {
        ++*ctr_.insertsSram;
    }
    if (probe_)
        probe_->onFill(set, way, block, dirty, stored, nvm);
}

void
HybridLlc::migrateToNvm(std::uint32_t set, std::uint32_t way)
{
    const std::size_t i = index(set, way);
    HLLC_ASSERT(valid_[i] && !isNvmWay(way));

    const Addr block = tags_[i];
    const bool dirty = dirty_[i] != 0;
    const unsigned ecb = ecb_[i];
    const ReuseState state = lineState(i);

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
    writeLine(set, static_cast<std::uint32_t>(nvm_way), block, dirty, ecb,
              state);
    ++*ctr_.migrationsToNvm;
}

void
HybridLlc::insert(Addr block, bool dirty, unsigned ecb, ReuseState state)
{
    const std::uint32_t set = setOf(block);
    const unsigned cpth = dueling_ ? dueling_->cpthForSet(set)
                                   : config_.params.fixedCpth;
    const InsertContext ctx{
        block, dirty, ecb, state.reuse, state.hits, set, cpth,
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
            tracker_.spill(block, state);
            return;
        }
        evict(set, static_cast<std::uint32_t>(way));
        writeLine(set, static_cast<std::uint32_t>(way), block, dirty, ecb,
                  state);
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
                      ecb, state);
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
        tracker_.spill(block, state);
        return;
    }

    // SRAM insertion: the same Fit-LRU scan (every SRAM way fits).
    int way = victimWay(set, 0, config_.sramWays, ecb);
    HLLC_ASSERT(way >= 0);
    const std::size_t vi = index(set, static_cast<std::uint32_t>(way));
    if (valid_[vi]) {
        if (policy_.lhybridSramReplacement()) {
            // LHybrid: migrate the MRU loop-block to NVM to free a frame;
            // otherwise evict the LRU (paper Sec. II-C).
            const int lb_way =
                lru_.mruWay(set, 0, config_.sramWays,
                            [&](std::uint32_t w) {
                                const std::size_t i = index(set, w);
                                return valid_[i] != 0 && !dirty_[i] &&
                                       reuse_[i] == readReuse;
                            });
            if (lb_way >= 0) {
                migrateToNvm(set, static_cast<std::uint32_t>(lb_way));
                way = lb_way;
            }
        } else if (policy_.migrateReadReuseOnSramEviction() &&
                   reuse_[vi] == readReuse) {
            // CA_RWR: a read-reused SRAM victim moves to NVM instead of
            // leaving the LLC (paper Sec. IV-B).
            migrateToNvm(set, static_cast<std::uint32_t>(way));
        }
    }

    evict(set, static_cast<std::uint32_t>(way));
    writeLine(set, static_cast<std::uint32_t>(way), block, dirty, ecb,
              state);
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

    // A hit on a clean copy means read reuse (LHybrid's loop-block
    // condition); a hit on a dirty copy means write reuse.
    const std::size_t i = index(set, static_cast<std::uint32_t>(way));
    if (hits_[i] < 0xffff)
        ++hits_[i];
    reuse_[i] = static_cast<std::uint8_t>(
        dirty_[i] ? ReuseClass::Write : ReuseClass::Read);
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

    if (dueling_)
        dueling_->recordHit(set);

    // Invalidate-on-hit: ownership moves to the private levels, taking a
    // write-reuse tag with it; the dirty block will be Put back on L2
    // eviction (Sec. III-A).
    const std::size_t i = index(set, static_cast<std::uint32_t>(way));
    ReuseState state{ ReuseClass::Write, hits_[i] };
    if (state.hits < 0xffff)
        ++state.hits;
    tracker_.spill(block, state);
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

    ReuseState state;
    if (way >= 0) {
        // Already resident (the usual case for clean L2 victims whose
        // copy survived in the LLC): no write needed.
        ++*ctr_.putsPresent;
        const auto uway = static_cast<std::uint32_t>(way);
        const std::size_t i = index(set, uway);
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
                wear_->add(frameOf(set, uway), stored, 1.0);
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
        // Grew past the frame's capacity: relocate, tag and all.
        if (probe_)
            probe_->onRelocate(set, uway, block);
        state = lineState(i);
        valid_[i] = 0;
        dirty_[i] = 0;
    } else {
        state = tracker_.take(block);
    }

    insert(block, dirty, ecb_bytes, state);
}

AccessOutcome
HybridLlc::handle(const LlcEvent &event)
{
    if (dueling_)
        dueling_->tick(cyclesPerEvent);
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

bool
HybridLlc::contains(Addr block) const
{
    return findWay(setOf(block), block) >= 0;
}

ReuseState
HybridLlc::reuseOf(Addr block) const
{
    const std::uint32_t set = setOf(block);
    const int way = findWay(set, block);
    if (way < 0)
        return tracker_.stateOf(block);
    return lineState(index(set, static_cast<std::uint32_t>(way)));
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
                tracker_.spill(tags_[i], lineState(i));
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
