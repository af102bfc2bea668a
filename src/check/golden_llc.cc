#include "check/golden_llc.hh"

#include <sstream>

#include "common/logging.hh"
#include "compression/encoding.hh"

namespace hllc::check
{

using hybrid::AccessOutcome;
using hybrid::LlcEvent;
using hybrid::LlcEventType;
using hybrid::Part;
using hybrid::PolicyKind;
using hybrid::ReuseClass;

std::string
toString(const DecisionRecord &r)
{
    std::ostringstream out;
    switch (r.kind) {
      case DecisionKind::Evict:
        out << "Evict";
        break;
      case DecisionKind::Fill:
        out << "Fill";
        break;
      case DecisionKind::MigrateFree:
        out << "MigrateFree";
        break;
      case DecisionKind::Relocate:
        out << "Relocate";
        break;
      case DecisionKind::Inplace:
        out << "Inplace";
        break;
      case DecisionKind::Bypass:
        out << "Bypass";
        break;
      case DecisionKind::Outcome:
        out << "Outcome=" << r.way;
        return out.str();
    }
    out << " set=" << r.set << " way=" << r.way << " blk=0x" << std::hex
        << r.block << std::dec;
    if (r.bytes != 0)
        out << " bytes=" << r.bytes;
    if (r.flag)
        out << (r.kind == DecisionKind::Evict ? " wb" : " dirty");
    if (r.nvm)
        out << " nvm";
    return out.str();
}

std::string
toString(const std::vector<DecisionRecord> &records)
{
    std::string out;
    for (const DecisionRecord &r : records) {
        out += "  ";
        out += toString(r);
        out += '\n';
    }
    if (out.empty())
        out = "  (no decisions)\n";
    return out;
}

GoldenPolicy
goldenPolicy(PolicyKind kind, const hybrid::PolicyParams &params)
{
    const bool cpsd = kind == PolicyKind::CpSd || kind == PolicyKind::CpSdTh;
    const bool ca_rwr = kind == PolicyKind::CaRwr || cpsd;

    GoldenPolicy p;
    p.compressed = kind == PolicyKind::BhCp || kind == PolicyKind::Ca ||
                   ca_rwr;
    p.global = kind == PolicyKind::SramOnly || kind == PolicyKind::Bh ||
               kind == PolicyKind::BhCp;
    p.migrateReadReuse = ca_rwr;
    p.loopBlockSram = kind == PolicyKind::LHybrid;
    p.dueling = cpsd;
    if (kind == PolicyKind::CpSdTh) {
        p.thPercent = params.thPercent;
        p.twPercent = params.twPercent;
    }
    return p;
}

Part
goldenChoosePart(PolicyKind kind, const hybrid::PolicyParams &params,
                 const hybrid::InsertContext &ctx)
{
    const bool small = ctx.ecbBytes <= ctx.cpth;
    const bool clean = !ctx.dirty;
    const bool read_reused = ctx.reuse == ReuseClass::Read;
    const bool write_reused = ctx.reuse == ReuseClass::Write;

    if (goldenPolicy(kind, params).global)
        return Part::Sram;
    if (kind == PolicyKind::Ca)
        return small ? Part::Nvm : Part::Sram;
    if (kind == PolicyKind::LHybrid)
        return clean && read_reused ? Part::Nvm : Part::Sram;
    if (kind == PolicyKind::Tap) {
        const bool thrashing = ctx.hits >= params.tapThreshold;
        return clean && !write_reused && thrashing ? Part::Nvm
                                                   : Part::Sram;
    }
    // CA_RWR, CP_SD, CP_SD_Th.
    if (read_reused)
        return Part::Nvm;
    if (write_reused)
        return Part::Sram;
    return small ? Part::Nvm : Part::Sram;
}

GoldenLlc::GoldenLlc(const hybrid::HybridLlcConfig &config,
                     GoldenOptions options)
    : config_(config), options_(options),
      policy_(goldenPolicy(config.policy, config.params)),
      sets_(config.numSets,
            std::vector<Way>(config.totalWays()))
{
    HLLC_ASSERT(config.numSets > 0 &&
                (config.numSets & (config.numSets - 1)) == 0,
                "numSets must be a power of two");
    HLLC_ASSERT(config.replacement == hybrid::ReplacementKind::Lru,
                "the golden model only covers LRU replacement");

    if (policy_.dueling) {
        dueling_ = std::make_unique<hybrid::SetDueling>(
            config.numSets, compression::cpthCandidates(),
            config.epochCycles, policy_.thPercent, policy_.twPercent);
    }
}

GoldenLlc::WayView
GoldenLlc::way(std::uint32_t set, std::uint32_t w) const
{
    const Way &l = sets_[set][w];
    return { l.blockNum, l.valid, l.dirty, l.ecbBytes };
}

unsigned
GoldenLlc::cpthForSet(std::uint32_t set) const
{
    return dueling_ ? dueling_->cpthForSet(set)
                    : config_.params.fixedCpth;
}

unsigned
GoldenLlc::storedSize(std::uint32_t w, unsigned ecb) const
{
    // SRAM always holds raw blocks; NVM holds the ECB when the policy
    // compresses, raw frames otherwise.
    if (isNvmWay(w) && policy_.compressed)
        return ecb;
    return static_cast<unsigned>(blockBytes);
}

ReuseClass
GoldenLlc::classOf(Addr block) const
{
    const auto it = reuse_.find(block);
    return it == reuse_.end() ? ReuseClass::None : it->second.cls;
}

unsigned
GoldenLlc::hitsOf(Addr block) const
{
    const auto it = reuse_.find(block);
    return it == reuse_.end() ? 0 : it->second.hits;
}

void
GoldenLlc::noteHit(Addr block, bool getx, bool copy_dirty)
{
    Reuse &r = reuse_[block];
    if (r.hits < 0xffff)
        ++r.hits;
    r.cls = (getx || copy_dirty) ? ReuseClass::Write : ReuseClass::Read;
}

int
GoldenLlc::findWay(std::uint32_t set, Addr block) const
{
    const std::vector<Way> &ways = sets_[set];
    for (std::uint32_t w = 0; w < ways.size(); ++w) {
        if (ways[w].valid && ways[w].blockNum == block)
            return static_cast<int>(w);
    }
    return -1;
}

int
GoldenLlc::victimWay(std::uint32_t set, std::uint32_t begin,
                     std::uint32_t end) const
{
    const std::vector<Way> &ways = sets_[set];
    // Empty ways first, lowest index (pristine frames always fit).
    for (std::uint32_t w = begin; w < end; ++w) {
        if (!ways[w].valid)
            return static_cast<int>(w);
    }
    // Then the least recently touched resident; first-scanned wins ties
    // (stamps are unique, so ties cannot actually occur).
    int lru = -1;
    int second = -1;
    for (std::uint32_t w = begin; w < end; ++w) {
        if (lru < 0 || ways[w].lastTouch < ways[lru].lastTouch) {
            second = lru;
            lru = static_cast<int>(w);
        } else if (second < 0 ||
                   ways[w].lastTouch < ways[second].lastTouch) {
            second = static_cast<int>(w);
        }
    }
    if (options_.buggyLruOffByOne && second >= 0)
        return second;
    return lru;
}

void
GoldenLlc::touch(std::uint32_t set, std::uint32_t w)
{
    sets_[set][w].lastTouch = ++clock_;
}

void
GoldenLlc::evictWay(std::uint32_t set, std::uint32_t w,
                    std::vector<DecisionRecord> *log)
{
    Way &l = sets_[set][w];
    if (!l.valid)
        return;
    if (l.dirty)
        ++writebacks_;
    if (log) {
        log->push_back({ DecisionKind::Evict, set,
                         static_cast<std::int32_t>(w), l.blockNum, l.dirty,
                         isNvmWay(w), 0 });
    }
    l.valid = false;
    l.dirty = false;
}

void
GoldenLlc::fill(std::uint32_t set, std::uint32_t w, Addr block, bool dirty,
                unsigned ecb, std::vector<DecisionRecord> *log)
{
    Way &l = sets_[set][w];
    HLLC_ASSERT(!l.valid, "golden fill over a live resident");

    const unsigned stored = storedSize(w, ecb);
    l.blockNum = block;
    l.valid = true;
    l.dirty = dirty;
    l.ecbBytes = ecb;
    touch(set, w);

    if (isNvmWay(w)) {
        nvmBytes_ += stored;
        if (dueling_)
            dueling_->recordNvmBytes(set, stored);
    }
    if (log) {
        log->push_back({ DecisionKind::Fill, set,
                         static_cast<std::int32_t>(w), block, dirty,
                         isNvmWay(w), stored });
    }
}

void
GoldenLlc::migrateToNvm(std::uint32_t set, std::uint32_t w,
                        std::vector<DecisionRecord> *log)
{
    Way &l = sets_[set][w];
    HLLC_ASSERT(l.valid && !isNvmWay(w));

    const Addr block = l.blockNum;
    const bool dirty = l.dirty;
    const unsigned ecb = l.ecbBytes;

    const int nvm_way = config_.nvmWays == 0
        ? -1
        : victimWay(set, config_.sramWays, config_.totalWays());
    if (nvm_way < 0) {
        evictWay(set, w, log);
        return;
    }

    // The block stays cached, so freeing the SRAM way is not a
    // writeback even when dirty.
    l.valid = false;
    l.dirty = false;
    if (log) {
        log->push_back({ DecisionKind::MigrateFree, set,
                         static_cast<std::int32_t>(w), block, false, false,
                         0 });
    }

    evictWay(set, static_cast<std::uint32_t>(nvm_way), log);
    fill(set, static_cast<std::uint32_t>(nvm_way), block, dirty, ecb, log);
}

void
GoldenLlc::bypass(Addr block, bool dirty, std::vector<DecisionRecord> *log)
{
    if (dirty)
        ++writebacks_;
    if (log)
        log->push_back({ DecisionKind::Bypass, 0, -1, block, dirty, false,
                         0 });
}

void
GoldenLlc::insert(Addr block, bool dirty, unsigned ecb,
                  std::vector<DecisionRecord> *log)
{
    const std::uint32_t set = setOf(block);
    const unsigned cpth = dueling_ ? dueling_->cpthForSet(set)
                                   : config_.params.fixedCpth;
    const hybrid::InsertContext ctx{
        block, dirty, ecb, classOf(block), hitsOf(block), set, cpth,
    };

    if (policy_.global) {
        // BH / BH_CP / SRAM bounds: one LRU over every way.
        const int w = victimWay(set, 0, config_.totalWays());
        if (w < 0) {
            bypass(block, dirty, log);
            return;
        }
        evictWay(set, static_cast<std::uint32_t>(w), log);
        fill(set, static_cast<std::uint32_t>(w), block, dirty, ecb, log);
        return;
    }

    Part part = goldenChoosePart(config_.policy, config_.params, ctx);

    if (part == Part::Nvm) {
        const int w = config_.nvmWays == 0
            ? -1
            : victimWay(set, config_.sramWays, config_.totalWays());
        if (w >= 0) {
            evictWay(set, static_cast<std::uint32_t>(w), log);
            fill(set, static_cast<std::uint32_t>(w), block, dirty, ecb,
                 log);
            return;
        }
        // No NVM frame fits: fall back to SRAM (paper Sec. IV-B).
        part = Part::Sram;
    }

    if (config_.sramWays == 0) {
        bypass(block, dirty, log);
        return;
    }

    // SRAM insertion: an empty way if one exists.
    int w = -1;
    for (std::uint32_t i = 0; i < config_.sramWays; ++i) {
        if (!sets_[set][i].valid) {
            w = static_cast<int>(i);
            break;
        }
    }

    if (w < 0) {
        if (policy_.loopBlockSram) {
            // LHybrid: migrate the MRU loop-block to NVM to free its
            // frame; otherwise evict the plain LRU (paper Sec. II-C).
            int lb = -1;
            for (std::uint32_t i = 0; i < config_.sramWays; ++i) {
                const Way &l = sets_[set][i];
                if (l.valid && !l.dirty &&
                    classOf(l.blockNum) == ReuseClass::Read &&
                    (lb < 0 ||
                     l.lastTouch > sets_[set][lb].lastTouch)) {
                    lb = static_cast<int>(i);
                }
            }
            if (lb >= 0) {
                migrateToNvm(set, static_cast<std::uint32_t>(lb), log);
                w = lb;
            } else {
                w = victimWay(set, 0, config_.sramWays);
            }
        } else {
            w = victimWay(set, 0, config_.sramWays);
            HLLC_ASSERT(w >= 0);
            const Way &victim = sets_[set][static_cast<std::uint32_t>(w)];
            if (policy_.migrateReadReuse && victim.valid &&
                classOf(victim.blockNum) == ReuseClass::Read) {
                // CA_RWR: read-reused SRAM victims move to NVM instead
                // of leaving the LLC (paper Sec. IV-B).
                migrateToNvm(set, static_cast<std::uint32_t>(w), log);
            }
        }
    }

    HLLC_ASSERT(w >= 0);
    evictWay(set, static_cast<std::uint32_t>(w), log);
    fill(set, static_cast<std::uint32_t>(w), block, dirty, ecb, log);
}

AccessOutcome
GoldenLlc::onGetS(Addr block, std::vector<DecisionRecord> *log)
{
    (void)log;
    const std::uint32_t set = setOf(block);
    const int w = findWay(set, block);
    ++gets_;

    if (w < 0) {
        // Miss: refetched from memory, reuse history restarts.
        reuse_.erase(block);
        return AccessOutcome::Miss;
    }

    Way &l = sets_[set][static_cast<std::uint32_t>(w)];
    noteHit(block, /*getx=*/false, l.dirty);
    touch(set, static_cast<std::uint32_t>(w));
    if (dueling_)
        dueling_->recordHit(set);
    ++hits_;
    return isNvmWay(static_cast<std::uint32_t>(w)) ? AccessOutcome::HitNvm
                                                   : AccessOutcome::HitSram;
}

AccessOutcome
GoldenLlc::onGetX(Addr block, std::vector<DecisionRecord> *log)
{
    (void)log;
    const std::uint32_t set = setOf(block);
    const int w = findWay(set, block);
    ++getx_;

    if (w < 0) {
        reuse_.erase(block);
        return AccessOutcome::Miss;
    }

    Way &l = sets_[set][static_cast<std::uint32_t>(w)];
    noteHit(block, /*getx=*/true, l.dirty);
    if (dueling_)
        dueling_->recordHit(set);
    ++hits_;

    // Invalidate-on-hit: ownership moves to the private levels.
    const bool nvm = isNvmWay(static_cast<std::uint32_t>(w));
    l.valid = false;
    l.dirty = false;
    return nvm ? AccessOutcome::HitNvm : AccessOutcome::HitSram;
}

void
GoldenLlc::onPut(Addr block, bool dirty, unsigned ecb,
                 std::vector<DecisionRecord> *log)
{
    HLLC_ASSERT(ecb >= 2 && ecb <= blockBytes,
                "implausible ECB size %u", ecb);

    const std::uint32_t set = setOf(block);
    const int w = findWay(set, block);

    if (w >= 0) {
        const auto uw = static_cast<std::uint32_t>(w);
        Way &l = sets_[set][uw];
        touch(set, uw);
        if (!dirty)
            return;
        // Pristine frames always fit, so a dirty Put over a resident
        // copy is always an in-place rewrite; the fast LLC's relocate
        // path only exists for degraded frames.
        const unsigned stored = storedSize(uw, ecb);
        l.dirty = true;
        l.ecbBytes = ecb;
        if (isNvmWay(uw)) {
            nvmBytes_ += stored;
            if (dueling_)
                dueling_->recordNvmBytes(set, stored);
        }
        if (log) {
            log->push_back({ DecisionKind::Inplace, set,
                             static_cast<std::int32_t>(uw), block, true,
                             isNvmWay(uw), stored });
        }
        return;
    }

    insert(block, dirty, ecb, log);
}

AccessOutcome
GoldenLlc::handle(const LlcEvent &event, std::vector<DecisionRecord> *log)
{
    if (dueling_)
        dueling_->tick(config_.cyclesPerEvent);
    switch (event.type) {
      case LlcEventType::GetS:
        return onGetS(event.blockNum, log);
      case LlcEventType::GetX:
        return onGetX(event.blockNum, log);
      case LlcEventType::PutClean:
        onPut(event.blockNum, false, event.ecbBytes, log);
        return AccessOutcome::Miss;
      case LlcEventType::PutDirty:
        onPut(event.blockNum, true, event.ecbBytes, log);
        return AccessOutcome::Miss;
    }
    panic("unknown LLC event type");
}

} // namespace hllc::check
