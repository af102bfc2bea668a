#include "hierarchy/private_cache.hh"

#include "common/logging.hh"

namespace hllc::hierarchy
{

using cache::Victim;
using hybrid::LlcEvent;
using hybrid::LlcEventType;

CoreHierarchy::CoreHierarchy(CoreId core, const PrivateCacheConfig &config,
                             workload::AppModel *app,
                             replay::LlcTrace *trace)
    : core_(core), app_(app), trace_(trace),
      l1_(config.l1Bytes, config.l1Ways), l2_(config.l2Bytes, config.l2Ways)
{
    HLLC_ASSERT(app != nullptr && trace != nullptr);
}

void
CoreHierarchy::demand(Addr block, bool getx)
{
    ++llcDemands_;
    trace_->append(LlcEvent{
        block,
        getx ? LlcEventType::GetX : LlcEventType::GetS,
        static_cast<std::uint8_t>(blockBytes),
        core_,
    });
}

void
CoreHierarchy::handleL2Victim(const Victim &victim)
{
    // Inclusion: kick the L1 copy out first and merge its dirtiness.
    bool dirty = victim.dirty;
    if (auto l1_dirty = l1_.invalidate(victim.blockNum))
        dirty = dirty || *l1_dirty;

    // Non-inclusive LLC: the victim is written there if absent.
    trace_->append(LlcEvent{
        victim.blockNum,
        dirty ? LlcEventType::PutDirty : LlcEventType::PutClean,
        static_cast<std::uint8_t>(app_->ecbSizeOf(victim.blockNum)),
        core_,
    });
}

void
CoreHierarchy::access(const workload::MemRef &ref)
{
    ++refs_;
    const Addr block = ref.blockNum;
    const bool write = ref.write;

    // --- L1 ---
    if (l1_.access(block, /*is_write=*/false)) {
        const bool writable = (*l1_.meta(block) & metaWritable) != 0;
        if (!write || writable) {
            if (write)
                l1_.setDirty(block);
            ++l1Hits_;
            return;
        }
        // Store to a read-only copy: upgrade below. The copy stays; only
        // permissions are acquired.
        const bool l2_writable =
            l2_.contains(block) && (*l2_.meta(block) & metaWritable);
        if (l2_writable) {
            ++l2Hits_;
        } else {
            demand(block, /*getx=*/true);
            if (l2_.contains(block))
                l2_.setMeta(block, metaWritable);
        }
        l1_.setMeta(block, metaWritable);
        l1_.setDirty(block);
        return;
    }

    // --- L2 ---
    std::uint32_t fill_meta = 0;

    if (l2_.access(block, /*is_write=*/false)) {
        const bool writable = (*l2_.meta(block) & metaWritable) != 0;
        if (write && !writable) {
            // Upgrade: GetX towards the LLC (invalidates its copy).
            demand(block, /*getx=*/true);
            l2_.setMeta(block, metaWritable);
        } else {
            ++l2Hits_;
        }
        fill_meta = *l2_.meta(block);
    } else {
        // L2 miss: GetS/GetX to the LLC; on an LLC miss the block comes
        // from memory straight into the private levels (Sec. III-A).
        demand(block, write);

        fill_meta = write ? metaWritable : 0;
        if (auto victim = l2_.fill(block, /*dirty=*/false, fill_meta))
            handleL2Victim(*victim);
    }

    // --- L1 fill ---
    if (auto victim = l1_.fill(block, /*dirty=*/write, fill_meta)) {
        // Writeback into L2 (inclusion guarantees presence).
        if (victim->dirty) {
            l2_.setDirty(victim->blockNum);
            l2_.setMeta(victim->blockNum,
                        victim->meta | metaWritable);
        }
    }
}

} // namespace hllc::hierarchy
