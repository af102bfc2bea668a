/**
 * @file
 * HybridLlc behavioural tests: the non-inclusive protocol edge
 * (GetS/GetX/Put, invalidate-on-GetX-hit), part steering, Fit-LRU over
 * faulty frames, LRU order in the SRAM part, SRAM-eviction migration,
 * LHybrid replacement, global (Fit-)LRU baselines, wear recording,
 * fault-map revalidation, and the reuse-tag hand-off between lines and
 * the ReuseTracker.
 */

#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "compression/encoding.hh"
#include "hybrid/llc_rig.hh"

namespace
{

using namespace hllc;
using namespace hllc::hybrid;

constexpr std::uint32_t kSets = 32;

LlcRig
makeRig(PolicyKind policy, std::uint32_t sram_ways = 2,
        std::uint32_t nvm_ways = 2, PolicyParams params = {})
{
    HybridLlcConfig config;
    config.numSets = kSets;
    config.sramWays = sram_ways;
    config.nvmWays = nvm_ways;
    config.policy = policy;
    config.params = params;
    config.epochCycles = 1u << 20;
    return buildPristineRig(config);
}

/** Block number landing in set 0 with a unique tag. */
Addr
blk(unsigned i)
{
    return static_cast<Addr>(i) * kSets;
}

TEST(HybridLlc, MissFillHitCycle)
{
    LlcRig rig = makeRig(PolicyKind::CaRwr);
    EXPECT_EQ(rig.llc->onGetS(blk(1)), AccessOutcome::Miss);
    rig.llc->onPut(blk(1), false, 30);
    EXPECT_TRUE(rig.llc->contains(blk(1)));
    EXPECT_NE(rig.llc->onGetS(blk(1)), AccessOutcome::Miss);
}

TEST(HybridLlc, GetXHitInvalidates)
{
    LlcRig rig = makeRig(PolicyKind::CaRwr);
    rig.llc->onPut(blk(1), false, 30);
    EXPECT_NE(rig.llc->onGetX(blk(1)), AccessOutcome::Miss);
    // Invalidate-on-hit: the copy is gone.
    EXPECT_FALSE(rig.llc->contains(blk(1)));
    EXPECT_EQ(rig.llc->stats().counterValue("invalidate_on_getx"), 1u);
}

TEST(HybridLlc, CleanPutOfResidentBlockWritesNothing)
{
    LlcRig rig = makeRig(PolicyKind::CaRwr);
    rig.llc->onPut(blk(1), false, 30);
    const auto bytes = rig.llc->nvmBytesWritten();
    rig.llc->onPut(blk(1), false, 30);
    EXPECT_EQ(rig.llc->nvmBytesWritten(), bytes);
    EXPECT_EQ(rig.llc->stats().counterValue("puts_present"), 1u);
}

TEST(HybridLlc, CaSteersBySize)
{
    LlcRig rig = makeRig(PolicyKind::Ca); // fixedCpth 58
    rig.llc->onPut(blk(1), false, 30);
    rig.llc->onPut(blk(2), false, 64);
    EXPECT_EQ(rig.llc->partOf(blk(1)), Part::Nvm);
    EXPECT_EQ(rig.llc->partOf(blk(2)), Part::Sram);
}

TEST(HybridLlc, CompressedSizeIsWhatNvmWears)
{
    LlcRig rig = makeRig(PolicyKind::Ca);
    rig.llc->onPut(blk(1), false, 30);
    EXPECT_EQ(rig.llc->nvmBytesWritten(), 30u);
    // The fault map saw the same 30 pending bytes.
    const auto frames = rig.map->geometry().numFrames();
    double pending = 0.0;
    for (std::uint32_t f = 0; f < frames; ++f)
        pending += rig.map->pendingWrites(f);
    EXPECT_DOUBLE_EQ(pending, 30.0);
}

TEST(HybridLlc, UncompressedPoliciesWearFullFrames)
{
    LlcRig rig = makeRig(PolicyKind::Bh);
    rig.llc->onPut(blk(1), false, 30); // compressible, but BH stores raw
    std::uint64_t nvm_bytes = rig.llc->nvmBytesWritten();
    if (rig.llc->partOf(blk(1)) == Part::Nvm)
        EXPECT_EQ(nvm_bytes, 64u);
    else
        EXPECT_EQ(nvm_bytes, 0u);
}

TEST(HybridLlc, ReadReuseClassification)
{
    LlcRig rig = makeRig(PolicyKind::CaRwr);
    rig.llc->onPut(blk(1), false, 30);
    rig.llc->onGetS(blk(1)); // clean hit -> read reuse
    EXPECT_EQ(rig.llc->reuseOf(blk(1)).reuse, ReuseClass::Read);
}

TEST(HybridLlc, WriteReuseClassification)
{
    LlcRig rig = makeRig(PolicyKind::CaRwr);
    rig.llc->onPut(blk(1), false, 30);
    rig.llc->onGetX(blk(1)); // write-permission hit -> write reuse
    EXPECT_EQ(rig.llc->reuseOf(blk(1)).reuse, ReuseClass::Write);
    // The dirty block comes back: write-reused blocks go to SRAM even
    // when highly compressed (paper Table II).
    rig.llc->onPut(blk(1), true, 2);
    EXPECT_EQ(rig.llc->partOf(blk(1)), Part::Sram);
}

TEST(HybridLlc, DirtyHitAlsoMeansWriteReuse)
{
    LlcRig rig = makeRig(PolicyKind::CaRwr);
    rig.llc->onPut(blk(1), true, 30); // dirty insert (small -> NVM)
    rig.llc->onGetS(blk(1));          // hit on a dirty copy
    EXPECT_EQ(rig.llc->reuseOf(blk(1)).reuse, ReuseClass::Write);
}

TEST(HybridLlc, MissResetsReuseHistory)
{
    LlcRig rig = makeRig(PolicyKind::CaRwr);
    rig.llc->onPut(blk(1), false, 30);
    rig.llc->onGetS(blk(1));
    EXPECT_EQ(rig.llc->reuseOf(blk(1)).reuse, ReuseClass::Read);
    rig.llc->onGetX(blk(1)); // invalidates
    rig.llc->onGetS(blk(1)); // miss: refetched from memory
    EXPECT_EQ(rig.llc->reuseOf(blk(1)).reuse, ReuseClass::None);
}

TEST(HybridLlc, ReadReuseGoesToNvmEvenWhenBig)
{
    LlcRig rig = makeRig(PolicyKind::CaRwr);
    rig.llc->onPut(blk(1), false, 64); // big -> SRAM
    EXPECT_EQ(rig.llc->partOf(blk(1)), Part::Sram);
    rig.llc->onGetS(blk(1)); // read reuse
    // Evict it from SRAM by filling the SRAM ways; the read-reused
    // victim must migrate to NVM (paper Sec. IV-B).
    rig.llc->onPut(blk(2), false, 64);
    rig.llc->onPut(blk(3), false, 64);
    EXPECT_EQ(rig.llc->partOf(blk(1)), Part::Nvm);
    EXPECT_EQ(rig.llc->stats().counterValue("migrations_to_nvm"), 1u);
}

TEST(HybridLlc, FitLruSkipsTooSmallFrames)
{
    LlcRig rig = makeRig(PolicyKind::Ca);
    // Degrade NVM frame (set 0, way 0): only 40 live bytes left.
    for (unsigned b = 0; b < 24; ++b)
        rig.map->killByte(rig.map->geometry().frameIndex(0, 0), b);
    // A 44-byte block fits only frame 1; a 30-byte block fits both.
    rig.llc->onPut(blk(1), false, 44);
    rig.llc->onPut(blk(2), false, 44);
    // Only one NVM frame can hold 44 bytes: second 44B block must not
    // evict the first from frame 1 into frame 0.
    EXPECT_EQ(rig.llc->stats().counterValue("inserts_nvm"), 2u);
    EXPECT_EQ(rig.llc->stats().counterValue("evictions_nvm"), 1u);
}

TEST(HybridLlc, NvmFallbackToSramWhenNothingFits)
{
    LlcRig rig = makeRig(PolicyKind::Ca);
    // Both NVM frames of set 0 down to 20 live bytes.
    for (unsigned w = 0; w < 2; ++w)
        for (unsigned b = 0; b < 44; ++b)
            rig.map->killByte(rig.map->geometry().frameIndex(0, w), b);
    rig.llc->onPut(blk(1), false, 30); // small, but does not fit NVM
    EXPECT_EQ(rig.llc->partOf(blk(1)), Part::Sram);
    EXPECT_EQ(rig.llc->stats().counterValue("insert_nvm_fallback_sram"), 1u);
    // A tiny block still lands in NVM.
    rig.llc->onPut(blk(2), false, 9);
    EXPECT_EQ(rig.llc->partOf(blk(2)), Part::Nvm);
}

TEST(HybridLlc, SramVictimIsLeastRecentlyUsedNotFirstFilled)
{
    LlcRig rig = makeRig(PolicyKind::Ca); // fixedCpth 58: 64 B -> SRAM
    rig.llc->onPut(blk(1), false, 64);
    rig.llc->onPut(blk(2), false, 64);
    // The hit makes block 1 the most recently used although it was
    // filled first; CA does not migrate read-reused SRAM victims.
    EXPECT_EQ(rig.llc->onGetS(blk(1)), AccessOutcome::HitSram);
    rig.llc->onPut(blk(3), false, 64);
    EXPECT_TRUE(rig.llc->contains(blk(1)));
    EXPECT_FALSE(rig.llc->contains(blk(2)));
    EXPECT_EQ(rig.llc->partOf(blk(3)), Part::Sram);
    EXPECT_EQ(rig.llc->stats().counterValue("evictions_sram"), 1u);
    EXPECT_EQ(rig.llc->stats().counterValue("inserts_nvm"), 0u);
}

TEST(HybridLlc, BhGlobalLruSpansBothParts)
{
    LlcRig rig = makeRig(PolicyKind::Bh);
    // 4 ways total in set 0; fill them all.
    for (unsigned i = 1; i <= 4; ++i)
        rig.llc->onPut(blk(i), false, 64);
    EXPECT_EQ(rig.llc->stats().counterValue("inserts_sram") +
                  rig.llc->stats().counterValue("inserts_nvm"), 4u);
    // Fifth insert evicts the global LRU (block 1), wherever it lives.
    rig.llc->onPut(blk(5), false, 64);
    EXPECT_FALSE(rig.llc->contains(blk(1)));
}

TEST(HybridLlc, BhSkipsDeadFrames)
{
    LlcRig rig = makeRig(PolicyKind::Bh);
    // Frame-disabling: kill both NVM frames of set 0.
    rig.map->killFrame(rig.map->geometry().frameIndex(0, 0));
    rig.map->killFrame(rig.map->geometry().frameIndex(0, 1));
    for (unsigned i = 1; i <= 4; ++i)
        rig.llc->onPut(blk(i), false, 64);
    // Everything must have gone to the two SRAM ways.
    EXPECT_EQ(rig.llc->stats().counterValue("inserts_nvm"), 0u);
    EXPECT_EQ(rig.llc->stats().counterValue("inserts_sram"), 4u);
    EXPECT_FALSE(rig.llc->contains(blk(1)));
    EXPECT_FALSE(rig.llc->contains(blk(2)));
}

TEST(HybridLlc, LHybridMigratesMruLoopBlock)
{
    LlcRig rig = makeRig(PolicyKind::LHybrid);
    // Two clean blocks fill SRAM; one becomes a loop-block via a hit.
    rig.llc->onPut(blk(1), false, 64);
    rig.llc->onPut(blk(2), false, 64);
    rig.llc->onGetS(blk(2)); // block 2 is now a loop-block (LB)
    EXPECT_EQ(rig.llc->partOf(blk(2)), Part::Sram);
    // SRAM is full; inserting an NLB must migrate the MRU LB to NVM.
    rig.llc->onPut(blk(3), false, 64);
    EXPECT_EQ(rig.llc->partOf(blk(2)), Part::Nvm);
    EXPECT_TRUE(rig.llc->contains(blk(3)));
    EXPECT_EQ(rig.llc->stats().counterValue("migrations_to_nvm"), 1u);
}

TEST(HybridLlc, LHybridEvictsLruWhenNoLoopBlocks)
{
    LlcRig rig = makeRig(PolicyKind::LHybrid);
    rig.llc->onPut(blk(1), false, 64);
    rig.llc->onPut(blk(2), false, 64);
    rig.llc->onPut(blk(3), false, 64); // no LBs: LRU (block 1) evicted
    EXPECT_FALSE(rig.llc->contains(blk(1)));
    EXPECT_EQ(rig.llc->stats().counterValue("inserts_nvm"), 0u);
}

TEST(HybridLlc, DirtyEvictionWritesBack)
{
    LlcRig rig = makeRig(PolicyKind::LHybrid);
    rig.llc->onPut(blk(1), true, 64);
    rig.llc->onPut(blk(2), true, 64);
    rig.llc->onPut(blk(3), true, 64); // evicts dirty block 1
    EXPECT_EQ(rig.llc->stats().counterValue("writebacks_dirty"), 1u);
}

TEST(HybridLlc, InPlaceDirtyUpdateRewrites)
{
    LlcRig rig = makeRig(PolicyKind::Ca);
    rig.llc->onPut(blk(1), false, 30);
    EXPECT_EQ(rig.llc->partOf(blk(1)), Part::Nvm);
    const auto bytes_before = rig.llc->nvmBytesWritten();
    // Dirty Put over the (stale) resident copy: in-place rewrite.
    rig.llc->onPut(blk(1), true, 24);
    EXPECT_EQ(rig.llc->stats().counterValue("inplace_updates"), 1u);
    EXPECT_EQ(rig.llc->nvmBytesWritten(), bytes_before + 24);
}

TEST(HybridLlc, RevalidateDropsBlocksThatNoLongerFit)
{
    LlcRig rig = makeRig(PolicyKind::Ca);
    rig.llc->onPut(blk(1), false, 44);
    ASSERT_EQ(rig.llc->partOf(blk(1)), Part::Nvm);
    // Age the frame below 44 live bytes.
    const auto frames = rig.map->geometry().numFrames();
    for (std::uint32_t f = 0; f < frames; ++f)
        for (unsigned b = 0; b < 30; ++b)
            rig.map->killByte(f, b);
    rig.llc->revalidateAgainstFaultMap();
    EXPECT_FALSE(rig.llc->contains(blk(1)));
    EXPECT_EQ(rig.llc->stats().counterValue("aged_out"), 1u);
}

TEST(HybridLlc, EvictedReadReuseIsKeptAndSteersTheRefill)
{
    LlcRig rig = makeRig(PolicyKind::CaRwr);
    rig.llc->onPut(blk(1), false, 64); // big -> SRAM
    rig.llc->onGetS(blk(1));           // read reuse
    // SRAM pressure migrates it to NVM; small blocks then push it out.
    rig.llc->onPut(blk(2), false, 64);
    rig.llc->onPut(blk(3), false, 64);
    ASSERT_EQ(rig.llc->partOf(blk(1)), Part::Nvm);
    rig.llc->onPut(blk(4), false, 30);
    rig.llc->onPut(blk(5), false, 30);
    ASSERT_FALSE(rig.llc->contains(blk(1)));
    EXPECT_TRUE(rig.llc->tracker().contains(blk(1)));
    EXPECT_EQ(rig.llc->reuseOf(blk(1)), (ReuseState{ ReuseClass::Read, 1 }));
    // Put back from L2 without a memory fetch: still read-reused, so it
    // enters NVM although it is incompressible (paper Table II).
    rig.llc->onPut(blk(1), false, 64);
    EXPECT_EQ(rig.llc->partOf(blk(1)), Part::Nvm);
    EXPECT_EQ(rig.llc->reuseOf(blk(1)), (ReuseState{ ReuseClass::Read, 1 }));
    EXPECT_FALSE(rig.llc->tracker().contains(blk(1)));
    EXPECT_EQ(rig.llc->stats().counterValue("ins_read_clean"), 1u);
}

TEST(HybridLlc, GetXHitSpillsWriteReuse)
{
    LlcRig rig = makeRig(PolicyKind::CaRwr);
    rig.llc->onPut(blk(1), false, 30);
    rig.llc->onGetS(blk(1)); // the hit updates the line, not the tracker
    EXPECT_FALSE(rig.llc->tracker().contains(blk(1)));
    rig.llc->onGetX(blk(1)); // invalidate-on-hit
    EXPECT_FALSE(rig.llc->contains(blk(1)));
    EXPECT_TRUE(rig.llc->tracker().contains(blk(1)));
    EXPECT_EQ(rig.llc->reuseOf(blk(1)),
              (ReuseState{ ReuseClass::Write, 2 }));
}

TEST(HybridLlc, DirtyPutRelocationCarriesTheTag)
{
    LlcRig rig = makeRig(PolicyKind::Ca);
    // NVM frame (set 0, way 0) keeps 40 live bytes; frame 1 is pristine.
    for (unsigned b = 0; b < 24; ++b)
        rig.map->killByte(rig.map->geometry().frameIndex(0, 0), b);
    rig.llc->onPut(blk(1), false, 30); // first fitting empty frame: 0
    rig.llc->onGetS(blk(1));
    // The dirty contents (44 B) outgrow frame 0: the block relocates.
    rig.llc->onPut(blk(1), true, 44);
    EXPECT_EQ(rig.llc->stats().counterValue("inplace_updates"), 0u);
    EXPECT_EQ(rig.llc->partOf(blk(1)), Part::Nvm);
    EXPECT_EQ(rig.llc->reuseOf(blk(1)), (ReuseState{ ReuseClass::Read, 1 }));
    EXPECT_FALSE(rig.llc->tracker().contains(blk(1)));
    EXPECT_EQ(rig.llc->stats().counterValue("ins_read_dirty"), 1u);
}

TEST(HybridLlc, BypassKeepsTheTag)
{
    LlcRig rig = makeRig(PolicyKind::BhCp, 0, 2);
    rig.llc->onPut(blk(1), false, 30);
    rig.llc->onGetS(blk(1));
    rig.llc->onPut(blk(2), false, 30);
    rig.llc->onPut(blk(3), false, 30); // global LRU: block 1 leaves
    ASSERT_FALSE(rig.llc->contains(blk(1)));
    // Every frame of set 0 dies: nothing can hold the block any more.
    for (unsigned w = 0; w < 2; ++w)
        rig.map->killFrame(rig.map->geometry().frameIndex(0, w));
    rig.llc->revalidateAgainstFaultMap();
    rig.llc->onPut(blk(1), false, 30);
    EXPECT_EQ(rig.llc->stats().counterValue("bypasses"), 1u);
    EXPECT_FALSE(rig.llc->contains(blk(1)));
    EXPECT_TRUE(rig.llc->tracker().contains(blk(1)));
    EXPECT_EQ(rig.llc->reuseOf(blk(1)), (ReuseState{ ReuseClass::Read, 1 }));
}

TEST(HybridLlc, AgedOutLineSpillsItsTag)
{
    LlcRig rig = makeRig(PolicyKind::Ca);
    rig.llc->onPut(blk(1), false, 44);
    ASSERT_EQ(rig.llc->partOf(blk(1)), Part::Nvm);
    rig.llc->onGetS(blk(1));
    rig.llc->onGetS(blk(1));
    const auto frames = rig.map->geometry().numFrames();
    for (std::uint32_t f = 0; f < frames; ++f)
        for (unsigned b = 0; b < 30; ++b)
            rig.map->killByte(f, b);
    rig.llc->revalidateAgainstFaultMap();
    ASSERT_FALSE(rig.llc->contains(blk(1)));
    EXPECT_TRUE(rig.llc->tracker().contains(blk(1)));
    EXPECT_EQ(rig.llc->reuseOf(blk(1)), (ReuseState{ ReuseClass::Read, 2 }));
    // The refill takes the tag back out of the tracker.
    rig.llc->onPut(blk(1), false, 30);
    EXPECT_TRUE(rig.llc->contains(blk(1)));
    EXPECT_FALSE(rig.llc->tracker().contains(blk(1)));
    EXPECT_EQ(rig.llc->stats().counterValue("ins_read_clean"), 1u);
}

TEST(HybridLlc, ResetClearsContentsAndTracker)
{
    LlcRig rig = makeRig(PolicyKind::CaRwr);
    rig.llc->onPut(blk(1), false, 30);
    rig.llc->onGetS(blk(1));
    rig.llc->reset();
    EXPECT_FALSE(rig.llc->contains(blk(1)));
    EXPECT_EQ(rig.llc->reuseOf(blk(1)).reuse, ReuseClass::None);
    EXPECT_EQ(rig.llc->tracker().size(), 0u);
}

TEST(HybridLlc, SramOnlyNeverTouchesNvm)
{
    LlcRig rig = makeRig(PolicyKind::SramOnly, 4, 0);
    for (unsigned i = 1; i <= 8; ++i) {
        rig.llc->onPut(blk(i), false, 30);
        rig.llc->onGetS(blk(i));
    }
    EXPECT_EQ(rig.llc->nvmBytesWritten(), 0u);
    EXPECT_EQ(rig.llc->stats().counterValue("inserts_nvm"), 0u);
}

// The constructor registers every counter the LLC can bump, so a
// counter that stays at zero still exports and counterValue() of an
// unknown name stays an error. Pinned by name: a counter that stops
// being registered (or a new one) must show up here.
TEST(HybridLlc, FreshLlcRegistersEveryCounterAtZero)
{
    const std::vector<std::string> expected = {
        "aged_out", "bypasses", "evictions_nvm", "evictions_sram",
        "gets", "gets_hits_nvm", "gets_hits_sram", "gets_misses",
        "getx", "getx_hits_nvm", "getx_hits_sram", "getx_misses",
        "inplace_updates", "ins_none_clean", "ins_none_dirty",
        "ins_read_clean", "ins_read_dirty", "ins_write_clean",
        "ins_write_dirty", "insert_nvm_fallback_sram", "inserts_nvm",
        "inserts_sram", "invalidate_on_getx", "migrations_to_nvm",
        "nvm_bytes_none_clean", "nvm_bytes_none_dirty", "nvm_bytes_read",
        "nvm_bytes_write_reuse", "nvm_bytes_written", "nvm_writes",
        "puts_clean", "puts_dirty", "puts_present", "writebacks_dirty",
    };
    for (const PolicyTraits &traits : policyTable) {
        SCOPED_TRACE(std::string(traits.name));
        const std::uint32_t nvm_ways =
            traits.kind == PolicyKind::SramOnly ? 0 : 2;
        LlcRig rig = makeRig(traits.kind, 2, nvm_ways);
        std::vector<std::string> names;
        for (const auto &[name, counter] : rig.llc->stats().counters()) {
            names.push_back(name);
            EXPECT_EQ(counter.value(), 0u) << name;
        }
        EXPECT_EQ(names, expected);
    }
}

TEST(HybridLlc, DuelingEnabledOnlyForCpSd)
{
    EXPECT_NE(makeRig(PolicyKind::CpSd).llc->dueling(), nullptr);
    EXPECT_EQ(makeRig(PolicyKind::Ca).llc->dueling(), nullptr);
    EXPECT_EQ(makeRig(PolicyKind::LHybrid).llc->dueling(), nullptr);
}

TEST(HybridLlc, CpSdLeaderSetsUseTheirCandidate)
{
    LlcRig rig = makeRig(PolicyKind::CpSd);
    const auto &candidates = hllc::compression::cpthCandidates();
    for (std::size_t c = 0; c < candidates.size(); ++c)
        EXPECT_EQ(rig.llc->cpthForSet(static_cast<std::uint32_t>(c)),
                  candidates[c]);
    // Follower sets track the winner.
    EXPECT_EQ(rig.llc->cpthForSet(20), rig.llc->dueling()->winner());
}

TEST(HybridLlc, HandleDispatchesAndTicksEpochs)
{
    HybridLlcConfig config;
    config.numSets = kSets;
    config.sramWays = 2;
    config.nvmWays = 2;
    config.policy = PolicyKind::CpSd;
    config.epochCycles = 3 * cyclesPerEvent; // one epoch per 3 events
    LlcRig rig = buildPristineRig(config);
    const SetDueling &duel = *rig.llc->dueling();

    LlcEvent ev{ blk(1), LlcEventType::GetS, 64, 0 };
    EXPECT_EQ(rig.llc->handle(ev), AccessOutcome::Miss);
    ev.type = LlcEventType::PutClean;
    ev.ecbBytes = 30;
    rig.llc->handle(ev);
    EXPECT_EQ(duel.epochsCompleted(), 0u);
    ev.type = LlcEventType::GetS;
    EXPECT_NE(rig.llc->handle(ev), AccessOutcome::Miss);
    EXPECT_EQ(duel.epochsCompleted(), 1u);
    EXPECT_EQ(rig.llc->demandAccesses(), 2u);
}

TEST(HybridLlc, HitRateArithmetic)
{
    LlcRig rig = makeRig(PolicyKind::CaRwr);
    rig.llc->onGetS(blk(1));           // miss
    rig.llc->onPut(blk(1), false, 30);
    rig.llc->onGetS(blk(1));           // hit
    rig.llc->onGetS(blk(2));           // miss
    EXPECT_EQ(rig.llc->demandAccesses(), 3u);
    EXPECT_EQ(rig.llc->demandHits(), 1u);
    EXPECT_NEAR(rig.llc->hitRate(), 1.0 / 3.0, 1e-12);
}

} // namespace
