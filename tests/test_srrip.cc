/**
 * @file
 * SRRIP replacement tests: re-reference promotion, distant-future
 * insertion, aging convergence and scan resistance compared with LRU.
 */

#include <gtest/gtest.h>

#include "hybrid/llc_rig.hh"

namespace
{

using namespace hllc;
using namespace hllc::hybrid;

constexpr std::uint32_t kSets = 32;

LlcRig
makeRig(ReplacementKind replacement, std::uint32_t sram_ways = 4,
        std::uint32_t nvm_ways = 0)
{
    HybridLlcConfig config;
    config.numSets = kSets;
    config.sramWays = sram_ways;
    config.nvmWays = nvm_ways;
    config.policy =
        nvm_ways == 0 ? PolicyKind::SramOnly : PolicyKind::Ca;
    config.replacement = replacement;
    return buildPristineRig(config);
}

Addr
blk(unsigned i)
{
    return static_cast<Addr>(i) * kSets;
}

TEST(Srrip, ReReferencedBlockSurvivesScans)
{
    // A 4-way set holding one hot block; a long stream of single-use
    // blocks must not evict it under SRRIP.
    LlcRig rig = makeRig(ReplacementKind::Srrip);
    rig.llc->onPut(blk(0), false, 64);
    rig.llc->onGetS(blk(0)); // promote to near-immediate re-reference

    for (unsigned i = 1; i <= 12; ++i) {
        rig.llc->onPut(blk(i), false, 64);
        rig.llc->onGetS(blk(0)); // keep re-referencing the hot block
    }
    EXPECT_TRUE(rig.llc->contains(blk(0)));
}

TEST(Lru, SameScanEvictsUnderLruWithoutReReference)
{
    // Control: without re-references even LRU-protected blocks go.
    LlcRig rig = makeRig(ReplacementKind::Lru);
    rig.llc->onPut(blk(0), false, 64);
    for (unsigned i = 1; i <= 12; ++i)
        rig.llc->onPut(blk(i), false, 64);
    EXPECT_FALSE(rig.llc->contains(blk(0)));
}

TEST(Srrip, NeverReferencedBlocksEvictFirst)
{
    LlcRig rig = makeRig(ReplacementKind::Srrip);
    rig.llc->onPut(blk(0), false, 64);
    rig.llc->onPut(blk(1), false, 64);
    rig.llc->onPut(blk(2), false, 64);
    rig.llc->onPut(blk(3), false, 64);
    rig.llc->onGetS(blk(0)); // block 0 promoted; 1..3 still distant
    rig.llc->onPut(blk(4), false, 64);
    // One of the unreferenced blocks was evicted, never block 0.
    EXPECT_TRUE(rig.llc->contains(blk(0)));
    int present = 0;
    for (unsigned i = 1; i <= 3; ++i)
        present += rig.llc->contains(blk(i));
    EXPECT_EQ(present, 2);
}

TEST(Srrip, HonoursFitConstraintsInNvm)
{
    LlcRig rig = makeRig(ReplacementKind::Srrip, 2, 2);
    // Degrade NVM frame (set 0, way 0) to 40 live bytes.
    for (unsigned b = 0; b < 24; ++b)
        rig.map->killByte(rig.map->geometry().frameIndex(0, 0), b);

    rig.llc->onPut(blk(1), false, 44); // only fits frame 1
    rig.llc->onGetS(blk(1));           // promote it hard
    rig.llc->onPut(blk(2), false, 44); // must still evict block 1 (only fit)
    EXPECT_EQ(rig.llc->stats().counterValue("inserts_nvm"), 2u);
    EXPECT_FALSE(rig.llc->contains(blk(1)));
    EXPECT_TRUE(rig.llc->contains(blk(2)));
}

TEST(Srrip, RandomStormKeepsInvariants)
{
    LlcRig rig = makeRig(ReplacementKind::Srrip, 4, 12);
    Xoshiro256StarStar rng(3);
    for (int i = 0; i < 20000; ++i) {
        const Addr block = rng.nextBounded(1024);
        switch (rng.nextBounded(3)) {
          case 0:
            rig.llc->onGetS(block);
            break;
          case 1:
            rig.llc->onGetX(block);
            break;
          default:
            rig.llc->onPut(block, rng.nextBool(0.3),
                       30 + static_cast<unsigned>(rng.nextBounded(35)));
        }
    }
    EXPECT_LE(rig.llc->hitRate(), 1.0);
    EXPECT_EQ(rig.llc->stats().counterValue("gets"),
              rig.llc->stats().counterValue("gets_hits_sram") +
                  rig.llc->stats().counterValue("gets_hits_nvm") +
                  rig.llc->stats().counterValue("gets_misses"));
}

} // namespace
