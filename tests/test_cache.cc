/**
 * @file
 * LruState and SetAssocCache tests: recency ordering, constrained victim
 * scans, fills/evictions/invalidations and metadata plumbing.
 */

#include <gtest/gtest.h>

#include "cache/lru.hh"
#include "cache/set_assoc.hh"

namespace
{

using namespace hllc;
using namespace hllc::cache;

TEST(Lru, VictimIsLeastRecentlyTouched)
{
    LruState lru(2, 4);
    for (std::uint32_t w = 0; w < 4; ++w)
        lru.touch(0, w);
    lru.touch(0, 1); // refresh way 1

    const auto any = [](std::uint32_t) { return true; };
    EXPECT_EQ(lru.lruWay(0, 0, 4, any), 0);
    EXPECT_EQ(lru.mruWay(0, 0, 4, any), 1);
}

TEST(Lru, UntouchedWaysWinVictimScan)
{
    LruState lru(1, 4);
    lru.touch(0, 0);
    lru.touch(0, 2);
    const auto any = [](std::uint32_t) { return true; };
    const int victim = lru.lruWay(0, 0, 4, any);
    EXPECT_TRUE(victim == 1 || victim == 3);
}

TEST(Lru, PredicateRestrictsScan)
{
    LruState lru(1, 4);
    for (std::uint32_t w = 0; w < 4; ++w)
        lru.touch(0, w);
    // Only odd ways eligible.
    const auto odd = [](std::uint32_t w) { return w % 2 == 1; };
    EXPECT_EQ(lru.lruWay(0, 0, 4, odd), 1);
    EXPECT_EQ(lru.mruWay(0, 0, 4, odd), 3);
    // Range restriction.
    const auto any = [](std::uint32_t) { return true; };
    EXPECT_EQ(lru.lruWay(0, 2, 4, any), 2);
    // No eligible way.
    const auto none = [](std::uint32_t) { return false; };
    EXPECT_EQ(lru.lruWay(0, 0, 4, none), -1);
}

TEST(Lru, SetsAreIndependent)
{
    LruState lru(2, 2);
    lru.touch(0, 0);
    lru.touch(1, 1);
    EXPECT_GT(lru.stamp(0, 0), 0u);
    EXPECT_EQ(lru.stamp(0, 1), 0u);
    EXPECT_EQ(lru.stamp(1, 0), 0u);
    EXPECT_GT(lru.stamp(1, 1), 0u);
}

TEST(SetAssoc, GeometryFromSizeAndWays)
{
    SetAssocCache cache(8 * 1024, 4);
    EXPECT_EQ(cache.numSets(), 32u);
    EXPECT_EQ(cache.numWays(), 4u);
}

TEST(SetAssoc, MissThenFillThenHit)
{
    SetAssocCache cache(4 * 1024, 4);
    EXPECT_FALSE(cache.access(100, false));
    EXPECT_FALSE(cache.fill(100, false, 0).has_value());
    EXPECT_TRUE(cache.access(100, false));
    EXPECT_TRUE(cache.contains(100));
}

TEST(SetAssoc, FillEvictsLruWhenSetFull)
{
    SetAssocCache cache(2 * 64 * 2, 2); // 2 sets x 2 ways
    // Blocks mapping to set 0: even block numbers.
    cache.fill(0, false, 7);
    cache.fill(2, true, 8);
    cache.access(0, false); // make block 0 MRU
    const auto victim = cache.fill(4, false, 9);
    ASSERT_TRUE(victim.has_value());
    EXPECT_EQ(victim->blockNum, 2u);
    EXPECT_TRUE(victim->dirty);
    EXPECT_EQ(victim->meta, 8u);
    EXPECT_TRUE(cache.contains(0));
    EXPECT_FALSE(cache.contains(2));
}

TEST(SetAssoc, WriteAccessSetsDirty)
{
    SetAssocCache cache(4 * 1024, 4);
    cache.fill(5, false, 0);
    cache.access(5, true);
    const auto dirty = cache.invalidate(5);
    ASSERT_TRUE(dirty.has_value());
    EXPECT_TRUE(*dirty);
}

TEST(SetAssoc, InvalidateAbsentReturnsNullopt)
{
    SetAssocCache cache(4 * 1024, 4);
    EXPECT_FALSE(cache.invalidate(123).has_value());
}

TEST(SetAssoc, MetaRoundtrip)
{
    SetAssocCache cache(4 * 1024, 4);
    cache.fill(9, false, 0x5a);
    EXPECT_EQ(*cache.meta(9), 0x5au);
    cache.setMeta(9, 0xa5);
    EXPECT_EQ(*cache.meta(9), 0xa5u);
    EXPECT_FALSE(cache.meta(10).has_value());
}

TEST(SetAssoc, InvalidWaysPreferredOverEviction)
{
    SetAssocCache cache(2 * 64 * 2, 2);
    cache.fill(0, false, 0);
    cache.fill(2, false, 0);
    cache.invalidate(0);
    // The freed way must absorb the next fill without evicting block 2.
    EXPECT_FALSE(cache.fill(4, false, 0).has_value());
    EXPECT_TRUE(cache.contains(2));
}

TEST(SetAssocDeathTest, DoubleFillPanics)
{
    SetAssocCache cache(4 * 1024, 4);
    cache.fill(1, false, 0);
    EXPECT_DEATH(cache.fill(1, false, 0), "double fill");
}

} // namespace
