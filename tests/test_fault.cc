/**
 * @file
 * Endurance model, fault map (byte- and frame-disabling) and aging tests.
 */

#include <gtest/gtest.h>

#include "fault/endurance.hh"
#include "fault/fault_map.hh"

namespace
{

using namespace hllc;
using namespace hllc::fault;

NvmGeometry
smallGeometry()
{
    return { 4, 2, 64 }; // 4 sets x 2 NVM ways
}

EnduranceModel
makeModel(double mean = 1000.0, double cv = 0.0, std::uint64_t seed = 1)
{
    return EnduranceModel(smallGeometry(), { mean, cv },
                          Xoshiro256StarStar(seed));
}

TEST(Endurance, GeometryArithmetic)
{
    const NvmGeometry g = smallGeometry();
    EXPECT_EQ(g.numFrames(), 8u);
    EXPECT_EQ(g.numBytes(), 512u);
    EXPECT_EQ(g.frameIndex(0, 0), 0u);
    EXPECT_EQ(g.frameIndex(0, 1), 1u);
    EXPECT_EQ(g.frameIndex(3, 1), 7u);
}

TEST(Endurance, ZeroCvGivesExactMean)
{
    const EnduranceModel m = makeModel(5000.0, 0.0);
    for (std::uint32_t f = 0; f < 8; ++f)
        for (unsigned b = 0; b < 64; ++b)
            EXPECT_DOUBLE_EQ(m.limit(f, b), 5000.0);
}

TEST(Endurance, VariabilitySpreadsAroundMean)
{
    const EnduranceModel m = makeModel(1e6, 0.2, 7);
    double sum = 0.0;
    double min = 1e18, max = 0.0;
    for (std::uint32_t f = 0; f < 8; ++f) {
        for (unsigned b = 0; b < 64; ++b) {
            const double limit = m.limit(f, b);
            sum += limit;
            min = std::min(min, limit);
            max = std::max(max, limit);
        }
    }
    const double mean = sum / 512.0;
    EXPECT_NEAR(mean, 1e6, 0.05 * 1e6);
    EXPECT_LT(min, 0.7 * 1e6);  // ~ -1.5 sigma exists in 512 draws
    EXPECT_GT(max, 1.3 * 1e6);
}

TEST(Endurance, SameSeedSameFabric)
{
    const EnduranceModel a = makeModel(1e6, 0.25, 42);
    const EnduranceModel b = makeModel(1e6, 0.25, 42);
    for (std::uint32_t f = 0; f < 8; ++f)
        for (unsigned byte = 0; byte < 64; ++byte)
            EXPECT_DOUBLE_EQ(a.limit(f, byte), b.limit(f, byte));
}

TEST(FaultMap, StartsFullyLive)
{
    const EnduranceModel m = makeModel();
    FaultMap map(m, DisableGranularity::Byte);
    EXPECT_DOUBLE_EQ(map.effectiveCapacity(), 1.0);
    EXPECT_EQ(map.totalLiveBytes(), 512u);
    EXPECT_EQ(map.deadFrames(), 0u);
    for (std::uint32_t f = 0; f < 8; ++f) {
        EXPECT_EQ(map.liveBytes(f), 64u);
        EXPECT_EQ(map.liveMask(f), ~std::uint64_t{0});
        EXPECT_TRUE(map.fits(f, 64));
    }
}

TEST(FaultMap, KillByteUpdatesCapacity)
{
    const EnduranceModel m = makeModel();
    FaultMap map(m, DisableGranularity::Byte);
    map.killByte(2, 5);
    EXPECT_EQ(map.liveBytes(2), 63u);
    EXPECT_FALSE(map.liveMask(2) & (1ull << 5));
    EXPECT_TRUE(map.fits(2, 63));
    EXPECT_FALSE(map.fits(2, 64));
    // Killing the same byte twice is idempotent.
    map.killByte(2, 5);
    EXPECT_EQ(map.liveBytes(2), 63u);
    EXPECT_EQ(map.totalLiveBytes(), 511u);
}

TEST(FaultMap, FrameGranularityRetiresWholeFrame)
{
    const EnduranceModel m = makeModel();
    FaultMap map(m, DisableGranularity::Frame);
    map.killByte(3, 17);
    EXPECT_EQ(map.liveBytes(3), 0u);
    EXPECT_EQ(map.deadFrames(), 1u);
    EXPECT_FALSE(map.fits(3, 1));
    EXPECT_DOUBLE_EQ(map.effectiveCapacity(), 7.0 / 8.0);
}

TEST(FaultMap, AgingSpreadsWearOverLiveBytes)
{
    // Limit 1000 writes per byte, no variability.
    const EnduranceModel m = makeModel(1000.0, 0.0);
    FaultMap map(m, DisableGranularity::Byte);

    // 64 * 999 bytes deposited in frame 0: one write short per byte.
    map.recordWrite(0, 64);
    EXPECT_GT(map.pendingWrites(0), 0.0);
    EXPECT_EQ(map.age(999.0), 0u);
    EXPECT_DOUBLE_EQ(map.writesSoFar(0, 0), 999.0);
    EXPECT_EQ(map.liveBytes(0), 64u);

    // One more spread write crosses the limit everywhere.
    map.recordWrite(0, 64);
    EXPECT_EQ(map.age(2.0), 64u);
    EXPECT_EQ(map.liveBytes(0), 0u);
    EXPECT_EQ(map.deadFrames(), 1u);
}

TEST(FaultMap, AgingOnlyWearsWrittenFrames)
{
    const EnduranceModel m = makeModel(10.0, 0.0);
    FaultMap map(m, DisableGranularity::Byte);
    map.recordWrite(1, 64 * 100); // far beyond the limit
    map.age(1.0);
    EXPECT_EQ(map.liveBytes(1), 0u);
    for (std::uint32_t f = 0; f < 8; ++f) {
        if (f != 1) {
            EXPECT_EQ(map.liveBytes(f), 64u) << f;
        }
    }
}

TEST(FaultMap, DiscardPendingDropsWear)
{
    const EnduranceModel m = makeModel(10.0, 0.0);
    FaultMap map(m, DisableGranularity::Byte);
    map.recordWrite(0, 64 * 100);
    map.discardPending();
    EXPECT_EQ(map.age(1.0), 0u);
    EXPECT_EQ(map.liveBytes(0), 64u);
}

TEST(FaultMap, FrameGranularityAgingKillsFrames)
{
    const EnduranceModel m = makeModel(100.0, 0.0);
    FaultMap map(m, DisableGranularity::Frame);
    map.recordWrite(4, 64);
    EXPECT_EQ(map.age(101.0), 64u); // whole frame reported disabled
    EXPECT_EQ(map.liveBytes(4), 0u);
    EXPECT_EQ(map.deadFrames(), 1u);
}

TEST(FaultMap, PartialWearAccumulatesAcrossAges)
{
    const EnduranceModel m = makeModel(100.0, 0.0);
    FaultMap map(m, DisableGranularity::Byte);
    for (int round = 0; round < 5; ++round) {
        map.recordWrite(0, 64 * 30);
        map.age(1.0);
    }
    // 150 writes per byte > 100 limit: dead after round 4.
    EXPECT_EQ(map.liveBytes(0), 0u);
}

TEST(FaultMap, WearConcentratesAsBytesDie)
{
    // When half the bytes are dead, the same frame traffic wears the
    // survivors twice as fast.
    const EnduranceModel m = makeModel(1000.0, 0.0);
    FaultMap map(m, DisableGranularity::Byte);
    for (unsigned b = 0; b < 32; ++b)
        map.killByte(0, b);
    map.recordWrite(0, 64);
    map.age(1.0);
    EXPECT_DOUBLE_EQ(map.writesSoFar(0, 32), 2.0);
    EXPECT_DOUBLE_EQ(map.writesSoFar(0, 0), 0.0); // dead: no wear applied
}

} // namespace
