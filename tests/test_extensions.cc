/**
 * @file
 * Tests for the library extensions: trace (de)serialization, the energy
 * model, and the wear-distribution ablation knob.
 */

#include <gtest/gtest.h>

#include <cstdio>

#include "common/error.hh"
#include "hierarchy/energy.hh"
#include "hierarchy/hierarchy.hh"
#include "hybrid/llc_rig.hh"
#include "replay/replayer.hh"
#include "workload/mixes.hh"

namespace
{

using namespace hllc;

class TraceFile : public ::testing::Test
{
  protected:
    void SetUp() override
    {
        // Per-test path: cases run concurrently under `ctest -j`.
        path_ = std::string("/tmp/hllc_test_trace_") +
                ::testing::UnitTest::GetInstance()
                    ->current_test_info()
                    ->name() +
                ".hlt";
    }
    void TearDown() override { std::remove(path()); }

    const char *path() const { return path_.c_str(); }

    std::string path_;

    static replay::LlcTrace
    capture()
    {
        return hierarchy::captureTrace(
            workload::tableVMixes()[2], 512,
            hierarchy::PrivateCacheConfig{ 1024, 4, 4096, 16 }, 3000,
            77);
    }
};

TEST_F(TraceFile, SaveLoadRoundtrip)
{
    const replay::LlcTrace original = capture();
    original.save(path());
    const replay::LlcTrace loaded = replay::LlcTrace::load(path());

    ASSERT_EQ(loaded.size(), original.size());
    EXPECT_EQ(loaded.meta().mixName, original.meta().mixName);
    for (std::size_t c = 0; c < replay::traceCores; ++c) {
        EXPECT_EQ(loaded.meta().cores[c].instructions,
                  original.meta().cores[c].instructions);
        EXPECT_EQ(loaded.meta().cores[c].l1Hits,
                  original.meta().cores[c].l1Hits);
        EXPECT_DOUBLE_EQ(loaded.meta().cores[c].baseCpi,
                         original.meta().cores[c].baseCpi);
    }
    for (std::size_t i = 0; i < original.size(); ++i) {
        EXPECT_EQ(loaded.events()[i].blockNum,
                  original.events()[i].blockNum);
        EXPECT_EQ(loaded.events()[i].type, original.events()[i].type);
        EXPECT_EQ(loaded.events()[i].ecbBytes,
                  original.events()[i].ecbBytes);
        EXPECT_EQ(loaded.events()[i].core, original.events()[i].core);
    }
}

TEST_F(TraceFile, LoadedTraceReplaysIdentically)
{
    const replay::LlcTrace original = capture();
    original.save(path());
    const replay::LlcTrace loaded = replay::LlcTrace::load(path());

    hybrid::HybridLlcConfig config;
    config.numSets = 32;
    config.policy = hybrid::PolicyKind::CaRwr;
    const hybrid::LlcRig a = hybrid::buildPristineRig(config);
    const hybrid::LlcRig b = hybrid::buildPristineRig(config);

    const replay::TraceReplayer replayer(0.2);
    const auto ra = replayer.replay(original, *a.llc);
    const auto rb = replayer.replay(loaded, *b.llc);
    EXPECT_EQ(ra.demandHits, rb.demandHits);
    EXPECT_EQ(ra.nvmBytesWritten, rb.nvmBytesWritten);
}

TEST_F(TraceFile, LoadRejectsGarbage)
{
    // hllc-lint: allow(atomic-io) writing deliberate garbage to test
    // the reader's rejection path
    std::FILE *f = std::fopen(path(), "wb");
    ASSERT_NE(f, nullptr);
    std::fputs("definitely not a trace", f);
    std::fclose(f);
    EXPECT_THROW(replay::LlcTrace::load(path()), IoError);
}

TEST(Energy, BreakdownFollowsCounters)
{
    StatGroup stats("llc");
    stats.counter("gets_hits_sram") += 100;
    stats.counter("getx_hits_sram") += 50;
    stats.counter("gets_hits_nvm") += 200;
    stats.counter("inserts_sram") += 80;
    stats.counter("nvm_bytes_written") += 10'000;
    stats.counter("gets_misses") += 40;

    const hierarchy::EnergyParams params;
    const auto e = hierarchy::llcEnergy(stats, 4, 1e-3, params);

    EXPECT_DOUBLE_EQ(e.sramDynamic,
                     150 * params.sramReadNj + 80 * params.sramWriteNj);
    EXPECT_DOUBLE_EQ(e.nvmRead, 200 * (params.nvmReadNj +
                                       params.decompressionNj));
    EXPECT_DOUBLE_EQ(e.nvmWrite, 10'000 * params.nvmWritePerByteNj);
    EXPECT_DOUBLE_EQ(e.offChip, 40 * params.dramAccessNj);
    EXPECT_DOUBLE_EQ(e.leakage,
                     params.sramLeakagePerWayW * 4 * 1e-3 * 1e9);
    EXPECT_DOUBLE_EQ(e.total(), e.sramDynamic + e.nvmRead + e.nvmWrite +
                                    e.offChip + e.leakage);
}

TEST(Energy, FewerNvmBytesMeansLessWriteEnergy)
{
    StatGroup heavy("a"), light("b");
    heavy.counter("nvm_bytes_written") += 1'000'000;
    light.counter("nvm_bytes_written") += 100'000;
    const auto eh = hierarchy::llcEnergy(heavy, 4, 0.0);
    const auto el = hierarchy::llcEnergy(light, 4, 0.0);
    EXPECT_GT(eh.nvmWrite, 9.0 * el.nvmWrite);
}

TEST(WearDistribution, FrontLoadedKillsLeadingBytesFirst)
{
    const fault::NvmGeometry geom{ 2, 2, 64 };
    const fault::EnduranceModel endurance(
        geom, { 100.0, 0.0 }, Xoshiro256StarStar(1));
    fault::FaultMap map(endurance, fault::DisableGranularity::Byte,
                        fault::WearDistribution::FrontLoaded);
    EXPECT_EQ(map.distribution(),
              fault::WearDistribution::FrontLoaded);

    // 200 writes of 16 bytes each: bytes 0..15 take 200 writes (dead),
    // bytes 16.. take none.
    for (int i = 0; i < 200; ++i)
        map.recordWrite(0, 16);
    map.age(1.0);
    EXPECT_EQ(map.liveBytes(0), 64u - 16u);
    EXPECT_FALSE(map.liveMask(0) & 1u);
    EXPECT_TRUE(map.liveMask(0) & (1ull << 20));
    EXPECT_EQ(map.liveBytes(1), 64u);
}

TEST(WearDistribution, FrontLoadedAdvancesToSurvivors)
{
    const fault::NvmGeometry geom{ 1, 1, 64 };
    const fault::EnduranceModel endurance(
        geom, { 100.0, 0.0 }, Xoshiro256StarStar(1));
    fault::FaultMap map(endurance, fault::DisableGranularity::Byte,
                        fault::WearDistribution::FrontLoaded);
    // Two rounds: the second round's writes land on the next live
    // bytes after the first 8 die.
    for (int i = 0; i < 101; ++i)
        map.recordWrite(0, 8);
    map.age(1.0);
    EXPECT_EQ(map.liveBytes(0), 56u);
    for (int i = 0; i < 101; ++i)
        map.recordWrite(0, 8);
    map.age(1.0);
    EXPECT_EQ(map.liveBytes(0), 48u);
}

TEST(WearDistribution, LeveledOutlivesFrontLoaded)
{
    // Same traffic, same endurance: leveling must keep more capacity.
    const fault::NvmGeometry geom{ 4, 4, 64 };
    const fault::EnduranceModel endurance(
        geom, { 1000.0, 0.0 }, Xoshiro256StarStar(2));
    fault::FaultMap leveled(endurance, fault::DisableGranularity::Byte,
                            fault::WearDistribution::Leveled);
    fault::FaultMap front(endurance, fault::DisableGranularity::Byte,
                          fault::WearDistribution::FrontLoaded);
    for (std::uint32_t f = 0; f < geom.numFrames(); ++f) {
        for (int i = 0; i < 1200; ++i) {
            leveled.recordWrite(f, 32);
            front.recordWrite(f, 32);
        }
    }
    leveled.age(1.0);
    front.age(1.0);
    // Leveled: 1200*32/64 = 600 writes/byte < 1000 limit: all alive.
    EXPECT_EQ(leveled.effectiveCapacity(), 1.0);
    // Front-loaded: the first 32 bytes of each frame took 1200 writes.
    EXPECT_LT(front.effectiveCapacity(), 0.6);
}

} // namespace
