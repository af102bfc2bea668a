/**
 * @file
 * Private-stack and hierarchy tests: L1/L2 inclusion, GetX upgrades,
 * Put generation on L2 evictions, trace capture invariance and the
 * timing model's monotonicity.
 */

#include <gtest/gtest.h>

#include <vector>

#include "hierarchy/hierarchy.hh"
#include "hierarchy/private_cache.hh"
#include "hierarchy/timing.hh"
#include "workload/spec_profiles.hh"

namespace
{

using namespace hllc;
using namespace hllc::hierarchy;
using hybrid::LlcEvent;
using hybrid::LlcEventType;

bool
isPut(const LlcEvent &ev)
{
    return ev.type == LlcEventType::PutClean ||
           ev.type == LlcEventType::PutDirty;
}

/** One core's stack recording into its own trace. */
struct CoreRig
{
    workload::AppModel app;
    replay::LlcTrace trace;
    CoreHierarchy core;

    explicit CoreRig(const PrivateCacheConfig &config)
        : app(workload::profileByName("zeusmp06"), 0, 2048,
              Xoshiro256StarStar(1)),
          core(0, config, &app, &trace)
    {
    }

    /** The captured GetS/GetX events, in order. */
    std::vector<LlcEvent>
    demands() const
    {
        std::vector<LlcEvent> out;
        for (const LlcEvent &ev : trace.events())
            if (!isPut(ev))
                out.push_back(ev);
        return out;
    }

    /** The captured Put events, in order. */
    std::vector<LlcEvent>
    puts() const
    {
        std::vector<LlcEvent> out;
        for (const LlcEvent &ev : trace.events())
            if (isPut(ev))
                out.push_back(ev);
        return out;
    }
};

PrivateCacheConfig
tinyConfig()
{
    // L1: 4 blocks (1 set x 4 ways); L2: 16 blocks (1 set x 16 ways).
    return PrivateCacheConfig{ 4 * 64, 4, 16 * 64, 16 };
}

TEST(CoreHierarchy, ColdReadMissesToLlcAsGetS)
{
    CoreRig rig(tinyConfig());
    rig.core.access({ 100, false });
    ASSERT_EQ(rig.trace.size(), 1u);
    const LlcEvent &ev = rig.trace.events()[0];
    EXPECT_EQ(ev.blockNum, 100u);
    EXPECT_EQ(ev.type, LlcEventType::GetS);
    EXPECT_EQ(ev.ecbBytes, blockBytes);
    EXPECT_EQ(ev.core, 0u);
    EXPECT_EQ(rig.core.llcDemands(), 1u);
}

TEST(CoreHierarchy, ColdWriteMissesToLlcAsGetX)
{
    CoreRig rig(tinyConfig());
    rig.core.access({ 100, true });
    ASSERT_EQ(rig.trace.size(), 1u);
    EXPECT_EQ(rig.trace.events()[0].type, LlcEventType::GetX);
}

TEST(CoreHierarchy, L1HitIsSilent)
{
    CoreRig rig(tinyConfig());
    rig.core.access({ 100, false });
    rig.core.access({ 100, false });
    EXPECT_EQ(rig.trace.size(), 1u);
    EXPECT_EQ(rig.core.l1Hits(), 1u);
    EXPECT_EQ(rig.core.refs(), 2u);
}

TEST(CoreHierarchy, WriteToReadOnlyCopyUpgradesWithGetX)
{
    CoreRig rig(tinyConfig());
    rig.core.access({ 100, false }); // GetS fill, read-only
    rig.core.access({ 100, true }); // store: needs ownership
    const auto demands = rig.demands();
    ASSERT_EQ(demands.size(), 2u);
    EXPECT_EQ(demands[1].type, LlcEventType::GetX);
    EXPECT_EQ(demands[1].blockNum, 100u);
    // Subsequent stores are silent (writable now).
    rig.core.access({ 100, true });
    EXPECT_EQ(rig.trace.size(), 2u);
    EXPECT_EQ(rig.core.llcDemands(), 2u);
}

TEST(CoreHierarchy, L2EvictionGeneratesPut)
{
    CoreRig rig(tinyConfig());
    // Fill the single 16-way L2 set plus one: evicts block 0.
    for (Addr b = 0; b <= 16; ++b)
        rig.core.access({ b, false });
    const auto puts = rig.puts();
    ASSERT_GE(puts.size(), 1u);
    EXPECT_EQ(puts[0].blockNum, 0u);
    EXPECT_EQ(puts[0].type, LlcEventType::PutClean);
    EXPECT_GE(puts[0].ecbBytes, 2u);
    EXPECT_LE(puts[0].ecbBytes, 64u);
    // The Put follows the GetS whose fill evicted block 0.
    EXPECT_EQ(rig.trace.events().back().blockNum, 0u);
}

TEST(CoreHierarchy, DirtyBlocksPutDirtyWithL1Merge)
{
    CoreRig rig(tinyConfig());
    rig.core.access({ 0, true }); // dirty in L1
    for (Addr b = 1; b <= 16; ++b)
        rig.core.access({ b, false });
    const auto puts = rig.puts();
    ASSERT_GE(puts.size(), 1u);
    // Block 0's dirtiness lived in L1; the Put must carry it.
    EXPECT_EQ(puts[0].blockNum, 0u);
    EXPECT_EQ(puts[0].type, LlcEventType::PutDirty);
}

TEST(CoreHierarchy, InclusionMaintainedUnderPressure)
{
    CoreRig rig(tinyConfig());
    Xoshiro256StarStar rng(3);
    // Random storm; inclusion violations would trip internal asserts.
    for (int i = 0; i < 20000; ++i)
        rig.core.access({ rng.nextBounded(64), rng.nextBool(0.3) });
    // Every L1-resident block must be in L2.
    for (Addr b = 0; b < 64; ++b) {
        if (rig.core.l1().contains(b)) {
            EXPECT_TRUE(rig.core.l2().contains(b)) << b;
        }
    }
}

TEST(MixSimulation, CountersCoverAllCores)
{
    const replay::LlcTrace trace =
        captureTrace(workload::tableVMixes()[0], 2048,
                     PrivateCacheConfig{ 2048, 4, 8192, 16 }, 2000, 42);
    for (std::size_t c = 0; c < replay::traceCores; ++c) {
        const replay::CoreMeta &m = trace.meta().cores[c];
        EXPECT_EQ(m.refs, 2000u) << c;
        EXPECT_GT(m.instructions, m.refs) << c; // memIntensity < 1
        EXPECT_GT(m.l1Hits, 0u) << c;
    }
}

TEST(TraceCapture, DeterministicAndWellFormed)
{
    const auto &mix = workload::tableVMixes()[0];
    const PrivateCacheConfig config{ 2048, 4, 8192, 16 };
    const auto t1 = captureTrace(mix, 2048, config, 2000, 7);
    const auto t2 = captureTrace(mix, 2048, config, 2000, 7);
    ASSERT_EQ(t1.size(), t2.size());
    EXPECT_GT(t1.size(), 0u);
    for (std::size_t i = 0; i < t1.size(); ++i) {
        EXPECT_EQ(t1.events()[i].blockNum, t2.events()[i].blockNum);
        EXPECT_EQ(t1.events()[i].type, t2.events()[i].type);
        EXPECT_EQ(t1.events()[i].ecbBytes, t2.events()[i].ecbBytes);
    }
    EXPECT_EQ(t1.meta().mixName, "mix 1");
    for (const auto &core : t1.meta().cores) {
        EXPECT_EQ(core.refs, 2000u);
        EXPECT_GT(core.llcDemands, 0u);
    }
}

TEST(TraceCapture, PutsCarryRealEcbSizes)
{
    const auto trace = captureTrace(workload::tableVMixes()[5], 2048,
                                    PrivateCacheConfig{ 2048, 4, 8192, 16 },
                                    2000, 7);
    bool saw_put = false;
    for (const LlcEvent &ev : trace.events()) {
        if (ev.type == LlcEventType::PutClean ||
            ev.type == LlcEventType::PutDirty) {
            saw_put = true;
            EXPECT_GE(ev.ecbBytes, 2u);
            EXPECT_LE(ev.ecbBytes, 64u);
        }
    }
    EXPECT_TRUE(saw_put);
}

TEST(Timing, DeeperLevelsCostMore)
{
    const TimingParams params;
    CoreActivity base;
    base.instructions = 1'000'000;
    base.refs = 300'000;
    base.baseCpi = 0.4;

    CoreActivity l2 = base;
    l2.l2Hits = 100'000;
    CoreActivity sram = base;
    sram.llcHitsSram = 100'000;
    CoreActivity nvm = base;
    nvm.llcHitsNvm = 100'000;
    CoreActivity mem = base;
    mem.llcMisses = 100'000;

    EXPECT_LT(coreCycles(base, params), coreCycles(l2, params));
    EXPECT_LT(coreCycles(l2, params), coreCycles(sram, params));
    EXPECT_LT(coreCycles(sram, params), coreCycles(nvm, params));
    EXPECT_LT(coreCycles(nvm, params), coreCycles(mem, params));

    EXPECT_GT(coreIpc(base, params), coreIpc(mem, params));
}

TEST(Timing, NvmWritesStallCores)
{
    const TimingParams params;
    CoreActivity a;
    a.instructions = 1'000'000;
    a.baseCpi = 0.4;
    const double before = coreCycles(a, params);
    a.nvmWrites = 100'000;
    EXPECT_GT(coreCycles(a, params), before);
}

TEST(Timing, IdleCoreHasZeroIpc)
{
    EXPECT_DOUBLE_EQ(coreIpc(CoreActivity{}, TimingParams{}), 0.0);
}

} // namespace
