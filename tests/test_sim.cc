/**
 * @file
 * sim-layer tests: configuration scaling, Experiment phase studies and
 * capacity degradation helpers.
 */

#include <gtest/gtest.h>

#include <cstdlib>
#include <vector>

#include "common/thread_pool.hh"
#include "sim/experiment.hh"

namespace
{

using namespace hllc;
using namespace hllc::sim;
using hybrid::PolicyKind;

TEST(Config, TableIVScaling)
{
    const SystemConfig s1 = SystemConfig::tableIV(1.0);
    EXPECT_EQ(s1.llcSets, 128u);
    EXPECT_EQ(s1.llcBlocks(), 128u * 16u);
    EXPECT_EQ(s1.privateCaches.l2Bytes, 8u * 1024u);

    const SystemConfig s16 = SystemConfig::tableIV(16.0);
    // Paper-scale geometry: 2 MB LLC, 128 KB L2, 32 KB L1.
    EXPECT_EQ(s16.llcSets, 2048u);
    EXPECT_EQ(s16.privateCaches.l2Bytes, 128u * 1024u);
    EXPECT_EQ(s16.privateCaches.l1Bytes, 32u * 1024u);
    EXPECT_DOUBLE_EQ(s16.fullScaleFactor(), 1.0);
    EXPECT_DOUBLE_EQ(s1.fullScaleFactor(), 16.0);
}

TEST(Config, ScaleFromEnvSnapsToPowerOfTwo)
{
    setenv("HLLC_SCALE", "3", 1);
    EXPECT_DOUBLE_EQ(scaleFromEnv(), 4.0);
    setenv("HLLC_SCALE", "0.5", 1);
    EXPECT_DOUBLE_EQ(scaleFromEnv(), 0.5);
    setenv("HLLC_SCALE", "garbage", 1);
    EXPECT_DOUBLE_EQ(scaleFromEnv(), 1.0);
    unsetenv("HLLC_SCALE");
    EXPECT_DOUBLE_EQ(scaleFromEnv(), 1.0);
}

TEST(ConfigDeathTest, OutOfRangeScaleIsFatal)
{
    // 0.125 and 128 are powers of two, so they reach the range check
    // unsnapped; the programmatic tableIV(double) keeps its assert.
    for (const char *scale : { "0.125", "128" }) {
        EXPECT_EXIT(
            {
                setenv("HLLC_SCALE", scale, 1);
                scaleFromEnv();
            },
            ::testing::ExitedWithCode(1),
            "outside the supported \\[0\\.25, 64\\] range");
    }
}

TEST(Config, LlcConfigCarriesPolicyAndGeometry)
{
    const SystemConfig cfg = SystemConfig::tableIV(0.5);
    const auto llc = cfg.llcConfig(PolicyKind::LHybrid);
    EXPECT_EQ(llc.numSets, cfg.llcSets);
    EXPECT_EQ(llc.sramWays, 4u);
    EXPECT_EQ(llc.nvmWays, 12u);
    EXPECT_EQ(llc.policy, PolicyKind::LHybrid);

    const auto bound = cfg.llcConfigSramBound(16);
    EXPECT_EQ(bound.sramWays, 16u);
    EXPECT_EQ(bound.nvmWays, 0u);
    EXPECT_EQ(bound.policy, PolicyKind::SramOnly);
}

TEST(Config, StudyEntryLabelsFollowThePolicyTable)
{
    const SystemConfig cfg = SystemConfig::tableIV(0.5);
    EXPECT_EQ(studyEntry(cfg, PolicyKind::Bh).label, "BH");
    EXPECT_EQ(studyEntry(cfg, PolicyKind::BhCp).label, "BH_CP");
    EXPECT_EQ(studyEntry(cfg, PolicyKind::LHybrid).label, "LHybrid");
    EXPECT_EQ(studyEntry(cfg, PolicyKind::Tap).label, "TAP");
    EXPECT_EQ(studyEntry(cfg, PolicyKind::CpSd).label, "CP_SD");

    const StudyEntry th8 =
        studyEntry(cfg, PolicyKind::CpSdTh, { .thPercent = 8.0 });
    EXPECT_EQ(th8.label, "CP_SD_Th8");
    EXPECT_EQ(th8.llc.policy, PolicyKind::CpSdTh);
    EXPECT_EQ(th8.llc.params.thPercent, 8.0);
    EXPECT_EQ(th8.llc.numSets, cfg.llcSets);
    EXPECT_EQ(studyEntry(cfg, PolicyKind::CpSdTh).label, "CP_SD_Th4");
}

TEST(DegradeUniform, ReachesTargetCapacity)
{
    const fault::NvmGeometry geom{ 32, 12, 64 };
    const fault::EnduranceModel endurance(
        geom, { 1e10, 0.2 }, Xoshiro256StarStar(1));
    fault::FaultMap map(endurance, fault::DisableGranularity::Byte);
    degradeUniform(map, 0.8, 99);
    EXPECT_LE(map.effectiveCapacity(), 0.8);
    EXPECT_GT(map.effectiveCapacity(), 0.78);
    // Deterministic.
    fault::FaultMap map2(endurance, fault::DisableGranularity::Byte);
    degradeUniform(map2, 0.8, 99);
    EXPECT_EQ(map.totalLiveBytes(), map2.totalLiveBytes());
}

/** Shared Experiment for the heavier integration checks. */
class ExperimentIntegration : public ::testing::Test
{
  protected:
    static const Experiment &experiment()
    {
        static const Experiment exp = [] {
            SystemConfig cfg = SystemConfig::tableIV(0.5);
            cfg.refsPerCore = 60'000;
            return Experiment(cfg, 3);
        }();
        return exp;
    }
};

TEST_F(ExperimentIntegration, CapturesRequestedMixes)
{
    EXPECT_EQ(experiment().traces().size(), 3u);
    EXPECT_EQ(experiment().tracePtrs().size(), 3u);
    EXPECT_EQ(experiment().tracePtr(1).size(), 1u);
    for (const auto &trace : experiment().traces())
        EXPECT_GT(trace.size(), 1000u);
}

TEST_F(ExperimentIntegration, PolicyOrderingAtFullCapacity)
{
    const auto &cfg = experiment().config();
    const auto bh =
        experiment().runPhase(cfg.llcConfig(PolicyKind::Bh), "BH");
    const auto lhybrid = experiment().runPhase(
        cfg.llcConfig(PolicyKind::LHybrid), "LHybrid");
    const auto tap =
        experiment().runPhase(cfg.llcConfig(PolicyKind::Tap), "TAP");
    const auto cpsd =
        experiment().runPhase(cfg.llcConfig(PolicyKind::CpSd), "CP_SD");

    // Paper Sec. II-D ordering at 100% capacity.
    EXPECT_GT(bh.aggregate.hitRate, lhybrid.aggregate.hitRate);
    EXPECT_GT(lhybrid.aggregate.hitRate, tap.aggregate.hitRate);
    EXPECT_GT(cpsd.aggregate.hitRate, lhybrid.aggregate.hitRate);
    // Write traffic: TAP < LHybrid << CP_SD < BH.
    EXPECT_LT(tap.aggregate.nvmBytesWritten,
              lhybrid.aggregate.nvmBytesWritten);
    EXPECT_LT(lhybrid.aggregate.nvmBytesWritten,
              cpsd.aggregate.nvmBytesWritten);
    EXPECT_LT(cpsd.aggregate.nvmBytesWritten,
              bh.aggregate.nvmBytesWritten);
}

TEST_F(ExperimentIntegration, CompressionCutsBytesNotHits)
{
    const auto &cfg = experiment().config();
    const auto bh =
        experiment().runPhase(cfg.llcConfig(PolicyKind::Bh), "BH");
    const auto bhcp =
        experiment().runPhase(cfg.llcConfig(PolicyKind::BhCp), "BH_CP");
    // Same (Fit-)LRU contents at full capacity: identical hit rates.
    EXPECT_NEAR(bhcp.aggregate.hitRate, bh.aggregate.hitRate, 1e-9);
    // Compression removes a large chunk of the written bytes.
    EXPECT_LT(bhcp.aggregate.nvmBytesWritten,
              0.8 * bh.aggregate.nvmBytesWritten);
}

TEST_F(ExperimentIntegration, ReducedCapacityReducesHits)
{
    const auto &cfg = experiment().config();
    const auto full = experiment().runPhase(
        cfg.llcConfig(PolicyKind::CpSd), "full", 1.0);
    const auto degraded = experiment().runPhase(
        cfg.llcConfig(PolicyKind::CpSd), "80%", 0.8);
    EXPECT_LT(degraded.aggregate.demandHits,
              full.aggregate.demandHits);
}

TEST_F(ExperimentIntegration, UpperBoundBeatsEveryHybrid)
{
    const auto &cfg = experiment().config();
    const double upper = experiment().upperBoundIpc();
    for (auto kind : { PolicyKind::Bh, PolicyKind::LHybrid,
                       PolicyKind::CpSd }) {
        const auto phase =
            experiment().runPhase(cfg.llcConfig(kind), "p");
        EXPECT_LE(phase.aggregate.meanIpc, upper * 1.001)
            << policyName(kind);
    }
}

TEST_F(ExperimentIntegration, SramBoundsMatchAFreshReplay)
{
    const auto &cfg = experiment().config();
    EXPECT_EQ(experiment().sramBoundIpc(cfg.sramWays + cfg.nvmWays),
              experiment().upperBoundIpc());

    // Concurrent first calls all get the one memoised replay.
    std::vector<double> lower(4, 0.0);
    parallelFor(4, lower.size(), [&](std::size_t i) {
        lower[i] = experiment().sramBoundIpc(cfg.sramWays);
    });
    hybrid::HybridLlc cache(cfg.llcConfigSramBound(cfg.sramWays), nullptr);
    const double fresh = forecast::replayAllTraces(
        experiment().tracePtrs(), cache, cfg.timing, 0.2).meanIpc;
    for (double ipc : lower)
        EXPECT_EQ(ipc, fresh);
    EXPECT_LT(fresh, experiment().upperBoundIpc());
}

} // namespace
