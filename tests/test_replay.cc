/**
 * @file
 * Trace replay tests: policy-independence of the captured stream,
 * warm-up handling, per-core outcome attribution and replay determinism.
 */

#include <gtest/gtest.h>

#include "hierarchy/hierarchy.hh"
#include "hybrid/llc_rig.hh"
#include "replay/replayer.hh"
#include "workload/mixes.hh"

namespace
{

using namespace hllc;
using namespace hllc::replay;
using hybrid::HybridLlc;
using hybrid::HybridLlcConfig;
using hybrid::LlcRig;
using hybrid::PolicyKind;

LlcTrace
smallTrace(std::size_t mix_index = 0)
{
    return hierarchy::captureTrace(
        workload::tableVMixes()[mix_index], 512,
        hierarchy::PrivateCacheConfig{ 1024, 4, 4096, 16 }, 4000, 21);
}

LlcRig
makeLlc(PolicyKind policy)
{
    HybridLlcConfig config;
    config.numSets = 32;
    config.sramWays = 4;
    config.nvmWays = 12;
    config.policy = policy;
    config.epochCycles = 10'000;
    return hybrid::buildPristineRig(config);
}

TEST(Replay, DeterministicResults)
{
    const LlcTrace trace = smallTrace();
    TraceReplayer replayer(0.2);

    LlcRig a = makeLlc(PolicyKind::CpSd);
    LlcRig b = makeLlc(PolicyKind::CpSd);
    const ReplayResult ra = replayer.replay(trace, *a.llc);
    const ReplayResult rb = replayer.replay(trace, *b.llc);
    EXPECT_EQ(ra.demandHits, rb.demandHits);
    EXPECT_EQ(ra.nvmBytesWritten, rb.nvmBytesWritten);
    for (std::size_t c = 0; c < traceCores; ++c) {
        EXPECT_EQ(ra.cores[c].llcHitsSram, rb.cores[c].llcHitsSram);
        EXPECT_EQ(ra.cores[c].llcMisses, rb.cores[c].llcMisses);
    }
}

TEST(Replay, OutcomesPartitionDemands)
{
    const LlcTrace trace = smallTrace();
    LlcRig rig = makeLlc(PolicyKind::CaRwr);
    const ReplayResult res = TraceReplayer(0.2).replay(trace, *rig.llc);

    std::uint64_t outcomes = 0;
    for (const auto &core : res.cores) {
        outcomes += core.llcHitsSram + core.llcHitsNvm + core.llcMisses;
    }
    EXPECT_EQ(outcomes, res.demandAccesses);
    EXPECT_LE(res.demandHits, res.demandAccesses);
    EXPECT_GT(res.demandAccesses, 0u);
}

TEST(Replay, WarmupExcludedFromStats)
{
    const LlcTrace trace = smallTrace();
    LlcRig rig = makeLlc(PolicyKind::Bh);
    const ReplayResult with_warmup =
        TraceReplayer(0.5).replay(trace, *rig.llc);
    const ReplayResult without =
        TraceReplayer(0.0).replay(trace, *rig.llc);
    EXPECT_LT(with_warmup.measuredEvents, without.measuredEvents);
    // Warm-up keeps contents: the measured window must not look colder
    // than the full-trace replay.
    EXPECT_GT(with_warmup.measuredEvents, 0u);
}

TEST(Replay, WarmedCacheHitsMore)
{
    // Replaying the same trace twice without reset would be cheating;
    // instead compare hit rate with 0% vs 40% warm-up: the warmed
    // window must show an equal-or-better hit rate (cold misses fall in
    // the warm-up).
    const LlcTrace trace = smallTrace();
    LlcRig a = makeLlc(PolicyKind::Bh);
    LlcRig b = makeLlc(PolicyKind::Bh);
    const double cold = TraceReplayer(0.0).replay(trace, *a.llc).hitRate;
    const double warm = TraceReplayer(0.4).replay(trace, *b.llc).hitRate;
    EXPECT_GE(warm, cold - 0.02);
}

TEST(Replay, WearRecordedInFaultMap)
{
    const LlcTrace trace = smallTrace();
    LlcRig rig = makeLlc(PolicyKind::BhCp);
    TraceReplayer(0.2).replay(trace, *rig.llc);
    double pending = 0.0;
    for (std::uint32_t f = 0; f < rig.map->geometry().numFrames(); ++f)
        pending += rig.map->pendingWrites(f);
    EXPECT_GT(pending, 0.0);
}

TEST(Replay, TraceIsPolicyIndependentButOutcomesDiffer)
{
    const LlcTrace trace = smallTrace();
    LlcRig bh = makeLlc(PolicyKind::Bh);
    LlcRig lh = makeLlc(PolicyKind::LHybrid);
    TraceReplayer replayer(0.2);
    const ReplayResult rb = replayer.replay(trace, *bh.llc);
    const ReplayResult rl = replayer.replay(trace, *lh.llc);
    // Same demand stream...
    EXPECT_EQ(rb.demandAccesses, rl.demandAccesses);
    // ...but the conservative policy hits less and writes less NVM.
    EXPECT_GT(rb.demandHits, rl.demandHits);
    EXPECT_GT(rb.nvmBytesWritten, rl.nvmBytesWritten);
}

TEST(Replay, ResetsLlcBetweenCalls)
{
    const LlcTrace trace = smallTrace();
    LlcRig rig = makeLlc(PolicyKind::Bh);
    TraceReplayer replayer(0.2);
    const ReplayResult r1 = replayer.replay(trace, *rig.llc);
    const ReplayResult r2 = replayer.replay(trace, *rig.llc);
    EXPECT_EQ(r1.demandHits, r2.demandHits);
    EXPECT_EQ(r1.nvmBytesWritten, r2.nvmBytesWritten);
}

} // namespace
