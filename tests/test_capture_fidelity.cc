/**
 * @file
 * Capture-fidelity integration test: driving the LLC live behind the
 * private stacks (the gem5-like detailed path) and replaying the
 * captured trace of the same workload must produce *identical* LLC
 * behaviour — the property that justifies the paper's
 * capture-once/replay-many methodology (HyCSim, Sec. V-A).
 */

#include <gtest/gtest.h>

#include "hierarchy/hierarchy.hh"
#include "hierarchy/trace_recorder.hh"
#include "hybrid/llc_rig.hh"
#include "replay/replayer.hh"
#include "workload/mixes.hh"

namespace
{

using namespace hllc;
using hybrid::HybridLlc;
using hybrid::HybridLlcConfig;
using hybrid::LlcRig;
using hybrid::PolicyKind;

constexpr std::uint32_t kSets = 64;
constexpr std::uint64_t kRefs = 25'000;
constexpr std::uint64_t kSeed = 1234;

LlcRig
makeLlc(PolicyKind policy)
{
    HybridLlcConfig config;
    config.numSets = kSets;
    config.sramWays = 4;
    config.nvmWays = 12;
    config.policy = policy;
    config.epochCycles = 20'000;
    return hybrid::buildPristineRig(config);
}

class CaptureFidelity : public ::testing::TestWithParam<PolicyKind>
{
};

TEST_P(CaptureFidelity, LiveAndReplayedLlcAgreeExactly)
{
    const PolicyKind policy = GetParam();
    const auto &mix = workload::tableVMixes()[0];
    const hierarchy::PrivateCacheConfig private_config{ 1024, 4,
                                                        4096, 16 };

    // Detailed path: the LLC is live behind the private stacks.
    LlcRig live = makeLlc(policy);
    {
        hierarchy::HybridLlcSink sink(live.llc.get());
        hierarchy::MixSimulation sim(mix, kSets * 16, private_config,
                                     kSeed);
        sim.run(kRefs, sink);
    }

    // Capture path: record the trace, then replay it (no warm-up so the
    // event-for-event behaviour is comparable).
    const replay::LlcTrace trace = hierarchy::captureTrace(
        mix, kSets * 16, private_config, kRefs, kSeed);
    LlcRig replayed = makeLlc(policy);
    replay::TraceReplayer(0.0).replay(trace, *replayed.llc);

    // Every counter of the two LLCs must agree exactly.
    for (const char *counter :
         { "gets", "gets_hits_sram", "gets_hits_nvm", "gets_misses",
           "getx", "getx_hits_sram", "getx_hits_nvm", "getx_misses",
           "puts_clean", "puts_dirty", "puts_present", "inserts_sram",
           "inserts_nvm", "nvm_writes", "nvm_bytes_written",
           "migrations_to_nvm", "evictions_sram", "evictions_nvm",
           "writebacks_dirty", "invalidate_on_getx" }) {
        EXPECT_EQ(live.llc->stats().counterValue(counter),
                  replayed.llc->stats().counterValue(counter))
            << counter;
    }
    EXPECT_DOUBLE_EQ(live.llc->hitRate(), replayed.llc->hitRate());

    // And the fault maps saw the same wear.
    for (std::uint32_t f = 0; f < live.map->geometry().numFrames(); ++f) {
        EXPECT_DOUBLE_EQ(live.map->pendingWrites(f),
                         replayed.map->pendingWrites(f))
            << "frame " << f;
    }
}

INSTANTIATE_TEST_SUITE_P(
    Policies, CaptureFidelity,
    ::testing::Values(PolicyKind::Bh, PolicyKind::BhCp,
                      PolicyKind::CaRwr, PolicyKind::CpSd,
                      PolicyKind::LHybrid, PolicyKind::Tap),
    [](const auto &info) {
        return std::string(hybrid::policyName(info.param));
    });

} // namespace
