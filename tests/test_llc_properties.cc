/**
 * @file
 * Cross-policy property tests: every insertion policy must uphold the
 * LLC's structural invariants under randomized event storms, with and
 * without pre-existing NVM faults — accounting identities, capacity
 * limits, fault-respecting placement and deterministic behaviour. The
 * invariants themselves live in src/check (checkAllInvariants), shared
 * with the hllc_check differential/fuzz drivers.
 */

#include <gtest/gtest.h>

#include "check/invariants.hh"
#include "hybrid/llc_rig.hh"

namespace
{

using namespace hllc;
using namespace hllc::hybrid;

constexpr std::uint32_t kSets = 32;

LlcRig
makeRig(PolicyKind policy, bool degraded)
{
    HybridLlcConfig config;
    config.numSets = kSets;
    config.sramWays = 4;
    config.nvmWays = 12;
    config.policy = policy;
    config.epochCycles = 5'000;
    if (policy == PolicyKind::SramOnly) {
        config.sramWays = 16;
        config.nvmWays = 0;
    }

    LlcRig rig = buildPristineRig(config);
    if (rig.map && degraded) {
        // Random byte faults down to ~70% capacity.
        Xoshiro256StarStar rng(11);
        while (rig.map->effectiveCapacity() > 0.7) {
            rig.map->killByte(
                static_cast<std::uint32_t>(
                    rng.nextBounded(rig.map->geometry().numFrames())),
                static_cast<unsigned>(rng.nextBounded(64)));
        }
    }
    return rig;
}

/** Random LLC-event storm mimicking the capture format. */
void
storm(HybridLlc &llc, std::uint64_t seed, int events)
{
    Xoshiro256StarStar rng(seed);
    const unsigned sizes[] = { 2, 9, 16, 23, 30, 34, 37, 44, 51, 58, 64 };
    for (int i = 0; i < events; ++i) {
        const Addr block = rng.nextBounded(2048);
        const auto kind = rng.nextBounded(4);
        LlcEvent ev;
        ev.blockNum = block;
        ev.core = static_cast<CoreId>(rng.nextBounded(4));
        ev.ecbBytes = static_cast<std::uint8_t>(
            sizes[rng.nextBounded(std::size(sizes))]);
        switch (kind) {
          case 0: ev.type = LlcEventType::GetS; break;
          case 1: ev.type = LlcEventType::GetX; break;
          case 2: ev.type = LlcEventType::PutClean; break;
          default: ev.type = LlcEventType::PutDirty; break;
        }
        llc.handle(ev);
    }
}

class PolicyStorm
    : public ::testing::TestWithParam<std::tuple<PolicyKind, bool>>
{
};

TEST_P(PolicyStorm, InvariantsHoldUnderRandomTraffic)
{
    const auto [policy, degraded] = GetParam();
    LlcRig rig = makeRig(policy, degraded);
    storm(*rig.llc, 42, 30'000);

    // Structural, stats-accounting and wear-accounting invariants all
    // live in src/check; a clean LLC reports no violations.
    for (const std::string &violation :
         check::checkAllInvariants(*rig.llc)) {
        ADD_FAILURE() << violation;
    }
    EXPECT_LE(rig.llc->hitRate(), 1.0);
    if (!rig.map) {
        EXPECT_EQ(rig.llc->nvmBytesWritten(), 0u);
        EXPECT_EQ(rig.llc->stats().counterValue("inserts_nvm"), 0u);
    }
}

TEST_P(PolicyStorm, Deterministic)
{
    const auto [policy, degraded] = GetParam();
    LlcRig a = makeRig(policy, degraded);
    LlcRig b = makeRig(policy, degraded);
    storm(*a.llc, 99, 10'000);
    storm(*b.llc, 99, 10'000);
    EXPECT_EQ(a.llc->demandHits(), b.llc->demandHits());
    EXPECT_EQ(a.llc->nvmBytesWritten(), b.llc->nvmBytesWritten());
}

TEST_P(PolicyStorm, SurvivesAgingMidstream)
{
    const auto [policy, degraded] = GetParam();
    if (policy == PolicyKind::SramOnly)
        GTEST_SKIP() << "no NVM to age";
    (void)degraded;
    LlcRig rig = makeRig(policy, false);
    storm(*rig.llc, 5, 10'000);
    // Age aggressively, then keep running: resident blocks whose frames
    // shrank must be dropped, not corrupted.
    Xoshiro256StarStar rng(13);
    while (rig.map->effectiveCapacity() > 0.6) {
        rig.map->killByte(static_cast<std::uint32_t>(rng.nextBounded(
                              rig.map->geometry().numFrames())),
                          static_cast<unsigned>(rng.nextBounded(64)));
    }
    rig.llc->revalidateAgainstFaultMap();
    storm(*rig.llc, 6, 10'000);
    EXPECT_LE(rig.llc->hitRate(), 1.0);
    // Structure (residents fit their shrunken frames, no duplicates)
    // and stats identities must survive mid-stream aging.
    for (const std::string &violation :
         check::checkLlcStructure(*rig.llc)) {
        ADD_FAILURE() << violation;
    }
    for (const std::string &violation :
         check::checkStatsAccounting(*rig.llc)) {
        ADD_FAILURE() << violation;
    }
}

INSTANTIATE_TEST_SUITE_P(
    AllPolicies, PolicyStorm,
    ::testing::Combine(
        ::testing::Values(PolicyKind::SramOnly, PolicyKind::Bh,
                          PolicyKind::BhCp, PolicyKind::Ca,
                          PolicyKind::CaRwr, PolicyKind::CpSd,
                          PolicyKind::CpSdTh, PolicyKind::LHybrid,
                          PolicyKind::Tap),
        ::testing::Bool()),
    [](const auto &info) {
        return std::string(policyName(std::get<0>(info.param))) +
               (std::get<1>(info.param) ? "_degraded" : "_pristine");
    });

} // namespace
