/**
 * @file
 * Pinned forecast output: the "hllc-stats-v1" export of a short Table IV
 * forecast study (scale 0.25, ten mixes, ten steps) must hash to a fixed
 * value. The other forecast tests compare runs against each other, so a
 * change that shifts every run the same way (a reuse tag lost on
 * eviction, a different Fit-LRU tie-break, a stale memoised set) passes
 * them; these do not. One study covers LHybrid / TAP / CP_SD_Th4, the
 * other the two global-replacement baselines: BH (frame disabling) and
 * BH_CP (byte disabling).
 */

#include <gtest/gtest.h>

#include <cstdio>

#include "common/serialize.hh"
#include "sim/experiment.hh"

namespace
{

using namespace hllc;
using hybrid::PolicyKind;

/** FNV-1a over a byte string. */
std::uint64_t
fnv1a(const std::vector<std::uint8_t> &bytes)
{
    std::uint64_t h = 0xcbf29ce484222325ULL;
    for (const std::uint8_t b : bytes) {
        h ^= b;
        h *= 0x100000001b3ULL;
    }
    return h;
}

/** FNV-1a of the stats export of a ten-step study over @p entries. */
std::uint64_t
studyDigest(const sim::Experiment &experiment,
            const std::vector<sim::StudyEntry> &entries,
            const std::string &out)
{
    forecast::ForecastConfig fc;
    fc.maxSteps = 10;
    EXPECT_EQ(sim::runAndPrintForecastStudy(experiment, entries, fc, {},
                                            out),
              0);
    const std::uint64_t got = fnv1a(serial::readFileBytes(out));
    std::remove(out.c_str());
    return got;
}

TEST(ForecastPin, StatsExportMatchesThePinnedDigest)
{
    const sim::SystemConfig config = sim::SystemConfig::tableIV(0.25);
    const sim::Experiment experiment(config);

    hybrid::PolicyParams th4;
    th4.thPercent = 4.0;
    const std::vector<sim::StudyEntry> entries = {
        { "LHybrid", config.llcConfig(PolicyKind::LHybrid) },
        { "TAP", config.llcConfig(PolicyKind::Tap) },
        { "CP_SD_Th4", config.llcConfig(PolicyKind::CpSdTh, th4) },
    };
    const std::uint64_t got = studyDigest(
        experiment, entries, "/tmp/hllc_test_forecast_pin.json");
    EXPECT_EQ(got, 0xb74add561de6db51ULL) << "0x" << std::hex << got;
}

TEST(ForecastPin, GlobalReplacementBaselinesMatchThePinnedDigest)
{
    const sim::SystemConfig config = sim::SystemConfig::tableIV(0.25);
    const sim::Experiment experiment(config);

    const std::vector<sim::StudyEntry> entries = {
        { "BH", config.llcConfig(PolicyKind::Bh) },
        { "BH_CP", config.llcConfig(PolicyKind::BhCp) },
    };
    const std::uint64_t got = studyDigest(
        experiment, entries, "/tmp/hllc_test_forecast_pin_bh.json");
    EXPECT_EQ(got, 0xcd07e38d5c074138ULL) << "0x" << std::hex << got;
}

} // namespace
