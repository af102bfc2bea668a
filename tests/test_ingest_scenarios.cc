/**
 * @file
 * Scenario-library tests: every family generates deterministically
 * through the same trace+manifest path the converter uses, the
 * adversarial families actually defeat LRU at their target geometry,
 * the Belady bound holds on generated traces, and the serve evaluator
 * reproduces a direct replay of scenario events byte for byte.
 */

#include <gtest/gtest.h>

#include <cstdio>
#include <string>
#include <vector>

#include "check/manifest.hh"
#include "check/oracle.hh"
#include "check/rig.hh"
#include "common/error.hh"
#include "ingest/byte_source.hh"
#include "ingest/champsim.hh"
#include "ingest/scenarios.hh"
#include "replay/replayer.hh"
#include "serve/eval.hh"
#include "sim/config.hh"

namespace
{

using namespace hllc;

ingest::ScenarioOptions
smallOptions(std::uint64_t events = 8'000, std::uint64_t seed = 3)
{
    ingest::ScenarioOptions options;
    options.events = events;
    options.seed = seed;
    return options;
}

/** The LLC configuration matching what the scenario targeted. */
hybrid::HybridLlcConfig
matchingConfig(const ingest::ScenarioOptions &options,
               hybrid::PolicyKind policy)
{
    hybrid::HybridLlcConfig config;
    config.numSets = options.numSets;
    config.sramWays = 4;
    config.nvmWays = options.totalWays - 4;
    config.policy = policy;
    config.epochCycles = 50'000;
    return config;
}

double
replayHitRate(const replay::LlcTrace &trace,
              const hybrid::HybridLlcConfig &config)
{
    check::FastRig rig = check::makeFastRig(config);
    const replay::TraceReplayer replayer(0.2);
    return replayer.replay(trace, *rig.llc).hitRate;
}

TEST(IngestScenarios, EveryCatalogFamilyGeneratesAValidTrace)
{
    const auto &catalog = ingest::scenarioCatalog();
    ASSERT_EQ(catalog.size(), 7u);
    for (const ingest::ScenarioInfo &info : catalog) {
        const replay::LlcTrace trace = ingest::generateScenario(
            std::string(info.name), smallOptions(2'000));
        EXPECT_EQ(trace.size(), 2'000u) << info.name;
        EXPECT_EQ(trace.meta().mixName, info.name);
        for (const hybrid::LlcEvent &e : trace.events()) {
            ASSERT_GE(e.ecbBytes, 2) << info.name;
            ASSERT_LE(e.ecbBytes, 64) << info.name;
            ASSERT_LT(e.core, replay::traceCores) << info.name;
        }
        std::uint64_t demands = 0;
        for (const hybrid::LlcEvent &e : trace.events()) {
            if (e.type == hybrid::LlcEventType::GetS ||
                e.type == hybrid::LlcEventType::GetX)
                ++demands;
        }
        // A scenario that degenerates to all-Puts (or all-demands)
        // would exercise neither insertion nor reuse paths.
        EXPECT_GT(demands, trace.size() / 4) << info.name;
        EXPECT_LT(demands, trace.size()) << info.name;
    }
    EXPECT_THROW(ingest::generateScenario("no-such-family", {}), IoError);
}

TEST(IngestScenarios, GenerationIsDeterministicInTheSeed)
{
    for (const char *name : { "kv-server", "thrash", "phase-shift" }) {
        const replay::LlcTrace a =
            ingest::generateScenario(name, smallOptions(3'000, 9));
        const replay::LlcTrace b =
            ingest::generateScenario(name, smallOptions(3'000, 9));
        ASSERT_EQ(a.size(), b.size()) << name;
        for (std::size_t i = 0; i < a.size(); ++i) {
            ASSERT_EQ(a.events()[i].blockNum, b.events()[i].blockNum);
            ASSERT_EQ(a.events()[i].type, b.events()[i].type);
            ASSERT_EQ(a.events()[i].ecbBytes, b.events()[i].ecbBytes);
            ASSERT_EQ(a.events()[i].core, b.events()[i].core);
        }
        // Thrash's block sequence is deliberately seed-independent
        // (a fixed cyclic sweep), but its synthesized payloads are
        // not, so comparing ECBs too covers every family.
        const replay::LlcTrace other =
            ingest::generateScenario(name, smallOptions(3'000, 10));
        bool differs = other.size() != a.size();
        for (std::size_t i = 0; !differs && i < a.size(); ++i) {
            differs =
                a.events()[i].blockNum != other.events()[i].blockNum ||
                a.events()[i].ecbBytes != other.events()[i].ecbBytes;
        }
        EXPECT_TRUE(differs) << name;
    }
}

/** FNV-1a over every event's (block, type, ecb, core) bytes. */
std::uint64_t
eventDigest(const replay::LlcTrace &trace)
{
    std::uint64_t h = 0xcbf29ce484222325ULL;
    const auto feed = [&h](std::uint64_t v, int bytes) {
        for (int i = 0; i < bytes; ++i) {
            h ^= (v >> (8 * i)) & 0xff;
            h *= 0x100000001b3ULL;
        }
    };
    for (const hybrid::LlcEvent &e : trace.events()) {
        feed(e.blockNum, 8);
        feed(static_cast<std::uint64_t>(e.type), 1);
        feed(e.ecbBytes, 1);
        feed(e.core, 1);
    }
    return h;
}

TEST(IngestScenarios, EveryFamilyMatchesItsPinnedDigest)
{
    // Pinned once from the generator; a change to any family's block
    // stream or synthesized ECBs shows up here, which the run-against-
    // run determinism test above cannot see.
    const std::vector<std::pair<std::string, std::uint64_t>> pinned = {
        { "kv-server", 0x703d207f3ad146d6ULL },
        { "graph-analytics", 0xd62fbeb0e8f6410aULL },
        { "analytics-scan", 0x7fb0a1c41d96f5f8ULL },
        { "thrash", 0x270bd5d165f4cb45ULL },
        { "multi-tenant", 0x6f25b720da3417fbULL },
        { "phase-shift", 0x191e0119387b5485ULL },
        { "entropy-hostile", 0xb97b1503f6b08f70ULL },
    };
    ASSERT_EQ(pinned.size(), ingest::scenarioCatalog().size());
    for (const auto &[name, digest] : pinned) {
        const std::uint64_t got = eventDigest(
            ingest::generateScenario(name, smallOptions(4'000, 11)));
        EXPECT_EQ(got, digest)
            << name << ": 0x" << std::hex << got << std::dec;
    }
}

TEST(IngestScenarios, WrittenTracesRoundTripWithVerifiedManifests)
{
    const std::string out = "/tmp/hllc_test_scenario_manifest.hlt";
    const std::string manifest = check::manifestPathFor(out);
    const replay::LlcTrace trace =
        ingest::generateScenario("kv-server", smallOptions(2'000));
    ingest::writeTraceWithManifest(out, trace, 3);

    const replay::LlcTrace loaded = replay::LlcTrace::load(out);
    EXPECT_EQ(loaded.size(), trace.size());
    EXPECT_EQ(check::verifyManifest(out, loaded), std::nullopt);
    const auto parsed = check::loadManifest(out);
    ASSERT_TRUE(parsed.has_value());
    EXPECT_TRUE(parsed->hasSeed);
    EXPECT_EQ(parsed->seed, 3u);
    EXPECT_EQ(parsed->mix, "kv-server");

    // A manifest that disagrees with the file must be reported.
    check::TraceManifest wrong = *parsed;
    wrong.events += 1;
    wrong.bytes += 1;
    check::saveManifest(out, wrong);
    EXPECT_NE(check::verifyManifest(out, loaded), std::nullopt);

    std::remove(out.c_str());
    std::remove(manifest.c_str());
}

TEST(IngestScenarios, AdversarialFamiliesDefeatLruAtTargetGeometry)
{
    // The oracle-sanity satellite: thrash and streaming-scan must give
    // near-zero demand reuse under the LRU baseline at the geometry
    // they were generated against, while kv-server shows real locality
    // on the same cache — the library spans both extremes.
    const ingest::ScenarioOptions options = smallOptions(24'000);
    const hybrid::HybridLlcConfig config =
        matchingConfig(options, hybrid::PolicyKind::Bh);

    const double thrash = replayHitRate(
        ingest::generateScenario("thrash", options), config);
    EXPECT_LT(thrash, 0.02);
    const double scan = replayHitRate(
        ingest::generateScenario("analytics-scan", options), config);
    EXPECT_LT(scan, 0.02);
    const double kv = replayHitRate(
        ingest::generateScenario("kv-server", options), config);
    EXPECT_GT(kv, 0.3);
}

TEST(IngestScenarios, FamiliesThatStopEmittingAreRejectedNamingGeometry)
{
    // At 1 set x 1 way each core's share of the working set fits its
    // 16-block private filter: once warm, no touch reaches the LLC.
    ingest::ScenarioOptions options = smallOptions();
    options.numSets = 1;
    options.totalWays = 1;
    for (const std::string family : { "thrash", "graph-analytics" }) {
        try {
            ingest::generateScenario(family, options);
            ADD_FAILURE() << family << " at 1x1 did not throw";
        } catch (const IoError &e) {
            const std::string what = e.what();
            EXPECT_NE(what.find("'" + family + "'"), std::string::npos)
                << what;
            EXPECT_NE(what.find("1 sets x 1 ways"), std::string::npos)
                << what;
        }
    }
}

TEST(IngestScenarios, ScenarioAndConvertShareTheFractionRule)
{
    EXPECT_NO_THROW(ingest::checkClassFractions(1.0, 0.0));
    EXPECT_NO_THROW(ingest::checkClassFractions(0.0, 0.0));
    EXPECT_THROW(ingest::checkClassFractions(-0.1, 0.3), IoError);
    EXPECT_THROW(ingest::checkClassFractions(0.9, 0.9), IoError);

    ingest::ScenarioOptions scenario = smallOptions(1'000);
    scenario.hcrFraction = 0.9;
    scenario.lcrFraction = 0.9;
    EXPECT_THROW(ingest::generateScenario("kv-server", scenario), IoError);

    ingest::ConvertOptions convert;
    convert.hcrFraction = 0.9;
    convert.lcrFraction = 0.9;
    ingest::MemorySource source(ingest::synthesizeChampSimFixture(64, 1));
    EXPECT_THROW(ingest::convertChampSim(source, convert), IoError);
}

TEST(IngestScenarios, BeladyBoundHoldsOnGeneratedTraces)
{
    const ingest::ScenarioOptions options = smallOptions(6'000);
    for (const char *name : { "kv-server", "thrash", "multi-tenant" }) {
        const replay::LlcTrace trace =
            ingest::generateScenario(name, options);
        const auto violation = check::checkPolicyAgainstOracle(
            trace, matchingConfig(options, hybrid::PolicyKind::CpSd));
        EXPECT_EQ(violation, std::nullopt)
            << name << ": " << violation.value_or("");
    }
}

TEST(IngestScenarios, EntropyHostileTracesAreFullyIncompressible)
{
    const replay::LlcTrace trace =
        ingest::generateScenario("entropy-hostile", smallOptions(4'000));
    for (const hybrid::LlcEvent &e : trace.events())
        ASSERT_EQ(e.ecbBytes, 64);

    // ... while kv-server at the default mix has compressible mass.
    const replay::LlcTrace kv =
        ingest::generateScenario("kv-server", smallOptions(4'000));
    std::uint64_t compressed = 0;
    for (const hybrid::LlcEvent &e : kv.events())
        compressed += e.ecbBytes < 64 ? 1 : 0;
    EXPECT_GT(compressed, kv.size() / 4);
}

TEST(IngestScenarios, ServeBatchEvaluationMatchesADirectReplay)
{
    // End-to-end wiring into the serving daemon: a Batch request
    // carrying scenario events must evaluate to exactly what a direct
    // replay of the same trace under the same configuration produces.
    const ingest::ScenarioOptions options = smallOptions(4'000);
    const replay::LlcTrace trace =
        ingest::generateScenario("multi-tenant", options);

    sim::SystemConfig system;
    ASSERT_EQ(system.llcSets, options.numSets);
    ASSERT_EQ(system.sramWays + system.nvmWays, options.totalWays);

    serve::Request request;
    request.type = serve::RequestType::Batch;
    request.id = 1;
    request.batch.policy = "CP_SD";
    request.batch.events = trace.events();
    serve::Evaluator evaluator(system, {});
    const serve::EvalResult served = evaluator.evaluate(request);

    const auto kind = serve::policyFromName("CP_SD");
    ASSERT_TRUE(kind.has_value());
    check::FastRig rig =
        check::makeFastRig(system.llcConfig(*kind, {}));
    // Batch evaluation replays without warm-up (the caller sent
    // exactly the window to measure).
    const replay::ReplayResult direct =
        replay::TraceReplayer(0.0).replay(trace, *rig.llc);

    EXPECT_EQ(served.measuredEvents, direct.measuredEvents);
    EXPECT_EQ(served.demandAccesses, direct.demandAccesses);
    EXPECT_EQ(served.demandHits, direct.demandHits);
    EXPECT_EQ(served.nvmBytesWritten, direct.nvmBytesWritten);
    EXPECT_DOUBLE_EQ(served.hitRate, direct.hitRate);
    EXPECT_GT(served.demandAccesses, 0u);
}

} // namespace
