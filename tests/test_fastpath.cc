/**
 * @file
 * Differential byte-identity tests pinning the fast replay paths to
 * their brute-force references: the SoA/static-dispatch LLC against the
 * golden shadow model over a large fuzzed trace, the lane-analysis BDI
 * compressor against the per-CE applicability checkers and the
 * independent reference decoder over the boundary-payload corpus, and
 * the batched .hlt decoder against save() round-trips plus the
 * over-declared-event-count regression artifact.
 */

#include <gtest/gtest.h>

#include <string>

#include "check/differential.hh"
#include "check/golden_compress.hh"
#include "check/trace_fuzz.hh"
#include "common/error.hh"
#include "compression/bdi.hh"
#include "compression/encoding.hh"
#include "replay/llc_trace.hh"
#include "workload/block_synth.hh"

namespace
{

using namespace hllc;
using check::DegenerateMode;
using compression::BdiCompressor;
using compression::Ce;
using compression::CeInfo;
using hybrid::PolicyKind;

/** Every policy: each takes its own branch of the steering switch. */
constexpr PolicyKind kFastPathPolicies[] = {
    PolicyKind::SramOnly, PolicyKind::Bh,     PolicyKind::BhCp,
    PolicyKind::Ca,       PolicyKind::CaRwr,  PolicyKind::CpSd,
    PolicyKind::CpSdTh,   PolicyKind::LHybrid, PolicyKind::Tap,
};

constexpr DegenerateMode kAllModes[] = {
    DegenerateMode::Pristine, DegenerateMode::CompressionOff,
    DegenerateMode::SramOnly,
};

hybrid::HybridLlcConfig
smallConfig(PolicyKind policy)
{
    hybrid::HybridLlcConfig config;
    config.numSets = 32;
    config.sramWays = 4;
    config.nvmWays = 12;
    config.policy = policy;
    config.epochCycles = 20'000;
    return config;
}

// A long fuzzed trace (scaled from the 1M-event acceptance run so the
// suite stays fast) replayed through the SoA tag store, the inline
// policy switch and inline Set Dueling accessors must agree with the
// brute-force golden shadow decision-for-decision.
TEST(FastPath, LargeFuzzedTraceMatchesGoldenShadow)
{
    const replay::LlcTrace trace = check::generateTrace(0xFA57, 250'000, 32);
    for (PolicyKind policy : kFastPathPolicies) {
        const check::GoldenDiffResult diff = check::diffGolden(
            trace, smallConfig(policy), DegenerateMode::Pristine);
        EXPECT_TRUE(diff.ok())
            << "policy " << static_cast<int>(policy) << ": "
            << (diff.divergence ? diff.divergence->description : "");
    }
}

// Same agreement across the degenerate modes (compression off,
// SRAM-only), which route around different parts of the fast path.
TEST(FastPath, DegenerateModesMatchGoldenShadow)
{
    const replay::LlcTrace trace = check::generateTrace(0xFA58, 30'000, 32);
    for (PolicyKind policy : kFastPathPolicies) {
        for (DegenerateMode mode : kAllModes) {
            const check::GoldenDiffResult diff =
                check::diffGolden(trace, smallConfig(policy), mode);
            EXPECT_TRUE(diff.ok())
                << "policy " << static_cast<int>(policy) << " mode "
                << static_cast<int>(mode) << ": "
                << (diff.divergence ? diff.divergence->description : "");
        }
    }
}

// Every boundary payload (max deltas, deltas one past the bound,
// segments one byte short of a value boundary) must survive the full
// BDI invariant sweep: the lane-analysis compress() picks the smallest
// applicable encoding and every encode() round-trips through the
// independent reference decoder.
TEST(FastPath, BdiBoundaryCorpusSurvivesInvariantSweep)
{
    for (const check::NamedBlock &block : check::boundaryBlocks()) {
        const auto why = check::verifyBdiBlock(block.data);
        EXPECT_FALSE(why.has_value())
            << block.name << ": " << why.value_or("");
    }
}

// Blocks synthesized to hit each target encoding exercise every row of
// the CE selection tree through the same invariant sweep.
TEST(FastPath, BdiSynthesizedBlocksSurviveInvariantSweep)
{
    for (const CeInfo &info : compression::ceTable()) {
        for (std::uint64_t seed = 1; seed <= 8; ++seed) {
            const BlockData data = workload::synthesizeBlock(info.ce, seed);
            const auto why = check::verifyBdiBlock(data);
            EXPECT_FALSE(why.has_value())
                << info.name << " seed " << seed << ": " << why.value_or("");
        }
    }
}

// compress() now derives applicability for all encodings from one lane
// analysis; the per-CE applicable() checkers are untouched. The chosen
// encoding must still be exactly the smallest-ECB applicable one
// (earliest table entry on ties), as the per-CE checkers see it.
TEST(FastPath, BdiLaneAnalysisAgreesWithPerCeCheckers)
{
    auto smallestApplicable = [](const BlockData &data) {
        Ce best = Ce::Uncompressed;
        unsigned best_size = compression::ecbSize(Ce::Uncompressed);
        for (const CeInfo &info : compression::ceTable()) {
            if (info.ecbBytes < best_size &&
                BdiCompressor::applicable(data, info.ce)) {
                best = info.ce;
                best_size = info.ecbBytes;
            }
        }
        return best;
    };
    auto checkBlock = [&](const BlockData &data, const std::string &name) {
        const compression::CompressionResult got =
            BdiCompressor::compress(data);
        EXPECT_EQ(static_cast<int>(got.ce),
                  static_cast<int>(smallestApplicable(data)))
            << name;
    };
    for (const check::NamedBlock &block : check::boundaryBlocks())
        checkBlock(block.data, block.name);
    for (const CeInfo &info : compression::ceTable())
        for (std::uint64_t seed = 1; seed <= 8; ++seed)
            checkBlock(workload::synthesizeBlock(info.ce, seed),
                       std::string(info.name));
}

// The batched decoder must reproduce save()'s event stream exactly,
// including across its internal staging-buffer boundary (4096 events).
TEST(FastPath, BatchedDecodeRoundTripsAcrossBatchBoundary)
{
    replay::LlcTrace trace = check::generateTrace(7, 10'000, 32);
    trace.meta().mixName = "fastpath-roundtrip";
    const std::string path =
        ::testing::TempDir() + "fastpath_roundtrip.hlt";
    trace.save(path);

    const replay::LlcTrace loaded = replay::LlcTrace::load(path);
    ASSERT_EQ(loaded.size(), trace.size());
    EXPECT_EQ(loaded.meta().mixName, trace.meta().mixName);
    for (std::size_t i = 0; i < trace.size(); ++i) {
        const hybrid::LlcEvent &a = trace.events()[i];
        const hybrid::LlcEvent &b = loaded.events()[i];
        ASSERT_EQ(a.blockNum, b.blockNum) << "event " << i;
        ASSERT_EQ(static_cast<int>(a.type), static_cast<int>(b.type))
            << "event " << i;
        ASSERT_EQ(a.ecbBytes, b.ecbBytes) << "event " << i;
        ASSERT_EQ(a.core, b.core) << "event " << i;
    }
}

// Regression artifact for the reserve() clamp: a v1 trace whose header
// declares ~10^12 events while the file holds four records. The loader
// must reject it up front instead of pre-allocating on the declared
// count.
TEST(FastPath, OverdeclaredEventCountIsRejected)
{
    const std::string path = std::string(HLLC_TESTS_CORPUS_DIR)
        + "/overdeclared_count.hlt.bad";
    try {
        replay::LlcTrace::load(path);
        FAIL() << "over-declared event count was accepted";
    } catch (const IoError &e) {
        EXPECT_NE(std::string(e.what()).find("declares more events"),
                  std::string::npos)
            << e.what();
    }
}

} // anonymous namespace
