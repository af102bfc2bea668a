/**
 * @file
 * Insertion-policy tests: the policy table against the paper's Table III
 * (labels, structural flags, Th/Tw), the steering rules of Sec. II-C
 * (LHybrid, TAP) and Sec. IV (CA, CA_RWR), and an exhaustive cross-check
 * of InsertionPolicy::choosePart against the golden model's independent
 * re-derivation.
 */

#include <gtest/gtest.h>

#include <sstream>
#include <string>

#include "check/golden_llc.hh"
#include "compression/encoding.hh"
#include "hybrid/insertion_policy.hh"

namespace
{

using namespace hllc;
using namespace hllc::hybrid;

InsertContext
ctx(ReuseClass reuse, unsigned ecb, bool dirty = false,
    unsigned hits = 0, unsigned cpth = 58)
{
    return InsertContext{ 0x1000, dirty, ecb, reuse, hits, 0, cpth };
}

/** Paper Table III, one row per policy. */
struct ExpectedRow
{
    PolicyKind kind;
    const char *label;
    bool compression;
    bool global;
    bool migrateReadReuse;
    bool lhybrid;
    bool dueling;
};

constexpr ExpectedRow kTableIII[] = {
    // kind                label       compr  global migrate lhyb   duel
    { PolicyKind::SramOnly, "SRAM",     false, true,  false, false, false },
    { PolicyKind::Bh,       "BH",       false, true,  false, false, false },
    { PolicyKind::BhCp,     "BH_CP",    true,  true,  false, false, false },
    { PolicyKind::Ca,       "CA",       true,  false, false, false, false },
    { PolicyKind::CaRwr,    "CA_RWR",   true,  false, true,  false, false },
    { PolicyKind::CpSd,     "CP_SD",    true,  false, true,  false, true },
    { PolicyKind::CpSdTh,   "CP_SD_Th", true,  false, true,  false, true },
    { PolicyKind::LHybrid,  "LHybrid",  false, false, false, true,  false },
    { PolicyKind::Tap,      "TAP",      false, false, false, false, false },
};

PolicyParams
th8Params()
{
    PolicyParams params;
    params.thPercent = 8.0;
    return params;
}

TEST(PolicyFactory, CreatesEveryKind)
{
    for (const ExpectedRow &row : kTableIII) {
        const auto policy = InsertionPolicy::create(row.kind);
        ASSERT_NE(policy, nullptr);
        EXPECT_EQ(policy->kind(), row.kind);
        EXPECT_FALSE(policy->name().empty());
    }
}

TEST(PolicyFlags, CompressionImpliesByteDisabling)
{
    for (const ExpectedRow &row : kTableIII) {
        const InsertionPolicy policy(row.kind);
        EXPECT_EQ(policy.usesCompression(), row.compression) << row.label;
        EXPECT_EQ(policy.granularity(),
                  row.compression ? fault::DisableGranularity::Byte
                                  : fault::DisableGranularity::Frame)
            << row.label;
    }
}

// Every kind's flag row, in both the production table and the golden
// model's re-derivation, against Table III; plus the dueling rule's
// Th/Tw: plain CP_SD ignores the params, CP_SD_Th reads them.
TEST(PolicyFlags, StructuralHooks)
{
    for (const PolicyParams &params : { PolicyParams{}, th8Params() }) {
        for (const ExpectedRow &row : kTableIII) {
            const InsertionPolicy policy(row.kind, params);
            EXPECT_EQ(policy.usesCompression(), row.compression)
                << row.label;
            EXPECT_EQ(policy.globalReplacement(), row.global) << row.label;
            EXPECT_EQ(policy.migrateReadReuseOnSramEviction(),
                      row.migrateReadReuse)
                << row.label;
            EXPECT_EQ(policy.lhybridSramReplacement(), row.lhybrid)
                << row.label;
            EXPECT_EQ(policy.usesSetDueling(), row.dueling) << row.label;

            const check::GoldenPolicy golden =
                check::goldenPolicy(row.kind, params);
            EXPECT_EQ(golden.compressed, row.compression) << row.label;
            EXPECT_EQ(golden.global, row.global) << row.label;
            EXPECT_EQ(golden.migrateReadReuse, row.migrateReadReuse)
                << row.label;
            EXPECT_EQ(golden.loopBlockSram, row.lhybrid) << row.label;
            EXPECT_EQ(golden.dueling, row.dueling) << row.label;
            EXPECT_DOUBLE_EQ(golden.thPercent, policy.thPercent())
                << row.label;
            EXPECT_DOUBLE_EQ(golden.twPercent, policy.twPercent())
                << row.label;
        }
    }
    EXPECT_DOUBLE_EQ(InsertionPolicy(PolicyKind::CpSd).thPercent(), 0.0);
    EXPECT_DOUBLE_EQ(InsertionPolicy(PolicyKind::CpSd, th8Params())
                         .thPercent(), 0.0);
    EXPECT_DOUBLE_EQ(InsertionPolicy(PolicyKind::CpSd, th8Params())
                         .twPercent(), 5.0);
    PolicyParams params;
    params.thPercent = 8.0;
    params.twPercent = 7.0;
    const InsertionPolicy th(PolicyKind::CpSdTh, params);
    EXPECT_DOUBLE_EQ(th.thPercent(), 8.0);
    EXPECT_DOUBLE_EQ(th.twPercent(), 7.0);
}

TEST(CaPolicy, SteersBySizeOnly)
{
    const InsertionPolicy ca(PolicyKind::Ca);
    // ctx.cpth is what matters (set-level threshold).
    EXPECT_EQ(ca.choosePart(ctx(ReuseClass::None, 30)), Part::Nvm);
    EXPECT_EQ(ca.choosePart(ctx(ReuseClass::None, 58)), Part::Nvm);
    EXPECT_EQ(ca.choosePart(ctx(ReuseClass::None, 59)), Part::Sram);
    EXPECT_EQ(ca.choosePart(ctx(ReuseClass::None, 64)), Part::Sram);
    // Reuse is ignored by naive CA.
    EXPECT_EQ(ca.choosePart(ctx(ReuseClass::Write, 30)), Part::Nvm);
    EXPECT_EQ(ca.choosePart(ctx(ReuseClass::Read, 64)), Part::Sram);
}

TEST(CaRwrPolicy, PaperTableII)
{
    const InsertionPolicy policy(PolicyKind::CaRwr);
    // Read reuse -> NVM regardless of size.
    EXPECT_EQ(policy.choosePart(ctx(ReuseClass::Read, 64)), Part::Nvm);
    EXPECT_EQ(policy.choosePart(ctx(ReuseClass::Read, 2)), Part::Nvm);
    // Write reuse -> SRAM regardless of size.
    EXPECT_EQ(policy.choosePart(ctx(ReuseClass::Write, 2)), Part::Sram);
    EXPECT_EQ(policy.choosePart(ctx(ReuseClass::Write, 64)), Part::Sram);
    // No reuse -> by compressed size.
    EXPECT_EQ(policy.choosePart(ctx(ReuseClass::None, 37)), Part::Nvm);
    EXPECT_EQ(policy.choosePart(ctx(ReuseClass::None, 64)), Part::Sram);
}

TEST(CaRwrPolicy, RespectsPerSetCpth)
{
    const InsertionPolicy policy(PolicyKind::CaRwr);
    EXPECT_EQ(policy.choosePart(ctx(ReuseClass::None, 44, false, 0, 30)),
              Part::Sram);
    EXPECT_EQ(policy.choosePart(ctx(ReuseClass::None, 44, false, 0, 44)),
              Part::Nvm);
}

TEST(LHybridPolicy, OnlyCleanLoopBlocksToNvm)
{
    const InsertionPolicy policy(PolicyKind::LHybrid);
    // Loop-block (read-reused, clean) -> NVM.
    EXPECT_EQ(policy.choosePart(ctx(ReuseClass::Read, 64, false)),
              Part::Nvm);
    // Dirty Put can never be a loop-block.
    EXPECT_EQ(policy.choosePart(ctx(ReuseClass::Read, 64, true)),
              Part::Sram);
    // Non-loop-blocks -> SRAM.
    EXPECT_EQ(policy.choosePart(ctx(ReuseClass::None, 64, false)),
              Part::Sram);
    EXPECT_EQ(policy.choosePart(ctx(ReuseClass::Write, 64, false)),
              Part::Sram);
}

TEST(TapPolicy, CleanThrashingBlocksOnly)
{
    PolicyParams params;
    params.tapThreshold = 2;
    const InsertionPolicy policy(PolicyKind::Tap, params);
    // Enough hits and clean -> NVM.
    EXPECT_EQ(policy.choosePart(ctx(ReuseClass::Read, 64, false, 2)),
              Part::Nvm);
    EXPECT_EQ(policy.choosePart(ctx(ReuseClass::Read, 64, false, 5)),
              Part::Nvm);
    // Not enough reuse -> SRAM (more conservative than LHybrid).
    EXPECT_EQ(policy.choosePart(ctx(ReuseClass::Read, 64, false, 1)),
              Part::Sram);
    // Dirty or write-reused -> SRAM.
    EXPECT_EQ(policy.choosePart(ctx(ReuseClass::Read, 64, true, 5)),
              Part::Sram);
    EXPECT_EQ(policy.choosePart(ctx(ReuseClass::Write, 64, false, 5)),
              Part::Sram);
}

// The whole steering input domain, for every kind and both parameter
// sets: the production switch and the golden re-derivation must agree
// on every input, and every part-steering kind must reach both parts.
TEST(PolicySteering, MatchesGoldenRederivationExhaustively)
{
    for (const PolicyParams &params : { PolicyParams{}, th8Params() }) {
        for (const ExpectedRow &row : kTableIII) {
            const InsertionPolicy policy(row.kind, params);
            std::size_t checked = 0;
            std::size_t mismatches = 0;
            std::size_t to_nvm = 0;
            std::string first;
            for (ReuseClass reuse : { ReuseClass::None, ReuseClass::Read,
                                      ReuseClass::Write }) {
                for (bool dirty : { false, true }) {
                    for (unsigned ecb = 2; ecb <= blockBytes; ++ecb) {
                        for (unsigned hits = 0;
                             hits <= params.tapThreshold + 1; ++hits) {
                            for (unsigned cpth :
                                 compression::cpthCandidates()) {
                                const InsertContext c =
                                    ctx(reuse, ecb, dirty, hits, cpth);
                                const Part got = policy.choosePart(c);
                                const Part want = check::goldenChoosePart(
                                    row.kind, params, c);
                                ++checked;
                                to_nvm += got == Part::Nvm;
                                if (got == want)
                                    continue;
                                if (mismatches++ == 0) {
                                    std::ostringstream out;
                                    out << "reuse=" << int(reuse)
                                        << " dirty=" << dirty
                                        << " ecb=" << ecb
                                        << " hits=" << hits
                                        << " cpth=" << cpth;
                                    first = out.str();
                                }
                            }
                        }
                    }
                }
            }
            EXPECT_GT(checked, 0u);
            EXPECT_EQ(mismatches, 0u)
                << row.label << " th=" << params.thPercent
                << ", first at " << first;
            if (row.global)
                EXPECT_EQ(to_nvm, 0u) << row.label;
            else
                EXPECT_GT(to_nvm, 0u) << row.label;
            EXPECT_LT(to_nvm, checked) << row.label;
        }
    }
}

TEST(PolicyNames, MatchPaperLabels)
{
    for (const ExpectedRow &row : kTableIII) {
        EXPECT_EQ(policyName(row.kind), row.label);
        EXPECT_EQ(InsertionPolicy(row.kind).name(), row.label);
        EXPECT_EQ(policyFromName(row.label), row.kind) << row.label;
    }
}

TEST(PolicyNames, NearMissesAreRejected)
{
    for (const char *name :
         { "cp_sd", "CP_SD ", " CP_SD", "", "SRAM_ONLY", "CP_SD_Th4",
           "BH_", "tap", "?" }) {
        EXPECT_EQ(policyFromName(name), std::nullopt) << '"' << name << '"';
    }
}

} // namespace
