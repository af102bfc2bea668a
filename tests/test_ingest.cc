/**
 * @file
 * Ingest decoder tests: CRC2 record decoding and validation, the
 * conversion mapping onto replay events, determinism of fixtures and
 * conversions, and the byte-level fuzz contract — every truncation and
 * byte-flip mutant of a valid stream is exactly rejected-or-converted,
 * never a crash or partial output. Committed `.bad` reproducers from
 * tests/corpus pin the rejection paths forever.
 */

#include <gtest/gtest.h>

#include <cstdio>
#include <cstdlib>
#include <string>
#include <vector>

#include "check/bytefuzz.hh"
#include "check/differential.hh"
#include "check/manifest.hh"
#include "common/error.hh"
#include "common/serialize.hh"
#include "ingest/byte_source.hh"
#include "ingest/champsim.hh"
#include "replay/llc_trace.hh"

namespace
{

using namespace hllc;
using ingest::ChampSimType;
using ingest::champSimRecordBytes;

/** Hand-assemble one CRC2 record (little-endian, 5 pad bytes). */
std::vector<std::uint8_t>
record(std::uint64_t pc, std::uint64_t addr, std::uint8_t type,
       std::uint8_t cpu, std::uint8_t fill = 0)
{
    std::vector<std::uint8_t> bytes(champSimRecordBytes, 0);
    for (int i = 0; i < 8; ++i) {
        bytes[static_cast<std::size_t>(i)] =
            static_cast<std::uint8_t>(pc >> (8 * i));
        bytes[static_cast<std::size_t>(8 + i)] =
            static_cast<std::uint8_t>(addr >> (8 * i));
    }
    bytes[16] = type;
    bytes[17] = cpu;
    bytes[18] = fill;
    return bytes;
}

/** Concatenate records into one stream. */
std::vector<std::uint8_t>
stream(const std::vector<std::vector<std::uint8_t>> &records)
{
    std::vector<std::uint8_t> bytes;
    for (const auto &r : records)
        bytes.insert(bytes.end(), r.begin(), r.end());
    return bytes;
}

replay::LlcTrace
convert(std::vector<std::uint8_t> bytes,
        const ingest::ConvertOptions &options = {},
        ingest::ConvertStats *stats = nullptr)
{
    ingest::MemorySource source(std::move(bytes));
    return ingest::convertChampSim(source, options, stats);
}

TEST(IngestDecode, FieldsRoundTripThroughTheWireLayout)
{
    const auto bytes =
        record(0x1122334455667788ULL, 0xdeadbeefcafeULL, 1, 3, 1);
    const ingest::ChampSimRecord rec =
        ingest::decodeChampSimRecord(bytes.data(), 0);
    EXPECT_EQ(rec.pc, 0x1122334455667788ULL);
    EXPECT_EQ(rec.addr, 0xdeadbeefcafeULL);
    EXPECT_EQ(rec.type, ChampSimType::Rfo);
    EXPECT_EQ(rec.cpu, 3);
}

TEST(IngestDecode, BadTypeAndBadCpuAreTypedErrorsNamingTheRecord)
{
    const auto bad_type = record(1, 64, 4, 0);
    try {
        ingest::decodeChampSimRecord(bad_type.data(), 17);
        FAIL() << "type 4 decoded";
    } catch (const IoError &e) {
        EXPECT_NE(std::string(e.what()).find("17"), std::string::npos)
            << e.what();
    }
    const auto bad_cpu = record(1, 64, 0, 4);
    EXPECT_THROW(ingest::decodeChampSimRecord(bad_cpu.data(), 0),
                 IoError);
    // Ignored fields (fill hint, padding) never affect validity.
    auto noisy = record(1, 64, 0, 0, 0xff);
    noisy[19] = 0xff;
    noisy[23] = 0xff;
    EXPECT_NO_THROW(ingest::decodeChampSimRecord(noisy.data(), 0));
}

TEST(IngestConvert, TypesMapOntoTheReplayVocabulary)
{
    ingest::ConvertStats stats;
    const replay::LlcTrace trace = convert(
        stream({ record(1, 0x1000, 0, 0), record(2, 0x2000, 1, 1),
                 record(3, 0x3000, 2, 2), record(4, 0x4000, 3, 3) }),
        {}, &stats);

    ASSERT_EQ(trace.size(), 4u);
    const auto &ev = trace.events();
    EXPECT_EQ(ev[0].type, hybrid::LlcEventType::GetS);
    EXPECT_EQ(ev[1].type, hybrid::LlcEventType::GetX);
    EXPECT_EQ(ev[2].type, hybrid::LlcEventType::GetS);
    EXPECT_EQ(ev[3].type, hybrid::LlcEventType::PutDirty);
    // Byte addresses become block numbers; cores pass through.
    EXPECT_EQ(ev[0].blockNum, 0x1000u >> 6);
    EXPECT_EQ(ev[3].blockNum, 0x4000u >> 6);
    for (std::size_t i = 0; i < 4; ++i) {
        EXPECT_EQ(ev[i].core, i);
        EXPECT_GE(ev[i].ecbBytes, 2);
        EXPECT_LE(ev[i].ecbBytes, 64);
    }
    EXPECT_EQ(stats.records, 4u);
    EXPECT_EQ(stats.loads, 1u);
    EXPECT_EQ(stats.rfos, 1u);
    EXPECT_EQ(stats.prefetches, 1u);
    EXPECT_EQ(stats.writebacks, 1u);
    EXPECT_EQ(stats.bytesIn, 4 * champSimRecordBytes);
}

TEST(IngestConvert, TrailingBytesAtEndOfStreamAreRejected)
{
    auto bytes = stream({ record(1, 0x1000, 0, 0) });
    bytes.resize(bytes.size() + 5, 0xab);
    try {
        convert(bytes);
        FAIL() << "trailing bytes converted";
    } catch (const IoError &e) {
        EXPECT_NE(std::string(e.what()).find("trailing"),
                  std::string::npos)
            << e.what();
    }
}

TEST(IngestConvert, DropPrefetchesAndMaxEventsAreHonoured)
{
    const auto bytes =
        stream({ record(1, 0x1000, 2, 0), record(2, 0x2000, 0, 0),
                 record(3, 0x3000, 0, 0) });

    ingest::ConvertOptions drop;
    drop.dropPrefetches = true;
    ingest::ConvertStats stats;
    EXPECT_EQ(convert(bytes, drop, &stats).size(), 2u);
    EXPECT_EQ(stats.prefetches, 1u);
    EXPECT_EQ(stats.dropped, 1u);

    ingest::ConvertOptions capped;
    capped.maxEvents = 2;
    EXPECT_EQ(convert(bytes, capped).size(), 2u);
}

TEST(IngestConvert, FixtureAndConversionAreDeterministic)
{
    const auto one = ingest::synthesizeChampSimFixture(256, 7);
    const auto two = ingest::synthesizeChampSimFixture(256, 7);
    EXPECT_EQ(one, two);
    EXPECT_EQ(one.size(), 256 * champSimRecordBytes);
    EXPECT_NE(one, ingest::synthesizeChampSimFixture(256, 8));

    const replay::LlcTrace a = convert(one);
    const replay::LlcTrace b = convert(two);
    ASSERT_EQ(a.size(), b.size());
    for (std::size_t i = 0; i < a.size(); ++i) {
        EXPECT_EQ(a.events()[i].blockNum, b.events()[i].blockNum);
        EXPECT_EQ(a.events()[i].type, b.events()[i].type);
        EXPECT_EQ(a.events()[i].ecbBytes, b.events()[i].ecbBytes);
        EXPECT_EQ(a.events()[i].core, b.events()[i].core);
    }
}

TEST(IngestConvert, SynthesizedCaptureMetaMatchesDemandCounts)
{
    const replay::LlcTrace trace =
        convert(ingest::synthesizeChampSimFixture(512, 3));
    std::array<std::uint64_t, replay::traceCores> demands{};
    for (const hybrid::LlcEvent &e : trace.events()) {
        if (e.type == hybrid::LlcEventType::GetS ||
            e.type == hybrid::LlcEventType::GetX)
            ++demands[e.core];
    }
    for (std::size_t c = 0; c < replay::traceCores; ++c) {
        const replay::CoreMeta &meta = trace.meta().cores[c];
        EXPECT_EQ(meta.llcDemands, demands[c]) << "core " << c;
        if (demands[c] > 0) {
            EXPECT_GT(meta.instructions, 0u) << "core " << c;
            EXPECT_GT(meta.baseCpi, 0.0) << "core " << c;
        }
    }
    EXPECT_EQ(trace.meta().mixName, "champsim");
}

TEST(IngestConvert, ContentMixControlsSynthesizedCompressibility)
{
    const auto fixture = ingest::synthesizeChampSimFixture(512, 3);

    ingest::ConvertOptions hostile;
    hostile.hcrFraction = 0.0;
    hostile.lcrFraction = 0.0;
    const replay::LlcTrace incompressible = convert(fixture, hostile);
    for (const hybrid::LlcEvent &e : incompressible.events())
        EXPECT_EQ(e.ecbBytes, 64);

    ingest::ConvertOptions friendly;
    friendly.hcrFraction = 1.0;
    friendly.lcrFraction = 0.0;
    std::uint64_t compressed = 0;
    const replay::LlcTrace trace = convert(fixture, friendly);
    for (const hybrid::LlcEvent &e : trace.events())
        compressed += e.ecbBytes < 64 ? 1 : 0;
    EXPECT_GT(compressed, trace.size() / 2);
}

// --------------------------------------------------------------------
// The fuzz contract: reject-or-convert, never crash, on every mutant.
// --------------------------------------------------------------------

TEST(IngestFuzz, EveryTruncationIsExactlyRejectOrConvert)
{
    const auto fixture = ingest::synthesizeChampSimFixture(64, 1);
    std::size_t converted = 0;
    std::size_t rejected = 0;
    check::forEachTruncation(
        fixture,
        [&](const std::vector<std::uint8_t> &mutant, std::size_t len) {
            try {
                const replay::LlcTrace trace = convert(mutant);
                // A clean cut at a record boundary is a shorter valid
                // stream; anywhere else must have been rejected.
                EXPECT_EQ(len % champSimRecordBytes, 0u) << len;
                EXPECT_EQ(trace.size(), len / champSimRecordBytes);
                ++converted;
            } catch (const IoError &) {
                EXPECT_NE(len % champSimRecordBytes, 0u) << len;
                ++rejected;
            }
        });
    EXPECT_EQ(converted, 64u);
    EXPECT_EQ(rejected, 64u * (champSimRecordBytes - 1));
}

TEST(IngestFuzz, EveryByteFlipIsExactlyRejectOrConvert)
{
    const auto fixture = ingest::synthesizeChampSimFixture(64, 1);
    std::size_t converted = 0;
    std::size_t rejected = 0;
    check::forEachByteFlip(
        fixture, check::byteFlipMasks(),
        [&](const std::vector<std::uint8_t> &mutant, std::size_t pos,
            std::uint8_t mask) {
            try {
                const replay::LlcTrace trace = convert(mutant);
                // Whatever survived validation must still be a fully
                // legal trace: bounded ECBs, in-range cores.
                for (const hybrid::LlcEvent &e : trace.events()) {
                    ASSERT_GE(e.ecbBytes, 2);
                    ASSERT_LE(e.ecbBytes, 64);
                    ASSERT_LT(e.core, replay::traceCores);
                }
                ++converted;
            } catch (const IoError &) {
                ++rejected;
            }
            (void)pos;
            (void)mask;
        });
    // Both outcomes must actually occur: flips in pc/addr/padding
    // convert, flips escaping the type/cpu enums reject.
    EXPECT_GT(converted, 0u);
    EXPECT_GT(rejected, 0u);
    EXPECT_EQ(converted + rejected,
              fixture.size() * check::byteFlipMasks().size());
}

TEST(IngestFuzz, CommittedBadReproducersStayRejected)
{
    for (const char *name :
         { "/champsim_bad_type.ct.bad", "/champsim_truncated.ct.bad" }) {
        const std::string path = std::string(HLLC_TESTS_CORPUS_DIR) + name;
        EXPECT_THROW(convert(serial::readFileBytes(path)), IoError)
            << name;
    }
}

// --------------------------------------------------------------------
// The committed fixture end to end.
// --------------------------------------------------------------------

TEST(IngestFixture, CommittedFixtureConvertsVerifiesAndPassesGolden)
{
    const std::string in =
        std::string(HLLC_TESTS_CORPUS_DIR) + "/champsim_seed1.ct";
    const std::string out = "/tmp/hllc_test_ingest_fixture.hlt";
    const std::string manifest = check::manifestPathFor(out);

    const ingest::ConvertStats stats =
        ingest::convertChampSimFile(in, out, {});
    EXPECT_EQ(stats.records, 1024u);
    EXPECT_EQ(stats.events, stats.records);
    EXPECT_EQ(stats.container, ingest::ContainerKind::Raw);

    const replay::LlcTrace trace = replay::LlcTrace::load(out);
    EXPECT_EQ(trace.size(), stats.events);
    EXPECT_EQ(check::verifyManifest(out, trace), std::nullopt);

    hybrid::HybridLlcConfig config;
    config.numSets = 32;
    config.epochCycles = 20'000;
    for (const auto mode : { check::DegenerateMode::Pristine,
                             check::DegenerateMode::CompressionOff,
                             check::DegenerateMode::SramOnly }) {
        const auto diff = check::diffGolden(trace, config, mode);
        EXPECT_TRUE(diff.ok())
            << check::degenerateModeName(mode) << ": "
            << diff.divergence->description;
    }
    std::remove(out.c_str());
    std::remove(manifest.c_str());
}

TEST(IngestFixture, CommittedFixtureConvertsToThePinnedTrace)
{
    // Run-against-run determinism cannot catch a deterministic change
    // in the synthesized ECBs; the committed conversion (default
    // ConvertOptions, see tests/corpus/README.md) can.
    const std::string corpus(HLLC_TESTS_CORPUS_DIR);
    const std::string out = "/tmp/hllc_test_ingest_pinned.hlt";
    const std::string manifest = check::manifestPathFor(out);
    ingest::convertChampSimFile(corpus + "/champsim_seed1.ct", out, {});
    EXPECT_EQ(serial::readFileBytes(out),
              serial::readFileBytes(corpus + "/champsim_seed1.hlt"));
    EXPECT_EQ(serial::readFileBytes(manifest),
              serial::readFileBytes(corpus +
                                    "/champsim_seed1.hlt.manifest"));
    std::remove(out.c_str());
    std::remove(manifest.c_str());
}

TEST(IngestFixture, GzipContainerConvertsIdenticallyToRaw)
{
    const auto fixture = ingest::synthesizeChampSimFixture(256, 5);
    const std::string raw = "/tmp/hllc_test_ingest_gzip.ct";
    serial::writeFileAtomic(raw, fixture.data(), fixture.size());
    const std::string gz = raw + ".gz";
    if (std::system(("gzip -c " + raw + " > " + gz + " 2>/dev/null")
                        .c_str()) != 0) {
        std::remove(raw.c_str());
        GTEST_SKIP() << "no gzip binary available";
    }
    EXPECT_EQ(ingest::detectContainer(gz), ingest::ContainerKind::Gzip);

    const std::string out_raw = raw + ".raw.hlt";
    const std::string out_gz = raw + ".gz.hlt";
    ingest::ConvertStats stats;
    ingest::convertChampSimFile(raw, out_raw, {});
    stats = ingest::convertChampSimFile(gz, out_gz, {});
    EXPECT_EQ(stats.container, ingest::ContainerKind::Gzip);
    EXPECT_EQ(serial::readFileBytes(out_raw),
              serial::readFileBytes(out_gz));

    for (const std::string &p :
         { raw, gz, out_raw, out_gz, check::manifestPathFor(out_raw),
           check::manifestPathFor(out_gz) })
        std::remove(p.c_str());
}

TEST(IngestFixture, TruncatedContainerFileIsRejectedWithoutOutput)
{
    // The same contract as the in-memory sweep, at the file level: a
    // mid-record cut converts to a typed error and no partial .hlt.
    const auto fixture = ingest::synthesizeChampSimFixture(64, 2);
    const std::string in = "/tmp/hllc_test_ingest_trunc.ct";
    serial::writeFileAtomic(in, fixture.data(),
                            fixture.size() - champSimRecordBytes / 2);
    const std::string out = in + ".hlt";
    EXPECT_THROW(ingest::convertChampSimFile(in, out, {}), IoError);
    EXPECT_THROW(static_cast<void>(serial::readFileBytes(out)), IoError);
    std::remove(in.c_str());
}

} // namespace
