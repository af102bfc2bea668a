/**
 * @file
 * Tests of the binary serialization layer (common/serialize.hh): CRC32
 * known answers, primitive round-trips, bounds-checked decoding, the
 * chunked container format, atomic persistence, and exhaustive
 * single-byte-flip / truncation corpora over container images and .hlt
 * trace files — every corruption must surface as a clean IoError, never
 * a crash or a wild allocation.
 */

#include <gtest/gtest.h>

#include <cmath>
#include <cstdio>
#include <limits>

#include "common/error.hh"
#include "common/serialize.hh"
#include "replay/llc_trace.hh"

namespace
{

using namespace hllc;
using namespace hllc::serial;

constexpr std::uint32_t kMagic = 0x54534554; // "TEST"

TEST(Crc32, KnownAnswer)
{
    // The standard CRC-32 check value: crc32("123456789").
    const char digits[] = "123456789";
    EXPECT_EQ(crc32(digits, 9), 0xCBF43926u);
}

TEST(Crc32, ChainsIncrementally)
{
    const char digits[] = "123456789";
    const std::uint32_t first = crc32(digits, 4);
    EXPECT_EQ(crc32(digits + 4, 5, first), 0xCBF43926u);
}

TEST(EncoderDecoder, PrimitivesRoundTrip)
{
    Encoder enc;
    enc.u8(0xAB);
    enc.u32(0xDEADBEEF);
    enc.u64(0x0123456789ABCDEFULL);
    enc.f64(-1234.56789);
    enc.f64(std::numeric_limits<double>::denorm_min());
    enc.str("hello");
    enc.f64Vec({ 0.0, -0.0, 1e300 });
    enc.u64Vec({ 1, 2, 3 });

    Decoder dec(enc.bytes());
    EXPECT_EQ(dec.u8(), 0xAB);
    EXPECT_EQ(dec.u32(), 0xDEADBEEFu);
    EXPECT_EQ(dec.u64(), 0x0123456789ABCDEFULL);
    EXPECT_EQ(dec.f64(), -1234.56789);
    EXPECT_EQ(dec.f64(), std::numeric_limits<double>::denorm_min());
    EXPECT_EQ(dec.str(), "hello");
    const auto doubles = dec.f64Vec();
    ASSERT_EQ(doubles.size(), 3u);
    EXPECT_EQ(doubles[2], 1e300);
    // -0.0 must round-trip bit-exactly, not as +0.0.
    EXPECT_TRUE(std::signbit(doubles[1]));
    EXPECT_EQ(dec.u64Vec(), (std::vector<std::uint64_t>{ 1, 2, 3 }));
    EXPECT_TRUE(dec.atEnd());
}

TEST(EncoderDecoder, LittleEndianLayout)
{
    Encoder enc;
    enc.u32(0x04030201);
    ASSERT_EQ(enc.bytes().size(), 4u);
    EXPECT_EQ(enc.bytes()[0], 0x01);
    EXPECT_EQ(enc.bytes()[3], 0x04);
}

TEST(Decoder, ReadPastEndThrows)
{
    Encoder enc;
    enc.u32(7);
    Decoder dec(enc.bytes());
    EXPECT_THROW(dec.u64(), IoError);
}

TEST(Decoder, StringLengthBoundedByPayload)
{
    // A string header claiming 2^60 bytes must be rejected before any
    // allocation is attempted.
    Encoder enc;
    enc.u64(1ULL << 60);
    Decoder dec(enc.bytes());
    EXPECT_THROW(dec.str(), IoError);
}

TEST(Decoder, VectorCountBoundedByPayload)
{
    Encoder enc;
    enc.u64(1ULL << 61);
    Decoder dec(enc.bytes());
    EXPECT_THROW(dec.f64Vec(), IoError);
    Decoder dec2(enc.bytes());
    EXPECT_THROW(dec2.u64Vec(), IoError);
}

Container
sampleContainer()
{
    Container c;
    Encoder &meta = c.add("meta");
    meta.u32(42);
    meta.str("sample");
    Encoder &data = c.add("data");
    data.f64Vec({ 1.5, -2.5, 3.5 });
    return c;
}

TEST(ContainerFormat, RoundTrips)
{
    const std::vector<std::uint8_t> image =
        sampleContainer().encode(kMagic, 3);

    std::uint32_t version = 0;
    const Container c =
        Container::decode(image.data(), image.size(), kMagic, 1, 3,
                          &version);
    EXPECT_EQ(version, 3u);
    EXPECT_EQ(c.chunkCount(), 2u);
    EXPECT_TRUE(c.has("meta"));
    EXPECT_FALSE(c.has("nope"));
    Decoder meta = c.open("meta");
    EXPECT_EQ(meta.u32(), 42u);
    EXPECT_EQ(meta.str(), "sample");
    Decoder data = c.open("data");
    EXPECT_EQ(data.f64Vec(), (std::vector<double>{ 1.5, -2.5, 3.5 }));
    EXPECT_THROW(c.open("nope"), IoError);
}

TEST(ContainerFormat, RejectsWrongMagicAndVersionRange)
{
    const auto image = sampleContainer().encode(kMagic, 5);
    EXPECT_THROW(
        Container::decode(image.data(), image.size(), kMagic + 1, 1, 9),
        IoError);
    // Payload version 5 outside both sides of the accepted range.
    EXPECT_THROW(
        Container::decode(image.data(), image.size(), kMagic, 1, 4),
        IoError);
    EXPECT_THROW(
        Container::decode(image.data(), image.size(), kMagic, 6, 9),
        IoError);
}

TEST(ContainerFormat, EveryBitFlipIsRejected)
{
    const auto image = sampleContainer().encode(kMagic, 1);
    ASSERT_GT(image.size(), 20u);
    for (std::size_t i = 0; i < image.size(); ++i) {
        for (std::uint8_t bit = 0; bit < 8; ++bit) {
            std::vector<std::uint8_t> bad = image;
            bad[i] ^= static_cast<std::uint8_t>(1u << bit);
            EXPECT_THROW(Container::decode(bad.data(), bad.size(),
                                           kMagic, 1, 1),
                         IoError)
                << "byte " << i << " bit " << int(bit)
                << " flip was accepted";
        }
    }
}

TEST(ContainerFormat, EveryTruncationIsRejected)
{
    const auto image = sampleContainer().encode(kMagic, 1);
    for (std::size_t len = 0; len < image.size(); ++len) {
        EXPECT_THROW(
            Container::decode(image.data(), len, kMagic, 1, 1), IoError)
            << "truncation to " << len << " bytes was accepted";
    }
}

class FileRoundTrip : public ::testing::Test
{
  protected:
    void SetUp() override
    {
        // Per-test path: cases run concurrently under `ctest -j`.
        path_ = std::string("/tmp/hllc_test_container_") +
                ::testing::UnitTest::GetInstance()
                    ->current_test_info()
                    ->name() +
                ".bin";
    }
    void TearDown() override
    {
        std::remove(path());
        std::remove((path_ + ".tmp").c_str());
    }

    const char *path() const { return path_.c_str(); }

    std::string path_;
};

TEST_F(FileRoundTrip, SaveLoadAndAtomicTempCleanup)
{
    sampleContainer().save(path(), kMagic, 1);
    const Container c = Container::load(path(), kMagic, 1, 1);
    EXPECT_EQ(c.chunkCount(), 2u);

    // The temp file must not survive a successful save.
    // hllc-lint: allow(atomic-io) read-only probe for the .tmp leftover
    std::FILE *tmp = std::fopen((std::string(path()) + ".tmp").c_str(),
                                "rb");
    EXPECT_EQ(tmp, nullptr);
    if (tmp != nullptr)
        std::fclose(tmp);
}

TEST_F(FileRoundTrip, MissingFileThrows)
{
    EXPECT_THROW(Container::load("/tmp/hllc_no_such_file.bin", kMagic, 1,
                                 1),
                 IoError);
}

TEST_F(FileRoundTrip, LoadErrorNamesThePath)
{
    sampleContainer().save(path(), kMagic, 1);
    try {
        Container::load(path(), kMagic + 1, 1, 1);
        FAIL() << "wrong magic accepted";
    } catch (const IoError &e) {
        EXPECT_NE(std::string(e.what()).find(path()), std::string::npos);
    }
}

/** A tiny but non-trivial trace for the .hlt corpora. */
replay::LlcTrace
sampleTrace()
{
    replay::LlcTrace trace;
    trace.meta().mixName = "corpus-mix";
    for (std::size_t c = 0; c < replay::traceCores; ++c) {
        trace.meta().cores[c].instructions = 1000 + c;
        trace.meta().cores[c].refs = 400 + c;
        trace.meta().cores[c].l1Hits = 300 + c;
        trace.meta().cores[c].l2Hits = 50 + c;
        trace.meta().cores[c].llcDemands = 50 + c;
        trace.meta().cores[c].baseCpi = 0.4 + 0.01 * double(c);
    }
    for (std::uint64_t i = 0; i < 8; ++i) {
        trace.append({ 0x1000 + i,
                       static_cast<hybrid::LlcEventType>(i % 4),
                       static_cast<std::uint8_t>(16 + i),
                       static_cast<std::uint8_t>(i % 4) });
    }
    return trace;
}

class TraceCorpus : public ::testing::Test
{
  protected:
    void SetUp() override
    {
        // Per-test path: cases run concurrently under `ctest -j`.
        path_ = std::string("/tmp/hllc_corpus_trace_") +
                ::testing::UnitTest::GetInstance()
                    ->current_test_info()
                    ->name() +
                ".hlt";
    }
    void TearDown() override { std::remove(path()); }

    const char *path() const { return path_.c_str(); }

    std::string path_;

    void
    writeBytes(const std::vector<std::uint8_t> &bytes)
    {
        // hllc-lint: allow(atomic-io) corruption harness: writes
        // deliberately torn/bit-flipped images the loader must reject
        std::FILE *f = std::fopen(path(), "wb");
        ASSERT_NE(f, nullptr);
        // An empty vector's data() may be null, which fwrite rejects.
        if (!bytes.empty()) {
            ASSERT_EQ(std::fwrite(bytes.data(), 1, bytes.size(), f),
                      bytes.size());
        }
        std::fclose(f);
    }
};

TEST_F(TraceCorpus, EveryByteFlipOfAnHltIsRejected)
{
    sampleTrace().save(path());
    const std::vector<std::uint8_t> image = readFileBytes(path());
    ASSERT_GT(image.size(), 24u);
    for (std::size_t i = 0; i < image.size(); ++i) {
        std::vector<std::uint8_t> bad = image;
        bad[i] ^= 0xFF;
        writeBytes(bad);
        EXPECT_THROW(replay::LlcTrace::load(path()), IoError)
            << "byte " << i << " flip was accepted";
    }
}

TEST_F(TraceCorpus, EveryTruncationOfAnHltIsRejected)
{
    sampleTrace().save(path());
    const std::vector<std::uint8_t> image = readFileBytes(path());
    for (std::size_t len = 0; len < image.size(); ++len) {
        writeBytes({ image.begin(), image.begin() + len });
        EXPECT_THROW(replay::LlcTrace::load(path()), IoError)
            << "truncation to " << len << " bytes was accepted";
    }
}

/** Serialise @p trace in the legacy v1 layout (what old saves wrote). */
std::vector<std::uint8_t>
encodeV1(const replay::LlcTrace &trace)
{
    Encoder enc;
    enc.u32(0x484c4c54); // v1 magic "HLLT"
    enc.u32(1);
    enc.u32(static_cast<std::uint32_t>(trace.meta().mixName.size()));
    enc.raw(trace.meta().mixName.data(), trace.meta().mixName.size());
    for (const replay::CoreMeta &core : trace.meta().cores) {
        enc.u64(core.instructions);
        enc.u64(core.refs);
        enc.u64(core.l1Hits);
        enc.u64(core.l2Hits);
        enc.u64(core.llcDemands);
        enc.f64(core.baseCpi);
    }
    enc.u64(trace.size());
    for (const hybrid::LlcEvent &ev : trace.events()) {
        enc.u64(ev.blockNum);
        enc.u8(static_cast<std::uint8_t>(ev.type));
        enc.u8(ev.ecbBytes);
        enc.u8(ev.core);
        for (int pad = 0; pad < 5; ++pad)
            enc.u8(0); // v1 struct padding
    }
    return enc.bytes();
}

TEST_F(TraceCorpus, LegacyV1FilesStillLoad)
{
    const replay::LlcTrace original = sampleTrace();
    writeBytes(encodeV1(original));
    const replay::LlcTrace loaded = replay::LlcTrace::load(path());
    ASSERT_EQ(loaded.size(), original.size());
    EXPECT_EQ(loaded.meta().mixName, original.meta().mixName);
    EXPECT_EQ(loaded.meta().cores[3].llcDemands,
              original.meta().cores[3].llcDemands);
    for (std::size_t i = 0; i < original.size(); ++i) {
        EXPECT_EQ(loaded.events()[i].blockNum,
                  original.events()[i].blockNum);
        EXPECT_EQ(loaded.events()[i].type, original.events()[i].type);
    }
}

TEST_F(TraceCorpus, V1HeaderLiesAreRejected)
{
    std::vector<std::uint8_t> image = encodeV1(sampleTrace());

    // Mix-name length inflated beyond the file: must throw, not allocate.
    std::vector<std::uint8_t> bad = image;
    bad[8] = 0xFF;
    bad[9] = 0xFF;
    bad[10] = 0xFF;
    bad[11] = 0x7F;
    writeBytes(bad);
    EXPECT_THROW(replay::LlcTrace::load(path()), IoError);

    // Event count inflated beyond the file.
    const std::size_t count_off = 12 + 10 /* name */ +
                                  replay::traceCores * 48;
    bad = image;
    bad[count_off] = 0xFF;
    bad[count_off + 7] = 0x7F;
    writeBytes(bad);
    EXPECT_THROW(replay::LlcTrace::load(path()), IoError);

    // Truncated mid-events.
    writeBytes({ image.begin(), image.end() - 7 });
    EXPECT_THROW(replay::LlcTrace::load(path()), IoError);
}

} // namespace
