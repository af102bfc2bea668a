/**
 * @file
 * The batched, parallel ECB fill behind convertChampSim: conversions
 * above PayloadSynth::parallelThreshold distinct blocks are identical
 * at every worker count and match an uncached per-event
 * synthesize-then-compress reference; the flat verdict cache returns
 * the uncached verdict across table growths; and decoding every record
 * before any synthesis keeps malformed-record errors naming the same
 * record index.
 */

#include <gtest/gtest.h>

#include <cstdlib>
#include <optional>
#include <string>
#include <vector>

#include "common/error.hh"
#include "common/numfmt.hh"
#include "common/rng.hh"
#include "compression/bdi.hh"
#include "ingest/byte_source.hh"
#include "ingest/champsim.hh"
#include "ingest/payload_synth.hh"
#include "workload/block_synth.hh"

namespace
{

using namespace hllc;

/** Sets HLLC_JOBS (what defaultJobs() reads) for one scope. */
class ScopedJobs
{
  public:
    explicit ScopedJobs(unsigned jobs)
    {
        if (const char *old = std::getenv("HLLC_JOBS"))
            old_ = old;
        ::setenv("HLLC_JOBS", formatU64(jobs).c_str(), 1);
    }
    ~ScopedJobs()
    {
        if (old_)
            ::setenv("HLLC_JOBS", old_->c_str(), 1);
        else
            ::unsetenv("HLLC_JOBS");
    }
    ScopedJobs(const ScopedJobs &) = delete;
    ScopedJobs &operator=(const ScopedJobs &) = delete;

  private:
    std::optional<std::string> old_;
};

replay::LlcTrace
convert(const std::vector<std::uint8_t> &bytes,
        ingest::ConvertStats *stats = nullptr)
{
    ingest::MemorySource source(bytes);
    return ingest::convertChampSim(source, {}, stats);
}

workload::ContentMix
defaultMix()
{
    const ingest::ConvertOptions options;
    return workload::ContentMix::fromClassFractions(options.hcrFraction,
                                                    options.lcrFraction);
}

/**
 * The verdict re-derived without the cache or the shared BDI pass:
 * synthesize the payload, then compress it again. The seed derivation
 * is PayloadSynth's (salt from the conversion seed, then the block).
 */
std::uint8_t
uncachedEcb(const ingest::PayloadSynth &synth, std::uint64_t seed,
            Addr block)
{
    const std::uint64_t salt = mix64(seed ^ 0x696e676573743031ULL);
    const BlockData data = workload::synthesizeBlock(
        synth.targetCeOf(block), mix64(block ^ salt) + 1);
    return static_cast<std::uint8_t>(
        compression::BdiCompressor::compress(data).ecbBytes);
}

void
expectSameStats(const ingest::ConvertStats &a, const ingest::ConvertStats &b)
{
    EXPECT_EQ(a.bytesIn, b.bytesIn);
    EXPECT_EQ(a.records, b.records);
    EXPECT_EQ(a.loads, b.loads);
    EXPECT_EQ(a.rfos, b.rfos);
    EXPECT_EQ(a.prefetches, b.prefetches);
    EXPECT_EQ(a.writebacks, b.writebacks);
    EXPECT_EQ(a.dropped, b.dropped);
    EXPECT_EQ(a.events, b.events);
    EXPECT_EQ(a.distinctBlocks, b.distinctBlocks);
    EXPECT_EQ(a.container, b.container);
}

TEST(IngestParallel, ConversionIsIdenticalAtEveryJobCount)
{
    const auto fixture = ingest::synthesizeChampSimFixture(200'000, 7);
    ingest::ConvertStats base_stats;
    replay::LlcTrace base;
    {
        const ScopedJobs jobs(1);
        base = convert(fixture, &base_stats);
    }
    // The parallel path only runs above the threshold.
    ASSERT_GE(base_stats.distinctBlocks,
              ingest::PayloadSynth::parallelThreshold);

    for (const unsigned n : { 2u, 4u, 7u }) {
        const ScopedJobs jobs(n);
        ingest::ConvertStats stats;
        const replay::LlcTrace trace = convert(fixture, &stats);
        expectSameStats(stats, base_stats);
        ASSERT_EQ(trace.size(), base.size()) << n << " jobs";
        for (std::size_t i = 0; i < trace.size(); ++i) {
            const hybrid::LlcEvent &a = trace.events()[i];
            const hybrid::LlcEvent &b = base.events()[i];
            ASSERT_EQ(a.blockNum, b.blockNum) << n << " jobs, event " << i;
            ASSERT_EQ(a.type, b.type) << n << " jobs, event " << i;
            ASSERT_EQ(a.ecbBytes, b.ecbBytes) << n << " jobs, event " << i;
            ASSERT_EQ(a.core, b.core) << n << " jobs, event " << i;
        }
    }

    const ingest::ConvertOptions options;
    const ingest::PayloadSynth synth(defaultMix(), options.seed);
    for (std::size_t i = 0; i < base.size(); ++i) {
        const hybrid::LlcEvent &e = base.events()[i];
        ASSERT_EQ(e.ecbBytes, uncachedEcb(synth, options.seed, e.blockNum))
            << "event " << i;
    }
}

TEST(IngestParallel, FlatTableReturnsTheUncachedVerdictAcrossGrowths)
{
    // 10,000 distinct blocks take the table from 1,024 slots (half-full
    // limit 512) through five doublings. Scattered and consecutive
    // block numbers, block 0 included, exercise probe runs.
    constexpr std::uint64_t seed = 5;
    ingest::PayloadSynth synth(defaultMix(), seed);
    std::vector<Addr> blocks;
    for (std::uint64_t i = 0; i < 5'000; ++i) {
        blocks.push_back(i);
        blocks.push_back(mix64(i) >> 6);
    }
    for (const Addr block : blocks)
        ASSERT_EQ(synth.ecbOf(block), uncachedEcb(synth, seed, block))
            << block;
    ASSERT_EQ(synth.distinctBlocks(), blocks.size());

    // Cached verdicts survive the rehashes.
    for (const Addr block : blocks)
        ASSERT_EQ(synth.ecbOf(block), uncachedEcb(synth, seed, block))
            << block;

    // A batch mixing cached and new blocks fills both correctly and
    // claims only the new ones.
    std::vector<hybrid::LlcEvent> events;
    for (std::uint64_t i = 0; i < 4'000; ++i) {
        hybrid::LlcEvent e{};
        e.blockNum = i % 2 == 0 ? blocks[i] : (Addr{1} << 40) + i;
        events.push_back(e);
    }
    synth.fillEcbs(events);
    for (const hybrid::LlcEvent &e : events)
        ASSERT_EQ(e.ecbBytes, uncachedEcb(synth, seed, e.blockNum))
            << e.blockNum;
    EXPECT_EQ(synth.distinctBlocks(), blocks.size() + 2'000);
}

TEST(IngestParallel, MalformedRecordDeepInALargeStreamNamesItsIndex)
{
    const ScopedJobs jobs(4);
    constexpr std::size_t bad = 150'001;
    const auto fixture = ingest::synthesizeChampSimFixture(200'000, 7);
    for (const std::size_t field : { std::size_t{16}, std::size_t{17} }) {
        auto corrupt = fixture;
        corrupt[bad * ingest::champSimRecordBytes + field] = 0x7f;
        try {
            convert(corrupt);
            FAIL() << "record " << bad << " converted";
        } catch (const IoError &e) {
            EXPECT_NE(std::string(e.what()).find("champsim record " +
                                                 formatU64(bad) + ":"),
                      std::string::npos)
                << e.what();
        }
    }
}

} // namespace
