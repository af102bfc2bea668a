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

#include <algorithm>
#include <cstdlib>
#include <optional>
#include <string>
#include <thread>
#include <vector>

#include "common/error.hh"
#include "common/numfmt.hh"
#include "common/rng.hh"
#include "common/thread_pool.hh"
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
    explicit ScopedJobs(unsigned jobs) : ScopedJobs(formatU64(jobs)) {}
    explicit ScopedJobs(const std::string &value)
    {
        if (const char *old = std::getenv("HLLC_JOBS"))
            old_ = old;
        ::setenv("HLLC_JOBS", value.c_str(), 1);
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

TEST(DefaultJobs, MalformedHllcJobsFallsBackToHardware)
{
    // strtol used to read "abc" as 1 worker and "999x" as 999.
    const unsigned hw = std::max(1u, std::thread::hardware_concurrency());
    for (const char *junk : { "abc", "999x", "0", "-2", "" }) {
        ScopedJobs env(junk);
        EXPECT_EQ(defaultJobs(), hw) << "HLLC_JOBS='" << junk << "'";
    }
    ScopedJobs env(3);
    EXPECT_EQ(defaultJobs(), 3u);
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
            const hybrid::LlcEvent a = trace.event(i);
            const hybrid::LlcEvent b = base.event(i);
            ASSERT_EQ(a.blockNum, b.blockNum) << n << " jobs, event " << i;
            ASSERT_EQ(a.type, b.type) << n << " jobs, event " << i;
            ASSERT_EQ(a.ecbBytes, b.ecbBytes) << n << " jobs, event " << i;
            ASSERT_EQ(a.core, b.core) << n << " jobs, event " << i;
        }
    }

    const ingest::ConvertOptions options;
    const ingest::PayloadSynth synth(defaultMix(), options.seed);
    for (std::size_t i = 0; i < base.size(); ++i) {
        const hybrid::LlcEvent e = base.event(i);
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
    std::vector<Addr> batch;
    for (std::uint64_t i = 0; i < 4'000; ++i)
        batch.push_back(i % 2 == 0 ? blocks[i] : (Addr{1} << 40) + i);
    std::vector<std::uint8_t> ecbs(batch.size());
    synth.fillEcbs(batch, ecbs);
    for (std::size_t i = 0; i < batch.size(); ++i)
        ASSERT_EQ(ecbs[i], uncachedEcb(synth, seed, batch[i])) << batch[i];
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
