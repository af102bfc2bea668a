/**
 * @file
 * parallelFor / runGrid contract tests: completion, exception
 * propagation out of parallelFor() (on runJobs, the one scheduler;
 * tests/test_mix_tasks.cc covers runJobs itself), the jobs-resolution
 * knobs, and the determinism guarantee — jobs=1 and jobs=8 grids must
 * be byte-identical (traces, forecasts, phase replays and stats dumps).
 */

#include <gtest/gtest.h>

#include <atomic>
#include <numeric>
#include <sstream>
#include <stdexcept>

#include "common/numfmt.hh"
#include "common/thread_pool.hh"
#include "sim/grid.hh"

namespace
{

using namespace hllc;
using hybrid::PolicyKind;

TEST(ParallelFor, CoversEveryIndexOnce)
{
    for (const unsigned jobs : { 1u, 4u }) {
        std::vector<int> counts(100, 0);
        parallelFor(jobs, counts.size(),
                    [&](std::size_t i) { ++counts[i]; });
        EXPECT_EQ(std::accumulate(counts.begin(), counts.end(), 0), 100)
            << "jobs=" << jobs;
    }
}

TEST(ParallelFor, RethrowsLowestIndexException)
{
    for (const unsigned jobs : { 1u, 4u }) {
        // Every iteration runs, at any width, before the rethrow.
        std::vector<std::atomic<int>> ran(8);
        try {
            parallelFor(jobs, ran.size(), [&](std::size_t i) {
                ran[i] = 1;
                if (i % 2 == 1)
                    throw std::out_of_range(formatU64(i));
            });
            FAIL() << "expected an exception (jobs=" << jobs << ")";
        } catch (const std::out_of_range &e) {
            EXPECT_STREQ(e.what(), "1");
        }
        for (std::size_t i = 0; i < ran.size(); ++i)
            EXPECT_EQ(ran[i].load(), 1) << "jobs=" << jobs << " i=" << i;
    }
}

TEST(Grid, ResolveAndParseJobs)
{
    EXPECT_EQ(sim::resolveJobs(3), 3u);
    EXPECT_GE(sim::resolveJobs(0), 1u); // auto resolves to >= 1

    char prog[] = "bench";
    char flag[] = "--jobs";
    char value[] = "6";
    char *argv[] = { prog, flag, value };
    const sim::FlagGroups jobs{ .jobs = true };
    EXPECT_EQ(sim::parseBenchArgs(3, argv, jobs).jobs, 6u);
    EXPECT_EQ(sim::parseBenchArgs(1, argv, jobs).jobs, 0u); // auto
}

TEST(Grid, ChildStreamIsOrderAndThreadFree)
{
    // Same keys, same stream — independent of construction order.
    Xoshiro256StarStar a = childStream(42, 3, 5);
    Xoshiro256StarStar b = childStream(42, 5, 3);
    Xoshiro256StarStar c = childStream(42, 3, 5);
    const std::uint64_t a0 = a.next();
    EXPECT_EQ(a0, c.next());
    EXPECT_NE(a0, b.next());
    EXPECT_NE(childSeed(42, 0, 0), childSeed(43, 0, 0));
}

// --------------------------------------------------------------------
// Determinism: the tentpole guarantee. A small policy×mix grid run with
// jobs=1 and jobs=8 must produce byte-identical results end to end.
// --------------------------------------------------------------------

sim::SystemConfig
smallConfig(unsigned jobs)
{
    sim::SystemConfig config = sim::SystemConfig::tableIV(0.5);
    config.refsPerCore = 30'000;
    config.jobs = jobs;
    return config;
}

TEST(GridDeterminism, CaptureIdenticalAcrossJobCounts)
{
    const sim::Experiment serial(smallConfig(1), 2);
    const sim::Experiment parallel(smallConfig(8), 2);

    ASSERT_EQ(serial.traces().size(), parallel.traces().size());
    for (std::size_t m = 0; m < serial.traces().size(); ++m) {
        const auto &a = serial.traces()[m];
        const auto &b = parallel.traces()[m];
        ASSERT_EQ(a.size(), b.size()) << "mix " << m;
        EXPECT_EQ(a.meta().mixName, b.meta().mixName);
        for (std::size_t e = 0; e < a.size(); ++e) {
            const auto ea = a.event(e);
            const auto eb = b.event(e);
            ASSERT_TRUE(ea.blockNum == eb.blockNum &&
                        ea.type == eb.type &&
                        ea.ecbBytes == eb.ecbBytes && ea.core == eb.core)
                << "mix " << m << " event " << e;
        }
    }
}

TEST(GridDeterminism, ForecastAndPhaseGridsIdenticalAcrossJobCounts)
{
    const sim::Experiment serial(smallConfig(1), 2);
    const sim::Experiment parallel(smallConfig(8), 2);
    const auto &config = serial.config();

    const std::vector<sim::StudyEntry> entries = {
        { "BH", config.llcConfig(PolicyKind::Bh) },
        { "BH_CP", config.llcConfig(PolicyKind::BhCp) },
        { "LHybrid", config.llcConfig(PolicyKind::LHybrid) },
        { "CP_SD", config.llcConfig(PolicyKind::CpSd) },
    };
    const auto s =
        runForecastGridCheckpointed(serial, entries, {}, {}, {}, 1)
            .summaries;
    const auto p =
        runForecastGridCheckpointed(parallel, entries, {}, {}, {}, 8)
            .summaries;
    ASSERT_EQ(s.size(), p.size());
    for (std::size_t i = 0; i < s.size(); ++i) {
        EXPECT_EQ(s[i].label, p[i].label);
        EXPECT_EQ(s[i].lifetimeMonths, p[i].lifetimeMonths);
        EXPECT_EQ(s[i].initialIpc, p[i].initialIpc);
        ASSERT_EQ(s[i].series.size(), p[i].series.size());
        for (std::size_t t = 0; t < s[i].series.size(); ++t) {
            EXPECT_EQ(s[i].series[t].capacity, p[i].series[t].capacity);
            EXPECT_EQ(s[i].series[t].meanIpc, p[i].series[t].meanIpc);
            EXPECT_EQ(s[i].series[t].time, p[i].series[t].time);
        }
    }

    // Phase grid (policy×mix cells), formatted through a stats-style
    // dump so the comparison is byte-level, as the benches print.
    std::vector<sim::PhaseCell> cells;
    for (const auto policy : { PolicyKind::Bh, PolicyKind::CpSd }) {
        for (std::size_t mix = 0; mix < 2; ++mix) {
            cells.push_back({ "cell", config.llcConfig(policy), 0.9,
                              mix });
        }
    }
    const auto sp = runPhaseGrid(serial, cells, 1);
    const auto pp = runPhaseGrid(parallel, cells, 8);
    ASSERT_EQ(sp.size(), pp.size());
    for (std::size_t i = 0; i < sp.size(); ++i) {
        std::ostringstream sa, pa;
        sa << sp[i].aggregate.meanIpc << ' ' << sp[i].aggregate.hitRate
           << ' ' << sp[i].aggregate.demandHits << ' '
           << sp[i].aggregate.nvmBytesWritten;
        pa << pp[i].aggregate.meanIpc << ' ' << pp[i].aggregate.hitRate
           << ' ' << pp[i].aggregate.demandHits << ' '
           << pp[i].aggregate.nvmBytesWritten;
        EXPECT_EQ(sa.str(), pa.str()) << "cell " << i;
    }
}

} // namespace
