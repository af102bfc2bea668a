/**
 * @file
 * The forecast's memoised set replay against the unmemoised path.
 *
 * Without Set Dueling, ForecastEngine re-simulates only the LLC sets
 * whose NVM frame capacities changed since their last replay and reuses
 * the cached tallies and pending wear of the rest. These tests hold it
 * to the plain loop (discardPending, replayAllTraces, chooseAgingStep,
 * age) bit for bit at every step, and hold the set-filtered replay it
 * rests on to TraceReplayer::replay().
 */

#include <gtest/gtest.h>

#include <algorithm>
#include <cstdio>
#include <cstring>
#include <initializer_list>
#include <ostream>
#include <string>
#include <vector>

#include "common/serialize.hh"
#include "forecast/forecast.hh"
#include "hybrid/llc_rig.hh"
#include "sim/experiment.hh"

namespace
{

using namespace hllc;
using forecast::ForecastConfig;
using forecast::ForecastEngine;
using forecast::ForecastPoint;
using hybrid::PolicyKind;
using replay::ReplayResult;
using replay::SetFilter;
using replay::SetTally;

/** Ten Table V mixes at quarter scale, captured once per process. */
const sim::Experiment &
experiment()
{
    static const sim::Experiment e(sim::SystemConfig::tableIV(0.25));
    return e;
}

std::vector<std::uint8_t>
mapBytes(const fault::FaultMap &map)
{
    serial::Encoder enc;
    map.snapshot(enc);
    return enc.bytes();
}

bool
sameBits(double a, double b)
{
    return std::memcmp(&a, &b, sizeof a) == 0;
}

/** One step of the unmemoised loop. */
struct ReferenceStep
{
    ForecastPoint point;
    std::uint64_t nvmBytesWritten = 0;
    double liveFrameFraction = 0.0;
    /** Fault map after the step's aging (the next step's start). */
    std::vector<std::uint8_t> mapAfter;
};

/**
 * ForecastEngine::run() from public calls, every mix replayed in full:
 * the engine without its memo.
 */
std::vector<ReferenceStep>
referenceRun(const fault::EnduranceModel &model,
             const hybrid::HybridLlcConfig &llc_config,
             const ForecastConfig &fc)
{
    const sim::Experiment &e = experiment();
    hybrid::LlcRig rig =
        hybrid::buildLlcRig(llc_config, model, fc.wearDistribution);
    std::vector<ReferenceStep> steps;
    Seconds now = 0.0;
    for (std::size_t step = 0; step < fc.maxSteps; ++step) {
        rig.map->discardPending();
        const forecast::PhaseAggregate agg = forecast::replayAllTraces(
            e.tracePtrs(), *rig.llc, e.config().timing,
            fc.warmupFraction);
        const Seconds window =
            agg.measuredSeconds / (1.0 - fc.warmupFraction);

        ReferenceStep s;
        s.point.time = now;
        s.point.capacity = rig.map->effectiveCapacity();
        s.point.meanIpc = agg.meanIpc;
        s.point.hitRate = agg.hitRate;
        s.point.nvmBytesPerSecond =
            agg.measuredSeconds <= 0.0
                ? 0.0
                : static_cast<double>(agg.nvmBytesWritten) /
                      agg.measuredSeconds;
        s.nvmBytesWritten = agg.nvmBytesWritten;
        const double frames = rig.map->geometry().numFrames();
        s.liveFrameFraction = 1.0 - rig.map->deadFrames() / frames;
        steps.push_back(s);

        if (s.point.capacity <= fc.capacityFloor || now >= fc.maxTime ||
            window <= 0.0) {
            break;
        }
        Seconds delta =
            forecast::chooseAgingStep(*rig.map, model, window, fc.aging);
        delta = std::min(delta, fc.maxTime - now);
        if (delta <= 0.0)
            break;
        rig.map->age(delta / window);
        now += delta;
        steps.back().mapAfter = mapBytes(*rig.map);
    }
    return steps;
}

/** The fault map in a ForecastEngine checkpoint. */
std::vector<std::uint8_t>
checkpointMapBytes(const std::string &path,
                   const fault::EnduranceModel &model,
                   fault::DisableGranularity granularity)
{
    // ForecastEngine's container identity ("HLCK", version 2); a format
    // change has to update this line.
    const serial::Container c =
        serial::Container::load(path, 0x484c434b, 2, 2);
    serial::Decoder dec = c.open("fmap");
    fault::FaultMap map(model, granularity);
    map.restore(dec);
    return mapBytes(map);
}

struct MemoCase
{
    const char *name;
    PolicyKind policy;
    fault::WearDistribution wear;
};

void
PrintTo(const MemoCase &c, std::ostream *os)
{
    *os << c.name;
}

class ForecastMemo : public ::testing::TestWithParam<MemoCase>
{
  protected:
    void TearDown() override
    {
        std::remove(path().c_str());
        std::remove((path() + ".tmp").c_str());
    }

    /** Per-case checkpoint file (the cases run concurrently). */
    std::string
    path() const
    {
        return std::string("/tmp/hllc_test_forecast_memo_") +
               GetParam().name + ".ckpt";
    }
};

TEST_P(ForecastMemo, MatchesTheUnmemoisedLoopAtEveryStep)
{
    const sim::Experiment &e = experiment();
    const hybrid::HybridLlcConfig llc_config =
        e.config().llcConfig(GetParam().policy);
    const fault::EnduranceModel model = e.makeEndurance(llc_config);
    ForecastConfig fc;
    fc.maxSteps = 10;
    fc.wearDistribution = GetParam().wear;

    const std::vector<ReferenceStep> ref =
        referenceRun(model, llc_config, fc);
    ASSERT_GE(ref.size(), 4u) << "series too short to prove anything";
    const auto granularity =
        hybrid::InsertionPolicy(llc_config.policy, llc_config.params)
            .granularity();

    // The whole run: series and exported metric series, bit for bit.
    ForecastEngine full(model, llc_config, e.tracePtrs(),
                        e.config().timing, fc);
    const std::vector<ForecastPoint> series = full.run();
    ASSERT_EQ(series.size(), ref.size());
    const metrics::MetricRegistry &m = full.metrics();
    const auto values = [&](const char *name) {
        const metrics::TimeSeries *s = m.findSeries(name);
        EXPECT_NE(s, nullptr) << name;
        return s == nullptr ? std::vector<double>{} : s->values();
    };
    const std::vector<double> ipc = values("mean_ipc");
    const std::vector<double> hit = values("hit_rate");
    const std::vector<double> cap = values("capacity");
    const std::vector<double> bytes = values("nvm_bytes_written");
    const std::vector<double> rate = values("nvm_bytes_per_second");
    const std::vector<double> live = values("live_frame_fraction");
    for (const std::vector<double> *v : { &ipc, &hit, &cap, &bytes, &rate,
                                          &live })
        ASSERT_EQ(v->size(), ref.size());
    for (std::size_t i = 0; i < ref.size(); ++i) {
        const ForecastPoint &a = series[i];
        const ForecastPoint &b = ref[i].point;
        EXPECT_TRUE(sameBits(a.time, b.time)) << "step " << i;
        EXPECT_TRUE(sameBits(a.capacity, b.capacity)) << "step " << i;
        EXPECT_TRUE(sameBits(a.meanIpc, b.meanIpc)) << "step " << i;
        EXPECT_TRUE(sameBits(a.hitRate, b.hitRate)) << "step " << i;
        EXPECT_TRUE(sameBits(a.nvmBytesPerSecond, b.nvmBytesPerSecond))
            << "step " << i;
        EXPECT_TRUE(sameBits(ipc[i], b.meanIpc)) << "step " << i;
        EXPECT_TRUE(sameBits(hit[i], b.hitRate)) << "step " << i;
        EXPECT_TRUE(sameBits(cap[i], b.capacity)) << "step " << i;
        EXPECT_TRUE(sameBits(rate[i], b.nvmBytesPerSecond))
            << "step " << i;
        EXPECT_EQ(bytes[i], static_cast<double>(ref[i].nvmBytesWritten))
            << "step " << i;
        EXPECT_TRUE(sameBits(live[i], ref[i].liveFrameFraction))
            << "step " << i;
    }

    // The fault map (live masks, cumulative and pending wear) after
    // every step, from the checkpoint of a run stopped there. Each run
    // starts cold and warms its memo over the steps it executes.
    for (std::size_t k = 1; k < ref.size(); ++k) {
        ForecastEngine engine(model, llc_config, e.tracePtrs(),
                              e.config().timing, fc);
        forecast::RunOptions stop;
        stop.checkpointPath = path();
        stop.stopAfterSteps = k;
        const std::vector<ForecastPoint> part = engine.run(stop);
        ASSERT_EQ(part.size(), k);
        EXPECT_EQ(checkpointMapBytes(path(), model, granularity),
                  ref[k - 1].mapAfter)
            << "fault map differs after step " << k - 1;
    }
}

INSTANTIATE_TEST_SUITE_P(
    Policies, ForecastMemo,
    ::testing::Values(
        MemoCase{ "BH", PolicyKind::Bh, fault::WearDistribution::Leveled },
        MemoCase{ "BH_CP", PolicyKind::BhCp,
                  fault::WearDistribution::Leveled },
        MemoCase{ "LHybrid", PolicyKind::LHybrid,
                  fault::WearDistribution::Leveled },
        MemoCase{ "TAP", PolicyKind::Tap,
                  fault::WearDistribution::Leveled },
        MemoCase{ "CA", PolicyKind::Ca, fault::WearDistribution::Leveled },
        MemoCase{ "CA_RWR", PolicyKind::CaRwr,
                  fault::WearDistribution::Leveled },
        MemoCase{ "CA_FrontLoaded", PolicyKind::Ca,
                  fault::WearDistribution::FrontLoaded }),
    [](const ::testing::TestParamInfo<MemoCase> &info) {
        return std::string(info.param.name);
    });

// --------------------------------------------------------------------
// The set-filtered replay the memo rests on.
// --------------------------------------------------------------------

/** Result of one replay on a fresh, partly degraded rig. */
struct Replayed
{
    ReplayResult result;
    SetFilter filter;
    std::vector<double> pendingBytes;
    std::vector<double> pendingWrites;
};

Replayed
replayOnFreshRig(PolicyKind policy, const std::vector<std::uint8_t> *sets)
{
    const sim::Experiment &e = experiment();
    const hybrid::HybridLlcConfig config = e.config().llcConfig(policy);
    const fault::EnduranceModel model = e.makeEndurance(config);
    hybrid::LlcRig rig = hybrid::buildLlcRig(
        config, model, fault::WearDistribution::Leveled);
    // Dead and shrunken frames make Fit-LRU, the SRAM fallback and
    // bypasses part of what the sets do.
    sim::degradeUniform(*rig.map, 0.8, 11);

    Replayed out;
    const replay::TraceReplayer replayer(0.2);
    const replay::LlcTrace &trace = e.traces()[2];
    if (sets == nullptr) {
        out.result = replayer.replay(trace, *rig.llc);
    } else {
        out.filter.replaySet = *sets;
        out.result =
            replayer.replay(trace, *rig.llc, nullptr, 0, &out.filter);
    }
    for (std::uint32_t f = 0; f < rig.map->geometry().numFrames(); ++f) {
        out.pendingBytes.push_back(rig.map->pendingWrites(f));
        out.pendingWrites.push_back(rig.map->pendingBlockWrites(f));
    }
    return out;
}

void
expectSameResult(const ReplayResult &a, const ReplayResult &b)
{
    EXPECT_TRUE(a.cores == b.cores);
    EXPECT_EQ(a.measuredEvents, b.measuredEvents);
    EXPECT_EQ(a.demandAccesses, b.demandAccesses);
    EXPECT_EQ(a.demandHits, b.demandHits);
    EXPECT_EQ(a.nvmBytesWritten, b.nvmBytesWritten);
    EXPECT_TRUE(sameBits(a.hitRate, b.hitRate));
}

class FilteredReplay : public ::testing::TestWithParam<PolicyKind>
{
};

TEST_P(FilteredReplay, SubsetAndComplementAddUpToTheFullReplay)
{
    const std::uint32_t num_sets = experiment().config().llcSets;
    const std::uint32_t ways = experiment().config().nvmWays;
    std::vector<std::uint8_t> all(num_sets, 1);
    std::vector<std::uint8_t> subset(num_sets, 0);
    std::vector<std::uint8_t> complement(num_sets, 0);
    for (std::uint32_t s = 0; s < num_sets; ++s) {
        // An irregular split: neither half is a stride of the index.
        subset[s] = (s * 2654435761u >> 7) % 3 == 0 ? 1 : 0;
        complement[s] = subset[s] ? 0 : 1;
    }

    const Replayed full = replayOnFreshRig(GetParam(), nullptr);
    const Replayed every = replayOnFreshRig(GetParam(), &all);
    const Replayed part = replayOnFreshRig(GetParam(), &subset);
    const Replayed rest = replayOnFreshRig(GetParam(), &complement);
    ASSERT_GT(full.result.nvmBytesWritten, 0u);

    // Filtering nothing out is replay().
    expectSameResult(every.result, full.result);
    EXPECT_EQ(every.pendingBytes, full.pendingBytes);
    EXPECT_EQ(every.pendingWrites, full.pendingWrites);

    // A set's tally and wear do not depend on which other sets replay.
    ReplayResult sum;
    ReplayResult from_tallies;
    for (std::uint32_t s = 0; s < num_sets; ++s) {
        const Replayed &own = subset[s] ? part : rest;
        const Replayed &other = subset[s] ? rest : part;
        EXPECT_TRUE(own.filter.tallies[s] == every.filter.tallies[s])
            << "set " << s;
        replay::addTally(sum, own.filter.tallies[s]);
        replay::addTally(from_tallies, every.filter.tallies[s]);
        for (std::uint32_t f = s * ways; f < (s + 1) * ways; ++f) {
            EXPECT_EQ(own.pendingBytes[f], every.pendingBytes[f]);
            EXPECT_EQ(own.pendingWrites[f], every.pendingWrites[f]);
            EXPECT_EQ(other.pendingBytes[f], 0.0);
            EXPECT_EQ(other.pendingWrites[f], 0.0);
        }
    }
    expectSameResult(sum, full.result);
    expectSameResult(from_tallies, full.result);

    // Each filtered result covers its own sets only.
    ReplayResult halves = part.result;
    for (std::uint32_t s = 0; s < num_sets; ++s) {
        if (complement[s])
            replay::addTally(halves, rest.filter.tallies[s]);
    }
    expectSameResult(halves, full.result);
}

INSTANTIATE_TEST_SUITE_P(
    Policies, FilteredReplay,
    ::testing::Values(PolicyKind::Bh, PolicyKind::BhCp,
                      PolicyKind::LHybrid, PolicyKind::Tap,
                      PolicyKind::CaRwr),
    [](const ::testing::TestParamInfo<PolicyKind> &info) {
        return std::string(hybrid::InsertionPolicy(info.param, {}).name());
    });

} // namespace
