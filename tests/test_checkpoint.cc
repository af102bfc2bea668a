/**
 * @file
 * Crash-safety tests: subsystem snapshot/restore round-trips, the
 * kill-and-resume guarantee of ForecastEngine (a resumed run is
 * byte-identical to an uninterrupted one), graceful rejection of
 * corrupt checkpoints, cooperative interrupts, and failure containment
 * in the checkpointed forecast grid.
 */

#include <gtest/gtest.h>

#include <cerrno>
#include <chrono>
#include <csignal>
#include <cstdio>
#include <cstring>
#include <sys/stat.h>
#include <unistd.h>

#include "common/error.hh"
#include "common/interrupt.hh"
#include "common/metrics.hh"
#include "common/rng.hh"
#include "common/serialize.hh"
#include "forecast/forecast.hh"
#include "hierarchy/hierarchy.hh"
#include "hybrid/set_dueling.hh"
#include "sim/grid.hh"
#include "workload/mixes.hh"

namespace
{

using namespace hllc;
using namespace hllc::forecast;
using hybrid::HybridLlcConfig;
using hybrid::PolicyKind;

// --------------------------------------------------------------------
// Subsystem snapshot/restore round-trips.
// --------------------------------------------------------------------

TEST(RngSnapshot, RestoredStreamContinuesIdentically)
{
    Xoshiro256StarStar rng(42);
    rng.nextGaussian(); // leave a cached spare in flight
    serial::Encoder enc;
    rng.snapshot(enc);

    std::vector<std::uint64_t> expected;
    std::vector<double> expected_gauss;
    for (int i = 0; i < 8; ++i) {
        expected.push_back(rng.next());
        expected_gauss.push_back(rng.nextGaussian());
    }

    Xoshiro256StarStar other(7); // different state, then restored over
    serial::Decoder dec(enc.bytes());
    other.restore(dec);
    for (int i = 0; i < 8; ++i) {
        EXPECT_EQ(other.next(), expected[i]);
        EXPECT_EQ(other.nextGaussian(), expected_gauss[i]);
    }
}

TEST(SetDuelingSnapshot, RoundTripsAndRejectsMismatch)
{
    hybrid::SetDueling duel(64, { 8, 16, 32 }, 1000, 4.0, 8.0);
    for (std::uint32_t set = 0; set < 64; ++set) {
        duel.recordHit(set);
        duel.recordNvmBytes(set, 16 + set);
    }
    duel.tick(1500); // one epoch closed, clock mid-second-epoch
    duel.recordHit(1);
    serial::Encoder enc;
    duel.snapshot(enc);

    hybrid::SetDueling restored(64, { 8, 16, 32 }, 1000, 4.0, 8.0);
    serial::Decoder dec(enc.bytes());
    restored.restore(dec);
    EXPECT_EQ(restored.winner(), duel.winner());
    EXPECT_EQ(restored.epochsCompleted(), duel.epochsCompleted());
    EXPECT_EQ(restored.epochHits(), duel.epochHits());
    EXPECT_EQ(restored.epochBytes(), duel.epochBytes());
    EXPECT_EQ(restored.winnerHistory(), duel.winnerHistory());
    // Same epoch clock: both cross the next boundary at the same tick.
    EXPECT_EQ(restored.tick(499), duel.tick(499));
    EXPECT_EQ(restored.tick(1), duel.tick(1));

    hybrid::SetDueling wrong(64, { 8, 16 }, 1000, 4.0, 8.0);
    serial::Decoder dec2(enc.bytes());
    EXPECT_THROW(wrong.restore(dec2), IoError);
}

class FaultMapSnapshot : public ::testing::Test
{
  protected:
    static fault::EnduranceModel
    endurance(std::uint32_t sets = 8)
    {
        return { { sets, 2, 64 }, { 100.0, 0.2 },
                 Xoshiro256StarStar(7) };
    }

    static std::vector<std::uint8_t>
    stateOf(const fault::FaultMap &map)
    {
        serial::Encoder enc;
        map.snapshot(enc);
        return enc.bytes();
    }
};

TEST_F(FaultMapSnapshot, RoundTripsFullWearState)
{
    const fault::EnduranceModel model = endurance();
    fault::FaultMap map(model, fault::DisableGranularity::Byte);
    for (std::uint32_t f = 0; f < map.geometry().numFrames(); ++f)
        map.recordWrite(f, 32 + f);
    map.age(2.0);
    map.killByte(3, 5);
    map.killFrame(7);
    map.recordWrite(2, 48); // pending wear must round-trip too

    const auto state = stateOf(map);
    fault::FaultMap restored(model, fault::DisableGranularity::Byte);
    serial::Decoder dec(state);
    restored.restore(dec);

    EXPECT_EQ(restored.totalLiveBytes(), map.totalLiveBytes());
    EXPECT_EQ(restored.deadFrames(), map.deadFrames());
    EXPECT_DOUBLE_EQ(restored.effectiveCapacity(),
                     map.effectiveCapacity());
    for (std::uint32_t f = 0; f < map.geometry().numFrames(); ++f) {
        EXPECT_EQ(restored.liveMask(f), map.liveMask(f));
        EXPECT_EQ(restored.liveBytes(f), map.liveBytes(f));
    }
    EXPECT_EQ(restored.writesSoFar(1, 9), map.writesSoFar(1, 9));
    // Byte-identical re-snapshot: the strongest equality we can ask for.
    EXPECT_EQ(stateOf(restored), state);
}

TEST_F(FaultMapSnapshot, RejectsGeometryMismatchWithoutMutating)
{
    const fault::EnduranceModel model = endurance(8);
    fault::FaultMap map(model, fault::DisableGranularity::Byte);
    map.killByte(0, 0);
    const auto state = stateOf(map);

    const fault::EnduranceModel other_model = endurance(4);
    fault::FaultMap other(other_model, fault::DisableGranularity::Byte);
    const auto before = stateOf(other);
    serial::Decoder dec(state);
    EXPECT_THROW(other.restore(dec), IoError);
    EXPECT_EQ(stateOf(other), before);

    // Garbage must also be rejected without mutation.
    const std::vector<std::uint8_t> junk(13, 0xA5);
    serial::Decoder junk_dec(junk.data(), junk.size());
    EXPECT_THROW(other.restore(junk_dec), IoError);
    EXPECT_EQ(stateOf(other), before);
}

// --------------------------------------------------------------------
// Kill-and-resume: the tentpole guarantee. A run stopped after N steps
// and resumed from its checkpoint must be byte-identical to a run that
// was never stopped.
// --------------------------------------------------------------------

class KillResume : public ::testing::Test
{
  protected:
    static constexpr std::uint32_t kSets = 64;

    void SetUp() override
    {
        clearInterrupt();
        // Per-test checkpoint file: the cases run concurrently under
        // `ctest -j` and must not share paths.
        path_ = std::string("/tmp/hllc_test_ckpt_") +
                ::testing::UnitTest::GetInstance()
                    ->current_test_info()
                    ->name() +
                ".bin";
    }
    void TearDown() override
    {
        clearInterrupt();
        std::remove(path());
        std::remove((path_ + ".tmp").c_str());
    }

    const char *path() const { return path_.c_str(); }

    std::string path_;

    static const replay::LlcTrace &trace()
    {
        static const replay::LlcTrace t = hierarchy::captureTrace(
            workload::tableVMixes()[0], kSets * 16,
            hierarchy::PrivateCacheConfig{ 1024, 4, 4096, 16 }, 30000,
            33);
        return t;
    }

    static HybridLlcConfig
    llcConfig(PolicyKind policy)
    {
        HybridLlcConfig config;
        config.numSets = kSets;
        config.sramWays = 4;
        config.nvmWays = 12;
        config.policy = policy;
        config.epochCycles = 50'000;
        return config;
    }

    /** Fresh engine over an identical endurance fabric every call. */
    static std::vector<ForecastPoint>
    run(PolicyKind policy, const RunOptions &options)
    {
        const auto config = llcConfig(policy);
        const fault::EnduranceModel model(
            { kSets, 12, 64 }, { 1e8, 0.2 }, Xoshiro256StarStar(3));
        ForecastConfig fc;
        fc.maxSteps = 120;
        ForecastEngine engine(model, config, { &trace() },
                              hierarchy::TimingParams{}, fc);
        return engine.run(options);
    }

    /**
     * Like run(), but returns the engine's full observability export
     * (metric series + engine counters as hllc-stats-v1 JSON) instead
     * of the point series — the byte-identity target for stats.
     */
    static std::string
    runExport(PolicyKind policy, const RunOptions &options)
    {
        const auto config = llcConfig(policy);
        const fault::EnduranceModel model(
            { kSets, 12, 64 }, { 1e8, 0.2 }, Xoshiro256StarStar(3));
        ForecastConfig fc;
        fc.maxSteps = 120;
        ForecastEngine engine(model, config, { &trace() },
                              hierarchy::TimingParams{}, fc);
        engine.run(options);
        metrics::CellExport cell;
        cell.label = "cell";
        cell.metrics = &engine.metrics();
        metrics::appendCounters(cell, engine.stats());
        return metrics::statsToJson({ cell }, "kill-resume");
    }

    static void
    expectBitIdentical(const std::vector<ForecastPoint> &a,
                       const std::vector<ForecastPoint> &b)
    {
        ASSERT_EQ(a.size(), b.size());
        ASSERT_GE(a.size(), 4u) << "series too short to prove anything";
        for (std::size_t i = 0; i < a.size(); ++i) {
            EXPECT_EQ(std::memcmp(&a[i].time, &b[i].time, 8), 0) << i;
            EXPECT_EQ(std::memcmp(&a[i].capacity, &b[i].capacity, 8), 0)
                << i;
            EXPECT_EQ(std::memcmp(&a[i].meanIpc, &b[i].meanIpc, 8), 0)
                << i;
            EXPECT_EQ(std::memcmp(&a[i].hitRate, &b[i].hitRate, 8), 0)
                << i;
            EXPECT_EQ(std::memcmp(&a[i].nvmBytesPerSecond,
                                  &b[i].nvmBytesPerSecond, 8),
                      0)
                << i;
        }
    }
};

TEST_F(KillResume, ResumedRunIsByteIdentical)
{
    const auto reference = run(PolicyKind::CpSd, {});

    RunOptions stop;
    stop.checkpointPath = path();
    stop.stopAfterSteps = 3;
    const auto partial = run(PolicyKind::CpSd, stop);
    ASSERT_EQ(partial.size(), 3u);
    ASSERT_LT(partial.size(), reference.size());

    RunOptions resume;
    resume.checkpointPath = path();
    resume.resume = true;
    const auto resumed = run(PolicyKind::CpSd, resume);
    expectBitIdentical(resumed, reference);
}

TEST_F(KillResume, ResumedRunExportsIdenticalStats)
{
    // The observability layer rides in the checkpoint ("stat"/"lstat"/
    // "mtrc" chunks): a run stopped mid-flight and resumed must export
    // the very same stats document an uninterrupted run produces.
    const std::string reference = runExport(PolicyKind::CpSd, {});
    EXPECT_NE(reference.find("\"schema\": \"hllc-stats-v1\""),
              std::string::npos);
    EXPECT_NE(reference.find("\"simulate_phases\""), std::string::npos);
    EXPECT_NE(reference.find("\"mean_ipc\""), std::string::npos);

    RunOptions stop;
    stop.checkpointPath = path();
    stop.stopAfterSteps = 3;
    runExport(PolicyKind::CpSd, stop);

    RunOptions resume;
    resume.checkpointPath = path();
    resume.resume = true;
    const std::string resumed = runExport(PolicyKind::CpSd, resume);
    EXPECT_EQ(resumed, reference);
}

TEST_F(KillResume, TwoStagedStopsStillByteIdentical)
{
    const auto reference = run(PolicyKind::CpSdTh, {});

    RunOptions stop;
    stop.checkpointPath = path();
    stop.checkpointEvery = 2; // sparse cadence with a mid-run stop
    stop.stopAfterSteps = 2;
    run(PolicyKind::CpSdTh, stop);

    stop.resume = true;
    stop.stopAfterSteps = 3;
    run(PolicyKind::CpSdTh, stop);

    RunOptions resume;
    resume.checkpointPath = path();
    resume.resume = true;
    const auto resumed = run(PolicyKind::CpSdTh, resume);
    expectBitIdentical(resumed, reference);
}

TEST_F(KillResume, ResumingACompletedRunIsIdempotent)
{
    RunOptions options;
    options.checkpointPath = path();
    const auto reference = run(PolicyKind::CpSd, options);

    options.resume = true;
    const auto again = run(PolicyKind::CpSd, options);
    expectBitIdentical(again, reference);
}

TEST_F(KillResume, CorruptCheckpointFallsBackToFreshRun)
{
    const auto reference = run(PolicyKind::CpSd, {});

    RunOptions stop;
    stop.checkpointPath = path();
    stop.stopAfterSteps = 3;
    run(PolicyKind::CpSd, stop);

    // Flip one byte in the middle of the checkpoint: the CRC rejects
    // it, the run warns and restarts from scratch -- and still produces
    // the uninterrupted result.
    std::vector<std::uint8_t> bytes = serial::readFileBytes(path());
    bytes[bytes.size() / 2] ^= 0x40;
    serial::writeFileAtomic(path(), bytes.data(), bytes.size());

    RunOptions resume;
    resume.checkpointPath = path();
    resume.resume = true;
    const auto resumed = run(PolicyKind::CpSd, resume);
    expectBitIdentical(resumed, reference);
}

TEST_F(KillResume, MissingCheckpointFallsBackToFreshRun)
{
    const auto reference = run(PolicyKind::CpSd, {});
    RunOptions resume;
    resume.checkpointPath = path();
    resume.resume = true;
    const auto resumed = run(PolicyKind::CpSd, resume);
    expectBitIdentical(resumed, reference);
}

TEST_F(KillResume, CheckpointRejectsConfigMismatch)
{
    RunOptions stop;
    stop.checkpointPath = path();
    stop.stopAfterSteps = 3;
    run(PolicyKind::CpSd, stop);

    // Resuming a BH run from a CP_SD checkpoint must restart fresh, not
    // splice foreign state.
    const auto reference = run(PolicyKind::Bh, {});
    RunOptions resume;
    resume.checkpointPath = path();
    resume.resume = true;
    const auto resumed = run(PolicyKind::Bh, resume);
    expectBitIdentical(resumed, reference);
}

// The stop arms differ only in how a failing final save ends the run:
// the step budget's save is the run's result and propagates; the
// interrupt and deadline saves are best-effort before they unwind.
TEST_F(KillResume, FailedFinalSaveIsFatalOnlyForTheStepBudget)
{
    RunOptions options;
    options.checkpointPath = "/nonexistent-hllc-dir/ckpt.bin";

    options.stopAfterSteps = 1;
    EXPECT_THROW(run(PolicyKind::Bh, options), IoError);
    options.stopAfterSteps = 0;

    requestInterrupt(SIGTERM);
    EXPECT_THROW(run(PolicyKind::Bh, options), InterruptedError);
    clearInterrupt();

    options.deadline = std::chrono::steady_clock::time_point::min();
    EXPECT_THROW(run(PolicyKind::Bh, options), DeadlineExceededError);
}

TEST_F(KillResume, InterruptWritesFinalCheckpointAndResumes)
{
    const auto reference = run(PolicyKind::CpSd, {});

    RunOptions stop;
    stop.checkpointPath = path();
    stop.stopAfterSteps = 3;
    run(PolicyKind::CpSd, stop);

    // A pending SIGTERM at the next step boundary: final checkpoint,
    // InterruptedError, 128+15 exit code.
    requestInterrupt(SIGTERM);
    RunOptions resume;
    resume.checkpointPath = path();
    resume.resume = true;
    EXPECT_THROW(run(PolicyKind::CpSd, resume), InterruptedError);
    EXPECT_EQ(interruptExitCode(), 128 + SIGTERM);
    clearInterrupt();

    const auto resumed = run(PolicyKind::CpSd, resume);
    expectBitIdentical(resumed, reference);
}

// --------------------------------------------------------------------
// Checkpointed forecast grid: containment and determinism.
// --------------------------------------------------------------------

class CheckpointedGrid : public ::testing::Test
{
  protected:
    const char *dir() const { return dir_.c_str(); }

    void SetUp() override
    {
        clearInterrupt();
        // Per-test checkpoint directory (see KillResume::SetUp).
        dir_ = std::string("/tmp/hllc_test_ckpt_grid_") +
               ::testing::UnitTest::GetInstance()
                   ->current_test_info()
                   ->name();
    }

    std::string dir_;

    void TearDown() override
    {
        clearInterrupt();
        for (std::size_t i = 0; i < entries().size(); ++i) {
            const std::string p = sim::checkpointCellPath(
                checkpoint(), i, entries()[i].label);
            std::remove(p.c_str());
            std::remove((p + ".tmp").c_str());
            ::rmdir(p.c_str());
        }
        ::rmdir(dir());
    }

    sim::CheckpointOptions
    checkpoint(bool resume = false) const
    {
        sim::CheckpointOptions options;
        options.dir = dir_;
        options.resume = resume;
        return options;
    }

    static const sim::Experiment &
    experiment()
    {
        static const sim::Experiment e = [] {
            sim::SystemConfig config = sim::SystemConfig::tableIV(0.5);
            config.refsPerCore = 30'000;
            config.jobs = 2;
            return sim::Experiment(config, 2);
        }();
        return e;
    }

    static const std::vector<sim::StudyEntry> &
    entries()
    {
        static const std::vector<sim::StudyEntry> e = {
            { "BH", experiment().config().llcConfig(PolicyKind::Bh) },
            { "CP_SD",
              experiment().config().llcConfig(PolicyKind::CpSd) },
        };
        return e;
    }

    static void
    expectSummariesIdentical(const std::vector<sim::ForecastSummary> &a,
                             const std::vector<sim::ForecastSummary> &b)
    {
        ASSERT_EQ(a.size(), b.size());
        for (std::size_t i = 0; i < a.size(); ++i) {
            EXPECT_EQ(a[i].label, b[i].label);
            EXPECT_EQ(a[i].lifetimeMonths, b[i].lifetimeMonths);
            EXPECT_EQ(a[i].initialIpc, b[i].initialIpc);
            ASSERT_EQ(a[i].series.size(), b[i].series.size());
            for (std::size_t t = 0; t < a[i].series.size(); ++t) {
                EXPECT_EQ(a[i].series[t].time, b[i].series[t].time);
                EXPECT_EQ(a[i].series[t].capacity,
                          b[i].series[t].capacity);
                EXPECT_EQ(a[i].series[t].meanIpc,
                          b[i].series[t].meanIpc);
            }
        }
    }
};

TEST_F(CheckpointedGrid, MatchesPlainGridAndResumesIdentically)
{
    const auto plain =
        sim::runForecastGridCheckpointed(experiment(), entries()).summaries;

    const auto outcome = sim::runForecastGridCheckpointed(
        experiment(), entries(), {}, checkpoint());
    EXPECT_TRUE(outcome.ok());
    EXPECT_EQ(outcome.exitCode(), 0);
    expectSummariesIdentical(outcome.summaries, plain);

    // Resuming completed cells re-runs only their last phase and must
    // reproduce the grid bit-for-bit.
    const auto resumed = sim::runForecastGridCheckpointed(
        experiment(), entries(), {}, checkpoint(true));
    EXPECT_TRUE(resumed.ok());
    expectSummariesIdentical(resumed.summaries, plain);
}

TEST_F(CheckpointedGrid, FailingCellIsContainedAndReported)
{
    // Occupy cell 0's checkpoint path with a directory: its first save
    // cannot land (rename onto a directory fails), so the cell fails --
    // while cell 1 completes normally.
    ASSERT_TRUE(::mkdir(dir(), 0777) == 0 || errno == EEXIST);
    const std::string blocked =
        sim::checkpointCellPath(checkpoint(), 0, entries()[0].label);
    ASSERT_TRUE(::mkdir(blocked.c_str(), 0777) == 0 || errno == EEXIST);

    const auto outcome = sim::runForecastGridCheckpointed(
        experiment(), entries(), {}, checkpoint());
    EXPECT_FALSE(outcome.ok());
    EXPECT_EQ(outcome.exitCode(), 1);
    ASSERT_EQ(outcome.reports.size(), 2u);
    EXPECT_TRUE(outcome.reports[0].failed());
    EXPECT_EQ(outcome.reports[0].index, 0u);
    EXPECT_EQ(outcome.reports[0].label, "BH");
    EXPECT_FALSE(outcome.reports[0].error.empty());
    EXPECT_TRUE(outcome.reports[1].succeeded());
    ASSERT_EQ(outcome.summaries.size(), 1u);
    EXPECT_EQ(outcome.summaries[0].label, "CP_SD");
}

TEST_F(CheckpointedGrid, UncreatableCheckpointDirectoryThrowsIoError)
{
    sim::CheckpointOptions options;
    options.dir = "/nonexistent-hllc/x";
    try {
        sim::runForecastGridCheckpointed(experiment(), entries(), {},
                                         options);
        ADD_FAILURE() << "the grid did not throw";
    } catch (const IoError &e) {
        const std::string what = e.what();
        EXPECT_NE(what.find("'/nonexistent-hllc/x'"), std::string::npos)
            << what;
        EXPECT_NE(what.find(std::strerror(ENOENT)), std::string::npos)
            << what;
    }
}

TEST_F(CheckpointedGrid, InterruptStopsGridWithCheckpointsInPlace)
{
    const auto plain =
        sim::runForecastGridCheckpointed(experiment(), entries()).summaries;

    requestInterrupt(SIGINT);
    const auto outcome = sim::runForecastGridCheckpointed(
        experiment(), entries(), {}, checkpoint());
    EXPECT_TRUE(outcome.interrupted);
    EXPECT_EQ(outcome.exitCode(), 128 + SIGINT);
    EXPECT_TRUE(outcome.summaries.empty());
    clearInterrupt();

    // Every cell checkpointed before unwinding; a resume finishes the
    // grid and matches the uninterrupted reference.
    const auto resumed = sim::runForecastGridCheckpointed(
        experiment(), entries(), {}, checkpoint(true));
    EXPECT_TRUE(resumed.ok());
    expectSummariesIdentical(resumed.summaries, plain);
}

} // namespace
