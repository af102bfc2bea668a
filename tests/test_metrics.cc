/**
 * @file
 * Observability-layer tests: TimeSeries/HistogramSeries/MetricRegistry
 * snapshot round-trips, JSON/CSV export shape, locale-independent
 * number formatting, phase timers and the replayer's interval sampling
 * hook.
 */

#include <gtest/gtest.h>

#include <clocale>
#include <cmath>
#include <cstdio>
#include <memory>
#include <string>
#include <unistd.h>
#include <vector>

#include "common/error.hh"
#include "common/metrics.hh"
#include "common/numfmt.hh"
#include "common/rng.hh"
#include "common/serialize.hh"
#include "common/stats.hh"
#include "hierarchy/hierarchy.hh"
#include "hybrid/set_dueling.hh"
#include "replay/replayer.hh"
#include "workload/mixes.hh"

namespace
{

using namespace hllc;
using metrics::CellExport;
using metrics::HistogramSeries;
using metrics::MetricRegistry;
using metrics::TimeSeries;

// --------------------------------------------------------------------
// Containers and snapshot/restore.
// --------------------------------------------------------------------

TEST(Metrics, TimeSeriesRoundTrips)
{
    TimeSeries ts;
    ts.append(1.0);
    ts.append(-2.5);
    ts.append(0.125);

    serial::Encoder enc;
    ts.snapshot(enc);

    TimeSeries other;
    other.append(99.0); // must be replaced, not appended to
    serial::Decoder dec(enc.bytes());
    other.restore(dec);
    ASSERT_EQ(other.size(), 3u);
    EXPECT_EQ(other.values(), ts.values());
    EXPECT_DOUBLE_EQ(other.back(), 0.125);
}

TEST(Metrics, HistogramSeriesRoundTripsAndRejectsMismatch)
{
    HistogramSeries hs(4, 2.0);
    hs.appendRow({ 1, 0, 0, 3 });
    hs.appendRow({ 0, 2, 0, 0 });

    serial::Encoder enc;
    hs.snapshot(enc);

    HistogramSeries same(4, 2.0);
    serial::Decoder dec(enc.bytes());
    same.restore(dec);
    ASSERT_EQ(same.size(), 2u);
    EXPECT_EQ(same.rows()[0], (std::vector<std::uint64_t>{ 1, 0, 0, 3 }));

    HistogramSeries narrower(4, 1.0);
    serial::Decoder dec2(enc.bytes());
    EXPECT_THROW(narrower.restore(dec2), IoError);

    HistogramSeries fewer(2, 2.0);
    serial::Decoder dec3(enc.bytes());
    EXPECT_THROW(fewer.restore(dec3), IoError);
}

TEST(Metrics, RegistryRoundTripsAllSeries)
{
    MetricRegistry reg;
    reg.series("ipc").append(1.5);
    reg.series("ipc").append(1.25);
    reg.series("capacity").append(1.0);
    reg.histogramSeries("wear", 4, 0.5).appendRow({ 4, 3, 2, 1 });

    serial::Encoder enc;
    reg.snapshot(enc);

    // The restoring registry learns the histogram shape from the
    // snapshot itself — no pre-registration needed.
    MetricRegistry other;
    other.series("stale").append(7.0);
    serial::Decoder dec(enc.bytes());
    other.restore(dec);

    EXPECT_EQ(other.findSeries("stale"), nullptr);
    ASSERT_NE(other.findSeries("ipc"), nullptr);
    EXPECT_EQ(other.findSeries("ipc")->values(),
              (std::vector<double>{ 1.5, 1.25 }));
    ASSERT_EQ(other.allHistogramSeries().count("wear"), 1u);
    const HistogramSeries &wear = other.allHistogramSeries().at("wear");
    EXPECT_EQ(wear.bucketCount(), 4u);
    EXPECT_DOUBLE_EQ(wear.bucketWidth(), 0.5);
    ASSERT_EQ(wear.size(), 1u);
    EXPECT_EQ(wear.rows()[0], (std::vector<std::uint64_t>{ 4, 3, 2, 1 }));
}

TEST(Metrics, CorruptSnapshotLeavesRegistryUnchanged)
{
    MetricRegistry reg;
    reg.series("kept").append(42.0);

    // A truncated snapshot must throw without clobbering the contents.
    MetricRegistry donor;
    donor.series("other").append(1.0);
    donor.series("other").append(2.0);
    serial::Encoder enc;
    donor.snapshot(enc);
    std::vector<std::uint8_t> bytes(enc.bytes().begin(),
                                    enc.bytes().end());
    bytes.resize(bytes.size() / 2);

    serial::Decoder dec(bytes.data(), bytes.size());
    EXPECT_THROW(reg.restore(dec), IoError);
    ASSERT_NE(reg.findSeries("kept"), nullptr);
    EXPECT_EQ(reg.findSeries("kept")->values(),
              (std::vector<double>{ 42.0 }));
    EXPECT_EQ(reg.findSeries("other"), nullptr);
}

// --------------------------------------------------------------------
// Exporters.
// --------------------------------------------------------------------

CellExport
exampleCell(const MetricRegistry *reg)
{
    CellExport cell;
    cell.label = "CP_SD";
    cell.metrics = reg;
    cell.counters = { { "gets", 10 }, { "nvm_writes", 3 } };
    cell.scalars = { { "lifetime_months", 61.5 } };
    return cell;
}

TEST(Metrics, JsonExportCarriesSchemaSeriesAndNull)
{
    MetricRegistry reg;
    reg.series("mean_ipc").append(1.5);
    reg.series("mean_ipc").append(std::nan("")); // -> null, valid JSON
    reg.histogramSeries("wear", 2, 4.0).appendRow({ 7, 1 });

    const std::string json =
        metrics::statsToJson({ exampleCell(&reg) }, "unit-test");
    EXPECT_NE(json.find("\"schema\": \"hllc-stats-v1\""),
              std::string::npos);
    EXPECT_NE(json.find("\"experiment\": \"unit-test\""),
              std::string::npos);
    EXPECT_NE(json.find("\"label\": \"CP_SD\""), std::string::npos);
    EXPECT_NE(json.find("\"lifetime_months\": 61.5"), std::string::npos);
    EXPECT_NE(json.find("\"gets\": 10"), std::string::npos);
    EXPECT_NE(json.find("\"values\": [1.5, null]"), std::string::npos);
    EXPECT_NE(json.find("\"bucket_count\": 2"), std::string::npos);
    EXPECT_NE(json.find("\"rows\": [[7, 1]]"), std::string::npos);
    EXPECT_EQ(json.find("nan"), std::string::npos);
}

TEST(Metrics, CsvExportRoundTripsValues)
{
    MetricRegistry reg;
    reg.series("hit_rate").append(0.25);
    reg.series("hit_rate").append(0.5);

    const std::string csv = metrics::statsToCsv({ exampleCell(&reg) });
    EXPECT_EQ(csv.rfind("label,metric,step,value\n", 0), 0u);
    EXPECT_NE(csv.find("CP_SD,scalar:lifetime_months,,61.5\n"),
              std::string::npos);
    EXPECT_NE(csv.find("CP_SD,counter:gets,,10\n"), std::string::npos);
    EXPECT_NE(csv.find("CP_SD,hit_rate,0,0.25\n"), std::string::npos);
    EXPECT_NE(csv.find("CP_SD,hit_rate,1,0.5\n"), std::string::npos);

    // Every series cell parses back bit-exactly (to_chars round-trip).
    const std::string cell = "0.25";
    double parsed = 0.0;
    ASSERT_TRUE(parseDoubleExact(cell, parsed));
    EXPECT_EQ(parsed, 0.25);
}

TEST(Metrics, WriteStatsFileDispatchesOnExtension)
{
    const std::string base =
        "/tmp/hllc_test_metrics_" + formatI64(::getpid());
    const std::string json_path = base + ".json";
    const std::string csv_path = base + ".csv";

    MetricRegistry reg;
    reg.series("mean_ipc").append(2.0);
    const std::vector<CellExport> cells = { exampleCell(&reg) };

    metrics::writeStatsFile(json_path, cells, "unit-test");
    const auto json_bytes = serial::readFileBytes(json_path);
    const std::string json(json_bytes.begin(), json_bytes.end());
    EXPECT_EQ(json, metrics::statsToJson(cells, "unit-test"));

    metrics::writeStatsFile(csv_path, cells, "unit-test");
    const auto csv_bytes = serial::readFileBytes(csv_path);
    EXPECT_EQ(std::string(csv_bytes.begin(), csv_bytes.end()),
              metrics::statsToCsv(cells));

    EXPECT_THROW(metrics::writeStatsFile(base + ".xml", cells, "x"),
                 IoError);
    EXPECT_THROW(metrics::writeStatsFile(base, cells, "x"), IoError);

    std::remove(json_path.c_str());
    std::remove(csv_path.c_str());
}

TEST(Metrics, AppendCountersCopiesGroupInNameOrder)
{
    StatGroup g("llc");
    g.counter("b_second") += 2;
    g.counter("a_first") += 1;

    CellExport cell;
    metrics::appendCounters(cell, g);
    ASSERT_EQ(cell.counters.size(), 2u);
    EXPECT_EQ(cell.counters[0].first, "a_first");
    EXPECT_EQ(cell.counters[0].second, 1u);
    EXPECT_EQ(cell.counters[1].first, "b_second");
    EXPECT_EQ(cell.counters[1].second, 2u);
}

// --------------------------------------------------------------------
// Locale independence.
// --------------------------------------------------------------------

TEST(Metrics, NumberFormattingIgnoresProcessLocale)
{
    // If a comma-decimal locale is installed, switch to it; the
    // formatter must still emit "C"-locale numbers. Without such a
    // locale the test still verifies the to_chars round-trip.
    const char *old = std::setlocale(LC_NUMERIC, nullptr);
    const std::string saved = old != nullptr ? old : "C";
    const bool de = std::setlocale(LC_NUMERIC, "de_DE.UTF-8") != nullptr;

    EXPECT_EQ(formatDouble(0.25), "0.25");
    EXPECT_EQ(formatFixed(1.5, 3), "1.500");
    EXPECT_EQ(formatU64(1234567), "1234567");

    double parsed = 0.0;
    ASSERT_TRUE(parseDoubleExact(formatDouble(1.0 / 3.0), parsed));
    EXPECT_EQ(parsed, 1.0 / 3.0);

    const std::string csv = metrics::statsToCsv({ exampleCell(nullptr) });
    EXPECT_NE(csv.find(",,61.5\n"), std::string::npos);
    EXPECT_EQ(csv.find("61,5"), std::string::npos);

    if (de)
        std::setlocale(LC_NUMERIC, saved.c_str());
}

// --------------------------------------------------------------------
// Phase timers.
// --------------------------------------------------------------------

TEST(Metrics, PhaseTimersGateOnEnabled)
{
    const bool was = metrics::PhaseTimers::enabled();
    metrics::PhaseTimers::setEnabled(false);
    metrics::PhaseTimers::reset();
    {
        metrics::ScopedPhaseTimer t(metrics::Phase::Compression);
    }
    EXPECT_EQ(metrics::PhaseTimers::calls(metrics::Phase::Compression),
              0u);
    EXPECT_EQ(metrics::PhaseTimers::report(), "");

    metrics::PhaseTimers::setEnabled(true);
    {
        metrics::ScopedPhaseTimer t(metrics::Phase::Compression);
    }
    EXPECT_EQ(metrics::PhaseTimers::calls(metrics::Phase::Compression),
              1u);
    const std::string report = metrics::PhaseTimers::report();
    EXPECT_NE(report.find("timer.compression calls=1"),
              std::string::npos);
    EXPECT_NE(report.find("timer.fault_map calls=0"),
              std::string::npos);

    metrics::PhaseTimers::reset();
    metrics::PhaseTimers::setEnabled(was);
}

// --------------------------------------------------------------------
// Replayer interval sampling.
// --------------------------------------------------------------------

replay::LlcTrace
smallTrace()
{
    return hierarchy::captureTrace(
        workload::tableVMixes()[0], 512,
        hierarchy::PrivateCacheConfig{ 1024, 4, 4096, 16 }, 4000, 21);
}

struct LlcRig
{
    std::unique_ptr<fault::EnduranceModel> endurance;
    std::unique_ptr<fault::FaultMap> map;
    std::unique_ptr<hybrid::HybridLlc> llc;
};

LlcRig
makeLlc()
{
    LlcRig rig;
    hybrid::HybridLlcConfig config;
    config.numSets = 32;
    config.sramWays = 4;
    config.nvmWays = 12;
    config.policy = hybrid::PolicyKind::CpSd;
    config.epochCycles = 10'000;

    const fault::NvmGeometry geom{ config.numSets, config.nvmWays, 64 };
    rig.endurance = std::make_unique<fault::EnduranceModel>(
        geom, fault::EnduranceParams{ 1e12, 0.0 },
        Xoshiro256StarStar(5));
    rig.map = std::make_unique<fault::FaultMap>(
        *rig.endurance,
        hybrid::InsertionPolicy::create(config.policy)->granularity());
    rig.llc = std::make_unique<hybrid::HybridLlc>(config, rig.map.get());
    return rig;
}

TEST(Metrics, ReplayIntervalsAreMonotoneAndEndOnTotals)
{
    const replay::LlcTrace trace = smallTrace();
    LlcRig rig = makeLlc();
    hybrid::HybridLlc &llc = *rig.llc;

    constexpr std::size_t intervals = 8;
    std::vector<replay::IntervalSnapshot> snaps;
    const replay::ReplayResult res = replay::TraceReplayer(0.2).replay(
        trace, llc,
        [&](const replay::IntervalSnapshot &s) { snaps.push_back(s); },
        intervals);

    ASSERT_EQ(snaps.size(), intervals);
    for (std::size_t i = 0; i < snaps.size(); ++i) {
        EXPECT_EQ(snaps[i].interval, i);
        if (i == 0)
            continue;
        // Cumulative counts never move backwards.
        EXPECT_GE(snaps[i].measuredEvents, snaps[i - 1].measuredEvents);
        EXPECT_GE(snaps[i].demandAccesses, snaps[i - 1].demandAccesses);
        EXPECT_GE(snaps[i].demandHits, snaps[i - 1].demandHits);
        EXPECT_GE(snaps[i].nvmBytesWritten,
                  snaps[i - 1].nvmBytesWritten);
    }
    // The last boundary is the last measured event: the final snapshot
    // carries exactly the replay totals.
    EXPECT_EQ(snaps.back().measuredEvents, res.measuredEvents);
    EXPECT_EQ(snaps.back().demandAccesses, res.demandAccesses);
    EXPECT_EQ(snaps.back().demandHits, res.demandHits);
    EXPECT_GT(snaps.back().demandAccesses, 0u);
}

TEST(Metrics, ReplayIntervalSeriesRecoverTotals)
{
    // The per-interval series hllc-replay exports are consecutive
    // deltas of the cumulative snapshots; they must sum back to the
    // replay totals and every per-interval hit rate must be a rate.
    const replay::LlcTrace trace = smallTrace();
    LlcRig rig = makeLlc();

    MetricRegistry reg;
    std::uint64_t prev_acc = 0, prev_hits = 0, prev_bytes = 0;
    const replay::ReplayResult res = replay::TraceReplayer(0.2).replay(
        trace, *rig.llc,
        [&](const replay::IntervalSnapshot &s) {
            const std::uint64_t d_acc = s.demandAccesses - prev_acc;
            const std::uint64_t d_hits = s.demandHits - prev_hits;
            reg.series("hit_rate").append(
                d_acc == 0 ? 0.0
                           : static_cast<double>(d_hits) /
                             static_cast<double>(d_acc));
            reg.series("nvm_bytes_written")
                .append(static_cast<double>(s.nvmBytesWritten -
                                            prev_bytes));
            reg.series("cpth_winner")
                .append(rig.llc->dueling() != nullptr
                            ? static_cast<double>(
                                  rig.llc->dueling()->winner())
                            : -1.0);
            prev_acc = s.demandAccesses;
            prev_hits = s.demandHits;
            prev_bytes = s.nvmBytesWritten;
        },
        10);

    const TimeSeries *bytes = reg.findSeries("nvm_bytes_written");
    ASSERT_NE(bytes, nullptr);
    ASSERT_EQ(bytes->size(), 10u);
    double total = 0.0;
    for (double v : bytes->values())
        total += v;
    EXPECT_EQ(static_cast<std::uint64_t>(total), res.nvmBytesWritten);

    for (double r : reg.findSeries("hit_rate")->values()) {
        EXPECT_GE(r, 0.0);
        EXPECT_LE(r, 1.0);
    }
    // CP_SD duels, so the winner series must hold real candidates.
    for (double w : reg.findSeries("cpth_winner")->values()) {
        EXPECT_GE(w, 1.0);
        EXPECT_LE(w, 64.0);
    }
}

TEST(Metrics, ReplayWithoutCallbackSkipsSampling)
{
    const replay::LlcTrace trace = smallTrace();
    LlcRig a = makeLlc();
    LlcRig b = makeLlc();

    // Sampling must not perturb the replay itself.
    std::size_t fired = 0;
    const replay::ReplayResult plain =
        replay::TraceReplayer(0.2).replay(trace, *a.llc);
    const replay::ReplayResult sampled = replay::TraceReplayer(0.2).replay(
        trace, *b.llc, [&](const replay::IntervalSnapshot &) { ++fired; },
        5);
    EXPECT_EQ(fired, 5u);
    EXPECT_EQ(plain.demandHits, sampled.demandHits);
    EXPECT_EQ(plain.demandAccesses, sampled.demandAccesses);
    EXPECT_EQ(plain.nvmBytesWritten, sampled.nvmBytesWritten);
}

} // namespace
